"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402
from mixedvem.mesh import FractureSpec  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_tiny(workload, trace, cwd):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "5000", "--seconds", "0", "--trace", str(trace),
           "--size", "tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_emitted(workload, trace, tmp_path):
    result = run_tiny(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert np.isfinite(emitted["value"])


def test_invalid_case_counts_as_failure(tmp_path):
    outside = FractureSpec(np.array([[0.5, 0.2, 0.2], [0.5, 1.4, 0.2],
                                     [0.5, 1.4, 0.8], [0.5, 0.2, 0.8]]))
    cases = [workloads.network_case("outside", workloads.network_spec([outside]), 3)]
    result = harness.run_round(cases, workdir=tmp_path)
    assert (result.attempted, result.failed) == (1, 1)
    assert result.cases[0].failures[0].startswith("ConfigError")


def test_seed_fixes_the_inputs():
    def vertices(seed):
        spec = workloads.random_network(np.random.default_rng(seed))
        return [f.vertices for f in spec.fractures]
    a, b, c = vertices(7), vertices(7), vertices(8)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))

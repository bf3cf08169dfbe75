"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload poisson-box --seed 5000 --seconds 42 --trace 0

Run from the repository root; the solver is imported from ``src/``.  BLAS and
OpenMP pools are pinned to one thread before numpy is imported.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.

An untraced run makes cold rounds of the workload, one after another, each in
a fresh process, for as long as the next one is expected to end within
``--seconds`` (at least one), and reports the median round.  A traced run
makes one round in this process.  Scratch files (exports, span dumps) go to
``.perfbench/`` in the working directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "MIXEDVEM_THREADS")
WORKLOADS = ("poisson-box", "quartic-cut", "fracture-net")
# set-up is timed in every round's process and, if that gives fewer than this
# many samples, in extra set-up-only processes; the median counts
SETUP_SAMPLES = 5
# a round's process still running this long after the run started is killed,
# failing the run
RUN_LIMIT_S = 170
WORKDIR = Path(".perfbench")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=42.0,
                   help="make cold rounds while the next is expected to end "
                        "within this many seconds (at least one round)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny: the smoke-test sizes")
    p.add_argument("--child", choices=["round", "setup"],
                   help="internal: make one round (or only the set-up) in "
                        "this process and print its raw results")
    return p.parse_args(argv)


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def set_up(args):
    """Import the solver and make the seeded inputs; return (cases, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    cases = workloads.WORKLOADS[args.workload](args.seed, tiny=args.size == "tiny")
    return cases, time.perf_counter() - t0


def run_child(args, mode, limit):
    """Raw results of one fresh process making a round (or only the set-up).

    ``limit`` is the perf_counter time by which the process must have ended.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                         timeout=max(limit - time.perf_counter(), 1.0))
    return json.loads(out.stdout.splitlines()[-1])


def child_main(args):
    """Set up, then (unless only timing the set-up) make one cold round."""
    cases, setup_s = set_up(args)
    out = {"setup_s": setup_s}
    if args.child == "round":
        import harness
        result = harness.run_round(cases, None, WORKDIR)
        out["cases"] = [dataclasses.asdict(c) for c in result.cases]
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                              / 1024.0)
    print(json.dumps(out))
    return 0


def cold_rounds(args, limit):
    """Round processes while the next is expected to end within the window."""
    deadline = time.perf_counter() + args.seconds
    children, durations = [], []
    while True:
        t0 = time.perf_counter()
        children.append(run_child(args, "round", limit))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(durations) > deadline:
            return children


def print_cases(result):
    for case in result.cases:
        sizes = " ".join(f"{k} {v}" for k, v in case.sizes.items())
        status = "ok" if not case.failures else "FAILED: " + "; ".join(case.failures)
        post = (f" postprocess_s {case.postprocess_s:.4f}"
                if case.postprocess_s is not None else "")
        print(f"case {case.label}: {sizes} time_to_solution_s "
              f"{case.time_to_solution_s:.4f}{post} {status}")


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    if not (SRC / "mixedvem").is_dir():
        print(f"no solver sources at {SRC / 'mixedvem'}", file=sys.stderr)
        return 2
    if args.child:   # before any import of the solver, which set-up times
        return child_main(args)
    sys.path.insert(0, str(SRC))
    try:
        import harness
    except ImportError as exc:
        print(f"cannot import the solver from {SRC}: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        import tracing
        cases, _ = set_up(args)
        tracer = tracing.Tracer()
        with tracer.installed():
            result = harness.run_round(cases, tracer, WORKDIR)
        values = tracer.metrics(result.time_to_solution_s())
        tracer.write(WORKDIR / f"trace-{args.workload}-{args.seed}.json", values)
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)}
                   for k, v in values.items()}
    else:
        limit = time.perf_counter() + RUN_LIMIT_S
        children = cold_rounds(args, limit)
        result = harness.WorkloadResult(
            [[harness.CaseResult(**c) for c in child["cases"]]
             for child in children])
        setups = [child["setup_s"] for child in children]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_child(args, "setup", limit)["setup_s"])
        metrics = {
            "time_to_solution_s": {"value": result.time_to_solution_s(),
                                   "unit": "s"},
            "postprocess_s": {"value": result.postprocess_s(), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                child["peak_rss_mb"] for child in children), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }

    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace} rounds {len(result.rounds)}")
    print_cases(result)
    for name, m in metrics.items():
        label = " (computed)" if args.trace and name in tracing.COMPUTED else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{label}")
    print(f"fail_rate {result.failed / result.attempted:.6g} "
          f"({result.failed} of {result.attempted} cases failed)")
    print(json.dumps({"correct": result.failed == 0,
                      "attempted": result.attempted, "failed": result.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

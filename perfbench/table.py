"""Print the per-layer baseline table of every workload from traced runs.

    python3 perfbench/table.py [--seed 5000] [--workload NAME ...]

Each workload runs twice, each time in a fresh process: untraced, for the
end-to-end time to solution, and traced, for the per-layer columns.  The
difference of the two times to solution is the tracing overhead.  The columns
match the Baseline table of ROADMAP.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from run import THREAD_VARS, WORKLOADS, pin_threads

HERE = Path(__file__).resolve().parent


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=900)
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        print(out.stdout, file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}, result


def row(workload, plain, traced, result):
    m = traced
    overhead = m["traced.time_to_solution_s"] - plain["time_to_solution_s"]
    cells = [
        workload, f"{m['mesh.cells_3d']}", f"{m['assembly.dofs']}",
        f"{m['mesh.cut_s'] + m['mesh.validate_s']:.2f} s",
        f"{m['assembly.assemble_s']:.2f} s ({m['elements.local_s']:.2f} s)",
        f"{m['assembly.bc_s']:.2f} s", f"{m['solver.solve_s']:.2f} s",
        f"{m['solver.flux_report_s']:.2f} s",
        f"{m['solver.error_norms_s']:.2f} s",
        f"{plain['time_to_solution_s']:.2f} s",
        f"{m['traced.time_to_solution_s']:.2f} s",
        f"{overhead:+.2f} s ({overhead / plain['time_to_solution_s']:+.1%})",
        f"{m['traced.unaccounted_share']:.2%}",
        f"{result['failed']}/{result['attempted']}",
    ]
    return "| " + " | ".join(cells) + " |"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=5000)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    args = p.parse_args(argv)
    pin_threads()
    import numpy
    import scipy

    print("| workload | 3D cells | DOFs | cut+validate | assemble (local mats) "
          "| BC | solve | flux report | error norms | time to solution "
          "| traced | tracing overhead | unaccounted | failed |")
    print("|" + "---|" * 14)
    for workload in args.workload or WORKLOADS:
        plain, _ = run(workload, args.seed, 0)
        traced, result = run(workload, args.seed, 1)
        print(row(workload, plain, traced, result), flush=True)
    print()
    print(f"seed {args.seed}; numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, python {sys.version.split()[0]}")
    print(f"nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))}); "
          f"threads pinned: " + ", ".join(f"{v}=1" for v in THREAD_VARS))
    return 0


if __name__ == "__main__":
    sys.exit(main())

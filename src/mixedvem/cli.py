"""Command-line front end.

Commands: run, list-builtins, validate-mesh.  ``run`` accepts a YAML config
path or a built-in benchmark name (``problems.BUILTINS``).  Either one gives
one ``config.RunOutcome``, which ``run`` records the same way: it writes
``manifest.json`` (checks, files written, stage timings, DOF counts of a
single solve), prints the summary, and exits non-zero when a check failed.
MIXEDVEM_THREADS caps the BLAS thread pools (set before heavy imports).
"""

from __future__ import annotations

import argparse
import os
import sys


def _apply_thread_env():
    n = os.environ.get("MIXEDVEM_THREADS")
    if n:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, n)


def build_parser():
    ap = argparse.ArgumentParser(prog="mixedvem",
                                 description="Mixed virtual element solver for "
                                             "Darcy flow in fractured media")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a config file or built-in benchmark")
    run.add_argument("problem", help="YAML config path or built-in name")
    run.add_argument("--output-dir", default=".")
    run.add_argument("--tolerance", type=float, default=None)
    run.add_argument("--order", type=int, default=None)
    run.add_argument("--family3d", choices=["RT", "BDM"], default=None)

    sub.add_parser("list-builtins", help="list built-in benchmark names")

    vm = sub.add_parser("validate-mesh", help="conformity-check a mesh file")
    vm.add_argument("mesh", help="mesh file path")
    return ap


def main(argv=None):
    _apply_thread_env()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-builtins":
            return cmd_list_builtins()
        if args.command == "validate-mesh":
            return cmd_validate_mesh(args)
        return cmd_run(args)
    except Exception as exc:  # surface stage-labelled failures with exit code
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_list_builtins():
    from .problems import list_builtins
    for name in list_builtins():
        print(name)
    return 0


def cmd_validate_mesh(args):
    from .mesh import (MixedDimensionalMesh, NetworkSpec, build_domain_graph,
                       read_mesh, validate_conformity)
    mesh = read_mesh(args.mesh)
    md = MixedDimensionalMesh(mesh3d=mesh, spec=NetworkSpec(fractures=[]),
                              fractures=[], traces=[], intersections=[],
                              graph=build_domain_graph([], [], []),
                              eps=1e-9 * mesh.domain_diameter())
    report = validate_conformity(md)
    if report:
        for line in report:
            print(line)
        return 1
    print(f"mesh ok: {len(mesh.cells)} cells, {len(mesh.faces)} faces, "
          f"{len(mesh.verts)} vertices")
    return 0


def cmd_run(args):
    """Run a built-in or a config file into one outcome; write its manifest
    and print its summary.  Exit code 0 when every check passed."""
    from .config import StageTimer
    from .problems import BUILTINS, run_config

    os.makedirs(args.output_dir, exist_ok=True)
    timer = StageTimer()
    outcome = BUILTINS.get(args.problem, run_config)(args, timer)
    path = os.path.join(args.output_dir, "manifest.json")
    outcome.write_manifest(path, timer.timings)
    print(outcome.summary)
    print(f"wrote {path}")
    return 0 if outcome.ok else 1


if __name__ == "__main__":
    sys.exit(main())

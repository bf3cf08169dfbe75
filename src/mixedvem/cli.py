"""Command-line front end.

Commands: run, list-builtins, validate-mesh, convergence.  ``run`` accepts a
YAML config path or a built-in benchmark name and exits non-zero when any
validator or acceptance check fails.  MIXEDVEM_THREADS caps the BLAS thread
pools (set before heavy imports).
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

    cv = sub.add_parser("convergence", help="manufactured-solution rate sweep")
    cv.add_argument("config", nargs="?", default=None,
                    help="optional YAML config supplying order/family")
    cv.add_argument("--levels", type=int, default=3,
                    help="number of refinement levels (grids 2,4,6,...)")
    cv.add_argument("--orders", default="0,1")
    cv.add_argument("--output-dir", default=".")
    return ap


def main(argv=None):
    _apply_thread_env()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-builtins":
            return cmd_list_builtins()
        if args.command == "validate-mesh":
            return cmd_validate_mesh(args)
        if args.command == "convergence":
            return cmd_convergence(args)
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


def cmd_convergence(args):
    from .config import load_config
    from .problems import convergence_sweep

    orders = tuple(int(t) for t in args.orders.split(","))
    family = "RT"
    if args.config:
        cfg = load_config(args.config)
        family = cfg.family3d
        if cfg.order is not None:
            orders = (cfg.order,)
    levels = tuple(2 * (i + 1) for i in range(args.levels))
    table = convergence_sweep(orders=orders, levels=levels, family3d=family)
    os.makedirs(args.output_dir, exist_ok=True)
    out = os.path.join(args.output_dir, "convergence.csv")
    ok = True
    with open(out, "w") as fh:
        fh.write("order,level,e_p,e_u,e_div,rate_p,rate_u,rate_div,exact\n")
        for k, row in table.items():
            want_p, want_u = row_orders(k, family)
            for n, e in zip(row["levels"], row["errors"]):
                fh.write(f"{k},{n},{e[0]:.6e},{e[1]:.6e},{e[2]:.6e},"
                         f"{row['rates'][0]:.3f},{row['rates'][1]:.3f},"
                         f"{row['rates'][2]:.3f},{row['exact'][0]}\n")
            if not row["exact"][0] and abs(row["rates"][0] - want_p) > 0.2:
                ok = False
            if not row["exact"][1] and abs(row["rates"][1] - want_u) > 0.2:
                ok = False
            print(f"order {k}: rates p={row['rates'][0]:.3f} "
                  f"u={row['rates'][1]:.3f} div={row['rates'][2]:.3f}")
    print(f"wrote {out}")
    return 0 if ok else 1


def row_orders(k, family):
    kg = k if family == "RT" else k - 1
    return kg + 1, k + 1


def cmd_run(args):
    from .config import RunManifest, StageTimer
    from .problems import list_builtins

    os.makedirs(args.output_dir, exist_ok=True)
    manifest = RunManifest()
    timer = StageTimer(manifest)
    if args.problem in list_builtins():
        code = run_builtin(args, manifest, timer)
    else:
        code = run_config(args, manifest, timer)
    path = os.path.join(args.output_dir, "manifest.json")
    manifest.status = "ok" if code == 0 else "failed"
    manifest.write(path)
    print(f"wrote {path}")
    return code


def _record_dofs(manifest, dofmap):
    manifest.dof_counts = {str(d): {"flux": u, "pressure": p}
                           for d, (u, p) in sorted(dofmap.counts().items(),
                                                   reverse=True)}
    manifest.total_dofs = dofmap.total


def run_config(args, manifest, timer):
    from .assembly import apply_boundary_conditions, assemble_complete
    from .config import load_config
    from .mesh import cut_background_mesh, validate_conformity
    from .solver import flux_report, solve, write_fields_vtk

    cfg = load_config(args.problem)
    manifest.add_input("config", cfg.raw_text)
    if args.order is not None:
        cfg.order = args.order
    if args.family3d is not None:
        cfg.family3d = args.family3d
    if args.tolerance is not None:
        cfg.solver_tol = args.tolerance

    timer.start("mesh")
    mesh = cfg.build_mesh()
    if cfg.mesh_path:
        with open(cfg.mesh_path, "rb") as fh:
            manifest.add_input("mesh", fh.read())
    eps = cfg.eps_factor * mesh.domain_diameter() if cfg.eps_factor else None
    md = cut_background_mesh(mesh, cfg.spec, eps=eps)
    report = validate_conformity(md)
    timer.stop()
    if report:
        for line in report:
            print(f"conformity: {line}", file=sys.stderr)
        return 1

    timer.start("assembly")
    system = assemble_complete(md, cfg.order, family3d=cfg.family3d,
                               trace_flow=cfg.trace_flow,
                               quad_order=cfg.quad_order)
    apply_boundary_conditions(system)
    _record_dofs(manifest, system.dofmap)
    timer.stop()

    if "matrix" in cfg.outputs:
        path = os.path.join(args.output_dir, "system.coo")
        system.export_coo(path)
        manifest.outputs.append(path)

    timer.start("solve")
    sol = solve(system, tol=cfg.solver_tol)
    manifest.residual = sol.residual
    timer.stop()

    timer.start("post")
    if "fluxes" in cfg.outputs:
        rep = flux_report(sol)
        path = os.path.join(args.output_dir, "fluxes.txt")
        rep.write(path)
        manifest.outputs.append(path)
        manifest.checks["max_relative_flux_mismatch"] = rep.max_relative_mismatch()
    if "fields" in cfg.outputs:
        path = os.path.join(args.output_dir, "fields.vtk")
        write_fields_vtk(sol, path)
        manifest.outputs.append(path)
    timer.stop()
    return 0


def run_builtin(args, manifest, timer):
    from .solver import (error_norms, flux_report, relative_errors,
                         write_error_table, write_fields_vtk)

    name = args.problem
    out = args.output_dir
    if name == "problem1_quartic":
        from .problems import (PROBLEM1_CHART, problem1_case,
                               problem1_chart_values)
        order = args.order if args.order is not None else 4
        family = args.family3d or "RT"
        timer.start("mesh")
        case = problem1_case(order=order, family3d=family)
        timer.stop()
        timer.start("solve")
        sol = case.solve(tol=args.tolerance or 1e-10)
        timer.stop()
        _record_dofs(manifest, sol.dofmap)
        manifest.residual = sol.residual
        norms = error_norms(sol, case.exact)
        rel = relative_errors(norms)
        write_error_table(norms, os.path.join(out, "errors.csv"))
        rep = flux_report(sol)
        rep.write(os.path.join(out, "fluxes.txt"))
        write_fields_vtk(sol, os.path.join(out, "fields.vtk"))
        manifest.outputs += [os.path.join(out, p)
                             for p in ("errors.csv", "fluxes.txt", "fields.vtk")]
        worst = max(max(v) for k, v in rel.items() if isinstance(k, tuple))
        manifest.checks["worst_relative_error"] = worst
        manifest.checks["max_relative_flux_mismatch"] = rep.max_relative_mismatch()
        chart_ok = True
        if order >= 4:
            vals = problem1_chart_values(rep)
            for key, want in PROBLEM1_CHART.items():
                got = vals[key]
                seq = got if isinstance(got, list) else [got]
                if any(abs(g - want) > 1e-8 * want for g in seq):
                    chart_ok = False
            manifest.checks["flux_chart_ok"] = chart_ok
        exact_expected = order >= 4
        print(f"problem1_quartic: worst relative error {worst:.3e}, "
              f"flux mismatch {manifest.checks['max_relative_flux_mismatch']:.3e}")
        if exact_expected and (worst > 1e-8 or not chart_ok):
            return 1
        return 0
    if name == "problem2_finite_eta":
        from .problems import problem2_summary
        timer.start("solve")
        s = problem2_summary(order=args.order if args.order is not None else 1)
        timer.stop()
        path = os.path.join(out, "problem2.txt")
        with open(path, "w") as fh:
            fh.write(f"inflow_continuity {s['inflow_continuity']:.12e}\n")
            fh.write(f"inflow_finite {s['inflow_finite']:.12e}\n")
            fh.write(f"ratio {s['ratio']:.6f}\n")
            fh.write(f"jump_low_eta {s['jump_low_eta']:.12e}\n")
            fh.write(f"jump_high_eta {s['jump_high_eta']:.12e}\n")
        manifest.outputs.append(path)
        manifest.checks["inflow_ratio"] = s["ratio"]
        print(f"problem2_finite_eta: ratio {s['ratio']:.3f}, jumps "
              f"{s['jump_low_eta']:.3f} > {s['jump_high_eta']:.5f}")
        ok = s["ratio"] > 1.5 and s["jump_low_eta"] > s["jump_high_eta"]
        return 0 if ok else 1
    if name == "convergence_sweep":
        ns = argparse.Namespace(config=None, levels=3, orders="0,1",
                                output_dir=out)
        return cmd_convergence(ns)
    if name == "patch_tests":
        from .problems import patch_tests
        timer.start("solve")
        res = patch_tests()
        timer.stop()
        path = os.path.join(out, "patch_tests.csv")
        ok = True
        with open(path, "w") as fh:
            fh.write("case,e_p,e_u,e_div\n")
            for label, v in res.items():
                fh.write(f"{label},{v[0]:.3e},{v[1]:.3e},{v[2]:.3e}\n")
                if max(v) > 1e-9:
                    ok = False
        manifest.outputs.append(path)
        print(f"patch_tests: {'pass' if ok else 'FAIL'} ({len(res)} cases)")
        return 0 if ok else 1
    raise SystemExit(f"unknown builtin {name!r}")


if __name__ == "__main__":
    sys.exit(main())

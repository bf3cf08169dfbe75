"""Built-in benchmark problems and their manufactured data.

The module also holds the runs behind ``mixedvem run``: ``BUILTINS`` maps
each built-in name to its run function, ``run_config`` runs a config file,
and ``solve_and_report`` is the pipeline of every single-solve run.

The quartic benchmark drives the full mixed-dimensional pipeline: the 3D box
[-1,1]^3 with the three axis-plane fractures, their three traces along the
coordinate axes and the single trace intersection at the origin.  Pressure

    P = (1+|x|)^4 + (1+|y|)^4 + (1+|z|)^4

is continuous everywhere (infinite normal transmissivity) and the loadings
of every domain follow from the flux-exchange balance; its kinks lie on the
fracture planes, so any mesh conforming to the coordinate planes keeps the
solution piecewise polynomial and an order-4 discretization reproduces it to
machine precision.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .assembly import apply_boundary_conditions, assemble_complete
from .config import RunOutcome, load_config
from .elements import ElementSpace
from .errors import ConfigError
from .mesh import (BOX_TAGS, BoundaryCondition, FractureSpec, IntersectionData,
                   NetworkSpec, TraceData, box_mesh, cut_background_mesh,
                   validate_conformity)
from .solver import (ExactFields, boundary_face_fluxes, error_norms,
                     flux_report, relative_errors, solve, write_error_table,
                     write_fields_vtk)
from .standalone import interval_mesh, solve_single_domain, unit_square_mesh


# ---------------------------------------------------------------------------
# Problem 1: quartic exact solution on the triple-fracture cross
# ---------------------------------------------------------------------------

A3, A2, A1 = 1.0, 2.0, 4.0


def quartic_pressure(x):
    return (1 + abs(x[0])) ** 4 + (1 + abs(x[1])) ** 4 + (1 + abs(x[2])) ** 4


def _dP(t):
    return 4.0 * (1 + abs(t)) ** 3 * np.sign(t)


def _d2P(t):
    return 12.0 * (1 + abs(t)) ** 2


def quartic_velocity3(x):
    return -A3 * np.array([_dP(x[0]), _dP(x[1]), _dP(x[2])])


def quartic_div3(x):
    return -A3 * (_d2P(x[0]) + _d2P(x[1]) + _d2P(x[2]))


def _fracture_fields(axis):
    """Exact data on the fracture whose plane normal is the given axis."""
    others = [i for i in range(3) if i != axis]

    def velocity(x):
        v = np.zeros((3,) + np.shape(x[0]))
        for i in others:
            v[i] = -A2 * _dP(x[i])
        return v

    def div(x):
        return -A2 * sum(_d2P(x[i]) for i in others)

    def source(x):
        # in-plane divergence minus the physical flux received from the matrix
        jump_in = 2.0 * A3 * 4.0   # both sides contribute a3 * dP/dn(0+) = 4
        return div(x) - jump_in
    return velocity, div, source


def _trace_fields(axis):
    """Exact data on the trace running along the given coordinate axis."""

    def velocity(x):
        v = np.zeros((3,) + np.shape(x[0]))
        v[axis] = -A1 * _dP(x[axis])
        return v

    def div(x):
        return -A1 * _d2P(x[axis])

    def source(x):
        # two adjacent fractures each deliver 2 * a2 * dP/dn(0+) = 16
        return div(x) - 2.0 * (2.0 * A2 * 4.0)
    return velocity, div, source


@dataclass
class BenchmarkCase:
    md: object
    exact: dict
    order: int
    family3d: str

    def solve(self, tol=1e-10):
        system = assemble_complete(self.md, self.order, family3d=self.family3d)
        apply_boundary_conditions(system)
        return solve(system, tol=tol)


def problem1_case(subdivisions=(2, 2, 2), order=4, family3d="RT",
                  artificial_cuts=0) -> BenchmarkCase:
    """The quartic benchmark on an even grid of [-1,1]^3.

    ``artificial_cuts`` applies that many oblique non-physical cuts first,
    roughening the mesh into general polyhedra with hanging faces; the exact
    solution stays piecewise polynomial because cells never cross the
    coordinate planes.
    """
    if any(n % 2 for n in subdivisions):
        raise ConfigError("the quartic benchmark needs even subdivisions so the "
                          "mesh conforms to the coordinate planes")
    bc_p = BoundaryCondition("dirichlet", quartic_pressure)
    fractures = []
    for axis in (2, 1, 0):   # z=0, y=0, x=0 planes
        pts = []
        for u, v in [(-1, -1), (1, -1), (1, 1), (-1, 1)]:
            p = [0.0, 0.0, 0.0]
            p[(axis + 1) % 3] = u
            p[(axis + 2) % 3] = v
            pts.append(p)
        _, _, src = _fracture_fields(axis)
        fractures.append(FractureSpec(np.array(pts), a2=A2, inverse_eta2=0.0,
                                      bc=bc_p, source=src))
    spec = NetworkSpec(
        fractures=fractures, a3=A3, source3=quartic_div3,
        bc3={t: bc_p for t in BOX_TAGS},
        trace_defaults=TraceData(a1=A1, inverse_eta1=0.0, bc=bc_p),
        intersection_defaults=IntersectionData(
            inverse_eta0=0.0, bc=BoundaryCondition("dirichlet", quartic_pressure)))
    mesh = box_mesh([-1, -1, -1], [1, 1, 1], subdivisions)
    if artificial_cuts:
        from .mesh import cut_with_fracture
        rng = np.random.default_rng(2024)
        for _ in range(artificial_cuts):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            c = rng.uniform(-0.5, 0.5, 3)
            t1 = np.cross(n, [0.3, 1.0, 0.2])
            t1 /= np.linalg.norm(t1)
            t2 = np.cross(n, t1)
            # an oversized planar rectangle acts as a full-plane cut
            pts = np.array([c + 4 * t1, c + 4 * t2, c - 4 * t1, c - 4 * t2])
            cut_with_fracture(mesh, FractureSpec(pts), 0, physical=False)
    md = cut_background_mesh(mesh, spec)

    # per-trace data: the source depends on the trace axis
    for tm in md.traces:
        axis = int(np.argmax(np.abs(tm.tangent)))
        _, _, src = _trace_fields(axis)
        spec.trace_overrides[tm.index] = TraceData(a1=A1, inverse_eta1=0.0,
                                                   bc=bc_p, source=src)

    exact = {(3, 0): ExactFields(quartic_pressure, quartic_velocity3, quartic_div3)}
    for l, fm in enumerate(md.fractures):
        axis = int(np.argmax(np.abs(fm.plane.normal)))
        vel, div, _ = _fracture_fields(axis)
        exact[(2, l)] = ExactFields(quartic_pressure, vel, div)
    for tm in md.traces:
        axis = int(np.argmax(np.abs(tm.tangent)))
        vel, div, _ = _trace_fields(axis)
        exact[(1, tm.index)] = ExactFields(quartic_pressure, vel, div)
    return BenchmarkCase(md=md, exact=exact, order=order, family3d=family3d)


# Paper flux-chart values of the quartic benchmark, all analytic:
#   |bc| per dimension, |source| (3D/2D: loading; 1D: divergence content),
#   matrix->fracture, fracture->trace, trace->intersection, intersection total.
PROBLEM1_CHART = {
    "bc_3d": 768.0, "source_3d": 672.0, "matrix_to_fracture": 32.0,
    "bc_fracture": 512.0, "source_fracture": 480.0, "fracture_to_trace": 32.0,
    "bc_trace": 256.0, "divergence_trace": 224.0, "trace_to_intersection": 32.0,
    "intersection_total": 96.0,
}


def problem1_chart_values(report):
    """Extract the chart quantities (absolute values) from a FluxReport."""
    e3 = report.entity(3, 0)
    out = {"bc_3d": abs(e3.bc_flux), "source_3d": abs(e3.source)}
    out["matrix_to_fracture"] = [abs(v) for v in e3.sent.values()]
    out["bc_fracture"] = []
    out["source_fracture"] = []
    out["fracture_to_trace"] = []
    out["bc_trace"] = []
    out["divergence_trace"] = []
    out["trace_to_intersection"] = []
    inter_total = 0.0
    for key, e in report.entities.items():
        d = key[0]
        if d == 2:
            out["bc_fracture"].append(abs(e.bc_flux))
            out["source_fracture"].append(abs(e.source))
            out["fracture_to_trace"].extend(abs(v) for v in e.sent.values())
        elif d == 1:
            out["bc_trace"].append(abs(e.bc_flux))
            out["divergence_trace"].append(abs(e.divergence))
            out["trace_to_intersection"].extend(abs(v) for v in e.sent.values())
        elif d == 0:
            inter_total += abs(e.bc_flux) if e.pinned else abs(sum(e.received.values()))
    out["intersection_total"] = inter_total
    return out


# ---------------------------------------------------------------------------
# Problem 2 (scaled): finite normal transmissivity vs. pressure continuity
# ---------------------------------------------------------------------------


def problem2_case(inverse_eta=1.0, eta_overrides=None, order=1,
                  subdivisions=(4, 2, 2)) -> BenchmarkCase:
    """Scaled-down finite-eta configuration: 4 fractures, 5 traces, 2 points.

    Domain [-2,2]x[-1,1]^2; two full cross-section fractures at x=-1 and x=1
    bridged by two half-depth fractures on z=0 and y=0.  Pressure driven from
    x=2 (P=2) to x=-2 (P=-2); all other boundaries are no-flow.
    """
    neu = BoundaryCondition("neumann")

    def rect(points):
        return np.array(points, dtype=float)

    full1 = rect([[-1, -1, -1], [-1, 1, -1], [-1, 1, 1], [-1, -1, 1]])
    full4 = rect([[1, -1, -1], [1, 1, -1], [1, 1, 1], [1, -1, 1]])
    mid2 = rect([[-1, -1, 0], [1, -1, 0], [1, 1, 0], [-1, 1, 0]])
    mid3 = rect([[-1, 0, -1], [1, 0, -1], [1, 0, 1], [-1, 0, 1]])
    etas = {0: inverse_eta, 1: inverse_eta, 2: inverse_eta, 3: inverse_eta}
    if eta_overrides:
        etas.update(eta_overrides)
    fractures = [
        FractureSpec(full1, a2=100.0, inverse_eta2=etas[0], bc=neu),
        FractureSpec(mid2, a2=100.0, inverse_eta2=etas[1], bc=neu),
        FractureSpec(mid3, a2=100.0, inverse_eta2=etas[2], bc=neu),
        FractureSpec(full4, a2=100.0, inverse_eta2=etas[3], bc=neu),
    ]
    bc3 = {t: neu for t in BOX_TAGS}
    bc3["xmin"] = BoundaryCondition("dirichlet", -2.0)
    bc3["xmax"] = BoundaryCondition("dirichlet", 2.0)
    spec = NetworkSpec(
        fractures=fractures, a3=1.0, source3=0.0, bc3=bc3,
        trace_defaults=TraceData(a1=1e4, inverse_eta1=inverse_eta, bc=neu),
        intersection_defaults=IntersectionData(inverse_eta0=inverse_eta))
    mesh = box_mesh([-2, -1, -1], [2, 1, 1], subdivisions)
    md = cut_background_mesh(mesh, spec)
    return BenchmarkCase(md=md, exact={}, order=order, family3d="RT")


def boundary_flux_by_tag(sol):
    """Signed boundary flux integral per 3D boundary tag."""
    blk = sol.dofmap.block(3)
    out = {}
    for (*_, tag), flux in zip(blk.boundary, boundary_face_fluxes(sol, blk)):
        out[tag] = out.get(tag, 0.0) + flux
    return out


def fracture_pressure_jump(sol, l):
    """Mean |p3(+side) - p3(-side)| over the fracture's faces."""
    dm, md = sol.dofmap, sol.md
    blk3 = dm.block(3)
    fm = md.fractures[l]
    total, area = 0.0, 0.0
    for cell in fm.cells:
        center = fm.plane.to_3d(cell.geometry.centroid[None, :])[0]
        vals = []
        for cid in (cell.cell_plus, cell.cell_minus):
            ci = blk3.cell_index_of[cid]
            loc = blk3.locals_[ci]
            vals.append(float(loc.basis_p.evaluate(center[None, :])[0]
                              @ sol.x[blk3.cell_p_dofs[ci]]))
        a = cell.geometry.measure
        total += abs(vals[0] - vals[1]) * a
        area += a
    return total / area


def problem2_summary(order=1, inverse_eta=1.0):
    """Run the continuity and finite-eta variants; return the comparison."""
    case_fin = problem2_case(inverse_eta=inverse_eta, order=order)
    sol_fin = case_fin.solve()
    case_cont = problem2_case(inverse_eta=0.0, order=order)
    sol_cont = case_cont.solve()
    inflow_fin = -boundary_flux_by_tag(sol_fin)["xmax"]
    inflow_cont = -boundary_flux_by_tag(sol_cont)["xmax"]
    # one run with strongly differing per-fracture transmissivities
    case_mix = problem2_case(inverse_eta=inverse_eta, order=order,
                             eta_overrides={0: 10.0, 3: 1e-3})
    sol_mix = case_mix.solve()
    jump_low = fracture_pressure_jump(sol_mix, 0)    # low eta: barrier
    jump_high = fracture_pressure_jump(sol_mix, 3)   # high eta: transparent
    return {
        "inflow_continuity": inflow_cont,
        "inflow_finite": inflow_fin,
        "ratio": inflow_cont / inflow_fin,
        "jump_low_eta": jump_low,
        "jump_high_eta": jump_high,
        "report_finite": flux_report(sol_fin),
        "report_continuity": flux_report(sol_cont),
    }


# ---------------------------------------------------------------------------
# Convergence sweep (3D Poisson with a smooth non-polynomial solution)
# ---------------------------------------------------------------------------


def _sine_fields():
    k = np.pi

    def P(x):
        return np.sin(k * x[0]) * np.sin(k * x[1]) * np.sin(k * x[2])

    def U(x):
        s = [np.sin(k * t) for t in x]
        c = [np.cos(k * t) for t in x]
        return -k * np.array([c[0] * s[1] * s[2], s[0] * c[1] * s[2],
                              s[0] * s[1] * c[2]])

    def DIV(x):
        return 3 * k * k * P(x)
    return P, U, DIV


def poisson3d_case(n, order, family3d="RT", fields=None):
    P, U, DIV = fields if fields is not None else _sine_fields()
    bc = {t: BoundaryCondition("dirichlet", P) for t in BOX_TAGS}
    spec = NetworkSpec(fractures=[], a3=1.0, source3=DIV, bc3=bc)
    mesh = box_mesh([0, 0, 0], [1, 1, 1], (n, n, n))
    md = cut_background_mesh(mesh, spec)
    case = BenchmarkCase(md=md, exact={(3, 0): ExactFields(P, U, DIV)},
                         order=order, family3d=family3d)
    return case


def convergence_sweep(orders=(0, 1), levels=(2, 4, 6), family3d="RT",
                      fields=None):
    """Observed L2 orders for pressure/flux/divergence by log-log regression.

    A polynomial solution of matching degree yields machine-precision errors
    on every level; such rows are flagged "exact" instead of fitting a rate.
    """
    if len(levels) < 3:
        raise ConfigError("need at least 3 refinement levels")
    table = {}
    for k in orders:
        errs = []
        for n in levels:
            case = poisson3d_case(n, k, family3d, fields=fields)
            sol = case.solve()
            rel = relative_errors(error_norms(sol, case.exact))[(3, 0)]
            errs.append(rel)
        errs = np.array(errs)
        hs = 1.0 / np.asarray(levels, dtype=float)
        rates = []
        exact_flags = []
        for j in range(3):
            if np.all(errs[:, j] < 1e-10):
                rates.append(np.inf)
                exact_flags.append(True)
            else:
                slope = np.polyfit(np.log(hs), np.log(errs[:, j]), 1)[0]
                rates.append(float(slope))
                exact_flags.append(False)
        table[k] = {"errors": errs, "levels": list(levels), "rates": rates,
                    "exact": exact_flags}
    return table


# ---------------------------------------------------------------------------
# Patch tests on single-dimension domains
# ---------------------------------------------------------------------------


def _poly_fields(dim, degree, a=1.0):
    """P = (c0 + c.x)^degree with flux -a grad P; works for any dimension,
    at one point or on coordinate rows."""
    c0 = 0.37
    c = np.array([1.0, 0.6, -0.4][:dim])

    def s(x):
        return c0 + c @ np.atleast_1d(x)[:dim]

    def P(x):
        return s(x) ** degree

    def U(x):
        if degree == 0:
            return np.zeros(3)
        g = degree * s(x) ** (degree - 1)
        out = np.zeros((3,) + np.shape(g))
        out[:dim] = -a * np.multiply.outer(c, g)
        return out

    def DIV(x):
        if degree <= 1:
            return 0.0
        return -a * degree * (degree - 1) * s(x) ** (degree - 2) * float(c @ c)
    return P, U, DIV


def patch_tests(orders=(0, 1, 2), families3d=("RT", "BDM")):
    """Polynomial exactness on 1D, 2D and 3D single-dimension domains.

    Returns {label: (e_p, e_u, e_div)} of relative errors; every entry is
    expected at machine precision.
    """
    results = {}
    a = 2.5
    for k in orders:
        for d, cells in ((1, interval_mesh(0.0, 1.0, 4)),
                         (2, unit_square_mesh(3, distort=0.04, seed=k + 1))):
            P, U, DIV = _poly_fields(d, k, a)
            sol = solve_single_domain(cells, ElementSpace(d, k), nu=1 / a,
                                      source=DIV, dirichlet=P)
            exact = {(d, 0): ExactFields(P, U, DIV)}
            results[f"{d}D_RT{k}"] = relative_errors(error_norms(sol, exact))[(d, 0)]

        for fam in families3d:
            if fam == "BDM" and k == 0:
                continue
            space3 = ElementSpace(3, k, fam)
            P, U, DIV = _poly_fields(3, space3.grad_order, a)
            bc = {t: BoundaryCondition("dirichlet", P) for t in BOX_TAGS}
            spec = NetworkSpec(fractures=[], a3=a, source3=DIV, bc3=bc)
            mesh = box_mesh([0, 0, 0], [1, 1, 1], (2, 2, 2))
            md = cut_background_mesh(mesh, spec)
            case = BenchmarkCase(md=md, exact={(3, 0): ExactFields(P, U, DIV)},
                                 order=k, family3d=fam)
            sol3 = case.solve()
            rel = relative_errors(error_norms(sol3, case.exact))[(3, 0)]
            results[f"3D_{fam}{k}"] = rel
    return results


# ---------------------------------------------------------------------------
# The runs behind ``mixedvem run``: each takes the ``run`` options (``args``:
# problem, output_dir, order, family3d, tolerance; None where not given) and
# a ``config.StageTimer``, and returns one ``config.RunOutcome``.
# ---------------------------------------------------------------------------


def solve_and_report(md, order, family3d, out_dir, timer,
                     outputs=("fluxes", "fields"), tol=1e-10, trace_flow=True):
    """validate_conformity -> assemble_complete -> apply_boundary_conditions
    -> solve -> flux_report, then the files named in ``outputs`` ("matrix",
    "fluxes", "fields").  Returns the outcome, failed only for a
    nonconforming mesh, and the flux report (None then)."""
    with timer("mesh"):
        faults = validate_conformity(md)
    if faults:
        return RunOutcome(False, "\n".join(f"conformity: {f}" for f in faults),
                          {"conformity_faults": len(faults)}), None
    with timer("assembly"):
        system = assemble_complete(md, order, family3d=family3d,
                                   trace_flow=trace_flow)
        apply_boundary_conditions(system)
    files = []
    if "matrix" in outputs:
        files.append(os.path.join(out_dir, "system.coo"))
        system.export_coo(files[-1])
    with timer("solve"):
        sol = solve(system, tol=tol)
    with timer("post"):
        report = flux_report(sol)
        if "fluxes" in outputs:
            files.append(os.path.join(out_dir, "fluxes.txt"))
            report.write(files[-1])
        if "fields" in outputs:
            files += write_fields_vtk(sol, os.path.join(out_dir, "fields.vtk"))
    checks = {"max_relative_flux_mismatch": report.max_relative_mismatch()}
    return RunOutcome(True, "", checks, files, sol), report


def run_config(args, timer):
    """Run the config file ``args.problem``; the order, family and tolerance
    options override its values when set."""
    cfg = load_config(args.problem)
    if args.order is not None:
        cfg.order = args.order
    if args.family3d is not None:
        cfg.family3d = args.family3d
    if args.tolerance is not None:
        cfg.solver_tol = args.tolerance
    with timer("mesh"):
        mesh = cfg.build_mesh()
        eps = cfg.eps_factor * mesh.domain_diameter() if cfg.eps_factor else None
        md = cut_background_mesh(mesh, cfg.spec, eps=eps)
    outcome, _ = solve_and_report(md, cfg.order, cfg.family3d, args.output_dir,
                                  timer, outputs=cfg.outputs, tol=cfg.solver_tol,
                                  trace_flow=cfg.trace_flow)
    outcome.inputs["config"] = cfg.raw_text
    if cfg.mesh_path:
        with open(cfg.mesh_path, "rb") as fh:
            outcome.inputs["mesh"] = fh.read()
    if outcome.ok:
        mismatch = outcome.checks["max_relative_flux_mismatch"]
        outcome.summary = (f"{args.problem}: {outcome.solution.dofmap.total} "
                           f"DOFs, flux mismatch {mismatch:.3e}")
    return outcome


def run_problem1_quartic(args, timer):
    """Order 4 (the default) must reproduce the quartic and the flux chart
    to 1e-8 relative; lower orders only report their errors."""
    order = 4 if args.order is None else args.order
    with timer("mesh"):
        case = problem1_case(order=order, family3d=args.family3d or "RT")
    outcome, report = solve_and_report(case.md, order, case.family3d,
                                       args.output_dir, timer,
                                       tol=args.tolerance or 1e-10)
    if report is None:
        return outcome
    with timer("post"):
        norms = error_norms(outcome.solution, case.exact)
        path = os.path.join(args.output_dir, "errors.csv")
        write_error_table(norms, path)
    outcome.outputs.append(path)
    worst = max(max(v) for k, v in relative_errors(norms).items()
                if isinstance(k, tuple))
    checks = outcome.checks
    checks["worst_relative_error"] = worst
    if order >= 4:
        values = problem1_chart_values(report)
        checks["flux_chart_ok"] = all(
            abs(got - want) <= 1e-8 * want
            for key, want in PROBLEM1_CHART.items()
            for got in np.atleast_1d(values[key]))
        outcome.ok = worst <= 1e-8 and checks["flux_chart_ok"]
    outcome.summary = (f"problem1_quartic: worst relative error {worst:.3e}, "
                       f"flux mismatch {checks['max_relative_flux_mismatch']:.3e}")
    return outcome


def run_problem2_finite_eta(args, timer):
    """Finite eta must cut the inflow of the continuity limit by more than
    1.5x, and the low-eta fracture must hold the larger pressure jump."""
    with timer("solve"):
        s = problem2_summary(order=1 if args.order is None else args.order)
    path = os.path.join(args.output_dir, "problem2.txt")
    with open(path, "w") as fh:
        fh.write(f"inflow_continuity {s['inflow_continuity']:.12e}\n")
        fh.write(f"inflow_finite {s['inflow_finite']:.12e}\n")
        fh.write(f"ratio {s['ratio']:.6f}\n")
        fh.write(f"jump_low_eta {s['jump_low_eta']:.12e}\n")
        fh.write(f"jump_high_eta {s['jump_high_eta']:.12e}\n")
    checks = {"inflow_ratio": s["ratio"], "jump_low_eta": s["jump_low_eta"],
              "jump_high_eta": s["jump_high_eta"]}
    return RunOutcome(
        s["ratio"] > 1.5 and s["jump_low_eta"] > s["jump_high_eta"],
        f"problem2_finite_eta: ratio {s['ratio']:.3f}, jumps "
        f"{s['jump_low_eta']:.3f} > {s['jump_high_eta']:.5f}", checks, [path])


def run_convergence_sweep(args, timer):
    """Orders 0 and 1 (or ``--order``) on grids 2, 4, 6: each fitted
    pressure and flux rate must be within 0.2 of the optimal one."""
    family = args.family3d or "RT"
    orders = (0, 1) if args.order is None else (args.order,)
    with timer("solve"):
        table = convergence_sweep(orders=orders, levels=(2, 4, 6),
                                  family3d=family)
    path = os.path.join(args.output_dir, "convergence.csv")
    ok, rates, lines = True, {}, []
    with open(path, "w") as fh:
        fh.write("order,level,e_p,e_u,e_div,rate_p,rate_u,rate_div,exact\n")
        for k, row in table.items():
            r = row["rates"]
            for n, e in zip(row["levels"], row["errors"]):
                fh.write(f"{k},{n},{e[0]:.6e},{e[1]:.6e},{e[2]:.6e},"
                         f"{r[0]:.3f},{r[1]:.3f},{r[2]:.3f},{row['exact'][0]}\n")
            kg = k if family == "RT" else k - 1   # optimal: p kg + 1, u k + 1
            for got, want, exact in zip(r, (kg + 1, k + 1), row["exact"]):
                ok = ok and (exact or abs(got - want) <= 0.2)
            rates[f"order_{k}"] = {"p": r[0], "u": r[1], "div": r[2]}
            lines.append(f"order {k}: rates p={r[0]:.3f} u={r[1]:.3f} "
                         f"div={r[2]:.3f}")
    return RunOutcome(ok, "\n".join(lines), {"rates": rates}, [path])


def run_patch_tests(args, timer):
    """Every 1D/2D/3D patch test must be exact to 1e-9 relative."""
    with timer("solve"):
        res = patch_tests()
    path = os.path.join(args.output_dir, "patch_tests.csv")
    with open(path, "w") as fh:
        fh.write("case,e_p,e_u,e_div\n")
        for label, v in res.items():
            fh.write(f"{label},{v[0]:.3e},{v[1]:.3e},{v[2]:.3e}\n")
    worst = max(max(v) for v in res.values())
    ok = worst <= 1e-9
    return RunOutcome(ok, f"patch_tests: {'pass' if ok else 'FAIL'} "
                          f"({len(res)} cases)",
                      {"worst_relative_error": worst}, [path])


BUILTINS = {
    "problem1_quartic": run_problem1_quartic,
    "problem2_finite_eta": run_problem2_finite_eta,
    "convergence_sweep": run_convergence_sweep,
    "patch_tests": run_patch_tests,
}


def list_builtins():
    return list(BUILTINS)

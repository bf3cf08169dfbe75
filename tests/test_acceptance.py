"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (it is part of the default
suite as well).  Tolerances are fixed here and match the package contract.
"""

import time

import numpy as np
import pytest

from mixedvem import geometry as geo
from mixedvem import mesh as mesh_module
from mixedvem.elements import ElementSpace, local_matrices
from mixedvem.mesh import (NetworkSpec, box_mesh, cut_background_mesh,
                           validate_conformity)
from mixedvem.mesh import polygon_area_centroid_2d
from mixedvem.problems import (PROBLEM1_CHART, convergence_sweep, patch_tests,
                               problem1_case, problem1_chart_values,
                               problem2_summary)
from mixedvem.solver import error_norms, flux_report, relative_errors


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- 1. quartic benchmark reproduced to 1e-8 per domain ----------------------

@pytest.fixture(scope="module")
def problem1_rt4_solution():
    case = problem1_case(subdivisions=(2, 2, 2), order=4, family3d="RT")
    t0 = time.perf_counter()
    sol = case.solve()
    return case, sol, time.perf_counter() - t0


def test_criterion_1_problem1_exactness(problem1_rt4_solution):
    case, sol, elapsed = problem1_rt4_solution
    rel = relative_errors(error_norms(sol, case.exact))
    worst = 0.0
    for key, vals in rel.items():
        if isinstance(key, tuple):
            worst = max(worst, max(vals))
    _report(1, worst <= 1e-8 and elapsed < 120.0,
            f"worst relative error {worst:.3e} over {sum(1 for k in rel if isinstance(k, tuple))} "
            f"domains, solve {elapsed:.1f}s")


# -- 2. flux chart matches the analytic values -------------------------------

def test_criterion_2_flux_chart(problem1_rt4_solution):
    case, sol, _ = problem1_rt4_solution
    vals = problem1_chart_values(flux_report(sol))
    worst = 0.0
    detail = []
    for key, want in PROBLEM1_CHART.items():
        got = vals[key]
        seq = got if isinstance(got, list) else [got]
        err = max(abs(g - want) / want for g in seq)
        worst = max(worst, err)
        detail.append(f"{key}={want}")
    _report(2, worst <= 1e-8,
            f"max chart deviation {worst:.3e} ({', '.join(detail)})")


# -- 3. local conservation on every solved benchmark -------------------------

def test_criterion_3_local_conservation():
    worst = 0.0
    runs = []
    for family, k in [("RT", 0), ("RT", 1), ("RT", 2), ("BDM", 1), ("BDM", 2)]:
        case = problem1_case(order=k, family3d=family)
        sol = case.solve()
        m = flux_report(sol).max_relative_mismatch()
        runs.append(f"{family}{k}:{m:.1e}")
        worst = max(worst, m)
    s = problem2_summary(order=1)
    for label in ("report_finite", "report_continuity"):
        m = s[label].max_relative_mismatch()
        runs.append(f"{label}:{m:.1e}")
        worst = max(worst, m)
    _report(3, worst <= 1e-9, f"max per-entity mismatch {worst:.2e} ({runs})")


# -- 4. algebraic identity suite on random polytopes --------------------------

def _random_polygon(rng):
    kind = rng.integers(0, 5)
    if kind == 0:  # L-shaped (non-convex, hanging-friendly)
        s = rng.uniform(0.5, 2.0)
        return geo.PolygonGeometry(s * np.array(
            [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float)
            + rng.uniform(-1, 1, 2))
    if kind == 1:  # random quadrilateral
        base = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        return geo.PolygonGeometry(base + rng.uniform(-0.18, 0.18, (4, 2)))
    # angle gaps below pi keep the origin interior, so the loop is simple
    n = rng.integers(5, 10)
    gaps = rng.uniform(0.5, 1.0, n)
    ang = 2 * np.pi * np.cumsum(gaps) / gaps.sum()
    r = rng.uniform(0.4, 1.5, n)
    return geo.PolygonGeometry(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))


def _random_polyhedron(rng):
    if rng.integers(0, 3) == 0:
        # half of a box cut by a random plane: polyhedra with 5-7 faces
        from mixedvem.mesh import FractureSpec, cut_with_fracture
        mesh = box_mesh([0, 0, 0], [1, 1, 1], (1, 1, 1))
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        c = rng.uniform(0.35, 0.65, 3)
        t1 = np.cross(n, [1.0, 0.4, 0.2])
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(n, t1)
        pts = np.array([c + 3 * t1, c + 3 * t2, c - 3 * t1, c - 3 * t2])
        try:
            cut_with_fracture(mesh, FractureSpec(pts), 0)
        except Exception:
            return _perturbed_hex(rng)
        cid = sorted(mesh.cells)[int(rng.integers(0, len(mesh.cells)))]
        return mesh.cell_geometry(cid)
    return _perturbed_hex(rng)


def _perturbed_hex(rng):
    from tests.test_geometry import unit_cube_faces
    loops = unit_cube_faces()
    verts = sorted({tuple(v) for loop in loops for v in map(tuple, loop)})
    shift = {v: np.array(v) + rng.uniform(-0.13, 0.13, 3) for v in verts}
    flat = []
    for loop in loops:
        loop = np.array([shift[tuple(v)] for v in loop])
        flat.append(loop[[0, 1, 2]])
        flat.append(loop[[0, 2, 3]])
    return geo.PolyhedronGeometry(flat)


def _identity_gaps(d, k, worst):
    """Fold into ``worst`` the identity gaps of one batch of 100 random cells
    of dimension ``d`` and order ``k``; returns the number of cells."""
    rng = np.random.default_rng(7_000 + 10 * d + k)
    cells = [_random_polygon(rng) if d == 2 else _random_polyhedron(rng)
             for _ in range(100)]
    locs = local_matrices(ElementSpace(d, k), cells, nu=1.3)
    for loc in locs:
        gscale = np.abs(loc.G).max()
        worst["BD"] = max(worst["BD"],
                          np.abs(loc.B @ loc.D - loc.G).max() / gscale)
        worst["PiD"] = max(worst["PiD"],
                           np.abs(loc.Pi0_hat @ loc.D
                                  - np.eye(loc.G.shape[0])).max())
        ks = np.abs(loc.K_s).max()
        worst["KsD"] = max(worst["KsD"],
                           np.abs(loc.K_s @ loc.D).max() / max(ks, 1e-300))
        div = loc.vec_basis.divergence_coeffs()
        pad = np.zeros((div.shape[0], loc.basis_p.size))
        pad[:, :div.shape[1]] = div
        dscale = max(np.abs(pad).max(), 1.0)
        worst["VD"] = max(worst["VD"],
                          np.abs(loc.V @ loc.D - pad.T).max() / dscale)
    return len(locs)


def test_criterion_4_identity_suite():
    t0 = time.perf_counter()
    worst = {"BD": 0.0, "PiD": 0.0, "KsD": 0.0, "VD": 0.0}
    count = sum(_identity_gaps(d, k, worst) for d in (2, 3) for k in range(4))
    elapsed = time.perf_counter() - t0
    ok = (worst["BD"] <= 1e-10 and worst["PiD"] <= 1e-10
          and worst["KsD"] <= 1e-10 and worst["VD"] <= 1e-10
          and elapsed < 300.0)
    _report(4, ok, f"{count} elements, worst: BD={worst['BD']:.1e} "
                   f"PiD={worst['PiD']:.1e} KsD={worst['KsD']:.1e} "
                   f"VD={worst['VD']:.1e}, {elapsed:.0f}s")


@pytest.mark.parametrize("d", [2, 3])
def test_criterion_4_identity_suite_order_4(d):
    # the quartic benchmark's order: Pi0_hat D = I holds only to 3.4e-9 here
    # (measured in 2D and 3D), so it is held to 1e-8, and the other
    # identities to criterion 4's 1e-10
    worst = {"BD": 0.0, "PiD": 0.0, "KsD": 0.0, "VD": 0.0}
    _identity_gaps(d, 4, worst)
    print(f"criterion 4, d={d}, k=4: " +
          " ".join(f"{name}={gap:.1e}" for name, gap in worst.items()))
    assert worst["PiD"] <= 1e-8, worst
    assert max(worst["BD"], worst["KsD"], worst["VD"]) <= 1e-10, worst


# -- 5. patch tests on single-dimension domains -------------------------------

def test_criterion_5_patch_tests():
    res = patch_tests(orders=(0, 1, 2), families3d=("RT", "BDM"))
    worst = max(max(v) for v in res.values())
    labels = sorted(res)
    ok = worst <= 1e-9 and {"1D_RT0", "2D_RT2", "3D_BDM1", "3D_BDM2"} <= set(labels)
    _report(5, ok, f"{len(res)} cases, worst relative error {worst:.2e}")


# -- 6. finite-eta ordering and pressure jumps --------------------------------

def test_criterion_6_problem2_ordering():
    s = problem2_summary(order=1)
    ok = (s["ratio"] > 1.5
          and s["inflow_continuity"] > s["inflow_finite"] > 0
          and s["jump_low_eta"] > s["jump_high_eta"])
    _report(6, ok,
            f"inflow continuity {s['inflow_continuity']:.3f} vs finite "
            f"{s['inflow_finite']:.3f} (ratio {s['ratio']:.2f}); jumps "
            f"{s['jump_low_eta']:.3f} > {s['jump_high_eta']:.4f}")


# -- 7. convergence rates -----------------------------------------------------

def test_criterion_7_convergence_rates():
    t0 = time.perf_counter()
    table = convergence_sweep(orders=(0, 1), levels=(2, 4, 6), family3d="RT")
    elapsed = time.perf_counter() - t0
    ok = True
    detail = []
    for k, row in table.items():
        want_p, want_u = k + 1, k + 1  # RT: grad order = order
        rp, ru = row["rates"][0], row["rates"][1]
        detail.append(f"RT{k}: p={rp:.2f} u={ru:.2f}")
        if abs(rp - want_p) > 0.2 or abs(ru - want_u) > 0.2:
            ok = False
    ok = ok and elapsed < 600.0
    _report(7, ok, f"{'; '.join(detail)}; {elapsed:.0f}s")


# -- 8. mesh-cutting validators on random networks ----------------------------

def test_criterion_8_random_network_validation(monkeypatch):
    from tests.test_mesh import random_network
    t0 = time.perf_counter()
    worst_vol, worst_area, bad_reports, unused = 0.0, 0.0, 0, 0
    cut = mesh_module.cut_with_fracture

    def counted(mesh, *args, **kwargs):
        # a cut adds only vertices that some face loop uses
        nonlocal unused
        cut(mesh, *args, **kwargs)
        unused += len(mesh.verts) - len({v for loop in mesh.faces.values()
                                         for v in loop})

    monkeypatch.setattr(mesh_module, "cut_with_fracture", counted)
    for seed in range(50):
        rng = np.random.default_rng(42_000 + seed)
        mesh = box_mesh([0, 0, 0], [1, 1, 1], (4, 4, 4))
        spec = random_network(rng, int(rng.integers(1, 6)))
        md = cut_background_mesh(mesh, spec)
        worst_vol = max(worst_vol, abs(md.mesh3d.total_volume() - 1.0))
        for l, fm in enumerate(md.fractures):
            area = polygon_area_centroid_2d(spec.fractures[l].polygon2d)[0]
            worst_area = max(worst_area, abs(fm.area() - area) / area)
        if validate_conformity(md):
            bad_reports += 1
    elapsed = time.perf_counter() - t0
    ok = (worst_vol <= 1e-10 and worst_area <= 1e-10 and bad_reports == 0
          and unused == 0)
    _report(8, ok, f"50 networks: worst volume defect {worst_vol:.1e}, worst "
                   f"area defect {worst_area:.1e}, {bad_reports} non-empty "
                   f"reports, {unused} unused vertices summed over the cuts, "
                   f"{elapsed:.0f}s")

"""Built-in benchmarks: quick variants (full acceptance runs live in
test_acceptance.py)."""

import numpy as np
import pytest

from mixedvem.errors import ConfigError
from mixedvem.problems import (PROBLEM1_CHART, boundary_flux_by_tag,
                               list_builtins, patch_tests, problem1_case,
                               problem1_chart_values, problem2_case,
                               quartic_div3, quartic_pressure,
                               quartic_velocity3)
from mixedvem.solver import (ExactFields, error_norms, flux_report,
                             relative_errors)
from mixedvem.standalone import (interval_mesh, single_domain_block,
                                 solve_single_domain, unit_square_mesh)
from mixedvem.elements import ElementSpace


def single_domain_errors(sol, P, U, DIV):
    """Relative (e_p, e_u, e_div) of a standalone solve; callbacks take
    physical points."""
    [key] = sol.dofmap.blocks
    return relative_errors(error_norms(sol, {key: ExactFields(P, U, DIV)}))[key]


def test_builtins_listed():
    names = list_builtins()
    assert names == ["problem1_quartic", "problem2_finite_eta",
                     "convergence_sweep", "patch_tests"]
    assert list_builtins() == names  # stable


def test_problem1_requires_even_grid():
    with pytest.raises(ConfigError):
        problem1_case(subdivisions=(3, 2, 2))


def test_problem1_manufactured_data_consistent():
    # the loading callbacks match finite differences of the exact fields
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.uniform(0.1, 0.9, 3)  # stay inside one octant
        h = 1e-6
        div_fd = 0.0
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            div_fd += (quartic_velocity3(x + e)[i] - quartic_velocity3(x - e)[i]) / (2 * h)
        assert div_fd == pytest.approx(quartic_div3(x), rel=1e-6)
        # velocity is minus the pressure gradient (a3 = 1)
        g = np.array([(quartic_pressure(x + np.eye(3)[i] * h)
                       - quartic_pressure(x - np.eye(3)[i] * h)) / (2 * h)
                      for i in range(3)])
        assert np.allclose(quartic_velocity3(x), -g, rtol=1e-6)


def test_problem1_low_order_conserves():
    # low orders cannot reproduce the quartic but stay locally conservative
    case = problem1_case(order=0)
    sol = case.solve()
    rep = flux_report(sol)
    assert rep.max_relative_mismatch() < 1e-9
    rel = relative_errors(error_norms(sol, case.exact))
    assert rel[(3, 0)][0] > 1e-3  # genuinely inexact at RT0


def test_problem1_rt4_exact_small():
    case = problem1_case(order=4)
    sol = case.solve()
    rel = relative_errors(error_norms(sol, case.exact))
    for key, vals in rel.items():
        if isinstance(key, tuple):
            assert max(vals) < 1e-8
    vals = problem1_chart_values(flux_report(sol))
    for key, want in PROBLEM1_CHART.items():
        got = vals[key]
        for g in (got if isinstance(got, list) else [got]):
            assert g == pytest.approx(want, rel=1e-8)


def test_problem2_flux_direction():
    case = problem2_case(inverse_eta=0.0, order=0)
    sol = case.solve()
    by_tag = boundary_flux_by_tag(sol)
    assert by_tag["xmax"] < 0  # physical inflow at the high-pressure side
    assert by_tag["xmin"] > 0
    assert by_tag["xmax"] == pytest.approx(-by_tag["xmin"], rel=1e-9)


def test_patch_single_domain_2d_nonpoly_converges():
    # sanity: the standalone 2D solver approximates non-polynomial data
    P = lambda x: np.sin(x[0]) * np.cos(x[1])
    U = lambda x: -np.array([np.cos(x[0]) * np.cos(x[1]),
                             -np.sin(x[0]) * np.sin(x[1]), 0 * x[2]])
    DIV = lambda x: 2 * np.sin(x[0]) * np.cos(x[1]) * 0 + 2 * P(x)
    errs = []
    for n in (2, 4):
        sol = solve_single_domain(unit_square_mesh(n), ElementSpace(2, 0),
                                  nu=1.0, source=DIV, dirichlet=P)
        errs.append(single_domain_errors(sol, P, U, DIV)[0])
    assert errs[1] < 0.7 * errs[0]


def test_unit_square_numbering_shares_interior_edges():
    n, space = 3, ElementSpace(2, 1)
    per = space.n_face_dofs()
    blk = single_domain_block(unit_square_mesh(n), space)
    sets = {}
    for ci, u in enumerate(blk.cell_u_dofs):
        for lf in range(4):
            key = tuple(u[lf * per:(lf + 1) * per])
            sets[key] = sets.get(key, 0) + 1
    users = sorted(sets.values())
    # 2n(n-1) interior edges with one shared set, 4n boundary edges with
    # their own; DOF sets never overlap
    assert users == [1] * 4 * n + [2] * 2 * n * (n - 1)
    assert len(set(np.concatenate([np.array(k) for k in sets]))) == per * len(sets)
    assert len(blk.boundary) == 4 * n
    assert all(sets[tuple(blk.cell_u_dofs[ci][lf * per:(lf + 1) * per])] == 1
               for ci, lf, _, _ in blk.boundary)
    n_int = blk.locals_[0].layout.n_typeii + blk.locals_[0].layout.n_typeiii
    assert blk.n_u == per * 2 * n * (n + 1) + n * n * n_int


def test_patch_tests_all_machine_zero():
    res = patch_tests(orders=(0, 1), families3d=("RT", "BDM"))
    for label, vals in res.items():
        assert max(vals) < 1e-9, (label, vals)


def test_interval_mesh_1d_high_order():
    a = 3.0
    P = lambda x: 1 + x[0] + 0.5 * x[0] ** 2
    U = lambda x: -a * np.array([1 + x[0], 0 * x[0], 0 * x[0]])
    DIV = lambda x: -a
    sol = solve_single_domain(interval_mesh(0.0, 2.0, 3), ElementSpace(1, 2),
                              nu=1 / a, source=DIV, dirichlet=P)
    rel = single_domain_errors(sol, P, U, DIV)
    assert max(rel) < 1e-12


def test_problem1_exact_on_roughened_mesh():
    # artificial non-physical cuts turn the grid into general polyhedra with
    # hanging faces; the order-4 solution stays exact
    case = problem1_case(order=4, artificial_cuts=2)
    assert len(case.md.mesh3d.cells) > 8
    sol = case.solve()
    rel = relative_errors(error_norms(sol, case.exact))
    worst = max(max(v) for k, v in rel.items() if isinstance(k, tuple))
    assert worst < 1e-8
    vals = problem1_chart_values(flux_report(sol))
    for key, want in PROBLEM1_CHART.items():
        got = vals[key]
        for g in (got if isinstance(got, list) else [got]):
            assert g == pytest.approx(want, rel=1e-8)


def test_convergence_polynomial_flagged_exact():
    from mixedvem.problems import _poly_fields, convergence_sweep

    fields = _poly_fields(3, 1, a=1.0)  # linear pressure, exact for RT1
    table = convergence_sweep(orders=(1,), levels=(1, 2, 3), fields=fields)
    assert all(table[1]["exact"])
    assert np.all(table[1]["errors"] < 1e-10)


def test_problem1_order_and_mesh_refinement():
    # the coupled mixed-dimensional solve converges in both h and k
    def aggregate(case):
        sol = case.solve()
        rel = relative_errors(error_norms(sol, case.exact))
        return rel["aggregate"][0] + rel["aggregate"][1]

    e_by_order = [aggregate(problem1_case(order=k)) for k in (0, 1, 2)]
    assert e_by_order[1] < 0.5 * e_by_order[0]
    assert e_by_order[2] < 0.5 * e_by_order[1]
    e_fine = aggregate(problem1_case(order=1, subdivisions=(4, 4, 4)))
    assert e_fine < 0.6 * e_by_order[1]

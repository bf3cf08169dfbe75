"""Solve, projection, error norms, flux accounting."""

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from mixedvem import assembly, problems, solver
from mixedvem.assembly import (CellBlock, GlobalSystem, apply_boundary_conditions,
                               assemble_complete, scatter)
from mixedvem.elements import COND_PIVOT_TOL
from mixedvem.errors import ConditioningError, ConfigError, SingularSystemError
from mixedvem.mesh import (BoundaryCondition, FractureSpec, NetworkSpec,
                           box_mesh, cut_background_mesh)
from mixedvem.solver import (DiscreteSolution, ExactFields, Hybridized,
                             error_norms, flux_report, project_solution,
                             relative_errors, solve, write_error_table,
                             write_fields_vtk)
from tests.test_interfaces import CASES
from tests.test_mesh import _perfbench_network

TAGS = ["xmin", "xmax", "ymin", "ymax", "zmin", "zmax"]


def dirichlet(fn):
    return {t: BoundaryCondition("dirichlet", fn) for t in TAGS}


def linear_case(order=1, n=2):
    P = lambda x: 1 + 2 * x[0] - x[1]
    U = lambda x: np.array([-2.0, 1.0, 0.0])
    DIV = lambda x: 0.0
    spec = NetworkSpec(fractures=[], a3=1.0, source3=0.0, bc3=dirichlet(P))
    md = cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (n, n, n)), spec)
    system = assemble_complete(md, order=order)
    apply_boundary_conditions(system)
    return system, {(3, 0): ExactFields(P, U, DIV)}


def test_trivial_1x1_system():
    # a single-equation system goes through the same solve path
    sysm = GlobalSystem(cells=[CellBlock(np.array([0]), 0, 0, np.array([[2.0]]))],
                        rhs=np.array([4.0]), dofmap=None, md=None,
                        bc_applied=True)
    sol = solve(sysm)
    assert sol.x[0] == pytest.approx(2.0)


def test_solve_matches_dense_oracle():
    system, exact = linear_case(order=0, n=2)
    sol = solve(system)
    dense = np.linalg.solve(system.matrix.tocsr().toarray(), system.rhs)
    assert len(sol.x) <= 200
    assert np.allclose(sol.x, dense, atol=1e-11)


def test_projection_fixes_polynomials_and_matches_definition():
    system, exact = linear_case(order=1)
    sol = solve(system)
    blk = sol.dofmap.block(3)
    # exact linear solution: projected velocity equals the exact coefficients
    for ci in range(len(blk.geoms)):
        loc = blk.locals_[ci]
        coeffs = sol.projected_velocity(blk, ci)
        pts, w = blk.geoms[ci].quadrature(4)
        vals = np.einsum("b,pbi->pi", coeffs, loc.vec_basis.evaluate(pts))
        assert np.allclose(vals, [-2.0, 1.0, 0.0], atol=1e-10)
    # zero DOFs project to the zero polynomial
    zero = DiscreteSolution(system=system, x=np.zeros_like(sol.x), residual=0.0)
    assert np.allclose(zero.projected_velocity(blk, 0), 0.0)
    # random DOFs satisfy the projector's defining equations G c = B u
    rng = np.random.default_rng(3)
    rand = DiscreteSolution(system=system,
                            x=rng.standard_normal(len(sol.x)), residual=0.0)
    for ci in (0, 3):
        loc = blk.locals_[ci]
        u_loc = rand.local_flux_dofs(blk, ci)
        c = rand.projected_velocity(blk, ci)
        assert np.allclose(loc.G @ c, loc.B @ u_loc, atol=1e-12)
    table = project_solution(sol)
    assert len(table[(3, 0)]) == len(blk.geoms)


def test_error_norm_against_dense_oracle():
    system, exact = linear_case(order=0)
    sol = solve(system)
    # perturb the pressure DOFs and compare against a direct quadrature oracle
    x = sol.x.copy()
    blk = sol.dofmap.block(3)
    rng = np.random.default_rng(11)
    for ci in range(len(blk.geoms)):
        x[blk.cell_p_dofs[ci]] += rng.uniform(-0.1, 0.1, blk.n_p // len(blk.geoms))
    pert = DiscreteSolution(system=system, x=x, residual=0.0)
    norms = error_norms(pert, exact)
    P = exact[(3, 0)].pressure
    oracle = 0.0
    for ci, geom in enumerate(blk.geoms):
        loc = blk.locals_[ci]
        pts, w = geom.quadrature(6)
        p_h = loc.basis_p.evaluate(pts) @ x[blk.cell_p_dofs[ci]]
        p_ex = np.array([P(p) for p in pts])
        oracle += np.sum(w * (p_ex - p_h) ** 2)
    assert norms[(3, 0)][0] == pytest.approx(np.sqrt(oracle), rel=1e-12)


def test_exact_discrete_coincide():
    system, exact = linear_case(order=1)
    sol = solve(system)
    rel = relative_errors(error_norms(sol, exact))[(3, 0)]
    assert max(rel) < 1e-12


def test_finite_eta_jump_reproduced_exactly():
    # manufactured solution with a pressure jump across one finite-eta
    # fracture: pins down the dissipative sign of the coupling term
    eta = 2.0
    a = 1.0 / eta

    def P(x):
        return np.sign(x[2]) * (a + abs(x[2])) if x[2] != 0 else 0.0

    U = lambda x: np.array([0.0, 0.0, -1.0])
    DIV = lambda x: 0.0
    frac = FractureSpec(np.array([[-1, -1, 0], [1, -1, 0], [1, 1, 0],
                                  [-1, 1, 0]], float),
                        a2=3.0, inverse_eta2=1.0 / eta,
                        bc=BoundaryCondition("dirichlet", 0.0), source=0.0)
    spec = NetworkSpec(fractures=[frac], a3=1.0, source3=0.0, bc3=dirichlet(P))
    md = cut_background_mesh(box_mesh([-1, -1, -1], [1, 1, 1], (2, 2, 2)), spec)
    system = assemble_complete(md, order=1)
    apply_boundary_conditions(system)
    sol = solve(system)
    exact = {(3, 0): ExactFields(P, U, DIV),
             (2, 0): ExactFields(lambda x: 0.0, lambda x: np.zeros(3),
                                 lambda x: 0.0)}
    rel = relative_errors(error_norms(sol, exact))
    assert max(rel[(3, 0)]) < 1e-11
    assert max(rel[(2, 0)]) < 1e-11
    # the flux crosses the fracture: gross one-sided exchange is 1 per unit
    # area on each side, the net jump vanishes
    rep = flux_report(sol)
    assert rep.entity(2, 0).received[(3, 0)] == pytest.approx(0.0, abs=1e-10)
    dm = sol.dofmap
    blk3 = dm.block(3)
    cell = sol.md.fractures[0].cells[0]
    side_dof = {blk3.cell_ids[s.cell]: s.dofs[0] for s in dm.interfaces
                if (s.lower, s.lower_cell) == ((2, 0), 0)}
    plus = sol.x[side_dof[cell.cell_plus]]
    minus = sol.x[side_dof[cell.cell_minus]]
    assert sorted([plus, minus]) == pytest.approx([-1.0, 1.0], abs=1e-10)


def test_flux_report_closed_box_zero():
    spec = NetworkSpec(fractures=[], a3=1.0, source3=0.0,
                       bc3={t: BoundaryCondition("neumann") for t in TAGS})
    md = cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (1, 1, 1)), spec)
    system = assemble_complete(md, order=0)
    apply_boundary_conditions(system)
    # all-Neumann with zero data: fix the nullspace by pinning one pressure
    system.fix(system.dofmap.block(3).cell_p_dofs[0][:1], np.zeros(1))
    sol = solve(system)
    e = flux_report(sol).entity(3, 0)
    assert abs(e.bc_flux) < 1e-12 and abs(e.divergence) < 1e-12
    assert abs(e.mismatch) < 1e-12


def test_node_balance_identity():
    # div = bc + sent holds exactly on every entity by DOF telescoping
    from mixedvem.problems import problem1_case
    case = problem1_case(order=1)
    sol = case.solve()
    rep = flux_report(sol)
    for key, e in rep.entities.items():
        if key[0] == 0:
            continue
        lhs = e.divergence
        rhs = e.bc_flux + sum(e.sent.values())
        assert lhs == pytest.approx(rhs, abs=1e-9 * e.balance_scale)
        assert abs(e.mismatch) <= 1e-9 * e.balance_scale


def test_exports(tmp_path):
    system, exact = linear_case(order=1)
    sol = solve(system)
    norms = error_norms(sol, exact)
    write_error_table(norms, tmp_path / "err.csv")
    txt = (tmp_path / "err.csv").read_text()
    assert txt.startswith("domain,d,l,e_p,e_u,e_div")
    rep = flux_report(sol)
    rep.write(tmp_path / "flux.txt")
    assert "matrix" in (tmp_path / "flux.txt").read_text()
    write_fields_vtk(sol, tmp_path / "fields.vtk")
    body = (tmp_path / "fields.vtk").read_text()
    assert "POLYGONS" in body and "pressure" in body
    assert (tmp_path / "fields.vtk.velocity.vtk").exists()
    system.export_coo(tmp_path / "mat.coo")
    assert (tmp_path / "mat.coo").read_text().startswith("#")


@pytest.mark.parametrize("make", [
    lambda: problems.problem1_case((2, 2, 2), order=1),
    lambda: problems.poisson3d_case(3, 1),
], ids=["problem1-order1", "poisson3d-3-1"])
def test_direct_solve_limit_raises_config_error(make, monkeypatch):
    case = make()
    n = assemble_complete(case.md, case.order).dofmap.total
    monkeypatch.setattr(solver, "DIRECT_SOLVE_LIMIT", n - 1)
    with pytest.raises(ConfigError, match=f"{n} DOFs, above the direct solve "
                                          f"limit of {n - 1}"):
        case.solve()


def _network_system():
    # the benchmark's fracture network (finite eta everywhere) on a 3^3 box
    md = cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (3, 3, 3)),
                             _perfbench_network(9400))
    system = assemble_complete(md, order=1)
    apply_boundary_conditions(system)
    return system


def _case_system(**kw):
    case = problems.problem1_case(**kw)
    system = assemble_complete(case.md, case.order, family3d=case.family3d)
    apply_boundary_conditions(system)
    return system


CONDENSED_CASES = pytest.mark.parametrize("make", [
    lambda: _case_system(order=4, artificial_cuts=1),
    lambda: _case_system(order=2, family3d="BDM"),
    _network_system,
], ids=["problem1-order4-cut1", "problem1-bdm2", "network-9400-3x3x3"])


@CONDENSED_CASES
def test_condensed_solve_matches_full_lu(make):
    system = make()
    sol = solve(system)
    # oracle: a sparse LU of the whole boundary-conditioned matrix with one
    # refinement step (without it the LU alone is off by up to 3e-2 relative
    # on the network)
    A, b = system.matrix.tocsc(), system.rhs
    lu = spla.splu(A)
    x = lu.solve(b)
    x = x + lu.solve(b - A @ x)
    assert np.abs(sol.x - x).max() <= 1e-10 * np.abs(x).max()
    assert 0 < sol.global_dofs < A.shape[0]
    assert 0 < sol.lu_fill < lu.nnz
    assert sol.residual <= sol.residual_before_refinement
    assert COND_PIVOT_TOL <= sol.worst_pivot_ratio <= 1.0


@CONDENSED_CASES
def test_condensed_dofs_couple_inside_their_cell(make):
    # the cell blocks sum to the assembled matrix on the free DOFs, so the
    # local eliminations are exact; a flux DOF is held by at most two cells
    # and a pressure DOF is the own pressure of at most one
    system = make()
    free = np.setdiff1d(np.arange(system.dofmap.total), system.fixed)
    A = system.matrix.tocsr()[free][:, free]
    S = scatter(system.cells, system.dofmap.total)[free][:, free]
    assert abs(A - S).max() <= 1e-14 * abs(A).max()
    held = np.concatenate([cb.dofs[:cb.n_u] for cb in system.cells])
    own = np.concatenate([cb.dofs[cb.n_u:cb.n_u + cb.n_p] for cb in system.cells])
    assert np.bincount(held).max() <= 2
    assert np.bincount(own).max() == 1


INTERFACE_SYSTEMS = pytest.mark.parametrize("make", [
    *(lambda name=name: CASES[name]().system for name in CASES)],
    ids=list(CASES))


@CONDENSED_CASES
def test_multiplier_matrix_is_symmetric_positive_definite(make):
    _check_multiplier_matrix(make())


@INTERFACE_SYSTEMS
def test_interface_multiplier_matrix_is_symmetric_positive_definite(make):
    _check_multiplier_matrix(make())


def _check_multiplier_matrix(system):
    P = Hybridized(system).matrix.toarray()
    assert np.abs(P - P.T).max() <= 1e-12 * np.abs(P).max()
    np.linalg.cholesky(P)    # raises unless positive definite


def test_singular_interior_block_rejected():
    system = _case_system(order=1)
    cb = system.cells[0]
    cb.matrix[0, :cb.n_u] = cb.matrix[:cb.n_u, 0] = 0.0   # a flux loses its row
    with pytest.raises(ConditioningError, match="cell flux block"):
        solve(system)


@CONDENSED_CASES
def test_operator_matches_scattered_matrix(make):
    # before the boundary conditions (the same blocks, nothing fixed) and after
    system = make()
    raw = GlobalSystem(cells=system.cells, rhs=system.rhs, dofmap=system.dofmap,
                       md=system.md)
    assert len(system.fixed) > 0 and len(raw.fixed) == 0
    x = np.random.default_rng(5).normal(size=len(system.rhs))
    for s in (raw, system):
        y, ref = s.matrix @ x, s.matrix.tocsr() @ x
        assert np.abs(y - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("make", [
    lambda: _case_system(order=2, artificial_cuts=1),
    _network_system,
], ids=["problem1-order2-cut1", "network-9400-3x3x3"])
def test_solve_path_never_scatters(make, monkeypatch):
    # the cell blocks are the only copy of the matrix from assembly to the
    # flux report
    def no_scatter(cells, n):
        raise AssertionError("the global matrix was scattered")

    monkeypatch.setattr(assembly, "scatter", no_scatter)
    sol = solve(make())
    assert flux_report(sol).max_relative_mismatch() <= 1e-10
    with pytest.raises(AssertionError, match="scattered"):
        sol.system.matrix.tocsr()


def test_kept_pressure_entry_split_over_two_blocks():
    # a pressure that two cells read and neither owns stays global; its
    # diagonal entry is the sum of the two blocks' shares
    cells = [CellBlock(np.array([0, 2]), 1, 0, np.array([[2.0, 1.0], [-1.0, 0.5]])),
             CellBlock(np.array([1, 2]), 1, 0, np.array([[3.0, 1.0], [-1.0, 0.25]]))]
    system = GlobalSystem(cells=cells, rhs=np.array([1.0, 2.0, 3.0]), dofmap=None,
                          md=None, bc_applied=True)
    sol = solve(system)
    dense = np.linalg.solve(system.matrix.tocsr().toarray(), system.rhs)
    assert sol.global_dofs == 1
    assert np.allclose(sol.x, dense, rtol=1e-14, atol=0)


def test_rt0_box_factorizes_one_multiplier_per_interior_face():
    # RT0 with Dirichlet data: every cell is eliminated whole, so the global
    # unknowns are the 3 * 2 * 2 interior faces of the 2^3 box
    system, _ = linear_case(order=0)
    sol = solve(system)
    assert sol.global_dofs == 12
    assert sol.lu_fill <= 12 * 13   # at most dense L and U, each with the diagonal

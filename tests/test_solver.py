"""Solve, projection, error norms, flux accounting."""

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from mixedvem import problems, solver
from mixedvem.assembly import apply_boundary_conditions, assemble_complete
from mixedvem.errors import ConditioningError
from mixedvem.mesh import (BoundaryCondition, FractureSpec, NetworkSpec,
                           box_mesh, cut_background_mesh)
from mixedvem.solver import (DiscreteSolution, ExactFields, condensed_cells,
                             error_norms, flux_report, project_solution,
                             relative_errors, solve, write_error_table,
                             write_fields_vtk)
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
    from mixedvem.assembly import GlobalSystem
    sysm = GlobalSystem(matrix=sps.csr_matrix(np.array([[2.0]])),
                        rhs=np.array([4.0]), dofmap=None, md=None,
                        bc_applied=True)
    sol = solve(sysm)
    assert sol.x[0] == pytest.approx(2.0)


def test_solve_matches_dense_oracle():
    system, exact = linear_case(order=0, n=2)
    sol = solve(system)
    dense = np.linalg.solve(system.matrix.toarray(), system.rhs)
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
    plus = sol.x[blk3.offset + dm.face_dofs[(cell.face_id, cell.cell_plus)][0]]
    minus = sol.x[blk3.offset + dm.face_dofs[(cell.face_id, cell.cell_minus)][0]]
    assert sorted([plus, minus]) == pytest.approx([-1.0, 1.0], abs=1e-10)


def test_flux_report_closed_box_zero():
    spec = NetworkSpec(fractures=[], a3=1.0, source3=0.0,
                       bc3={t: BoundaryCondition("neumann") for t in TAGS})
    md = cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (1, 1, 1)), spec)
    system = assemble_complete(md, order=0)
    apply_boundary_conditions(system)
    # all-Neumann with zero data: fix the nullspace by pinning one pressure
    A = system.matrix.tolil()
    p0 = system.dofmap.block(3).cell_p_dofs[0][0]
    A[p0, :] = 0.0
    A[p0, p0] = 1.0
    system.matrix = A.tocsr()
    system.rhs[p0] = 0.0
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
def test_iterative_branch_matches_direct(make, monkeypatch):
    case = make()
    direct = case.solve()
    calls = []
    gmres = solver.spla.gmres

    def counting_gmres(*args, **kw):
        calls.append(1)
        return gmres(*args, **kw)

    monkeypatch.setattr(solver, "DIRECT_SOLVE_LIMIT", 0)
    monkeypatch.setattr(solver.spla, "gmres", counting_gmres)
    iterative = case.solve()     # raises if the residual check fails
    assert calls == [1] and iterative.branch == "iterative"
    scale = np.abs(direct.x).max()
    assert np.abs(iterative.x - direct.x).max() <= 1e-8 * scale
    assert iterative.residual <= 1e-10 * np.linalg.norm(iterative.system.rhs)


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
    n_elim = sum(len(elim) for elim, _ in condensed_cells(system))
    assert sol.branch == "direct" and sol.condensed_dofs == n_elim > 0
    assert 0 < sol.lu_fill < lu.nnz


@CONDENSED_CASES
def test_condensed_dofs_couple_inside_their_cell(make):
    # each cell's eliminated rows and columns reach only its own eliminated,
    # face and constant-pressure DOFs, so the elimination is exact
    system = make()
    A = system.matrix.tocsr()
    blk = system.dofmap.block(3)
    cells = condensed_cells(system)
    assert len(cells) == len(blk.geoms)
    for ci, (elim, ret) in enumerate(cells):
        nf = blk.locals_[ci].layout.n_face_total
        assert set(ret) == (set(blk.cell_u_dofs[ci][:nf])
                            | {blk.cell_p_dofs[ci][0]})
        own = set(elim) | set(ret)
        assert set(A[elim].indices) <= own
        assert set(A[:, elim].tocoo().row) <= own


def test_singular_interior_block_rejected():
    system = _case_system(order=1)
    elim, _ = condensed_cells(system)[0]
    A = system.matrix.tolil()
    A[elim[0], :] = 0.0      # one cell's interior block loses a row
    system.matrix = A.tocsr()
    with pytest.raises(ConditioningError, match="interior block"):
        solve(system)


def test_rt0_solve_is_one_plain_lu():
    # no interiors: the factorized matrix is the whole system
    system, _ = linear_case(order=0)
    sol = solve(system)
    lu = spla.splu(system.matrix.tocsc())
    assert condensed_cells(system) == []
    assert sol.condensed_dofs == 0
    assert sol.lu_fill == lu.nnz

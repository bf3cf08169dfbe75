"""Global DOF map, block structure, couplings, boundary conditions."""

import numpy as np
import pytest
import scipy.sparse as sps

from mixedvem import assembly
from mixedvem.assembly import (apply_boundary_conditions, assemble_complete,
                               assemble_coupling_same_dim, assemble_dimension,
                               build_dof_map, face_mass, face_rule, fill_block,
                               scatter)
from mixedvem.elements import LocalMatrixSet, local_matrices_1d
from mixedvem.errors import ConfigError, SingularSystemError
from mixedvem.mesh import (BoundaryCondition, FractureSpec, NetworkSpec,
                           box_mesh, cut_background_mesh)
from mixedvem.problems import problem1_case
from mixedvem.solver import solve
from tests.test_mesh import _perfbench_network

TAGS = ["xmin", "xmax", "ymin", "ymax", "zmin", "zmax"]
DIRICHLET0 = {t: BoundaryCondition("dirichlet", 0.0) for t in TAGS}


def two_cube_mesh():
    return box_mesh([0, 0, 0], [2, 1, 1], (2, 1, 1))


def fracture_between_cubes(**kw):
    return FractureSpec(np.array([[1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1]],
                                 dtype=float), **kw)


def test_two_cubes_plain_face_rt0():
    md = cut_background_mesh(two_cube_mesh(), NetworkSpec(fractures=[]))
    dm = build_dof_map(md, order=0)
    assert dm.block(3).n_u == 11   # 12 faces minus 1 shared
    assert dm.block(3).n_p == 2


def test_two_cubes_fracture_face_doubled():
    spec = NetworkSpec(fractures=[fracture_between_cubes()])
    md = cut_background_mesh(two_cube_mesh(), spec)
    dm = build_dof_map(md, order=0)
    assert dm.block(3).n_u == 12   # shared face carries two DOF sets
    # the fracture block exists with its own DOFs
    blk2 = dm.block(2, 0)
    assert blk2.n_u == 4 + 0 and blk2.n_p == 1


def test_trace_edge_four_dof_sets():
    # two crossing fractures: each trace edge carries 2 sets per fracture
    mesh = box_mesh([-1, -1, -1], [1, 1, 1], (2, 2, 2))
    f1 = FractureSpec(np.array([[-1, -1, 0], [1, -1, 0], [1, 1, 0], [-1, 1, 0]],
                               dtype=float))
    f2 = FractureSpec(np.array([[-1, 0, -1], [1, 0, -1], [1, 0, 1], [-1, 0, 1]],
                               dtype=float))
    md = cut_background_mesh(mesh, NetworkSpec(fractures=[f1, f2]))
    dm = build_dof_map(md, order=0)
    sets = [s for s in dm.interfaces if (s.lower, s.lower_cell) == ((1, 0), 0)]
    assert len(sets) == 4  # (2 fractures) x (2 sides)


def test_element_records_hold_no_stiffness():
    # the cell blocks are the one stored copy of K: the records keep W and
    # derive K on demand, and a segment's K has no stabilization term, which
    # its D Pi0_hat = I (exact only to roundoff) would make nonzero
    dm = build_dof_map(problem1_case(order=2).md, 2)
    rounded = 0
    for (d, _), blk in dm.blocks.items():
        for loc in blk.locals_:
            if loc is None:
                continue
            assert "K" not in vars(loc) and "W" in vars(loc)
            if d != 1:
                continue
            n_p, n = loc.W.shape
            rounded += np.any(loc.D @ loc.Pi0_hat != np.eye(n))
            exact = np.block([[loc.Pi0_hat.T @ loc.G_nu @ loc.Pi0_hat, -loc.W.T],
                              [loc.W, np.zeros((n_p, n_p))]])
            assert np.array_equal(loc.K, exact)
    assert rounded > 0


def test_trace_cells_share_the_element_record_and_face_interface():
    dm = build_dof_map(problem1_case(order=2).md, 2)
    traces = [blk for (d, _), blk in dm.blocks.items() if d == 1]
    assert len(traces) == 3
    for blk in traces:
        for ci, (geom, loc) in enumerate(zip(blk.geoms, blk.locals_)):
            again, = local_matrices_1d(dm.space(1), [geom], nu=blk.nu)
            assert isinstance(again, LocalMatrixSet)
            assert np.array_equal(again.K, loc.K)
            assert np.abs(loc.D @ loc.Pi0_hat - np.eye(loc.layout.n_dof)).max() <= 1e-13
            # each end: its one point, weight 1, dual value 1, dual mass 1
            for lf, end in enumerate((geom.a, geom.b)):
                pts, w, dual = face_rule(blk, ci, lf, 8)
                assert np.allclose(blk.point_map(ci, pts), end[None], atol=1e-14)
                assert np.array_equal(w, [1.0]) and np.array_equal(dual, [[1.0]])
                assert np.array_equal(face_mass(blk, ci, lf), [[1.0]])


def test_dimension_blocks_are_block_diagonal():
    mesh = box_mesh([-1, -1, -1], [1, 1, 1], (2, 2, 2))
    f1 = FractureSpec(np.array([[-1, -1, 0], [1, -1, 0], [1, 1, 0], [-1, 1, 0]],
                               dtype=float))
    f2 = FractureSpec(np.array([[-1, -1, 0.5], [1, -1, 0.5], [1, 1, 0.5],
                                [-1, 1, 0.5]]))
    md = cut_background_mesh(mesh, NetworkSpec(fractures=[f1, f2]))
    dm = build_dof_map(md, order=0)
    K2 = scatter(assemble_dimension(dm, 2).values(), dm.total)
    a, b = dm.block(2, 0), dm.block(2, 1)
    cross = K2[a.offset:a.offset + a.n_dof, b.offset:b.offset + b.n_dof]
    assert cross.nnz == 0


def test_complete_block_skeleton():
    # zero blocks of the 4x4 skeleton stay empty; lower C blocks = -upper^T
    from tests.test_mesh import problem1_spec
    mesh = box_mesh([-1, -1, -1], [1, 1, 1], (2, 2, 2))
    md = cut_background_mesh(mesh, problem1_spec())
    system = assemble_complete(md, order=0)
    A = system.matrix.tocsr()
    dm = system.dofmap
    blk3 = dm.block(3)
    s3 = np.arange(blk3.offset, blk3.offset + blk3.n_dof)
    s1 = np.concatenate([np.arange(dm.block(1, t).offset,
                                   dm.block(1, t).offset + dm.block(1, t).n_dof)
                         for t in range(3)])
    s0 = np.array([dm.block(0, 0).offset])
    assert abs(A[np.ix_(s3, s1)]).max() == 0.0   # no 3D-1D coupling
    assert abs(A[np.ix_(s3, s0)]).max() == 0.0   # no 3D-0D coupling
    s2 = np.concatenate([np.arange(dm.block(2, l).offset,
                                   dm.block(2, l).offset + dm.block(2, l).n_dof)
                         for l in range(3)])
    assert abs(A[np.ix_(s2, s0)]).max() == 0.0   # no 2D-0D coupling
    # transpose structure of the cross-dimension blocks
    C32 = A[np.ix_(s3, s2)].toarray()
    C23 = A[np.ix_(s2, s3)].toarray()
    assert np.allclose(C23, -C32.T, atol=1e-14)
    C10 = A[np.ix_(s1, s0)].toarray()
    C01 = A[np.ix_(s0, s1)].toarray()
    assert np.allclose(C01, -C10.T, atol=1e-14)
    # Problem 1: the 1D/0D coupling touches all three traces
    touched = {t for t in range(3)
               if abs(A[np.ix_(np.arange(dm.block(1, t).offset,
                                         dm.block(1, t).offset
                                         + dm.block(1, t).n_dof), s0)]).max() > 0}
    assert touched == {0, 1, 2}


def _same_dim_term(dm):
    """What assemble_coupling_same_dim adds to the 3D cell blocks."""
    cells = assemble_dimension(dm, 3)
    K = scatter(cells.values(), dm.total)
    assemble_coupling_same_dim(dm, cells)
    return scatter(cells.values(), dm.total) - K


def test_same_dim_coupling_values_and_vanishing():
    spec0 = NetworkSpec(fractures=[fracture_between_cubes(inverse_eta2=0.0)])
    md0 = cut_background_mesh(two_cube_mesh(), spec0)
    dm0 = build_dof_map(md0, order=0)
    assert _same_dim_term(dm0).nnz == 0  # eta -> infinity: no term at all

    eta = 10.0
    spec = NetworkSpec(fractures=[fracture_between_cubes(inverse_eta2=1 / eta)])
    md = cut_background_mesh(two_cube_mesh(), spec)
    dm = build_dof_map(md, order=0)
    C = _same_dim_term(dm)
    # one RT0 DOF per side: diagonal entries (1/eta) * |f| (the face mass of
    # the unit normal trace); the dissipative sign is positive
    vals = C.diagonal()
    nz = vals[vals != 0]
    assert len(nz) == 2
    assert np.allclose(nz, (1 / eta) * 1.0)
    assert (C - C.T).nnz == 0


def test_cross_dim_coupling_rt0_values():
    spec = NetworkSpec(fractures=[fracture_between_cubes()])
    md = cut_background_mesh(two_cube_mesh(), spec)
    system = assemble_complete(md, order=0)
    dm = system.dofmap
    blk3, blk2 = dm.block(3), dm.block(2, 0)
    cell = md.fractures[0].cells[0]
    p2 = blk2.cell_p_dofs[0]
    side_dof = {blk3.cell_ids[s.cell]: s.dofs[0] for s in dm.interfaces
                if (s.lower, s.lower_cell) == ((2, 0), 0)}
    rows = []
    for cid in (cell.cell_plus, cell.cell_minus):
        rows.append(system.matrix.tocsr()[side_dof[cid], p2[0]])
    # RT0/constant pressure: entry = face area for each side
    assert np.allclose(rows, 1.0)
    # equal-and-opposite outward side fluxes produce a zero jump row
    u = np.zeros(dm.total)
    d_plus, d_minus = side_dof[cell.cell_plus], side_dof[cell.cell_minus]
    u[d_plus], u[d_minus] = 1.0, -1.0
    jump_row = system.matrix.tocsr()[p2[0], :] @ u
    assert abs(jump_row) < 1e-14


def test_dirichlet_zero_gives_zero_rhs():
    spec = NetworkSpec(fractures=[], bc3=DIRICHLET0)
    md = cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (1, 1, 1)), spec)
    system = assemble_complete(md, order=1)
    apply_boundary_conditions(system)
    assert np.allclose(system.rhs, 0.0)


def test_missing_bc_tag_raises():
    bc = dict(DIRICHLET0)
    bc.pop("zmax")
    spec = NetworkSpec(fractures=[], bc3=bc)
    md = cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (1, 1, 1)), spec)
    system = assemble_complete(md, order=0)
    with pytest.raises(ConfigError):
        apply_boundary_conditions(system)


def test_all_neumann_singular_reported():
    # closed box with an incompatible source: the singular system is reported
    # with a null-space estimate instead of returning garbage
    bc = {t: BoundaryCondition("neumann") for t in TAGS}
    spec = NetworkSpec(fractures=[], bc3=bc, source3=1.0)
    md = cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (2, 2, 2)), spec)
    system = assemble_complete(md, order=0)
    apply_boundary_conditions(system)
    with pytest.raises(SingularSystemError) as err:
        solve(system)
    assert err.value.null_dim is None or err.value.null_dim >= 1


def test_matrix_is_the_cell_blocks_with_unit_rows_at_fixed_dofs():
    # the solver eliminates the cell blocks and refines with the matrix, so
    # the matrix is derived from the blocks and cannot be replaced
    bc = {t: BoundaryCondition("neumann" if t in ("xmin", "ymax") else "dirichlet",
                               0.0 if t in ("xmin", "ymax") else 1.0) for t in TAGS}
    md = cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (2, 2, 2)),
                             NetworkSpec(fractures=[], bc3=bc))
    system = assemble_complete(md, order=1)
    apply_boundary_conditions(system)
    assert len(system.fixed) > 0
    A = scatter(system.cells, len(system.rhs)).toarray()
    A[system.fixed, :] = A[:, system.fixed] = 0.0
    A[system.fixed, system.fixed] = 1.0
    assert np.array_equal(system.matrix.tocsr().toarray(), A)
    with pytest.raises(AttributeError):
        system.matrix = sps.csr_matrix(A)


def test_all_neumann_singular_reported_condensed():
    # the order-1 copy runs the singular system through the local
    # eliminations of interior fluxes and higher pressure moments
    bc = {t: BoundaryCondition("neumann") for t in TAGS}
    spec = NetworkSpec(fractures=[], bc3=bc, source3=1.0)
    md = cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (2, 2, 2)), spec)
    system = assemble_complete(md, order=1)
    apply_boundary_conditions(system)
    assert [cb.n_p for cb in system.cells] == [4] * 8
    with pytest.raises(SingularSystemError) as err:
        solve(system)
    assert err.value.null_dim is None or err.value.null_dim >= 1


def test_no_fracture_system_is_pure_3d_block():
    spec = NetworkSpec(fractures=[], bc3=DIRICHLET0)
    md = cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (2, 2, 2)), spec)
    system = assemble_complete(md, order=0)
    dm = system.dofmap
    assert set(dm.blocks) == {(3, 0)}
    blk = dm.block(3)
    A = system.matrix.tocsr()
    # saddle structure: pressure-pressure block is zero
    pp = A[blk.slice_p, blk.slice_p]
    assert pp.nnz == 0
    up = A[blk.slice_u, blk.slice_p].toarray()
    pu = A[blk.slice_p, blk.slice_u].toarray()
    assert np.allclose(up, -pu.T, atol=1e-14)


def test_single_element_domain_matches_local():
    spec = NetworkSpec(fractures=[], bc3=DIRICHLET0)
    md = cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (1, 1, 1)), spec)
    dm = build_dof_map(md, order=1)
    K = scatter(assemble_dimension(dm, 3).values(), dm.total).toarray()
    blk = dm.block(3)
    loc = blk.locals_[0]
    # single cell: the assembled block equals the local matrix up to the
    # outward/global sign conjugation
    s = np.concatenate([blk.cell_u_signs[0], np.ones(blk.n_p)])
    dofs = np.concatenate([blk.cell_u_dofs[0], blk.cell_p_dofs[0]])
    K_loc = loc.K * np.outer(s, s)
    assert np.allclose(K[np.ix_(dofs, dofs)], K_loc, atol=1e-13)


def test_doubling_count_matches_formula():
    from tests.test_mesh import problem1_spec
    mesh = box_mesh([-1, -1, -1], [1, 1, 1], (2, 2, 2))
    md = cut_background_mesh(mesh, problem1_spec())
    for k in (0, 1):
        dm = build_dof_map(md, order=k)
        per_face = dm.space(3).n_face_dofs()
        per_edge = dm.space(2).n_face_dofs()
        n_frac_faces = sum(len(fm.cells) for fm in md.fractures)
        # duplicated 3D DOFs: one extra set per fracture face
        base = build_dof_map_undoubled_count(md, dm, k)
        assert dm.block(3).n_u - base == n_frac_faces * per_face
        # each trace edge adds 2 extra sets per fracture (4 sets vs 2 shared)
        for tm in md.traces:
            for ci in range(len(tm.cells)):
                sets = [s for s in dm.interfaces
                        if (s.lower, s.lower_cell) == ((1, tm.index), ci)]
                assert len(sets) == 4


def build_dof_map_undoubled_count(md, dm, k):
    """Flux-DOF count if fracture faces were shared like interior faces."""
    mesh = md.mesh3d
    inc = mesh.face_cells()
    per_face = dm.space(3).n_face_dofs()
    blk = dm.block(3)
    n_interior_sets = sum(1 for fid, owners in inc.items() if owners)
    cell_interior = blk.n_u - per_face * sum(
        2 if mesh.face_fracture.get(fid) is not None and len(inc[fid]) == 2 else 1
        for fid in mesh.faces if inc[fid])
    return n_interior_sets * per_face + cell_interior


def continuity_md():
    """Two crossing fractures with the pressure datum x everywhere."""
    mesh = box_mesh([-1, -1, -1], [1, 1, 1], (2, 2, 2))
    f1 = FractureSpec(np.array([[-1, -1, 0], [1, -1, 0], [1, 1, 0], [-1, 1, 0]],
                               dtype=float), a2=1.0,
                      bc=BoundaryCondition("dirichlet", lambda x: x[0]))
    f2 = FractureSpec(np.array([[-1, 0, -1], [1, 0, -1], [1, 0, 1], [-1, 0, 1]],
                               dtype=float), a2=1.0,
                      bc=BoundaryCondition("dirichlet", lambda x: x[0]))
    bc3 = {t: BoundaryCondition("dirichlet", lambda x: x[0]) for t in TAGS}
    return cut_background_mesh(mesh, NetworkSpec(fractures=[f1, f2], bc3=bc3))


def test_flux_continuity_mode():
    # without trace flow: no 1D flux DOFs, multipliers approximate the trace
    # pressure; constraint rows sum duplicated DOFs to zero for RT0
    md = continuity_md()
    system = assemble_complete(md, order=0, trace_flow=False)
    dm = system.dofmap
    blk1 = dm.block(1, 0)
    assert blk1.n_u == 0 and blk1.n_p == len(md.traces[0].cells)
    assert (0, 0) not in dm.blocks  # no 0D block in this mode
    # constraint row: equal coefficients on the four duplicated edge DOFs
    row = system.matrix.tocsr()[blk1.cell_p_dofs[0][0], :].toarray().ravel()
    nz = np.nonzero(row)[0]
    assert len(nz) == 4
    assert np.allclose(row[nz], row[nz][0])

    apply_boundary_conditions(system)
    sol = solve(system)
    # multiplier approximates the trace pressure: full model in the
    # eta -> infinity, vanishing-a1 limit
    md.spec.trace_defaults.a1 = 1e-8
    system_full = assemble_complete(md, order=0, trace_flow=True)
    apply_boundary_conditions(system_full)
    sol_full = solve(system_full)
    lam = sol.x[blk1.cell_p_dofs[0][0]]
    blk1f = sol_full.dofmap.block(1, 0)
    p_full = sol_full.x[blk1f.cell_p_dofs[0][0]]
    assert lam == pytest.approx(p_full, abs=1e-6)


def test_determinism():
    from tests.test_mesh import problem1_spec
    results = []
    for _ in range(2):
        mesh = box_mesh([-1, -1, -1], [1, 1, 1], (2, 2, 2))
        md = cut_background_mesh(mesh, problem1_spec(
            bc=BoundaryCondition("dirichlet", 1.0)))
        md.spec.bc3 = {t: BoundaryCondition("dirichlet", 1.0) for t in TAGS}
        md.spec.trace_defaults.bc = BoundaryCondition("dirichlet", 1.0)
        md.spec.intersection_defaults.bc = BoundaryCondition("dirichlet", 1.0)
        system = assemble_complete(md, order=1)
        apply_boundary_conditions(system)
        sol = solve(system)
        results.append((system.dofmap.total,
                        system.matrix.tocsr(), sol.x.copy()))
    assert results[0][0] == results[1][0]
    assert (results[0][1] != results[1][1]).nnz == 0
    assert np.array_equal(results[0][2], results[1][2])


def _lil_boundary_oracle(matrix, rhs, pinned, values, no_flow):
    """Pinned and no-flow DOFs substituted one at a time into a LIL matrix:
    the elimination the boundary conditions used before the CSR step."""
    A = matrix.tolil()
    rhs = rhs.copy()
    if pinned:
        rhs -= matrix[:, pinned] @ np.asarray(values)
    for dof, val in list(zip(pinned, values)) + [(d, 0.0) for d in no_flow]:
        A[dof, :] = 0.0
        A[:, dof] = 0.0
        A[dof, dof] = 1.0
        rhs[dof] = val
    return A.tocsr(), rhs


def _pinned_network_md():
    # the benchmark's network: fracture and trace tips, no-flow box faces;
    # its four trace intersections get a pressure datum
    from tests.test_mesh import _perfbench_network
    spec = _perfbench_network(9400)
    spec.intersection_defaults.bc = BoundaryCondition("dirichlet", 0.25)
    return cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (3, 3, 3)), spec)


def _pinned_cross_md():
    # the determinism set-up: Dirichlet data everywhere, the centre pinned
    from tests.test_mesh import problem1_spec
    md = cut_background_mesh(box_mesh([-1, -1, -1], [1, 1, 1], (2, 2, 2)),
                             problem1_spec(bc=BoundaryCondition("dirichlet", 1.0)))
    md.spec.bc3 = {t: BoundaryCondition("dirichlet", 1.0) for t in TAGS}
    md.spec.trace_defaults.bc = BoundaryCondition("dirichlet", 1.0)
    md.spec.intersection_defaults.bc = BoundaryCondition("dirichlet", 1.0)
    return md


@pytest.mark.parametrize("build_md", [_pinned_cross_md, _pinned_network_md])
def test_boundary_substitution_matches_lil_oracle(build_md):
    from mixedvem.assembly import GlobalSystem
    md = build_md()
    system = assemble_complete(md, order=1)
    A0 = system.matrix.tocsr()
    # the loads alone: on a zero matrix (no cell blocks) the substitution
    # moves nothing
    loads = GlobalSystem(cells=[], rhs=system.rhs.copy(), dofmap=system.dofmap, md=md)
    apply_boundary_conditions(loads)
    pinned = [system.dofmap.block(0, ip.index).offset for ip in md.intersections]
    assert pinned
    apply_boundary_conditions(system)
    assert np.array_equal(system.constrained, loads.constrained)
    A_ref, rhs_ref = _lil_boundary_oracle(A0, loads.rhs, pinned,
                                          loads.rhs[pinned], system.constrained)
    assert system.matrix.tocsr().nnz == A_ref.nnz
    assert (system.matrix.tocsr() != A_ref).nnz == 0
    assert np.abs(system.rhs - rhs_ref).max() <= 1e-14 * np.abs(rhs_ref).max()
    assert np.all(system.rhs[pinned] == md.spec.intersection_defaults.bc.value)
    if build_md is _pinned_network_md:
        assert any(system.dofmap.block(2, l).constrained   # fracture tip edges
                   for l in range(len(md.fractures)))
        assert len(system.constrained) > 0


def test_second_boundary_condition_call_raises():
    from mixedvem.problems import problem1_case
    case = problem1_case(order=1)
    system = assemble_complete(case.md, case.order)
    apply_boundary_conditions(system)
    A, rhs = system.matrix.tocsr(), system.rhs.copy()
    with pytest.raises(ValueError):
        apply_boundary_conditions(system)
    assert np.array_equal(system.rhs, rhs)
    assert (system.matrix.tocsr() != A).nnz == 0


def test_flux_continuity_conflicts_with_finite_eta1():
    from mixedvem.mesh import TraceData
    mesh = box_mesh([-1, -1, -1], [1, 1, 1], (2, 2, 2))
    f1 = FractureSpec(np.array([[-1, -1, 0], [1, -1, 0], [1, 1, 0], [-1, 1, 0]],
                               dtype=float))
    f2 = FractureSpec(np.array([[-1, 0, -1], [1, 0, -1], [1, 0, 1], [-1, 0, 1]],
                               dtype=float))
    spec = NetworkSpec(fractures=[f1, f2],
                       trace_defaults=TraceData(inverse_eta1=0.5))
    md = cut_background_mesh(mesh, spec)
    with pytest.raises(ConfigError):
        build_dof_map(md, order=0, trace_flow=False)


@pytest.mark.parametrize("where, data", [
    ("trace 0", {"trace_defaults": {"source": 1.0}}),
    ("trace 0", {"trace_defaults": {"bc": BoundaryCondition("dirichlet", 1.0)}}),
    ("intersection 0", {"intersection_defaults": {"source": 1.0}}),
    ("intersection 0",
     {"intersection_defaults": {"bc": BoundaryCondition("dirichlet", 0.25)}}),
], ids=["trace-source", "trace-dirichlet", "intersection-source",
        "intersection-dirichlet"])
def test_flux_continuity_rejects_data_it_has_no_equation_for(where, data):
    # without trace flow a trace carries multipliers only and an intersection
    # no unknown, so its source or pressure datum would be dropped
    from mixedvem.mesh import IntersectionData, TraceData
    spec = _perfbench_network(9400)
    spec.trace_defaults = TraceData(**data.get("trace_defaults", {}))
    spec.intersection_defaults = IntersectionData(**data.get("intersection_defaults", {}))
    md = cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (3, 3, 3)), spec)
    assert md.traces and md.intersections
    with pytest.raises(ConfigError, match=f"of {where}$"):
        build_dof_map(md, order=0, trace_flow=False)
    build_dof_map(md, order=0, trace_flow=True)


def _network_9400_md():
    return cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (4, 4, 4)),
                               _perfbench_network(9400))


def _face_kind(md, blk, key, users):
    if blk.dim == 3:
        if md.mesh3d.face_fracture.get(key) is not None:
            return "fracture"
        return "external" if len(users) == 1 else "shared"
    if blk.dim == 1:
        if any(ip.vid == key and blk.index in ip.traces
               for ip in md.intersections):
            return "intersection"
        if len(users) == 2:
            return "shared"
        return md.traces[blk.index].endpoint_class[key]
    kind = md.fractures[blk.index].edge_class.get(key, ("interior",))[0]
    return "shared" if kind == "interior" else kind


def _outward_normal(blk, ci, lf):
    geom = blk.geoms[ci]
    return (2 * lf - 1) * geom.tangent if blk.dim == 1 else geom.normals[lf]


@pytest.mark.parametrize("build_md, kinds", [
    (_network_9400_md, {(3, "fracture"), (3, "external"), (3, "shared"),
                        (2, "trace"), (2, "tip"), (2, "shared"),
                        (1, "intersection"), (1, "shared"), (1, "tip")}),
    (lambda: problem1_case(order=1, artificial_cuts=2).md,
     {(3, "fracture"), (3, "external"), (3, "shared"), (2, "trace"),
      (2, "external"), (2, "shared"), (1, "intersection"), (1, "shared"),
      (1, "external")}),
], ids=["fracture-net-9400", "problem1-cut"])
def test_fill_block_numbering_policy(build_md, kinds, monkeypatch):
    calls = []

    def recording(blk, space, geoms, face_users, split):
        dofs = fill_block(blk, space, geoms, face_users, split)
        calls.append((blk, face_users, split, dofs))
        return dofs

    monkeypatch.setattr(assembly, "fill_block", recording)
    md = build_md()
    dm = build_dof_map(md, order=1)
    assert sorted((blk.dim, blk.index) for blk, *_ in calls) == sorted(
        key for key in dm.blocks if key[0] >= 1)
    seen = set()
    for blk, face_users, split, dofs in calls:
        per = dm.space(blk.dim).n_face_dofs()
        face_ids = set()
        for key, users in face_users.items():
            kind = _face_kind(md, blk, key, users)
            seen.add((blk.dim, kind))
            assert (key in split) == (kind in ("fracture", "trace", "intersection"))
            sets = [dofs[(key, ci)] for ci, _, _ in users]
            for (ci, lf, _), (ids, sign) in zip(users, sets):
                sl = blk.locals_[ci].layout.face_slice(lf)
                assert np.array_equal(blk.cell_u_dofs[ci][sl], blk.offset + ids)
                assert np.all(blk.cell_u_signs[ci][sl] == sign)
                face_ids.update(ids.tolist())
            if kind == "shared":
                # one set; sign times outward (co-)normal is one vector
                assert len(users) == 2
                assert np.array_equal(sets[0][0], sets[1][0])
                (c0, f0, _), (c1, f1, _) = users
                n0 = sets[0][1] * _outward_normal(blk, c0, f0)
                n1 = sets[1][1] * _outward_normal(blk, c1, f1)
                assert np.allclose(n0, n1, atol=1e-12), (blk.dim, key)
            else:
                assert all(sign == 1 for _, sign in sets), (blk.dim, kind, key)
                flat = np.concatenate([ids for ids, _ in sets])
                assert len(np.unique(flat)) == per * len(users)
        # face DOFs first, then the interiors cell by cell, then pressures
        assert face_ids == set(range(len(face_ids)))
        first = len(face_ids)
        for ci, loc in enumerate(blk.locals_):
            interior = blk.cell_u_dofs[ci][loc.layout.n_face_total:] - blk.offset
            assert np.array_equal(interior, first + np.arange(len(interior)))
            first += len(interior)
        assert first == blk.n_u
        p = np.concatenate(blk.cell_p_dofs) - blk.offset
        assert np.array_equal(p, blk.n_u + np.arange(blk.n_p))
    assert kinds <= seen

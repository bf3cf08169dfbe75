"""Local element matrices: structure, identities, stabilization, 1D blocks."""

import copy
import functools

import numpy as np
import pytest
import scipy.linalg as sla

from mixedvem import geometry as geo
from mixedvem import polyspace as ps
from mixedvem import assembly, problems, solver
from mixedvem.assembly import build_dof_map
from mixedvem.elements import (ElementSpace, dof_layout, local_matrices,
                               local_matrices_1d)
from mixedvem.errors import ConditioningError, ConfigError
from mixedvem.polyspace import COND_PIVOT_TOL, equilibrated_cholesky, spd_solve
from tests.test_geometry import unit_cube_faces


def cube_geom(lo=(0, 0, 0), hi=(1, 1, 1)):
    return geo.PolyhedronGeometry(unit_cube_faces(lo, hi))


def random_polygon(rng):
    n = rng.integers(4, 8)
    gaps = rng.uniform(0.5, 1.0, n)
    ang = 2 * np.pi * np.cumsum(gaps) / gaps.sum()
    r = rng.uniform(0.4, 1.4, n)
    return geo.PolygonGeometry(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))


def random_polyhedron(rng):
    loops = unit_cube_faces()
    verts = sorted({tuple(v) for loop in loops for v in map(tuple, loop)})
    shift = {v: np.array(v) + rng.uniform(-0.12, 0.12, 3) for v in verts}
    flat = []
    for loop in loops:
        loop = np.array([shift[tuple(v)] for v in loop])
        flat.append(loop[[0, 1, 2]])
        flat.append(loop[[0, 2, 3]])
    return geo.PolyhedronGeometry(flat)


def test_space_validation():
    with pytest.raises(ValueError):
        ElementSpace(3, 0, "BDM")
    with pytest.raises(ValueError):
        ElementSpace(2, 1, "BDM")
    assert ElementSpace(3, 2, "BDM").grad_order == 1
    assert ElementSpace(2, 2, "RT").grad_order == 2


def test_dof_layout_counts():
    # RT0 on a cube: one DOF per face, no interior DOFs
    lay = dof_layout(ElementSpace(3, 0), cube_geom())
    assert (lay.n_dof, lay.n_face_total, lay.n_typeii, lay.n_typeiii) == (6, 6, 0, 0)
    # RT1 on a tetrahedron: 4*3 + 3 + 3
    tet = geo.PolyhedronGeometry([
        np.array([[0, 0, 0], [0, 1, 0], [1, 0, 0]], float),
        np.array([[0, 0, 0], [1, 0, 0], [0, 0, 1]], float),
        np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], float),
        np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]], float)])
    lay = dof_layout(ElementSpace(3, 1), tet)
    assert (lay.n_face_total, lay.n_typeii, lay.n_typeiii, lay.n_dof) == (12, 3, 3, 18)
    # RT0 on a triangle: the classical 3 edge DOFs
    tri = geo.PolygonGeometry([[0, 0], [1, 0], [0, 1]])
    assert dof_layout(ElementSpace(2, 0), tri).n_dof == 3


def test_G_on_unit_cube_rt0():
    loc = local_matrices(ElementSpace(3, 0), [cube_geom()])[0]
    assert np.allclose(loc.G, np.eye(3) / 3.0, atol=1e-13)
    loc2 = local_matrices(ElementSpace(3, 0), [cube_geom()], nu=2.0)[0]
    assert np.allclose(loc2.G_nu, 2.0 * loc2.G, atol=1e-13)
    assert np.allclose(loc.G, loc.G.T, atol=1e-14)


def test_H_structure():
    rng = np.random.default_rng(3)
    cell = random_polyhedron(rng)
    loc = local_matrices(ElementSpace(3, 1), [cell])[0]
    assert loc.H[0, 0] == pytest.approx(cell.measure, rel=1e-12)
    # H# rows repeat H rows for shared index pairs
    assert np.allclose(loc.H_hash[:loc.H.shape[0] - 1, :], loc.H[1:, :], atol=1e-13)
    # centered symmetric element: first row orthogonal to odd monomials
    sym = cube_geom((-1, -1, -1), (1, 1, 1))
    locs = local_matrices(ElementSpace(3, 1), [sym])[0]
    assert np.allclose(locs.H[0, 1:4], 0.0, atol=1e-12)


def test_H_against_tet_oracle():
    rng = np.random.default_rng(11)
    cell = random_polyhedron(rng)
    loc = local_matrices(ElementSpace(3, 1), [cell])[0]
    basis = loc.basis_p
    # oracle: independent tetrahedralization from a corner vertex
    apex = cell.face_loops[0][0]
    H = np.zeros((basis.size, basis.size))
    for tri in cell.face_loops:
        n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        sgn = -np.sign(np.dot(n, apex - tri[0]))
        if abs(np.dot(n, apex - tri[0])) < 1e-14:
            continue
        p, w = geo.tet_quadrature(np.vstack([tri, apex]), 4)
        vals = basis.evaluate(p)
        H += sgn * vals.T @ (w[:, None] * vals)
    assert np.allclose(loc.H, H, rtol=1e-10, atol=1e-12)


def test_rt0_cube_W_divergence_row():
    loc = local_matrices(ElementSpace(3, 0), [cube_geom()])[0]
    # int div(phi) = sum of face fluxes: each RT0 DOF contributes |f|
    assert np.allclose(loc.W, np.ones((1, 6)), atol=1e-12)


@pytest.mark.parametrize("d,k,family", [
    (2, 0, "RT"), (2, 1, "RT"), (2, 2, "RT"), (3, 0, "RT"), (3, 1, "RT"),
    (3, 2, "RT"), (3, 1, "BDM"), (3, 2, "BDM")])
def test_core_identities(d, k, family):
    rng = np.random.default_rng(100 * d + k + (family == "BDM"))
    for _ in range(3):
        cell = random_polygon(rng) if d == 2 else random_polyhedron(rng)
        space = ElementSpace(d, k, family)
        loc = local_matrices(space, [cell], nu=1.7)[0]
        scale = np.abs(loc.G).max()
        # consistency: B D = G
        assert np.abs(loc.B @ loc.D - loc.G).max() <= 1e-10 * scale
        # projector fixes polynomials
        n_poly = loc.G.shape[0]
        assert np.abs(loc.Pi0_hat @ loc.D - np.eye(n_poly)).max() <= 1e-10
        # idempotence
        assert np.abs(loc.Pi0 @ loc.Pi0 - loc.Pi0).max() <= 1e-10
        # stabilization vanishes on polynomials
        assert np.abs(loc.K_s @ loc.D).max() <= 1e-10 * max(np.abs(loc.K_s).max(), 1)
        # divergence of the polynomial basis is reproduced exactly
        div = loc.vec_basis.divergence_coeffs()
        pad = np.zeros((div.shape[0], loc.basis_p.size))
        pad[:, :div.shape[1]] = div
        assert np.abs(loc.V @ loc.D - pad.T).max() <= 1e-10 * max(np.abs(pad).max(), 1)


def test_divergence_of_constant_vanishes():
    loc = local_matrices(ElementSpace(3, 1), [cube_geom()])[0]
    const = np.zeros((3, loc.vec_basis.scalar.size))
    const[:, 0] = 1.0  # the constant vector field e_x+e_y+e_z... one per row
    for i in range(3):
        c = np.zeros((3, loc.vec_basis.scalar.size))
        c[i, 0] = 1.0
        dofs = loc.D @ _project_onto(loc, c)
        assert np.abs(loc.V @ dofs).max() < 1e-11


def _project_onto(loc, comp_coeffs):
    """Coefficients of a vector polynomial in the element's g-basis."""
    flat = comp_coeffs.reshape(-1)
    C = loc.vec_basis.flat_coeffs()
    sol, *_ = np.linalg.lstsq(C.T, flat, rcond=None)
    return sol


def test_consistency_of_discrete_form():
    # a_h(g, g) = int nu g.g for polynomial fields
    rng = np.random.default_rng(5)
    for d in (2, 3):
        cell = random_polygon(rng) if d == 2 else random_polyhedron(rng)
        space = ElementSpace(d, 1)
        nu = 2.3
        loc = local_matrices(space, [cell], nu=nu)[0]
        nb = loc.G.shape[0]
        for _ in range(3):
            c = rng.standard_normal(nb)
            dofs = loc.D @ c
            lhs = dofs @ (loc.K_a + loc.K_s) @ dofs
            rhs = nu * c @ loc.G @ c
            assert lhs == pytest.approx(rhs, rel=1e-9)


def test_stability_positive_definite():
    rng = np.random.default_rng(17)
    for d, k in [(2, 1), (3, 1), (3, 2)]:
        cell = random_polygon(rng) if d == 2 else random_polyhedron(rng)
        loc = local_matrices(ElementSpace(d, k), [cell], nu=1.0)[0]
        evals = np.linalg.eigvalsh(loc.K_a + loc.K_s)
        assert evals.min() > 1e-12 * evals.max()


def test_oplus_basis_independence(monkeypatch):
    # rotating the complement basis must not change the physical operators
    rng = np.random.default_rng(23)
    cell = random_polyhedron(rng)
    space = ElementSpace(3, 1)
    loc = local_matrices(space, [cell], nu=1.0)[0]

    n_op = loc.layout.n_typeiii
    theta = 0.83
    Q = np.eye(n_op)
    Q[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]

    import mixedvem.elements as el
    orig = el.oplus_coeffs

    def rotated(grad, scalar_mass):
        op = orig(grad, scalar_mass)
        return np.einsum("ab,mbj->maj", Q, op) if op.shape[1] == n_op else op

    monkeypatch.setattr(el, "oplus_coeffs", rotated)
    loc2 = local_matrices(space, [cell], nu=1.0)[0]

    # type-iii DOFs differ, so compare on the invariant face/type-ii rows and
    # the projector as an operator on shared DOFs via K and W
    assert np.allclose(loc2.W, loc.W, atol=1e-9 * max(1, np.abs(loc.W).max()))
    # K_a, K_s act on DOF vectors; type-iii entries are rotated accordingly
    T = np.eye(loc.layout.n_dof)
    T[loc.layout.typeiii_slice, loc.layout.typeiii_slice] = Q
    for A, A2 in ((loc.K_a, loc2.K_a), (loc.K_s, loc2.K_s), (loc.Pi0, loc2.Pi0)):
        assert np.abs(T @ A @ T.T - A2).max() <= 1e-9 * max(1, np.abs(A).max())


def test_local_1d_exact_matrices():
    seg = geo.SegmentGeometry([0, 0, 0], [2, 0, 0])
    space = ElementSpace(1, 1)
    loc, = local_matrices_1d(space, [seg], nu=3.0)
    # velocity space P2 on s in [-1,1]: 3 dofs (2 endpoints + 1 moment)
    assert loc.K_a.shape == (3, 3)

    def velocity_values(dofs, s):
        """The velocity of DOF values at arc-length coordinates s."""
        return loc.vec_basis.evaluate(s[:, None])[:, :, 0] @ (loc.Pi0_hat @ dofs)

    # endpoint basis functions: outward flux = 1 at their own endpoint
    v = velocity_values(np.array([1.0, 0.0, 0.0]), np.array([-1.0, 1.0]))
    assert v[0] == pytest.approx(-1.0)  # outward at left end is -tangent
    assert abs(v[1]) < 1e-12
    # W row 1 = total divergence = sum of outward fluxes
    assert np.allclose(loc.W[0], [1.0, 1.0, 0.0], atol=1e-12)

    # interpolating a quadratic flux by its DOFs reproduces it exactly
    pts, w = seg.quadrature(8)
    s = pts[:, 0]
    L = seg.measure

    def uu(x):
        return 0.3 + 0.7 * x - 0.2 * x ** 2

    mom = np.sum(w * uu(s) * (1.0 / L)) / L  # moment against m_1' = 1/L
    dofs = np.array([-uu(-L / 2), uu(L / 2), mom])
    assert np.allclose(velocity_values(dofs, s), uu(s), atol=1e-12)


def _segment_oracle(space, geom, nu):
    """The per-segment builder ``local_matrices_1d`` replaced: one segment's
    monomial bases, DOF rows, solves and products, as (name, matrix) pairs."""
    kg, L = space.grad_order, geom.measure
    basis_u = ps.MonomialBasis(1, kg + 1, np.zeros(1), L)
    basis_p = ps.MonomialBasis(1, kg, np.zeros(1), L)
    n_u = basis_u.size
    pts, w = geom.quadrature(2 * (kg + 2))
    vals_u, vals_p = basis_u.evaluate(pts), basis_p.evaluate(pts)
    D = np.zeros((n_u, n_u))
    for i, end in enumerate(geom.faces):
        D[i] = end.lex_sign * basis_u.evaluate(end.quadrature(0)[0])[0]
    if kg >= 1:
        Dp = basis_p.derivative_coeffs(0)
        vals_lo = ps.MonomialBasis(1, kg - 1, np.zeros(1), L).evaluate(pts)
        for a in range(1, kg + 1):
            D[2 + (a - 1), :] = (w * (vals_lo @ Dp[:, a])) @ vals_u / L
    phi = np.linalg.solve(D, np.eye(n_u))
    mass_u = vals_u.T @ (w[:, None] * vals_u)
    H = vals_p.T @ (w[:, None] * vals_p)
    W = vals_p.T @ (w[:, None] * (vals_p @ (basis_u.derivative_coeffs(0) @ phi)))
    V = spd_solve(H[None], W[None], "1D pressure mass matrix")[0][0]
    return [("G", mass_u), ("H", H), ("W", W), ("V", V), ("B", mass_u @ phi),
            ("D", D), ("Pi0_hat", phi), ("K", np.block(
                [[phi.T @ (nu * mass_u) @ phi, -W.T], [W, np.zeros((len(W),) * 2)]]))]


@pytest.mark.parametrize("order", [0, 1, 2, 4])
def test_stacked_1d_builder_matches_per_segment_oracle(order):
    # the traces of the benchmark network and of the quartic problem, each
    # one stack, against the per-segment builder to 1e-14 of each matrix
    from tests.test_assembly import _network_9400_md
    traces = [tm for md in (_network_9400_md(), _quartic_cut_md()[0])
              for tm in md.traces]
    space = ElementSpace(1, order)
    for tm in traces:
        geoms = [cell.geometry for cell in tm.cells]
        locs = local_matrices_1d(space, geoms, nu=2.5)
        assert len(locs) == len(geoms) > 1
        for geom, loc in zip(geoms, locs):
            assert loc.measure == geom.measure
            assert loc.basis_p.scale == loc.vec_basis.scalar.scale == geom.measure
            for name, want in _segment_oracle(space, geom, 2.5):
                got = getattr(loc, name)
                assert got.shape == want.shape, name
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), name


@pytest.mark.parametrize("nu", [lambda x: 2.5, np.eye(3), 0.0, -1.0,
                                np.inf, float("nan"), "2.5"])
def test_nu_must_be_positive_number(nu):
    with pytest.raises(ConfigError):
        local_matrices(ElementSpace(3, 1), [cube_geom()], nu=nu)
    with pytest.raises(ConfigError):
        local_matrices_1d(ElementSpace(1, 1),
                          [geo.SegmentGeometry([0, 0, 0], [2, 0, 0])], nu=nu)


# -- the per-cell oracle -------------------------------------------------------
#
# ``local_matrices`` builds a whole block at once.  The functions below are the
# straightforward per-cell, per-face construction it replaced, kept as the
# reference the batched builder must reproduce.

def _oracle_spd_solve(M, rhs, what):
    dg = np.diag(M).copy()
    if np.any(dg <= 0):
        raise ConditioningError(f"{what} is not positive definite")
    s = 1.0 / np.sqrt(dg)
    Ms = M * np.outer(s, s)
    try:
        c, low = sla.cho_factor(Ms, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"{what} is not positive definite") from exc
    piv = np.diag(c) ** 2
    if piv.min() < COND_PIVOT_TOL * piv.max():
        raise ConditioningError(f"{what} is numerically singular")

    def solve(b):
        return s[:, None] * sla.cho_solve((c, low), s[:, None] * b, check_finite=False)

    x = solve(rhs)
    return x + solve(rhs - M @ x)


@functools.lru_cache(maxsize=None)
def _oracle_complement_picks(d, k):
    """The canonical vector monomials the complement starts from: each
    candidate, highest degree first, is kept when it raises the rank of the
    exact unit gradients and the candidates kept before."""
    unit = ps.gradient_basis(ps.MonomialBasis(d, k, np.zeros(d), 1.0)).flat_coeffs()
    eye = np.eye(unit.shape[1])
    degree = np.tile([sum(alpha) for alpha in ps.monomial_exponents(d, k)], d)
    rows, picks = unit, []
    for c in sorted(range(len(degree)), key=lambda c: -degree[c]):
        trial = np.vstack([rows, eye[c]])
        if np.linalg.matrix_rank(trial) == len(trial):
            rows = trial
            picks.append(c)
    return sorted(picks)


def _oracle_oplus(basis_k, scalar_mass):
    d, n_k = basis_k.dim, basis_k.size
    n_grad = ps.dim_poly(d, basis_k.order + 1) - 1
    if d * n_k == n_grad:
        return np.zeros((0, d * n_k))
    C = ps.gradient_basis(basis_k).flat_coeffs()
    M = np.kron(np.eye(d), scalar_mass)
    E = np.eye(d * n_k)[_oracle_complement_picks(d, basis_k.order)]
    # E minus its M-orthogonal projection on the gradients, M-orthonormalized
    W = E - _oracle_spd_solve(C @ M @ C.T, C @ M @ E.T, "gradient Gram").T @ C
    for _ in range(2):
        L = sla.cholesky(W @ M @ W.T, lower=True)
        W = sla.solve_triangular(L, W, lower=True)
    return W


def _oracle_local_matrices(space, geom, nu, quad_order):
    """One cell's matrices, face by face (a dict of the compared fields)."""
    d, k = space.dim, space.order
    layout = dof_layout(space, geom)
    xE, hE = np.asarray(geom.centroid, dtype=float), geom.diameter
    basis_k1 = ps.MonomialBasis(d, k + 1, xE, hE)
    basis_k = ps.MonomialBasis(d, k, xE, hE)
    n_k, n_k1 = basis_k.size, basis_k1.size
    n_p = ps.dim_poly(d, space.grad_order)
    n_grad = n_k1 - 1

    pts, w = geom.quadrature(quad_order)
    vals_k1 = basis_k1.evaluate(pts)
    H_full = vals_k1.T @ (w[:, None] * vals_k1)
    H, H_hash, H_k = H_full[:n_p, :n_p], H_full[1:, :n_p], H_full[:n_k, :n_k]

    C_all = np.vstack([ps.gradient_basis(basis_k).flat_coeffs(),
                       _oracle_oplus(basis_k, H_k)])
    vec = ps.VectorPolyBasis(basis_k, C_all.reshape(-1, d, n_k))
    G = C_all @ np.kron(np.eye(d), H_k) @ C_all.T
    G = 0.5 * (G + G.T)

    n_dof, nf = layout.n_dof, layout.n_face_total
    W = np.zeros((n_p, n_dof))
    for a in range(1, n_p):
        W[a, nf + a - 1] = -geom.measure
    B2 = np.zeros((n_grad, n_dof))
    D = np.zeros((n_dof, d * n_k))
    face_dual = []
    for i, face in enumerate(geom.faces):
        fb = ps.MonomialBasis(d - 1, k, np.zeros(d - 1), face.diameter)
        fpts, fw = face.quadrature(quad_order)
        Ff = fb.evaluate(face.to_face_coords(fpts))
        M_f = Ff.T @ (fw[:, None] * Ff)
        dual = _oracle_spd_solve(M_f, np.eye(fb.size) * face.measure, "face mass")
        moments = basis_k1.evaluate(fpts).T @ (fw[:, None] * (Ff @ dual))
        sl = layout.face_slice(i)
        W[:, sl] = moments[:n_p, :]
        B2[:, sl] = moments[1:, :]
        gface = vec.evaluate(fpts) @ geom.normals[i]
        D[sl, :] = (Ff * fw[:, None]).T @ gface / face.measure
        face_dual.append(dual)

    V = _oracle_spd_solve(H, W, "H")
    B = np.zeros((d * n_k, n_dof))
    B[:n_grad, :] = -H_hash @ V + B2
    for g in range(layout.n_typeiii):
        B[n_grad + g, nf + layout.n_typeii + g] = geom.measure
    D[layout.typeii_slice, :] = G[: n_p - 1, :] / geom.measure
    D[layout.typeiii_slice, :] = G[n_grad:, :] / geom.measure
    Pi0_hat = _oracle_spd_solve(G, B, "G")
    K_a = Pi0_hat.T @ (nu * G) @ Pi0_hat
    R = np.eye(n_dof) - D @ Pi0_hat
    K = np.zeros((n_dof + n_p, n_dof + n_p))
    K[:n_dof, :n_dof] = 0.5 * (K_a + K_a.T) + nu * geom.measure * (R.T @ R)
    K[:n_dof, n_dof:] = -W.T
    K[n_dof:, :n_dof] = W
    return {"K": K, "Pi0_hat": Pi0_hat, "V": V, "H": H, "B": B, "D": D, "G": G,
            "face_dual": np.array(face_dual)}


def _oracle_gaps(space, geoms, locs, nu, quad_order=None):
    """Per field, the largest max|batched - oracle| / max|oracle| over cells."""
    quad_order = 2 * (space.order + 1) if quad_order is None else quad_order
    assert len(locs) == len(geoms)
    worst = {}
    for geom, loc in zip(geoms, locs):
        want = _oracle_local_matrices(space, geom, nu, quad_order)
        for name, ref in want.items():
            got = getattr(loc, name)
            assert got.shape == ref.shape, name
            gap = np.abs(got - ref).max() / np.abs(ref).max()
            worst[name] = max(worst.get(name, 0.0), gap)
    return worst


def _assert_gaps(gaps, bound, order):
    for name, gap in gaps.items():
        # At order 4 the gradient rows of B (face moments minus H# V) cancel
        # to about 1e-9 of their terms: the oracle's own B moves by 1.4e-9
        # when its face points move by one ulp, so B is held to 1e-8 there.
        limit = 1e-8 if (name == "B" and order == 4) else bound
        assert gap <= limit, (name, gap)


def _network_md():
    from mixedvem.mesh import box_mesh, cut_background_mesh
    from tests.test_mesh import _perfbench_network

    return cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (4, 4, 4)),
                               _perfbench_network(9400))


def _case_md(make, **kw):
    case = make(**kw)
    return case.md, case.order, case.family3d


def _quartic_cut_md():
    return _case_md(problems.problem1_case, order=4, artificial_cuts=2)


ORACLE_CASES = [
    # (id, () -> (mesh, order, 3D family), bound)
    ("fracture-net-9400", lambda: (_network_md(), 1, "RT"), 1e-12),
    ("problem1-order4-cut2", _quartic_cut_md, 1e-9),
    ("problem1-bdm2",
     lambda: _case_md(problems.problem1_case, order=2, family3d="BDM"), 1e-12),
    ("poisson3d-3", lambda: _case_md(problems.poisson3d_case, n=3, order=0), 1e-12),
]


@pytest.mark.parametrize("make,bound", [c[1:] for c in ORACLE_CASES],
                         ids=[c[0] for c in ORACLE_CASES])
def test_batched_blocks_match_per_cell_oracle(make, bound):
    md, order, family3d = make()
    dm = build_dof_map(md, order, family3d)
    checked = set()
    for (dim, _), blk in dm.blocks.items():
        if dim in (2, 3):
            _assert_gaps(_oracle_gaps(dm.space(dim), blk.geoms, blk.locals_,
                                      blk.nu), bound, order)
            checked.add(dim)
    assert checked == ({2, 3} if md.fractures else {3})


def test_mixed_polygon_batch_matches_oracle():
    rng = np.random.default_rng(31)
    cells = [random_polygon(rng) for _ in range(40)]
    assert {c.n_faces for c in cells} == {4, 5, 6, 7}
    for k in (0, 1, 2):
        space = ElementSpace(2, k)
        locs = local_matrices(space, cells, nu=0.7)
        _assert_gaps(_oracle_gaps(space, cells, locs, 0.7), 1e-12, k)


def _complement_rows(loc):
    return loc.vec_basis.coeffs[loc.vec_basis.size - loc.layout.n_typeiii:]


def _solve(md, order, family3d):
    system = assembly.assemble_complete(md, order, family3d=family3d)
    assembly.apply_boundary_conditions(system)
    return system.dofmap, solver.solve(system, tol=1e-10).x


def _relative_gap(a, b):
    return np.abs(a - b).max() / max(np.abs(a).max(), 1e-300)


@pytest.mark.parametrize("make", [lambda: (_network_md(), 1, "RT"), _quartic_cut_md],
                         ids=["fracture-net-9400", "quartic-cut"])
def test_one_ulp_centroid_move_is_a_rounding_change(make, monkeypatch):
    # The complement is a continuous function of the cell: moving every
    # centroid (the monomials' centre) by one ulp moves the type-iii basis,
    # each cell's K and the solution by rounding amounts.  An eigenbasis of
    # the d-fold mass matrix rotated them by O(1): 2.2, 0.11 and 2.0 on
    # fracture-net.
    md, order, family3d = make()
    dm, x = _solve(md, order, family3d)

    def moved(space, geoms, nu):
        geoms = [copy.copy(geom) for geom in geoms]
        for geom in geoms:
            geom.centroid = np.nextafter(geom.centroid, np.inf)
        return local_matrices(space, geoms, nu=nu)

    monkeypatch.setattr(assembly, "local_matrices", moved)
    dm_moved, x_moved = _solve(md, order, family3d)
    worst = {"complement": 0.0, "K": 0.0}
    for key, blk in dm.blocks.items():
        if blk.dim < 2:
            continue
        for loc, loc_moved in zip(blk.locals_, dm_moved.blocks[key].locals_):
            worst["complement"] = max(worst["complement"], _relative_gap(
                _complement_rows(loc), _complement_rows(loc_moved)))
            worst["K"] = max(worst["K"], _relative_gap(loc.K, loc_moved.K))
    # measured: 8e-11, 1.2e-9 and 3e-8 on quartic-cut, 1e-14 on fracture-net
    assert worst["complement"] <= 1e-9, worst
    assert worst["K"] <= 1e-7, worst
    assert _relative_gap(x, x_moved) <= 1e-6


def test_complement_is_orthonormal_on_quartic_cut_cells():
    md, order, family3d = _quartic_cut_md()
    dm = build_dof_map(md, order, family3d)
    locs = [loc for blk in dm.blocks.values() if blk.dim >= 2 for loc in blk.locals_]
    for loc in locs:
        # G is the Gram matrix of the gradient ++ complement rows
        n_op = loc.layout.n_typeiii
        n_grad = loc.vec_basis.size - n_op
        scale = np.sqrt(np.diag(loc.G))
        cosine = loc.G[:n_grad, n_grad:] / np.outer(scale[:n_grad], scale[n_grad:])
        assert np.abs(cosine).max() <= 1e-12
        assert np.abs(loc.G[n_grad:, n_grad:] - np.eye(n_op)).max() <= 1e-10


def _sliver_face_cube(eps):
    """The unit cube with its top split into three coplanar faces, one a
    sliver of width ``eps`` along the diagonal (so oblique to its frame)."""
    A, B, C = (0, 0, 1), (1, 1, 1), (1, 1 - eps, 1)
    loops = [[(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)],
             [A, (1, 0, 1), C], [A, C, B], [A, B, (0, 1, 1)],
             [(0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)],
             [(0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)],
             [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0)],
             [(1, 0, 0), (1, 1, 0), (1, 1, 1), C, (1, 0, 1)]]
    return geo.PolyhedronGeometry([np.array(loop, dtype=float) for loop in loops])


def test_singular_face_mass_fails_whole_batch():
    rng = np.random.default_rng(5)
    cells = [random_polyhedron(rng) for _ in range(3)]
    space = ElementSpace(3, 2)
    assert len(local_matrices(space, cells)) == 3
    assert len(local_matrices(space, [_sliver_face_cube(1e-3)])) == 1
    # at width 1e-5 the quadratic face monomials are dependent to roundoff
    with pytest.raises(ConditioningError, match="face mass matrix"):
        local_matrices(space, cells[:1] + [_sliver_face_cube(1e-5)] + cells[1:])


def test_pivot_ratio_is_on_the_squared_factor_diagonal():
    # s M s = L D L^T: for [[1, c], [c, 1]] the pivots are 1 and 1 - c^2
    def M(c):
        return np.array([[[1.0, c], [c, 1.0]]])

    assert equilibrated_cholesky(M(0.5), "M")[2] == pytest.approx(0.75)
    c = 1.0 - 1e-15              # factorizes, with a pivot near 2e-15
    np.linalg.cholesky(M(c))
    with pytest.raises(ConditioningError, match="M is numerically singular"):
        equilibrated_cholesky(M(c), "M")
    # at width 3e-4 the quadratic face mass matrix factorizes, but its
    # smallest pivot is under COND_PIVOT_TOL of its largest
    with pytest.raises(ConditioningError, match="face mass matrix is numerically"):
        local_matrices(ElementSpace(3, 2), [_sliver_face_cube(3e-4)])


def test_spd_solve_refinement_lowers_residual():
    # over a stack of ill-conditioned SPD systems, the refined solution's
    # median residual is clearly below that of the one solve it starts from
    rng = np.random.default_rng(0)
    m, n = 200, 20
    Q, _ = np.linalg.qr(rng.standard_normal((m, n, n)))
    M = (Q * np.geomspace(1.0, 1e-10, n)) @ Q.transpose(0, 2, 1)
    M = 0.5 * (M + M.transpose(0, 2, 1))
    b = rng.standard_normal((m, n, 3))
    s = 1.0 / np.sqrt(np.diagonal(M, axis1=1, axis2=2))[:, :, None]
    plain = s * np.linalg.solve(M * s * s.transpose(0, 2, 1), s * b)

    def residual(x):
        return np.linalg.norm(b - M @ x, axis=(1, 2)) / np.linalg.norm(x, axis=(1, 2))

    refined, _ = spd_solve(M, b, "test matrix")
    assert np.median(residual(refined) / residual(plain)) < 0.9

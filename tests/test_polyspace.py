"""Monomial bases, gradient/complement decomposition, dimension counts."""

import numpy as np
import pytest

from mixedvem import geometry as geo
from mixedvem import polyspace as ps

RNG = np.random.default_rng(42)


@pytest.mark.parametrize("d,k,want", [(3, 0, 1), (2, 2, 6), (3, 4, 35),
                                      (1, 3, 4), (3, -1, 0)])
def test_dim_poly(d, k, want):
    assert ps.dim_poly(d, k) == want


def test_monomial_ordering_fixed():
    exps = ps.monomial_exponents(2, 2)
    assert exps == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert ps.monomial_exponents(3, 1) == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_eval_at_center_and_1d_scaling():
    basis = ps.MonomialBasis(3, 2, np.array([0.3, -0.2, 1.0]), 2.0)
    vals = basis.evaluate(np.array([[0.3, -0.2, 1.0]]))[0]
    assert vals[0] == 1.0
    assert np.allclose(vals[1:], 0.0)

    b1 = ps.MonomialBasis(1, 1, np.array([0.0]), 2.0)
    assert np.allclose(b1.evaluate([[1.0]])[0], [1.0, 0.5])

    # points with no coordinates (a segment's end): the constant only
    assert ps.monomial_exponents(0, 3) == ((),)
    for k in (0, 3):
        assert np.array_equal(ps.monomials(np.zeros((4, 0)), k), np.ones((4, 1)))


def test_eval_matches_power_product_oracle():
    for center, k in (([0.1, 0.4], 3), ([0.1, 0.4, -0.3], 5)):
        basis = ps.MonomialBasis(len(center), k, np.array(center), 1.7)
        pts = RNG.uniform(-1, 1, (10, len(center)))
        vals = basis.evaluate(pts)
        xi = (pts - basis.center) / basis.scale
        for j, alpha in enumerate(basis.exponents):
            want = np.prod(xi ** np.array(alpha), axis=1)
            assert np.allclose(vals[:, j], want, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("d,k,count", [(3, 1, 9), (2, 0, 2), (3, 0, 3)])
def test_gradient_basis_counts(d, k, count):
    basis = ps.MonomialBasis(d, k, np.zeros(d), 1.5)
    grad = ps.gradient_basis(basis)
    assert grad.size == count
    if k == 0:
        vals = grad.evaluate(np.zeros((1, d)))[0]
        assert np.allclose(vals, np.eye(d) / 1.5)


def test_gradient_matches_finite_differences():
    basis = ps.MonomialBasis(3, 2, np.array([0.2, -0.1, 0.5]), 1.3)
    up = ps.MonomialBasis(3, 3, basis.center, basis.scale)
    grad = ps.gradient_basis(basis)
    pts = RNG.uniform(-1, 1, (4, 3))
    h = 1e-6
    vals = grad.evaluate(pts)
    for b in range(grad.size):
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (up.evaluate(pts + e)[:, b + 1] - up.evaluate(pts - e)[:, b + 1]) / (2 * h)
            assert np.allclose(vals[:, b, i], fd, rtol=1e-6, atol=1e-6)


def _scalar_mass(poly, basis):
    pts, w = poly.quadrature(2 * basis.order + 2)
    V = basis.evaluate(pts)
    return V.T @ (w[:, None] * V)


def _oplus(basis, H):
    """Complement rows (n_oplus, d*n_k) of one element: a stack of one."""
    grad = ps.gradient_basis(basis).flat_coeffs()
    return ps.oplus_coeffs(grad[None], H[None])[0]


def test_oplus_counts_and_orthogonality():
    square = geo.PolygonGeometry([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    basis = ps.MonomialBasis(2, 1, square.centroid, square.diameter)
    H = _scalar_mass(square, basis)
    op = _oplus(basis, H)
    assert len(op) == 1  # 2*3 - 5

    grad = ps.gradient_basis(basis)
    M = ps.vector_monomial_mass(H, 2)
    cross = grad.flat_coeffs() @ M @ op.T
    diag = np.abs(np.diag(grad.flat_coeffs() @ M @ grad.flat_coeffs().T)).max()
    assert np.abs(cross).max() <= 1e-10 * diag

    cube_basis = ps.MonomialBasis(3, 0, np.zeros(3), 1.0)
    cube = geo.PolyhedronGeometry(
        [np.asarray(f) for f in __import__("tests.test_geometry", fromlist=["unit_cube_faces"]).unit_cube_faces()])
    Hc = _scalar_mass(cube, cube_basis)
    assert len(_oplus(cube_basis, Hc)) == 0


@pytest.mark.parametrize("d,k", [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4),
                                 (3, 0), (3, 1), (3, 2), (3, 3), (3, 4)])
def test_full_space_spanned(d, k):
    from tests.test_geometry import unit_cube_faces

    if d == 2:
        poly = geo.PolygonGeometry([[0, 0], [1.3, 0.1], [1.1, 1.2], [-0.2, 0.9]])
    else:
        poly = geo.PolyhedronGeometry(unit_cube_faces((0, 0, 0), (1.1, 0.9, 1.3)))
    basis = ps.MonomialBasis(d, k, poly.centroid, poly.diameter)
    H = _scalar_mass(poly, basis)
    grad = ps.gradient_basis(basis)
    op = _oplus(basis, H)
    assert len(op) == d * ps.dim_poly(d, k) - (ps.dim_poly(d, k + 1) - 1)
    C = np.vstack([grad.flat_coeffs(), op])
    M = ps.vector_monomial_mass(H, d)
    gram = C @ M @ C.T
    assert np.linalg.matrix_rank(gram, tol=1e-10 * np.abs(np.diag(gram)).max()) \
        == d * ps.dim_poly(d, k)


def test_oplus_empty_in_1d():
    basis = ps.MonomialBasis(1, 2, np.zeros(1), 1.0)
    H = np.diag([2.0, 2 / 3, 2 / 5])  # exact on [-1, 1]
    assert len(_oplus(basis, H)) == 0


def test_divergence_coeffs_against_quadrature():
    square = geo.PolygonGeometry([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    basis = ps.MonomialBasis(2, 2, square.centroid, square.diameter)
    grad = ps.gradient_basis(basis)
    div = grad.divergence_coeffs()
    low = ps.MonomialBasis(2, 1, basis.center, basis.scale)
    pts = RNG.uniform(-1, 1, (6, 2))
    h = 1e-6
    for b in range(grad.size):
        fd = np.zeros(len(pts))
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd += (grad.evaluate(pts + e)[:, b, i] - grad.evaluate(pts - e)[:, b, i]) / (2 * h)
        want = low.evaluate(pts) @ div[b]
        assert np.allclose(fd, want, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("n", [0, 1, 16, 17, 180])
def test_lower_inverse_matches_dense_inverse(n):
    # n = 16 is the last size substituted row by row, 17 the first split
    # (its leading block gets a unit row), 180 splits three times
    rng = np.random.default_rng(n)
    M = rng.normal(size=(5, n, n))
    L = np.linalg.cholesky(M @ M.transpose(0, 2, 1) + n * np.eye(n))
    X = ps.lower_inverse(L)
    assert X.shape == L.shape
    if n:
        ref = np.linalg.inv(L)
        assert np.abs(X - ref).max() <= 1e-13 * np.abs(ref).max()
        assert not np.triu(X, 1).any()
        # a single matrix is a stack of one
        assert np.abs(ps.lower_inverse(L[0]) - X[0]).max() <= 1e-15 * np.abs(ref).max()

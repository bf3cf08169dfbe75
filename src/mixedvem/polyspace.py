"""Scaled monomial bases and vector polynomial decompositions.

Scalar polynomials on an element are expanded in scaled monomials
((x - x_E)/h_E)^alpha with a fixed graded-lexicographic ordering (degree
first, then lexicographic in the exponent tuple); the first entry is the
constant 1.  Vector polynomials of degree k are expanded over the d*n_k
canonical vector monomials, ordered component-major: entry (i, j) is the
j-th scalar monomial times the i-th unit vector.

The space of degree-k vector polynomials splits as gradients of degree-(k+1)
scalars plus an element-dependent L2-orthogonal complement; both parts are
represented by coefficient matrices over the canonical vector monomials.

``monomials`` makes each entry of degree q >= 1 with one multiply: a
degree-(q-1) entry times one coordinate.  The complement (``oplus_coeffs``)
starts from canonical vector monomials fixed per (d, k), so it is a
continuous function of the element's mass matrix.  Its SPD algebra is the
one the element layer and the global solve's cell eliminations use: a Jacobi
equilibrated Cholesky factor with a pivot-ratio check
(``equilibrated_cholesky``), its inverse (``inverse_factor``) and a solve
refined once on it (``spd_solve``).  Every triangular inverse, here and in
the global solve's fronts, is ``lower_inverse``: numpy only, on whole stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import ConditioningError


def dim_poly(d: int, k: int) -> int:
    """Dimension of the degree-k polynomial space in d variables (0 for k=-1)."""
    if k < 0:
        return 0
    return comb(k + d, d)


@lru_cache(maxsize=None)
def monomial_exponents(d: int, k: int) -> tuple:
    """Graded-lex exponent tuples for all monomials of total degree <= k."""
    out = []
    for deg in range(k + 1):
        out.extend(_fixed_degree_lex(d, deg))
    return tuple(out)


def _fixed_degree_lex(d, deg):
    if d == 0:   # the constant is the one monomial in no variables
        return [()] if deg == 0 else []
    out = []
    for first in range(deg, -1, -1):
        out.extend((first,) + rest for rest in _fixed_degree_lex(d - 1, deg - first))
    return out


@lru_cache(maxsize=None)
def _monomial_runs(d: int, k: int) -> tuple:
    """The parent/variable table of ``monomials``, in runs.

    For each degree q = 1..k and variable i, the degree-q monomials whose
    first nonzero exponent is that of x_i are x_i times the degree-(q-1)
    monomials in x_i..x_{d-1}: a contiguous run at the end of the degree-(q-1)
    block, in the same order.  Each entry is (i, first monomial, first
    parent, run length).
    """
    runs = []
    for q in range(1, k + 1):
        dst = end = dim_poly(d, q - 1)
        for i in range(d):
            count = comb(q - 1 + d - 1 - i, d - 1 - i)
            runs.append((i, dst, end - count, count))
            dst += count
    return tuple(runs)


def monomials(xi, order: int) -> np.ndarray:
    """Values of all monomials of degree <= order at scaled coordinates.

    ``xi`` holds one point per row, already centered and scaled; the result
    has shape (npts, dim_poly(d, order)) in graded-lex order (a transposed,
    monomial-major array).  Each entry of degree q >= 1 is one product of a
    degree-(q-1) entry and one coordinate.  Points with no coordinates,
    (npts, 0), have the constant as their one monomial.
    """
    n, d = xi.shape
    vals = np.empty((dim_poly(d, order), n))
    vals[0] = 1.0
    coords = np.ascontiguousarray(xi.T)
    for i, dst, src, count in _monomial_runs(d, order):
        np.multiply(vals[src:src + count], coords[i], out=vals[dst:dst + count])
    return vals.T


@lru_cache(maxsize=None)
def _exponent_index(d: int, k: int):
    return {alpha: i for i, alpha in enumerate(monomial_exponents(d, k))}


@dataclass(frozen=True)
class MonomialBasis:
    """Scaled monomials of degree <= order, centered and scaled per element."""

    dim: int
    order: int
    center: np.ndarray
    scale: float

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("monomial scale h_E must be positive")

    @property
    def size(self):
        return dim_poly(self.dim, self.order)

    @property
    def exponents(self):
        return monomial_exponents(self.dim, self.order)

    def evaluate(self, points) -> np.ndarray:
        """Values of all monomials at the given points, shape (npts, size)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return monomials((pts - np.asarray(self.center, dtype=float)) / self.scale,
                         self.order)

    def derivative_coeffs(self, direction: int) -> np.ndarray:
        """Matrix mapping coefficients to d/dx_i coefficients (degree k-1 basis).

        Shape (dim_poly(d, order-1), size); includes the 1/h_E chain factor.
        """
        lower = _exponent_index(self.dim, max(self.order - 1, 0))
        D = np.zeros((dim_poly(self.dim, self.order - 1), self.size))
        for j, alpha in enumerate(self.exponents):
            if alpha[direction] == 0:
                continue
            beta = list(alpha)
            beta[direction] -= 1
            D[lower[tuple(beta)], j] = alpha[direction] / self.scale
        return D


class VectorPolyBasis:
    """A set of degree-k vector polynomials given by coefficient rows.

    ``coeffs`` has shape (n_basis, d, n_k): row b gives, for each vector
    component i, the scaled-monomial coefficients of that component.
    """

    def __init__(self, scalar_basis: MonomialBasis, coeffs: np.ndarray):
        self.scalar = scalar_basis
        self.coeffs = np.asarray(coeffs, dtype=float)

    @property
    def size(self):
        return self.coeffs.shape[0]

    def flat_coeffs(self):
        """Rows over the component-major canonical vector monomials."""
        n, d, nk = self.coeffs.shape
        return self.coeffs.reshape(n, d * nk)

    def evaluate(self, points):
        """Values, shape (npts, n_basis, d)."""
        mono = self.scalar.evaluate(points)  # (npts, n_k)
        return np.einsum("bij,pj->pbi", self.coeffs, mono)

    def divergence_coeffs(self):
        """Divergence of each entry in the degree-(k-1) scaled monomials."""
        d = self.scalar.dim
        out = np.zeros((self.size, dim_poly(d, self.scalar.order - 1)))
        for i in range(d):
            Di = self.scalar.derivative_coeffs(i)
            out += self.coeffs[:, i, :] @ Di.T
        return out


def gradient_basis(basis_k: MonomialBasis) -> VectorPolyBasis:
    """Gradients of the scaled monomials of degree 1..k+1 on the element.

    Entry beta is the gradient of monomial beta+1 of the degree-(k+1) basis;
    each entry is a degree-k vector polynomial.
    """
    d, k = basis_k.dim, basis_k.order
    up = MonomialBasis(d, k + 1, basis_k.center, basis_k.scale)
    n_up = up.size
    coeffs = np.zeros((n_up - 1, d, basis_k.size))
    for i in range(d):
        Di = up.derivative_coeffs(i)  # (n_k, n_up)
        coeffs[:, i, :] = Di.T[1:, :]
    return VectorPolyBasis(basis_k, coeffs)


def vector_monomial_mass(scalar_mass: np.ndarray, d: int) -> np.ndarray:
    """Mass matrices of the canonical vector monomials (component-major):
    ``d`` copies of each scalar mass matrix in a stack (..., n, n) on the
    diagonal."""
    n = scalar_mass.shape[-1]
    out = np.zeros(scalar_mass.shape[:-2] + (d * n, d * n))
    for i in range(d):
        out[..., i * n:(i + 1) * n, i * n:(i + 1) * n] = scalar_mass
    return out


# Smallest pivot ratio (``equilibrated_cholesky``) of an accepted local SPD
# factorization.
COND_PIVOT_TOL = 1e-13


def equilibrated_cholesky(M, what):
    """Cholesky factors ``L`` of a stack of SPD matrices after Jacobi
    equilibration, ``s M s = L L^T`` with ``s = diag(M)^-1/2``, and the
    smallest pivot ratio of each matrix.  The pivots are those of
    ``L D L^T``, the squared diagonal of ``L``; a failed factorization, or a
    ratio under ``COND_PIVOT_TOL``, raises ConditioningError for the stack."""
    dg = np.diagonal(M, axis1=1, axis2=2)
    if not np.all(dg > 0):   # NaN fails too
        raise ConditioningError(f"{what} is not positive definite")
    s = 1.0 / np.sqrt(dg)
    try:
        L = np.linalg.cholesky(M * s[:, :, None] * s[:, None, :])
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"{what} is not positive definite") from exc
    piv = np.diagonal(L, axis1=1, axis2=2) ** 2
    ratio = np.min(piv / piv.max(axis=1, initial=0.0, keepdims=True), axis=1,
                   initial=1.0)
    if not ratio.min(initial=1.0) >= COND_PIVOT_TOL:
        raise ConditioningError(f"{what} is numerically singular")
    return L, s, ratio


# ``lower_inverse`` substitutes row by row up to this size
SUBSTITUTION_SIZE = 16


def lower_inverse(L):
    """Inverses of a stack (..., n, n) of nonsingular lower-triangular
    matrices.  Above ``SUBSTITUTION_SIZE`` the 2x2 block recursion
    ``[[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]`` inverts both
    diagonal blocks as one stack (at an odd size ``A`` gets a unit row to
    match ``C``), so the row substitution at the bottom runs once over every
    block of every matrix."""
    n = L.shape[-1]
    if n <= SUBSTITUTION_SIZE:
        d = 1.0 / np.diagonal(L, axis1=-2, axis2=-1)
        M = L * -d[..., :, None]   # rows of the unit factor, negated
        Y = np.zeros(L.shape)
        Y[..., range(n), range(n)] = 1.0
        for i in range(1, n):
            np.matmul(M[..., i:i + 1, :i], Y[..., :i, :i], out=Y[..., i:i + 1, :i])
        return Y * d[..., None, :]
    h = n // 2
    A = L[..., :h, :h]
    if n % 2:
        A = np.zeros(L.shape[:-2] + (h + 1, h + 1))
        A[..., :h, :h] = L[..., :h, :h]
        A[..., h, h] = 1.0
    A, C = lower_inverse(np.stack([A, L[..., h:, h:]]))
    A = A[..., :h, :h]
    X = np.zeros(L.shape)
    X[..., :h, :h], X[..., h:, h:] = A, C
    X[..., h:, :h] = -C @ (L[..., h:, :h] @ A)
    return X


def inverse_factor(M, what):
    """``R`` with ``M^-1 = R^T R`` for a stack of SPD matrices: ``R = L^-1 s``
    on the factor of ``equilibrated_cholesky`` (whose checks it makes).
    Returns ``R`` and the smallest pivot ratio of each matrix."""
    L, s, ratio = equilibrated_cholesky(M, what)
    return lower_inverse(L) * s[:, None, :], ratio


def spd_solve(M, rhs, what):
    """Solve a stack of SPD systems M x = rhs, (m, n, n) and (m, n, r), with
    the inverse factor of ``inverse_factor``, and refine once.  Returns the
    solutions and the smallest pivot ratio of each system."""
    R, ratio = inverse_factor(M, what)
    Rt = R.transpose(0, 2, 1)
    x = Rt @ (R @ rhs)
    return x + Rt @ (R @ (rhs - M @ x)), ratio


@lru_cache(maxsize=None)
def _complement_monomials(d: int, k: int) -> np.ndarray:
    """The canonical vector monomials that start the complement basis.

    A greedy rank test on the exact gradients of the unit-scale degree-(k+1)
    monomials: the candidates, by degree with the highest first (then
    component-major), are kept when independent of the gradients and of the
    candidates kept before.  Returns their indices in canonical order.
    """
    unit = gradient_basis(MonomialBasis(d, k, np.zeros(d), 1.0)).flat_coeffs()
    n_full = unit.shape[1]
    degree = np.tile(np.sum(monomial_exponents(d, k), axis=1), d)
    span = np.linalg.qr(unit.T)[0]   # orthonormal columns
    picks = []
    for c in np.argsort(-degree, kind="stable"):
        r = np.eye(n_full)[c]
        for _ in range(2):   # twice, for an orthogonal residual
            r = r - span @ (span.T @ r)
        if np.linalg.norm(r) > 1e-8:   # the rows are small integers
            span = np.column_stack([span, r / np.linalg.norm(r)])
            picks.append(c)
    picks = np.sort(picks)
    picks.flags.writeable = False   # shared by every caller
    return picks


def oplus_coeffs(grad: np.ndarray, scalar_mass: np.ndarray) -> np.ndarray:
    """L2(E)-orthogonal complement of the gradient part inside degree-k vectors.

    For a stack of m elements, ``grad`` (m, n_grad, d*n_k) holds each
    element's gradient rows over the canonical vector monomials and
    ``scalar_mass`` (m, n_k, n_k) the mass matrix of its degree-k scaled
    monomials.  The complement starts from a fixed set of canonical vector
    monomials (``_complement_monomials``), projects them M-orthogonally off
    the gradient rows with one SPD solve on the gradients' Gram matrix, and
    M-orthonormalizes them by the Cholesky factor of their Gram matrix, twice.
    Every step is a continuous function of the mass matrix, so a rounding
    change of it moves the returned rows (m, n_oplus, d*n_k) by a rounding
    amount.
    """
    m, n_grad, n_full = grad.shape
    if n_full == n_grad:
        return np.zeros((m, 0, n_full))
    n_k = scalar_mass.shape[-1]
    d = n_full // n_k
    k = next(k for k in range(n_k) if dim_poly(d, k) == n_k)
    picks = _complement_monomials(d, k)
    M = vector_monomial_mass(scalar_mass, d)
    MG = M @ grad.transpose(0, 2, 1)
    X, _ = spd_solve(grad @ MG, MG[:, picks].transpose(0, 2, 1),
                     "gradient Gram matrix")
    W = -X.transpose(0, 2, 1) @ grad
    W[:, np.arange(len(picks)), picks] += 1.0
    for _ in range(2):   # the second pass removes the first's rounding
        R, _ = inverse_factor(W @ M @ W.transpose(0, 2, 1), "complement Gram matrix")
        W = R @ W
    return W

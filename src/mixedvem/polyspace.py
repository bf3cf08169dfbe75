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
def _exponent_array(d: int, k: int) -> np.ndarray:
    return np.array(monomial_exponents(d, k), dtype=int).reshape(dim_poly(d, k), d)


def monomials(xi, order: int) -> np.ndarray:
    """Values of all monomials of degree <= order at scaled coordinates.

    ``xi`` holds one point per row, already centered and scaled; the result
    has shape (npts, dim_poly(d, order)) in graded-lex order.  Points with no
    coordinates, (npts, 0), have the constant as their one monomial.
    """
    n, d = xi.shape
    exps = _exponent_array(d, order)
    # powers[i, p] = xi[:, i] ** p, by repeated multiplication
    powers = np.empty((d, order + 1, n))
    powers[:, 0] = 1.0
    if order > 0:
        powers[:, 1] = xi.T
    for p in range(2, order + 1):
        powers[:, p] = powers[:, p - 1] * xi.T
    vals = powers[0, exps[:, 0]] if d else np.ones((1, n))
    for i in range(1, d):
        vals *= powers[i, exps[:, i]]
    return np.ascontiguousarray(vals.T)


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


def oplus_coeffs(grad: np.ndarray, scalar_mass: np.ndarray,
                 rel_tol: float = 1e-13) -> np.ndarray:
    """L2(E)-orthogonal complement of the gradient part inside degree-k vectors.

    For a stack of m elements, ``grad`` (m, n_grad, d*n_k) holds each
    element's gradient rows over the canonical vector monomials and
    ``scalar_mass`` (m, n_k, n_k) the mass matrix of its degree-k scaled
    monomials.  Working in the metric of that mass matrix, the complement is
    the span of the trailing right singular vectors of the gradient block, so
    its dimension is fixed a priori and the returned rows (m, n_oplus,
    d*n_k) are M-orthonormal and M-orthogonal to every gradient row to
    machine precision even on badly shaped elements.
    """
    m, n_grad, n_full = grad.shape
    if n_full == n_grad:
        return np.zeros((m, 0, n_full))
    M = vector_monomial_mass(scalar_mass, n_full // scalar_mass.shape[-1])
    evals, evecs = np.linalg.eigh(0.5 * (M + M.transpose(0, 2, 1)))
    if np.any(evals[:, -1] <= 0):
        raise ConditioningError("monomial mass matrix not positive definite")
    evals = np.maximum(evals, 1e-300)
    L = evecs * np.sqrt(evals)[:, None, :]          # M = L L^T
    _, sv, Vt = np.linalg.svd(grad @ L)
    if np.any(sv[:, n_grad - 1] <= rel_tol * sv[:, 0]):
        raise ConditioningError("orthogonal-complement construction rank deficient")
    # rows in original coefficients: w = w_tilde L^{-1}
    Wt = Vt[:, n_grad:, :]
    return np.linalg.solve(L.transpose(0, 2, 1), Wt.transpose(0, 2, 1)).transpose(0, 2, 1)

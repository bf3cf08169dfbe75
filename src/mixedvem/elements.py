"""Per-element machinery for H(div) virtual elements of arbitrary order.

For a polygon (d=2, in its planar frame) or polyhedron (d=3) the velocity
space is known only through its degrees of freedom:

  type i   face moments of the normal trace against face monomials,
  type ii  interior moments against gradients of the pressure-degree
           monomials (one per non-constant monomial),
  type iii interior moments against the orthogonal complement basis.

All auxiliary matrices, the polynomial projector and the stabilized local
stiffness block are computed from these data.  1D elements are plain
polynomials and get exact matrices with no projector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import ConditioningError
from .polyspace import (MonomialBasis, VectorPolyBasis, dim_poly,
                        gradient_basis, oplus_basis, vector_monomial_mass)

# Pivot-ratio threshold below which a local SPD factorization is rejected.
COND_PIVOT_TOL = 1e-13


@dataclass(frozen=True)
class ElementSpace:
    """Velocity/pressure space pair of one element family and order.

    RT has matching divergence order (grad_order == order); BDM lowers the
    divergence/pressure order by one and is used for the 3D block only.
    """

    dim: int
    order: int
    family: str = "RT"

    def __post_init__(self):
        if self.family not in ("RT", "BDM"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if self.family == "BDM":
            if self.order < 1:
                raise ValueError("BDM requires order >= 1")
            if self.dim != 3:
                raise ValueError("BDM spaces are used for the 3D block only")
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")

    @property
    def grad_order(self) -> int:
        return self.order if self.family == "RT" else self.order - 1

    def n_face_dofs(self) -> int:
        """Moments per face of the normal trace (a degree-k polynomial)."""
        return dim_poly(self.dim - 1, self.order)


@dataclass(frozen=True)
class DofLayout:
    """Deterministic DOF ordering: face blocks, then type ii, then type iii."""

    n_faces: int
    per_face: int
    n_typeii: int
    n_typeiii: int

    @property
    def n_face_total(self):
        return self.n_faces * self.per_face

    @property
    def n_dof(self):
        return self.n_face_total + self.n_typeii + self.n_typeiii

    def face_slice(self, i):
        return slice(i * self.per_face, (i + 1) * self.per_face)

    @property
    def typeii_slice(self):
        return slice(self.n_face_total, self.n_face_total + self.n_typeii)

    @property
    def typeiii_slice(self):
        return slice(self.n_face_total + self.n_typeii, self.n_dof)


def dof_layout(space: ElementSpace, geom) -> DofLayout:
    d, k = space.dim, space.order
    n_typeii = dim_poly(d, space.grad_order) - 1
    n_typeiii = d * dim_poly(d, k) - (dim_poly(d, k + 1) - 1)
    n_faces = 2 if d == 1 else geom.n_faces
    return DofLayout(n_faces, space.n_face_dofs(), n_typeii, n_typeiii)


def _spd_solve(M, rhs, what):
    """Solve with an SPD factorization, rejecting near-singular pivots.

    The system is symmetrically Jacobi-equilibrated first, which recovers
    several digits on badly shaped elements, and polished with one step of
    iterative refinement.
    """
    dg = np.diag(M).copy()
    if np.any(dg <= 0):
        raise ConditioningError(f"{what} is not positive definite")
    s = 1.0 / np.sqrt(dg)
    Ms = M * np.outer(s, s)
    try:
        c, low = sla.cho_factor(Ms, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"{what} is not positive definite") from exc
    piv = np.abs(np.diag(c))
    if piv.min() < COND_PIVOT_TOL * piv.max():
        raise ConditioningError(f"{what} is numerically singular")

    def solve(b):
        return s[:, None] * sla.cho_solve((c, low), s[:, None] * b,
                                          check_finite=False) \
            if b.ndim == 2 else \
            s * sla.cho_solve((c, low), s * b, check_finite=False)

    rhs = np.asarray(rhs, dtype=float)
    x = solve(rhs)
    x = x + solve(rhs - M @ x)  # one refinement step
    return x


def _nu_at(nu, points, d):
    """Evaluate the inverse transmissivity as (npts, d, d) arrays."""
    if callable(nu):
        vals = np.asarray([nu(p) for p in np.atleast_2d(points)], dtype=float)
        if vals.ndim == 1:
            return vals[:, None, None] * np.eye(d)
        return vals
    nu = np.asarray(nu, dtype=float)
    n = len(np.atleast_2d(points))
    if nu.ndim == 0:
        return np.broadcast_to(float(nu) * np.eye(d), (n, d, d))
    return np.broadcast_to(nu, (n, d, d))


def _nu_mean(nu, geom, quad_order):
    if not callable(nu):
        nu = np.asarray(nu, dtype=float)
        return float(nu) if nu.ndim == 0 else float(np.trace(nu) / nu.shape[0])
    pts, w = geom.quadrature(quad_order)
    vals = _nu_at(nu, pts, geom.dim)
    return float(np.einsum("q,qii->", w, vals) / (geom.dim * geom.measure))


@dataclass
class LocalMatrixSet:
    """All per-element matrices for one polygon/polyhedron element."""

    space: ElementSpace
    layout: DofLayout
    basis_p: MonomialBasis          # pressure monomials, degree k_grad
    basis_k1: MonomialBasis         # scalar monomials, degree k+1
    vec_basis: VectorPolyBasis      # gradient ++ oplus rows, degree k
    n_grad: int
    G: np.ndarray
    G_nu: np.ndarray
    H: np.ndarray
    H_hash: np.ndarray
    W: np.ndarray
    V: np.ndarray
    B: np.ndarray
    D: np.ndarray
    Pi0_hat: np.ndarray
    Pi0: np.ndarray
    K_a: np.ndarray
    K_s: np.ndarray
    K: np.ndarray
    measure: float
    face_dual: list = field(default_factory=list)   # per-face dual-basis coeffs
    face_bases: list = field(default_factory=list)  # per-face monomial bases

    def face_dual_values(self, i, face_points):
        """Values of the face-DOF normal-trace polynomials at face points.

        ``face_points`` are (d-1)-coordinates in the face frame; the returned
        array has shape (npts, per_face) and is oriented with the element's
        outward normal.
        """
        vals = self.face_bases[i].evaluate(face_points)
        return vals @ self.face_dual[i]


def local_matrices(space: ElementSpace, geom, nu=1.0, quad_order=None) -> LocalMatrixSet:
    """Build the full local matrix set on a polygon/polyhedron element.

    ``geom`` is a PolygonGeometry (with coordinates in the fracture frame)
    or a PolyhedronGeometry.  ``nu`` is the inverse tangential
    transmissivity: a scalar, a d x d array, or a callable of position.
    """
    d, k = space.dim, space.order
    if d != geom.dim:
        raise ValueError("space/geometry dimension mismatch")
    kg = space.grad_order
    layout = dof_layout(space, geom)
    if quad_order is None:
        quad_order = 2 * (k + 1)

    xE, hE = np.asarray(geom.centroid, dtype=float), geom.diameter
    basis_k1 = MonomialBasis(d, k + 1, xE, hE)
    basis_k = MonomialBasis(d, k, xE, hE)
    basis_p = MonomialBasis(d, kg, xE, hE)
    n_k, n_k1, n_p = basis_k.size, basis_k1.size, basis_p.size
    n_grad = n_k1 - 1

    pts, w = geom.quadrature(quad_order)
    vals_k1 = basis_k1.evaluate(pts)
    H_full = vals_k1.T @ (w[:, None] * vals_k1)
    H = H_full[:n_p, :n_p]
    H_hash = H_full[1:, :n_p]
    H_k = H_full[:n_k, :n_k]

    grad = gradient_basis(basis_k)
    opl = oplus_basis(basis_k, H_k)
    C_all = np.vstack([grad.flat_coeffs(), opl.flat_coeffs()])
    vec = VectorPolyBasis(basis_k, C_all.reshape(-1, d, n_k))
    M_vec = vector_monomial_mass(H_k, d)
    G = C_all @ M_vec @ C_all.T
    G = 0.5 * (G + G.T)

    if not callable(nu) and np.asarray(nu).ndim == 0:
        G_nu = float(nu) * G
    else:
        gvals = vec.evaluate(pts)                      # (np, nb, d)
        nuv = _nu_at(nu, pts, d)                       # (np, d, d)
        G_nu = np.einsum("q,qai,qij,qbj->ab", w, gvals, nuv, gvals, optimize=True)
        G_nu = 0.5 * (G_nu + G_nu.T)

    n_dof = layout.n_dof
    nf = layout.n_face_total

    W = np.zeros((n_p, n_dof))
    for a in range(1, n_p):
        W[a, nf + a - 1] = -geom.measure
    B2 = np.zeros((n_grad, n_dof))
    D = np.zeros((n_dof, d * n_k))
    face_dual, face_bases = [], []
    face_quad = quad_order
    for i, face in enumerate(geom.faces):
        fb = MonomialBasis(d - 1, k, np.zeros(d - 1), face.diameter)
        fpts, fw = face.quadrature(face_quad)
        fcoords = face.to_face_coords(fpts)
        Ff = fb.evaluate(fcoords)
        M_f = Ff.T @ (fw[:, None] * Ff)
        dual = _spd_solve(M_f, np.eye(fb.size) * face.measure, "face mass matrix")
        vol_at_f = basis_k1.evaluate(fpts)
        moments = vol_at_f.T @ (fw[:, None] * (Ff @ dual))  # int_f m_a p_j
        sl = layout.face_slice(i)
        W[:, sl] = moments[:n_p, :]
        B2[:, sl] = moments[1:, :]
        gface = vec.evaluate(fpts) @ face.normal            # (npf, nb)
        D[sl, :] = (Ff * fw[:, None]).T @ gface / face.measure
        face_dual.append(dual)
        face_bases.append(fb)

    V = _spd_solve(H, W, "pressure mass matrix H")

    B = np.zeros((d * n_k, n_dof))
    B[:n_grad, :] = -H_hash @ V + B2
    for g in range(layout.n_typeiii):
        B[n_grad + g, nf + layout.n_typeii + g] = geom.measure

    D[layout.typeii_slice, :] = G[: n_p - 1, :] / geom.measure
    D[layout.typeiii_slice, :] = G[n_grad:, :] / geom.measure

    Pi0_hat = _spd_solve(G, B, "projector Gram matrix G")
    Pi0 = D @ Pi0_hat

    nu_bar = _nu_mean(nu, geom, quad_order)
    K_a = Pi0_hat.T @ G_nu @ Pi0_hat
    K_a = 0.5 * (K_a + K_a.T)
    R = np.eye(n_dof) - Pi0
    K_s = nu_bar * geom.measure * (R.T @ R)

    K = np.zeros((n_dof + n_p, n_dof + n_p))
    K[:n_dof, :n_dof] = K_a + K_s
    K[:n_dof, n_dof:] = -W.T
    K[n_dof:, :n_dof] = W

    return LocalMatrixSet(
        space=space, layout=layout, basis_p=basis_p, basis_k1=basis_k1,
        vec_basis=vec, n_grad=n_grad, G=G, G_nu=G_nu, H=H, H_hash=H_hash,
        W=W, V=V, B=B, D=D, Pi0_hat=Pi0_hat, Pi0=Pi0,
        K_a=K_a, K_s=K_s, K=K, measure=geom.measure,
        face_dual=face_dual, face_bases=face_bases)


@dataclass
class Local1D:
    """Exact local matrices of a 1D mixed element on a segment.

    The velocity is a polynomial of degree grad_order + 1 in the arc-length
    coordinate; endpoint DOFs are outward fluxes and interior DOFs are the
    usual gradient moments.  No projector or stabilization is involved.
    """

    space: ElementSpace
    layout: DofLayout
    basis_p: MonomialBasis       # pressure monomials on the segment
    basis_u: MonomialBasis       # velocity monomials, degree grad_order + 1
    phi_coeffs: np.ndarray       # (n_u, n_dof) canonical basis in basis_u
    H: np.ndarray
    W: np.ndarray
    V: np.ndarray
    K_a: np.ndarray
    K: np.ndarray
    measure: float

    @property
    def K_s(self):
        return np.zeros_like(self.K_a)

    def velocity_values(self, dof_values, s):
        """Velocity (tangential component) at arc-length coordinates s."""
        coeffs = self.phi_coeffs @ np.asarray(dof_values, dtype=float)
        return self.basis_u.evaluate(np.atleast_2d(s).T.reshape(-1, 1)) @ coeffs


def local_matrices_1d(space: ElementSpace, geom, nu=1.0, quad_order=None) -> Local1D:
    """Local matrices of the 1D element on a SegmentGeometry."""
    if space.dim != 1:
        raise ValueError("local_matrices_1d requires a 1D space")
    kg = space.grad_order
    layout = DofLayout(n_faces=2, per_face=1, n_typeii=kg, n_typeiii=0)
    L = geom.measure
    if quad_order is None:
        quad_order = 2 * (kg + 2)

    basis_u = MonomialBasis(1, kg + 1, np.zeros(1), L)
    basis_p = MonomialBasis(1, kg, np.zeros(1), L)
    n_u = basis_u.size

    # DOF matrix rows: outward flux at both endpoints, then gradient moments
    pts, w = geom.quadrature(quad_order)
    vals_u = basis_u.evaluate(pts)
    vals_p = basis_p.evaluate(pts)
    Vnd = np.zeros((n_u, n_u))
    Vnd[0, :] = -basis_u.evaluate(np.array([[-L / 2]]))[0]
    Vnd[1, :] = basis_u.evaluate(np.array([[L / 2]]))[0]
    if kg >= 1:
        # gradient moments (1/|E|) int u * m_a' for the non-constant monomials
        Dp = basis_p.derivative_coeffs(0)  # m' coefficients, degree kg-1 basis
        vals_lo = MonomialBasis(1, kg - 1, np.zeros(1), L).evaluate(pts)
        for a in range(1, kg + 1):
            mprime = vals_lo @ Dp[:, a]
            Vnd[2 + (a - 1), :] = (w * mprime) @ vals_u / L
    phi = np.linalg.solve(Vnd, np.eye(n_u))

    mass_u = vals_u.T @ (w[:, None] * vals_u)
    if callable(nu):
        nuv = np.array([np.atleast_1d(nu(p))[0] for p in pts], dtype=float)
        mass_nu = vals_u.T @ ((w * nuv)[:, None] * vals_u)
    else:
        mass_nu = float(np.asarray(nu)) * mass_u
    K_a = phi.T @ mass_nu @ phi

    H = vals_p.T @ (w[:, None] * vals_p)
    Du = basis_u.derivative_coeffs(0)      # u' coefficients in the degree-kg basis
    dphi = Du @ phi
    W = vals_p.T @ (w[:, None] * (vals_p @ dphi))
    V = _spd_solve(H, W, "1D pressure mass matrix")

    n_dof = n_u
    K = np.zeros((n_dof + basis_p.size, n_dof + basis_p.size))
    K[:n_dof, :n_dof] = K_a
    K[:n_dof, n_dof:] = -W.T
    K[n_dof:, :n_dof] = W

    return Local1D(space=space, layout=layout, basis_p=basis_p, basis_u=basis_u,
                   phi_coeffs=phi, H=H, W=W, V=V, K_a=K_a, K=K, measure=L)


def dump_local_matrices(local: LocalMatrixSet, stream):
    """Write the per-element matrices as structured text for regression diffs."""
    for name in ("G", "G_nu", "H", "H_hash", "W", "V", "B", "D",
                 "Pi0_hat", "Pi0", "K_a", "K_s", "K"):
        mat = getattr(local, name)
        stream.write(f"# {name} {mat.shape[0]} {mat.shape[1]}\n")
        for row in mat:
            stream.write(" ".join(f"{v:.17e}" for v in row) + "\n")

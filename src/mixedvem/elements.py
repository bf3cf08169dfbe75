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

``local_matrices`` builds a whole block of cells in one call.  The
integrals are made cell by cell: the volume mass matrix from the cell's rule,
and every face's moments from one product over the concatenated face rules.
The fixed-size algebra (the complement basis, the Gram matrix, the face
duals, the ``V`` and ``Pi0_hat`` solves and the stabilized ``K``) then runs on
``(m, n, n)`` stacks over the cells, grouped by face count where the number
of DOFs differs.  Every local SPD solve is equilibrated, checked for its
pivot ratio and refined once (``_spd_solve``).  The inverse transmissivity
``nu`` of a block is one positive number, so the weighted Gram matrix is
``nu * G`` and the stabilization uses ``nu`` itself as its mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ConditioningError, ConfigError
from .polyspace import (MonomialBasis, VectorPolyBasis, dim_poly,
                        gradient_basis, monomials, oplus_coeffs,
                        vector_monomial_mass)

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
    """Solve a stack of SPD systems M x = rhs, rejecting near-singular pivots.

    ``M`` is (m, n, n) and ``rhs`` (m, n, r).  Each system is symmetrically
    Jacobi-equilibrated first, which recovers several digits on badly shaped
    elements, and factorized by Cholesky for the pivot-ratio test.  NumPy
    has no stacked triangular solve, so the equilibrated systems are solved
    by LU, and the solution is polished with one step of iterative
    refinement.  One bad matrix fails the whole stack.
    """
    dg = np.diagonal(M, axis1=1, axis2=2)
    if np.any(dg <= 0):
        raise ConditioningError(f"{what} is not positive definite")
    s = 1.0 / np.sqrt(dg)[:, :, None]
    Ms = M * s * s.transpose(0, 2, 1)
    try:
        piv = np.abs(np.diagonal(np.linalg.cholesky(Ms), axis1=1, axis2=2))
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"{what} is not positive definite") from exc
    if np.any(piv.min(axis=1) < COND_PIVOT_TOL * piv.max(axis=1)):
        raise ConditioningError(f"{what} is numerically singular")

    def solve(b):
        return s * np.linalg.solve(Ms, s * b)

    x = solve(rhs)
    return x + solve(rhs - M @ x)  # one refinement step


def _positive_nu(nu):
    """The inverse transmissivity as a float; it must be a positive number."""
    if isinstance(nu, Real) and 0.0 < nu < np.inf:
        return float(nu)
    raise ConfigError(f"inverse transmissivity nu must be a positive number, "
                      f"got {nu!r}")


@dataclass
class LocalMatrixSet:
    """The matrices of one polygon/polyhedron element.

    What assembly and post-processing read is stored; ``W``, ``G_nu``,
    ``Pi0``, ``K_a`` and ``K_s`` are derived from it on demand.
    """

    space: ElementSpace
    layout: DofLayout
    basis_p: MonomialBasis          # pressure monomials, degree k_grad
    vec_basis: VectorPolyBasis      # gradient ++ oplus rows, degree k
    nu: float                       # inverse transmissivity, also its mean
    measure: float
    G: np.ndarray
    H: np.ndarray
    H_hash: np.ndarray
    V: np.ndarray
    B: np.ndarray
    D: np.ndarray
    Pi0_hat: np.ndarray
    K: np.ndarray
    face_dual: np.ndarray           # (n_faces, per_face, per_face) dual-basis coeffs
    face_scale: np.ndarray          # (n_faces,) face monomial scales

    @property
    def W(self):
        n = self.layout.n_dof
        return self.K[n:, :n]

    @property
    def G_nu(self):
        return self.nu * self.G

    @property
    def Pi0(self):
        return self.D @ self.Pi0_hat

    @property
    def K_a(self):
        K_a = self.Pi0_hat.T @ self.G_nu @ self.Pi0_hat
        return 0.5 * (K_a + K_a.T)

    @property
    def K_s(self):
        R = np.eye(self.layout.n_dof) - self.Pi0
        return self.nu * self.measure * (R.T @ R)

    def face_dual_values(self, i, face_points):
        """Values of the face-DOF normal-trace polynomials at face points.

        ``face_points`` are (d-1)-coordinates in the face frame; the returned
        array has shape (npts, per_face) and is oriented with the element's
        outward normal.
        """
        xi = np.atleast_2d(np.asarray(face_points, dtype=float)) / self.face_scale[i]
        return monomials(xi, self.space.order) @ self.face_dual[i]


def _face_moments(geom, qo, k, per):
    """Every face's moment rows of one cell from a single product.

    Evaluates the face monomials (scaled per face) and the cell's degree-k+1
    monomials once at all face points.  Each point's face values go into
    that face's own column block, so one product gives, per face, the face
    mass matrix, the moments of the cell monomials against the face
    monomials and those of the normal-scaled degree-k monomials: an
    (n_faces, per, per + n_k1 + d * n_k) array.
    """
    d, faces = geom.dim, geom.faces
    coords, pts, w, face_of = geom.face_quadrature(qo)
    scale = np.array([face.diameter for face in faces])
    normals = np.array([face.normal for face in faces])
    Ff = monomials(coords / scale[face_of, None], k)
    Vf = monomials((pts - geom.centroid) / geom.diameter, k + 1)
    n_k = dim_poly(d, k)
    nV = (normals[face_of][:, :, None] * Vf[:, None, :n_k]).reshape(len(w), d * n_k)
    blocks = np.zeros((len(w), len(faces) * per))
    blocks[np.arange(len(w))[:, None], face_of[:, None] * per + np.arange(per)] = Ff
    Y = blocks.T @ (w[:, None] * np.hstack([Ff, Vf, nV]))
    return Y.reshape(len(faces), per, -1), scale


def local_matrices(space: ElementSpace, geoms, nu=1.0) -> list:
    """Build the local matrix sets of a block of polygons/polyhedra.

    ``geoms`` are PolygonGeometry cells (in their fracture frame) or
    PolyhedronGeometry cells; ``nu`` is the block's inverse tangential
    transmissivity, a positive number.  The volume and face integrals are
    made cell by cell; the fixed-size algebra runs on stacks over the cells,
    grouped by face count where the DOF count differs.  Returns one
    LocalMatrixSet per cell, in order; a badly conditioned cell raises
    ConditioningError for the whole block.
    """
    nu = _positive_nu(nu)
    d, k, kg = space.dim, space.order, space.grad_order
    if any(geom.dim != d for geom in geoms):
        raise ValueError("space/geometry dimension mismatch")
    if not geoms:
        return []
    qo = 2 * (k + 1)   # exact for the degree-(k+1) monomial products
    n_k, n_k1, n_p = dim_poly(d, k), dim_poly(d, k + 1), dim_poly(d, kg)
    n_grad = n_k1 - 1
    per = space.n_face_dofs()

    # integrals, cell by cell: volume mass matrix and face moment rows
    m = len(geoms)
    H_full = np.empty((m, n_k1, n_k1))
    faces, scales = [], []
    for c, geom in enumerate(geoms):
        pts, w = geom.quadrature(qo)
        vals = monomials((pts - geom.centroid) / geom.diameter, k + 1)
        H_full[c] = vals.T @ (w[:, None] * vals)
        Y, scale = _face_moments(geom, qo, k, per)
        faces.append(Y)
        scales.append(scale)
    n_faces = np.array([len(Y) for Y in faces])
    first = np.cumsum(n_faces) - n_faces
    Y = np.concatenate(faces)
    face_measure = np.array([face.measure for geom in geoms for face in geom.faces])
    measure = np.array([geom.measure for geom in geoms])

    # face duals (one stack over all faces of the block)
    dual = _spd_solve(Y[:, :, :per], face_measure[:, None, None] * np.eye(per),
                      "face mass matrix")
    moments = Y[:, :, per:per + n_k1].transpose(0, 2, 1) @ dual   # int_f m_a p_j
    normal_moments = Y[:, :, per + n_k1:]

    # polynomial bases and their Gram matrix (one stack over all cells)
    H = H_full[:, :n_p, :n_p]
    H_hash = H_full[:, 1:, :n_p]
    H_k = H_full[:, :n_k, :n_k]
    unit = gradient_basis(MonomialBasis(d, k, np.zeros(d), 1.0)).flat_coeffs()
    grad = unit / np.array([geom.diameter for geom in geoms])[:, None, None]
    C_all = np.concatenate([grad, oplus_coeffs(grad, H_k)], axis=1)
    G = C_all @ vector_monomial_mass(H_k, d) @ C_all.transpose(0, 2, 1)
    G = 0.5 * (G + G.transpose(0, 2, 1))

    # the DOF-dependent matrices, one stack per face count
    out = [None] * m
    for nf in np.unique(n_faces):
        cells = np.flatnonzero(n_faces == nf)
        layout = dof_layout(space, geoms[cells[0]])
        mg, n_dof, nft = len(cells), layout.n_dof, layout.n_face_total
        on_face = first[cells][:, None] + np.arange(nf)       # (mg, nf)
        meas = measure[cells][:, None]
        C, Gc = C_all[cells], G[cells]

        mom = moments[on_face].transpose(0, 2, 1, 3).reshape(mg, n_k1, nft)
        W = np.zeros((mg, n_p, n_dof))
        W[:, :, :nft] = mom[:, :n_p]
        a = np.arange(1, n_p)
        W[:, a, nft + a - 1] = -meas
        V = _spd_solve(H[cells], W, "pressure mass matrix H")

        B = np.zeros((mg, d * n_k, n_dof))
        B[:, :n_grad] = -H_hash[cells] @ V
        B[:, :n_grad, :nft] += mom[:, 1:]
        g = np.arange(layout.n_typeiii)
        B[:, n_grad + g, nft + layout.n_typeii + g] = meas

        D = np.empty((mg, n_dof, d * n_k))
        rows = normal_moments[on_face] @ C[:, None].transpose(0, 1, 3, 2)
        D[:, :nft] = (rows / face_measure[on_face][:, :, None, None]).reshape(mg, nft, -1)
        D[:, layout.typeii_slice] = Gc[:, :n_p - 1] / meas[:, :, None]
        D[:, layout.typeiii_slice] = Gc[:, n_grad:] / meas[:, :, None]

        Pi0_hat = _spd_solve(Gc, B, "projector Gram matrix G")
        Pi0_t = Pi0_hat.transpose(0, 2, 1)
        K_a = Pi0_t @ (nu * Gc) @ Pi0_hat
        R = np.eye(n_dof) - D @ Pi0_hat
        K = np.zeros((mg, n_dof + n_p, n_dof + n_p))
        K[:, :n_dof, :n_dof] = 0.5 * (K_a + K_a.transpose(0, 2, 1)) + \
            (nu * meas)[:, :, None] * (R.transpose(0, 2, 1) @ R)
        K[:, :n_dof, n_dof:] = -W.transpose(0, 2, 1)
        K[:, n_dof:, :n_dof] = W

        for i, c in enumerate(cells):
            geom = geoms[c]
            xE, hE = np.asarray(geom.centroid, dtype=float), geom.diameter
            out[c] = LocalMatrixSet(
                space=space, layout=layout, basis_p=MonomialBasis(d, kg, xE, hE),
                vec_basis=VectorPolyBasis(MonomialBasis(d, k, xE, hE),
                                          C[i].reshape(-1, d, n_k)),
                nu=nu, measure=geom.measure, G=G[c], H=H[c], H_hash=H_hash[c],
                V=V[i], B=B[i], D=D[i], Pi0_hat=Pi0_hat[i], K=K[i],
                face_dual=dual[first[c]:first[c] + nf], face_scale=scales[c])
    return out


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


def local_matrices_1d(space: ElementSpace, geom, nu=1.0) -> Local1D:
    """Local matrices of the 1D element on a SegmentGeometry."""
    if space.dim != 1:
        raise ValueError("local_matrices_1d requires a 1D space")
    nu = _positive_nu(nu)
    kg = space.grad_order
    layout = DofLayout(n_faces=2, per_face=1, n_typeii=kg, n_typeiii=0)
    L = geom.measure

    basis_u = MonomialBasis(1, kg + 1, np.zeros(1), L)
    basis_p = MonomialBasis(1, kg, np.zeros(1), L)
    n_u = basis_u.size

    # DOF matrix rows: outward flux at both endpoints, then gradient moments
    pts, w = geom.quadrature(2 * (kg + 2))   # exact for the velocity mass
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
    K_a = phi.T @ (nu * mass_u) @ phi

    H = vals_p.T @ (w[:, None] * vals_p)
    Du = basis_u.derivative_coeffs(0)      # u' coefficients in the degree-kg basis
    dphi = Du @ phi
    W = vals_p.T @ (w[:, None] * (vals_p @ dphi))
    V = _spd_solve(H[None], W[None], "1D pressure mass matrix")[0]

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

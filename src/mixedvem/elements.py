"""Per-element machinery for H(div) virtual elements of arbitrary order.

For a polygon (d=2, in its planar frame) or polyhedron (d=3) the velocity
space is known only through its degrees of freedom:

  type i   face moments of the normal trace against face monomials,
  type ii  interior moments against gradients of the pressure-degree
           monomials (one per non-constant monomial),
  type iii interior moments against the orthogonal complement basis.

All auxiliary matrices and the polynomial projector are computed from these
data and stored in a ``LocalMatrixSet``, with the small divergence block
``W``.  The stabilized stiffness ``K`` is derived (``stiffness``): assembly
makes it once per group of cells, straight into the cell blocks, and no
record keeps a copy.  A segment's velocities are plain polynomials:
``local_matrices_1d`` builds a trace's exact matrices as one stack, with no
projection error and no stabilization, into the same ``LocalMatrixSet``.
Its ``vec_basis`` is the velocity monomials themselves, ``Pi0_hat`` the
canonical basis in them and ``D`` the DOFs of the monomials, so
``D @ Pi0_hat = I``; its faces are its two ends, each with the one dual
value 1.

``local_matrices`` builds a whole block of cells in one call.  The
integrals are made cell by cell: the volume mass matrix from the cell's rule,
and every face's moments from one product over the concatenated face rules.
The fixed-size algebra (the complement basis, the Gram matrix, the face
duals and the ``V`` and ``Pi0_hat`` solves) then runs on ``(m, n, n)`` stacks
over the cells, grouped by face count where the number of DOFs differs.
Every local SPD solve (``polyspace.spd_solve``) runs on the Jacobi
equilibrated Cholesky factor, checked for its pivot ratio and inverted by
``polyspace.lower_inverse`` as in the global solve's cell eliminations and
fronts, and is refined once.
The inverse transmissivity ``nu`` of a block is one positive number, so the
weighted Gram matrix is ``nu * G`` and the stabilization uses ``nu`` itself
as its mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ConfigError
from .polyspace import (MonomialBasis, VectorPolyBasis, dim_poly,
                        gradient_basis, monomials, oplus_coeffs, spd_solve,
                        vector_monomial_mass)


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
    return DofLayout(geom.n_faces, space.n_face_dofs(), n_typeii, n_typeiii)


def _positive_nu(nu):
    """The inverse transmissivity as a float; it must be a positive number."""
    if isinstance(nu, Real) and 0.0 < nu < np.inf:
        return float(nu)
    raise ConfigError(f"inverse transmissivity nu must be a positive number, "
                      f"got {nu!r}")


@dataclass
class LocalMatrixSet:
    """The matrices of one segment, polygon or polyhedron element.

    What assembly and post-processing read is stored; ``G_nu``, ``Pi0``,
    ``K_a``, ``K_s`` and the stiffness ``K`` are derived from it on demand.
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
    W: np.ndarray                   # (n_p, n_dof) divergence moments
    V: np.ndarray
    B: np.ndarray
    D: np.ndarray
    Pi0_hat: np.ndarray
    face_dual: np.ndarray           # (n_faces, per_face, per_face) dual-basis coeffs
    face_scale: np.ndarray          # (n_faces,) face monomial scales
    pivot_ratio: float = 1.0        # smallest pivot ratio of its local solves

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

    @property
    def K(self):
        return stiffness([self])[0]

    def face_dual_values(self, i, face_points):
        """Values of the face-DOF normal-trace polynomials at face points.

        ``face_points`` are (d-1)-coordinates in the face frame; the returned
        array has shape (npts, per_face) and is oriented with the element's
        outward normal.
        """
        xi = np.atleast_2d(np.asarray(face_points, dtype=float)) / self.face_scale[i]
        return monomials(xi, self.space.order) @ self.face_dual[i]


def stiffness(locs):
    """The stacked stiffness blocks ``[[A, -W^T], [W, 0]]`` of cells with one
    layout, ``A = K_a + K_s``.  A segment's velocities are exact, so its ``A``
    is ``Pi0_hat^T G_nu Pi0_hat`` itself, with no ``K_s``."""
    G, D, Pi0_hat, W = (np.stack([getattr(loc, name) for loc in locs])
                        for name in ("G", "D", "Pi0_hat", "W"))
    nu = np.array([loc.nu for loc in locs])[:, None, None]
    n_p, n_dof = W.shape[1:]
    A = Pi0_hat.transpose(0, 2, 1) @ (nu * G) @ Pi0_hat
    if locs[0].space.dim > 1:
        R = np.eye(n_dof) - D @ Pi0_hat
        meas = np.array([loc.measure for loc in locs])[:, None, None]
        A = 0.5 * (A + A.transpose(0, 2, 1)) + (nu * meas) * (R.transpose(0, 2, 1) @ R)
    return np.block([[A, -W.transpose(0, 2, 1)], [W, np.zeros((len(locs), n_p, n_p))]])


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
    normals = geom.normals
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
    dual, dual_ratio = spd_solve(Y[:, :, :per],
                                 face_measure[:, None, None] * np.eye(per),
                                 "face mass matrix")
    cell_dual_ratio = np.minimum.reduceat(dual_ratio, first)
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
        V, V_ratio = spd_solve(H[cells], W, "pressure mass matrix H")

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

        Pi0_hat, Pi0_ratio = spd_solve(Gc, B, "projector Gram matrix G")
        ratio = np.minimum(np.minimum(cell_dual_ratio[cells], V_ratio), Pi0_ratio)

        for i, c in enumerate(cells):
            geom = geoms[c]
            xE, hE = np.asarray(geom.centroid, dtype=float), geom.diameter
            out[c] = LocalMatrixSet(
                space=space, layout=layout, basis_p=MonomialBasis(d, kg, xE, hE),
                vec_basis=VectorPolyBasis(MonomialBasis(d, k, xE, hE),
                                          C[i].reshape(-1, d, n_k)),
                nu=nu, measure=geom.measure, G=G[c], H=H[c], H_hash=H_hash[c],
                W=W[i], V=V[i], B=B[i], D=D[i], Pi0_hat=Pi0_hat[i],
                face_dual=dual[first[c]:first[c] + nf], face_scale=scales[c],
                pivot_ratio=float(ratio[i]))
    return out


def local_matrices_1d(space: ElementSpace, geoms, nu=1.0) -> list:
    """Exact local matrices of the 1D mixed element on the SegmentGeometry
    cells ``geoms`` of a trace, built as one stack: one LocalMatrixSet each.

    The velocity is a polynomial of degree grad_order + 1 in the arc-length
    coordinate; endpoint DOFs are outward fluxes and interior DOFs are the
    usual gradient moments.  No projector or stabilization is involved.
    """
    if space.dim != 1:
        raise ValueError("local_matrices_1d requires a 1D space")
    nu = _positive_nu(nu)
    kg = space.grad_order
    layout = dof_layout(space, geoms[0])
    L = np.array([geom.measure for geom in geoms])
    m, n_u, n_p = len(geoms), kg + 2, kg + 1

    # s / L on each rule, exact for the velocity mass; the pressure (and
    # lower) monomials lead the velocity ones
    rules = [geom.quadrature(2 * (kg + 2)) for geom in geoms]
    w = np.stack([w for _, w in rules])
    xi = np.concatenate([pts for pts, _ in rules]) / np.repeat(L, w.shape[1])[:, None]
    vals_u = monomials(xi, kg + 1).reshape(m, -1, n_u)
    vals_p = vals_u[:, :, :n_p]

    # DOF matrix rows: outward flux at both ends (arc length -L/2 and L/2,
    # outward along -/+ the tangent), then the gradient moments
    # (1/|E|) int u * m_a' for the non-constant pressure monomials
    D = np.empty((m, n_u, n_u))
    D[:, :2] = np.array([[-1.0], [1.0]]) * monomials(np.array([[-0.5], [0.5]]), kg + 1)
    for a in range(1, n_p):   # m_a' = a/L (s/L)^(a-1)
        mprime = w * (vals_u[:, :, a - 1] * (a / L[:, None]))
        D[:, 1 + a] = (mprime[:, None] @ vals_u)[:, 0] / L[:, None]
    phi = np.linalg.solve(D, np.broadcast_to(np.eye(n_u), D.shape))

    mass_u = vals_u.transpose(0, 2, 1) @ (w[:, :, None] * vals_u)
    H = mass_u[:, :n_p, :n_p]
    # u' coefficients in the degree-kg basis: d/ds (s/L)^j = j/L (s/L)^(j-1)
    dphi = np.arange(1, n_u)[None, :, None] / L[:, None, None] * phi[:, 1:]
    W = vals_p.transpose(0, 2, 1) @ (w[:, :, None] * (vals_p @ dphi))
    V, ratio = spd_solve(H, W, "1D pressure mass matrix")
    B = mass_u @ phi
    return [LocalMatrixSet(
        space=space, layout=layout, basis_p=MonomialBasis(1, kg, np.zeros(1), L[c]),
        vec_basis=VectorPolyBasis(MonomialBasis(1, kg + 1, np.zeros(1), L[c]),
                                  np.eye(n_u)[:, None, :]),
        nu=nu, measure=float(L[c]), G=mass_u[c], H=H[c], H_hash=np.zeros((0, n_p)),
        W=W[c], V=V[c], B=B[c], D=D[c], Pi0_hat=phi[c],
        face_dual=np.ones((layout.n_faces, 1, 1)),
        face_scale=np.ones(layout.n_faces), pivot_ratio=float(ratio[c]))
        for c in range(m)]


def dump_local_matrices(local: LocalMatrixSet, stream):
    """Write the per-element matrices as structured text for regression diffs."""
    for name in ("G", "G_nu", "H", "H_hash", "W", "V", "B", "D",
                 "Pi0_hat", "Pi0", "K_a", "K_s", "K"):
        mat = getattr(local, name)
        stream.write(f"# {name} {mat.shape[0]} {mat.shape[1]}\n")
        for row in mat:
            stream.write(" ".join(f"{v:.17e}" for v in row) + "\n")

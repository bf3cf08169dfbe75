"""Sparse solve, velocity projection, error norms and flux accounting.

The direct solve condenses the 3D element interiors out of the global
factorization.  In each 3D cell the interior velocity DOFs (types ii and iii)
and the pressure moments above the constant couple only with each other and
with the cell's own face DOFs and constant pressure, so the cell's rows of the
boundary-conditioned matrix give a dense interior block ``K_ii`` (factorized
by LU, with the pivot-ratio check of the local matrices) and the Schur term
``K_bi K_ii^-1 K_ib`` on its retained DOFs.  Those terms and the retained
block of the matrix make one sparse matrix, factorized once; the interiors
are recovered cell by cell, so every caller sees the full solution vector.
This is the static condensation of mixed methods (Arnold & Brezzi, M2AN 19,
1985).  With no interiors (RT0, systems without a 3D block) the retained
block is the whole matrix.  The refinement step and the residual check use
the full matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .assembly import GlobalSystem
from .elements import COND_PIVOT_TOL
from .errors import ConditioningError, SingularSystemError
from .mesh import field_values

DIRECT_SOLVE_LIMIT = 500_000


def condensed_cells(system: GlobalSystem) -> list:
    """(eliminated, retained) global DOF ids of each 3D cell with interiors:
    the interior fluxes and the pressure moments above the constant, and the
    face fluxes and the constant pressure."""
    dm = system.dofmap
    if dm is None or (3, 0) not in dm.blocks:
        return []
    blk = dm.block(3)
    out = []
    for ci, loc in enumerate(blk.locals_):
        nf = loc.layout.n_face_total
        u, p = blk.cell_u_dofs[ci], blk.cell_p_dofs[ci]
        if len(u) > nf or len(p) > 1:
            out.append((np.concatenate([u[nf:], p[1:]]),
                        np.concatenate([u[:nf], p[:1]])))
    return out


class CondensedLU:
    """Direct solver of ``A`` with the given cells' DOFs condensed out.

    ``cells`` lists (eliminated, retained) DOF ids as ``condensed_cells``
    gives them: a cell's eliminated rows and columns must have nonzeros only
    in its own eliminated and retained DOFs.  Entries outside them are left
    out of the condensed operator, which the residual check on ``A`` would
    then refuse.
    """

    def __init__(self, A: sps.csr_matrix, cells: list):
        # _condense's temporaries are freed before the factorization
        S, self.kept, self.cells = _condense(A, cells)
        self.lu = spla.splu(S)
        self.condensed = A.shape[0] - S.shape[0]
        # the factor entries SuperLU stores; reading lu.L and lu.U instead
        # would copy both factors for the life of the factorization
        self.fill = self.lu.nnz

    def solve(self, b):
        b_kept = b[self.kept].copy()
        y = []
        for elim, r, lu, X, K_bi in self.cells:
            y.append(lu.solve(b[elim]))
            b_kept[r] -= K_bi @ y[-1]
        x = np.zeros(len(b))
        x[self.kept] = x_kept = self.lu.solve(b_kept)
        for (elim, r, _, X, _), y_c in zip(self.cells, y):
            x[elim] = y_c - X @ x_kept[r]
        return x


def _condense(A, cells):
    """The condensed matrix on the kept DOFs, the kept DOF ids, and per cell
    (eliminated ids, their kept neighbours' positions, interior LU,
    ``K_ii^-1 K_ib``, ``K_bi``)."""
    n = A.shape[0]
    keep = np.ones(n, dtype=bool)
    for elim, _ in cells:
        keep[elim] = False
    kept = np.flatnonzero(keep)
    index = np.full(n, -1, dtype=np.int32)
    index[kept] = np.arange(len(kept))
    kk = A[kept][:, kept].tocoo()
    rows, cols, vals = [kk.row], [kk.col], [kk.data]
    # the cells' rows of A, and their columns as rows of A^T
    elim_all = np.concatenate([np.zeros(0, dtype=int)] + [e for e, _ in cells])
    from_rows, from_cols = A[elim_all], A[:, elim_all].T.tocsr()
    pos = np.full(n, -1)
    out = []
    start = 0
    for elim, ret in cells:
        m = len(elim)
        local = np.concatenate([elim, ret])
        pos[local] = np.arange(len(local))
        K_i = _dense_rows(from_rows, start, m, pos, len(local))
        K_bi = _dense_rows(from_cols, start, m, pos, len(local))[:, m:].T
        pos[local] = -1
        start += m
        lu = _InteriorLU(K_i[:, :m])
        X = lu.solve(K_i[:, m:])
        r = index[ret]
        rows.append(np.repeat(r, len(r)))
        cols.append(np.tile(r, len(r)))
        vals.append(-(K_bi @ X).ravel())
        out.append((elim, r, lu, X, K_bi))
    S = sps.csc_matrix((np.concatenate(vals),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(len(kept), len(kept)))
    return S, kept, out


def _dense_rows(M, start, count, pos, width):
    """Rows ``start .. start+count`` of the CSR matrix ``M`` as a dense
    (count, width) array, with column j moved to ``pos[j]``; columns with no
    position are left out."""
    ptr = M.indptr[start:start + count + 1]
    cols = pos[M.indices[ptr[0]:ptr[-1]]]
    rows = np.repeat(np.arange(count), np.diff(ptr))
    out = np.zeros((count, width))
    keep = cols >= 0
    out[rows[keep], cols[keep]] = M.data[ptr[0]:ptr[-1]][keep]
    return out


class _InteriorLU:
    """Dense LU of one cell's interior block, rejecting near-singular pivots.

    Rows and then columns are scaled to unit max-norm first, so the pivot
    ratio measures the block's conditioning and not the scale of its
    monomials.
    """

    def __init__(self, K):
        with np.errstate(divide="ignore", invalid="ignore"):
            self.r = 1.0 / np.abs(K).max(axis=1)
            Kr = self.r[:, None] * K
            self.c = 1.0 / np.abs(Kr).max(axis=0)
            self.lu, self.piv, info = sla.lapack.dgetrf(Kr * self.c)
        pivots = np.abs(np.diag(self.lu))
        # a zero row or column leaves NaNs, which fail the comparison too
        if info != 0 or not pivots.min() >= COND_PIVOT_TOL * pivots.max():
            raise ConditioningError(
                "element interior block is numerically singular")

    def solve(self, rhs):
        y = sla.lu_solve((self.lu, self.piv), (self.r * rhs.T).T,
                         check_finite=False)
        return (self.c * y.T).T


def solve(system: GlobalSystem, tol: float = 1e-10) -> "DiscreteSolution":
    """Solve the assembled system; report singular systems with a null-space
    dimension estimate instead of returning garbage."""
    if not system.bc_applied:
        raise ValueError("apply_boundary_conditions before solving")
    A = system.matrix.tocsr()
    b = system.rhs
    n = A.shape[0]
    branch, condensed, fill = "direct", 0, 0
    if n <= DIRECT_SOLVE_LIMIT:
        with np.errstate(all="ignore"):
            try:
                lu = CondensedLU(A, condensed_cells(system))
                x = lu.solve(b)
                x = x + lu.solve(b - A @ x)  # one refinement step
                condensed, fill = lu.condensed, lu.fill
            except RuntimeError:  # singular factorization
                x = np.full(n, np.nan)
    else:
        branch = "iterative"
        try:
            ilu = spla.spilu(A.tocsc(), drop_tol=1e-6)
        except RuntimeError as exc:   # e.g. "Factor is exactly singular"
            raise SingularSystemError(f"incomplete LU failed: {exc}") from exc
        fill = ilu.nnz
        M = spla.LinearOperator(A.shape, ilu.solve)
        x, info = spla.gmres(A, b, M=M, rtol=tol, maxiter=2000)
        if info != 0:
            raise SingularSystemError(f"iterative solve did not converge ({info})")
    scale = np.linalg.norm(b) if np.linalg.norm(b) > 0 else 1.0
    res = np.linalg.norm(A @ x - b)
    if not np.all(np.isfinite(x)) or res > tol * scale:
        null_dim = None
        if n <= 2000:
            sv = np.linalg.svd(A.toarray(), compute_uv=False)
            null_dim = int(np.sum(sv <= 1e-10 * sv.max()))
        raise SingularSystemError(
            f"global system singular or solve failed (residual {res:.3e})",
            null_dim=null_dim)
    return DiscreteSolution(system=system, x=x, residual=res, branch=branch,
                            condensed_dofs=condensed, lu_fill=fill)


@dataclass
class DiscreteSolution:
    """Global DOF vector with per-domain views and projected velocities."""

    system: GlobalSystem
    x: np.ndarray
    residual: float
    branch: str = "direct"     # "direct" (condensed LU) or "iterative"
    condensed_dofs: int = 0    # DOFs eliminated before the global factorization
    lu_fill: int = 0           # entries stored by the global factorization
    _proj: dict = field(default_factory=dict)

    @property
    def dofmap(self):
        return self.system.dofmap

    @property
    def md(self):
        return self.system.md

    def local_flux_dofs(self, blk, ci):
        """Element flux DOFs in the element's own outward convention."""
        return blk.cell_u_signs[ci] * self.x[blk.cell_u_dofs[ci]]

    def pressure_coeffs(self, blk, ci):
        return self.x[blk.cell_p_dofs[ci]]

    def projected_velocity(self, blk, ci):
        """Coefficients of the element velocity in the local degree-k basis
        (polynomial coefficients directly for 1D elements)."""
        key = (blk.dim, blk.index, ci)
        if key not in self._proj:
            loc = blk.locals_[ci]
            dofs = self.local_flux_dofs(blk, ci)
            if blk.dim == 1:
                self._proj[key] = loc.phi_coeffs @ dofs
            else:
                self._proj[key] = loc.Pi0_hat @ dofs
        return self._proj[key]


def project_solution(sol: DiscreteSolution):
    """All per-element projected velocity coefficient tables."""
    out = {}
    for key, blk in sol.dofmap.blocks.items():
        if blk.dim == 0 or blk.locals_[0] is None:
            continue
        out[key] = [sol.projected_velocity(blk, ci) for ci in range(len(blk.geoms))]
    return out


@dataclass
class ExactFields:
    """Exact solution callbacks in physical coordinates.

    ``velocity`` returns the 3D flux vector (its tangential components are
    compared on fractures and traces); ``divergence`` is the flux divergence
    within the domain's own dimension.
    """

    pressure: object
    velocity: object
    divergence: object


def error_norms(sol: DiscreteSolution, exact: dict):
    """L2 errors (e_p, e_u, e_div) per domain and aggregated.

    ``exact`` maps (dim, index) -> ExactFields; domains without an entry are
    skipped.  Returns {key: (e_p, e_u, e_div, n_p, n_u, n_div)} with absolute
    errors and exact norms, plus an "aggregate" entry.
    """
    dm = sol.dofmap
    qo = 2 * (dm.order + 2)
    out = {}
    agg = np.zeros(6)
    for key, blk in dm.blocks.items():
        if key not in exact or blk.dim == 0:
            continue
        ex = exact[key]
        acc = np.zeros(6)
        for ci, geom in enumerate(blk.geoms):
            loc = blk.locals_[ci]
            pts, w = geom.quadrature(qo)
            phys = blk.point_map(ci, pts)
            mono_p = loc.basis_p.evaluate(pts)   # pressure and divergence
            # pressure
            p_h = mono_p @ sol.pressure_coeffs(blk, ci)
            p_ex = field_values(ex.pressure, phys)
            acc[0] += np.sum(w * (p_ex - p_h) ** 2)
            acc[3] += np.sum(w * p_ex ** 2)
            # velocity
            u_ex = field_values(ex.velocity, phys)
            if blk.frame is not None:
                u_ex = u_ex @ blk.frame.T
            coeffs = sol.projected_velocity(blk, ci)
            if blk.dim == 1:
                u_h = (loc.basis_u.evaluate(pts) @ coeffs)[:, None]
            else:
                # contract the coefficients first: (n_k, d) monomial rows
                vb = loc.vec_basis
                u_h = vb.scalar.evaluate(pts) @ np.einsum("b,bij->ji", coeffs,
                                                          vb.coeffs)
            acc[1] += np.sum(w * np.sum((u_ex - u_h) ** 2, axis=1))
            acc[4] += np.sum(w * np.sum(u_ex ** 2, axis=1))
            # divergence
            div_h = mono_p @ (loc.V @ sol.local_flux_dofs(blk, ci))
            div_ex = field_values(ex.divergence, phys)
            acc[2] += np.sum(w * (div_ex - div_h) ** 2)
            acc[5] += np.sum(w * div_ex ** 2)
        out[key] = tuple(np.sqrt(acc))
        agg += acc
    out["aggregate"] = tuple(np.sqrt(agg))
    return out


def relative_errors(norms):
    """(e_p, e_u, e_div) relative to the exact norms (absolute if zero)."""
    out = {}
    for key, vals in norms.items():
        e = []
        for i in range(3):
            denom = vals[3 + i]
            e.append(vals[i] / denom if denom > 1e-14 else vals[i])
        out[key] = tuple(e)
    return out


# ---------------------------------------------------------------------------
# Flux accounting
# ---------------------------------------------------------------------------


@dataclass
class EntityFlux:
    """Signed flux bookkeeping of one domain entity.

    bc_flux       boundary outflux  (integral of u.n over the external boundary)
    divergence    integral of div(u_h) over the entity
    source        integral of the supplied loading
    sent          outflux into each lower-dimensional entity (the flux jump)
    received      inflow records mirrored from the higher dimension
    """

    key: tuple
    bc_flux: float = 0.0
    divergence: float = 0.0
    source: float = 0.0
    sent: dict = field(default_factory=dict)
    received: dict = field(default_factory=dict)
    pinned: bool = False   # 0D entity with a prescribed pressure value

    @property
    def mismatch(self):
        """Residual of the entity balance div - received - source.

        A pinned intersection has no balance equation: its residual is what
        flows out through the prescribed-pressure point, recorded in bc_flux.
        """
        res = self.divergence - sum(self.received.values()) - self.source
        return res + self.bc_flux if self.pinned else res

    @property
    def balance_scale(self):
        vals = [abs(self.bc_flux), abs(self.divergence), abs(self.source)]
        vals += [abs(v) for v in self.sent.values()]
        vals += [abs(v) for v in self.received.values()]
        return max(vals + [1.0])


@dataclass
class FluxReport:
    entities: dict

    def entity(self, dim, index=0) -> EntityFlux:
        return self.entities[(dim, index)]

    def max_relative_mismatch(self):
        return max(abs(e.mismatch) / e.balance_scale for e in self.entities.values())

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("# source target value\n")
            for key, e in sorted(self.entities.items()):
                name = _entity_name(key)
                fh.write(f"{name} BC {e.bc_flux:.12e}\n")
                fh.write(f"{name} S {-e.source:.12e}\n")
                fh.write(f"{name} DIV {e.divergence:.12e}\n")
                for tgt, v in sorted(e.sent.items()):
                    fh.write(f"{name} {_entity_name(tgt)} {v:.12e}\n")


def _entity_name(key):
    d, i = key
    return {3: "matrix", 2: f"fracture_{i}", 1: f"trace_{i}",
            0: f"intersection_{i}"}[d]


def face_flux(sol: DiscreteSolution, blk, ci, lf) -> float:
    """Outward flux through face ``lf`` of cell ``ci``: the lowest face moment
    times its sign times the face measure (an endpoint of a 1D cell has unit
    measure)."""
    j = blk.locals_[ci].layout.face_slice(lf).start
    measure = blk.geoms[ci].faces[lf].measure if blk.dim > 1 else 1.0
    return float(blk.cell_u_signs[ci][j] * sol.x[blk.cell_u_dofs[ci][j]]) * measure


def boundary_face_fluxes(sol: DiscreteSolution, blk) -> list:
    """Outward flux through each boundary face of a block, in the order of
    ``blk.boundary``."""
    return [face_flux(sol, blk, ci, lf) for ci, lf, *_ in blk.boundary]


def flux_report(sol: DiscreteSolution) -> FluxReport:
    """Integrate interface and boundary fluxes directly from face DOF data."""
    dm, md = sol.dofmap, sol.md
    entities = {}
    for key, blk in dm.blocks.items():
        e = EntityFlux(key=key)
        entities[key] = e
        if blk.dim == 0:
            src = blk.source
            e.source = src if not callable(src) else src(md.intersections[blk.index].coords)
            continue
        # divergence content from the pressure-space moments of div(u_h)
        for ci in range(len(blk.geoms)):
            loc = blk.locals_[ci]
            if loc is None:
                continue
            div_coeffs = loc.V @ sol.local_flux_dofs(blk, ci)
            e.divergence += float(loc.H[0] @ div_coeffs)
        for flux in boundary_face_fluxes(sol, blk):
            e.bc_flux += flux
        # constrained (no-flux) parts contribute zero by construction
        src = blk.source
        if callable(src) or float(src) != 0.0:
            qo = 2 * (dm.order + 2)
            for ci, geom in enumerate(blk.geoms):
                pts, w = geom.quadrature(qo)
                e.source += float(np.sum(w * field_values(src, blk.point_map(ci, pts))))

    # interface exchanges: the outward flux of every interface side
    for side in dm.interfaces:
        flux = face_flux(sol, dm.blocks[side.upper], side.cell, side.face)
        sent, received = entities[side.upper].sent, entities[side.lower].received
        sent[side.lower] = sent.get(side.lower, 0.0) + flux
        received[side.upper] = received.get(side.upper, 0.0) + flux
    if dm.trace_flow:
        for ip in md.intersections:
            idata = md.spec.intersection_data(ip.index)
            e = entities[(0, ip.index)]
            if idata.bc is not None and idata.bc.kind == "dirichlet":
                e.pinned = True
                e.bc_flux = sum(e.received.values()) + e.source
    return FluxReport(entities=entities)


# ---------------------------------------------------------------------------
# Text/CSV exports
# ---------------------------------------------------------------------------


def write_error_table(norms: dict, path):
    rel = relative_errors(norms)
    with open(path, "w") as fh:
        fh.write("domain,d,l,e_p,e_u,e_div\n")
        for key in sorted(k for k in norms if isinstance(k, tuple)):
            d, l = key
            e = rel[key]
            fh.write(f"{_entity_name(key)},{d},{l},{e[0]:.6e},{e[1]:.6e},{e[2]:.6e}\n")
        e = rel["aggregate"]
        fh.write(f"aggregate,-,-,{e[0]:.6e},{e[1]:.6e},{e[2]:.6e}\n")


def write_fields_vtk(sol: DiscreteSolution, path):
    """Legacy-VTK polygon soup with cell pressures, plus centroid velocities
    in the companion ``<path>.velocity.vtk``; returns both paths."""
    dm, md = sol.dofmap, sol.md
    mesh = md.mesh3d
    points, polys, pressures, entity = [], [], [], []

    def emit_poly(coords, p_val, ent):
        base = len(points)
        points.extend(coords.tolist())
        polys.append([len(coords)] + [base + i for i in range(len(coords))])
        pressures.append(p_val)
        entity.append(ent)

    blk3 = dm.block(3)
    for ci, cid in enumerate(blk3.cell_ids):
        loc = blk3.locals_[ci]
        p_c = float(loc.basis_p.evaluate(blk3.geoms[ci].centroid[None, :])[0]
                    @ sol.pressure_coeffs(blk3, ci))
        for fid, s in mesh.cells[cid]:
            emit_poly(mesh.face_coords(fid), p_c, 3)
    for fm in md.fractures:
        blk2 = dm.block(2, fm.index)
        for ci, cell in enumerate(fm.cells):
            loc = blk2.locals_[ci]
            p_c = float(loc.basis_p.evaluate(cell.geometry.centroid[None, :])[0]
                        @ sol.pressure_coeffs(blk2, ci))
            emit_poly(np.asarray([mesh.verts[v] for v in cell.vids]), p_c, 2)

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nmixedvem fields\nASCII\n")
        fh.write("DATASET POLYDATA\n")
        fh.write(f"POINTS {len(points)} double\n")
        for p in points:
            fh.write(f"{p[0]:.9e} {p[1]:.9e} {p[2]:.9e}\n")
        size = sum(len(p) for p in polys)
        fh.write(f"POLYGONS {len(polys)} {size}\n")
        for p in polys:
            fh.write(" ".join(map(str, p)) + "\n")
        fh.write(f"CELL_DATA {len(polys)}\n")
        fh.write("SCALARS pressure double 1\nLOOKUP_TABLE default\n")
        for v in pressures:
            fh.write(f"{v:.9e}\n")
        fh.write("SCALARS entity_dim int 1\nLOOKUP_TABLE default\n")
        for v in entity:
            fh.write(f"{v}\n")

    # companion file: cell-centroid velocity vectors
    vec_path = str(path) + ".velocity.vtk"
    centers, vectors = [], []
    for key, blk in dm.blocks.items():
        if blk.dim == 0 or blk.locals_[0] is None:
            continue
        for ci, geom in enumerate(blk.geoms):
            loc = blk.locals_[ci]
            coeffs = sol.projected_velocity(blk, ci)
            if blk.dim == 1:
                c_local = np.zeros((1, 1))   # arc length from the midpoint
                vec = loc.basis_u.evaluate(c_local)[0] @ coeffs * blk.frame[0]
            else:
                c_local = np.asarray(geom.centroid)[None, :]
                vec = np.einsum("b,pbi->pi", coeffs, loc.vec_basis.evaluate(c_local))[0]
                if blk.frame is not None:
                    vec = vec @ blk.frame
            centers.append(blk.point_map(ci, c_local)[0])
            vectors.append(vec)
    with open(vec_path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nmixedvem velocities\nASCII\n")
        fh.write("DATASET POLYDATA\n")
        fh.write(f"POINTS {len(centers)} double\n")
        for p in centers:
            fh.write(f"{p[0]:.9e} {p[1]:.9e} {p[2]:.9e}\n")
        fh.write(f"VERTICES {len(centers)} {2 * len(centers)}\n")
        for i in range(len(centers)):
            fh.write(f"1 {i}\n")
        fh.write(f"POINT_DATA {len(centers)}\n")
        fh.write("VECTORS velocity double\n")
        for v in vectors:
            fh.write(f"{v[0]:.9e} {v[1]:.9e} {v[2]:.9e}\n")
    return [str(path), vec_path]

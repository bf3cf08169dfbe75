"""Hybridized direct solve, velocity projection, error norms and flux accounting.

The system's matrix is the sum of one dense block per cell and is never
assembled: the refinement step and the residual apply the blocks.  With the
pressure rows negated every block is symmetric, and each is eliminated
locally: all of the cell's flux DOFs (a flux set shared by two cells becomes
one private copy per cell, tied by a multiplier with +1 in the first cell and
-1 in the second; the shared row's right-hand side goes to the first copy),
and its own pressures when no interface reads them.  Fixed DOFs are dropped.
Only the multipliers and the 2D/1D/0D pressures stay global; the negated sum
of the cells' Schur complements is SPD and is factorized once by SuperLU in
symmetric mode (hybridization: Arnold & Brezzi, M2AN 19, 1985; Cockburn &
Gopalakrishnan, SIAM J. Numer. Anal. 42, 2004).  Incomplete factorizations
failed on every fracture network tried, so there is no iterative branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .assembly import GlobalSystem
from .elements import equilibrated_cholesky
from .errors import ConfigError, SingularSystemError
from .mesh import field_values

DIRECT_SOLVE_LIMIT = 500_000


def _t(X):
    return X.transpose(0, 2, 1)


def _local_solve(R, Z, T, f_u, f_p):
    """Fluxes and eliminated pressures of a stack of cells for the flux and
    (negated) pressure loads, with ``A^-1 = R^T R``, ``Z = R B^T`` for the
    pressure rows ``B`` and ``(Z^T Z)^-1 = T^T T``."""
    a = R @ f_u[:, :, None]
    x_p = _t(T) @ (T @ (_t(Z) @ a - f_p[:, :, None]))
    return (_t(R) @ (a - Z @ x_p))[:, :, 0], x_p[:, :, 0]


class Hybridized:
    """The local eliminations of a boundary-conditioned system's cell blocks,
    on stacks of equal-size blocks, and the factorized SPD ``matrix`` of its
    global unknowns: the ``kept`` pressures, then the multipliers."""

    def __init__(self, system: GlobalSystem):
        n = len(system.rhs)
        fixed = np.isin(np.arange(n), system.fixed)
        # every entry of every block, flattened: its DOF, cell and position
        cells = system.cells
        size = np.array([len(cb.dofs) for cb in cells], dtype=int)
        start = np.cumsum(size) - size
        dofs = np.concatenate([np.zeros(0, dtype=int)] + [cb.dofs for cb in cells])
        cell = np.repeat(np.arange(len(cells)), size)
        pos = np.arange(len(dofs)) - start[cell]
        n_u = np.array([cb.n_u for cb in cells], dtype=int)[cell]
        n_own = n_u + np.array([cb.n_p for cb in cells], dtype=int)[cell]
        flux, own = pos < n_u, (pos >= n_u) & (pos < n_own)
        held = np.bincount(dofs[flux], minlength=n)
        read = np.bincount(dofs[pos >= n_own], minlength=n) > 0
        # a cell's own pressures are eliminated when no interface reads them
        unread = np.bincount(cell[own], read[dofs[own]], minlength=len(cells)) == 0
        local = held > 0
        local[dofs[own]] = unread[cell[own]]
        self.kept = np.flatnonzero(~local & ~fixed)
        self.fixed = np.flatnonzero(fixed)
        shared = np.flatnonzero((held == 2) & ~fixed)
        glob = np.full(n, -1)
        glob[self.kept] = np.arange(len(self.kept))
        glob[shared] = len(self.kept) + np.arange(len(shared))
        self.n_global = len(self.kept) + len(shared)
        # each entry's role, in elimination order: tied flux, private flux,
        # eliminated pressure, global unknown, fixed
        role = np.where(flux, np.where(held[dofs] == 2, 0, 1),
                        np.where(local[dofs], 2, 3))
        role[fixed[dofs]] = 4
        first = np.zeros(len(dofs), dtype=bool)   # a flux's first copy
        at = np.flatnonzero(flux)
        first[at[np.unique(dofs[at], return_index=True)[1]]] = True
        counts = np.bincount(5 * cell + role, minlength=5 * len(cells))
        keys, group = np.unique(np.column_stack([size, counts.reshape(-1, 5)]),
                                axis=0, return_inverse=True)

        self.stacks, parts, self.worst_pivot_ratio = [], [], 1.0
        for j, (N, n_tied, n_free, n_el, n_g, _) in enumerate(keys):
            members = np.flatnonzero(group.ravel() == j)
            # the group's entries sorted by role, so its blocks align
            at = start[members][:, None] + np.arange(N)
            at = np.take_along_axis(at, np.argsort(role[at], axis=1, kind="stable"), 1)
            loc = pos[at]
            M = np.stack([cells[c].matrix for c in members])
            M = M[np.arange(len(members))[:, None, None], loc[:, :, None], loc[:, None, :]]
            f = slice(0, n_tied + n_free)
            e, g = slice(f.stop, f.stop + n_el), slice(f.stop + n_el, f.stop + n_el + n_g)
            E = np.concatenate([np.zeros((len(members), f.stop, n_tied)), M[:, f, g]], 2)
            tie = np.arange(n_tied)
            E[:, tie, tie] = np.where(first[at[:, :n_tied]], 1.0, -1.0)
            ids = glob[dofs[np.concatenate([at[:, :n_tied], at[:, g]], 1)]]
            # A^-1 = R^T R and (Z^T Z)^-1 = T^T T; with no eliminated pressures
            # Z and T are empty
            L, s, ratio = equilibrated_cholesky(M[:, f, f], "cell flux block")
            R = np.linalg.inv(L) * s[:, None, :]
            Y, Z = R @ E, R @ M[:, f, e]
            L, s, ratio_p = equilibrated_cholesky(_t(Z) @ Z, "cell pressure Schur complement")
            T = np.linalg.inv(L) * s[:, None, :]
            Q = T @ (_t(Z) @ Y)
            self.worst_pivot_ratio = min(self.worst_pivot_ratio, float(ratio.min()),
                                         float(ratio_p.min()))
            self.stacks.append((R, Z, T, E, ids, dofs[at[:, f]], first[at[:, f]],
                                dofs[at[:, e]]))
            S = _t(Y) @ Y - _t(Q) @ Q
            S[:, n_tied:, n_tied:] += M[:, g, g]   # the blocks' own kept entries
            parts.append((S.ravel(), np.repeat(ids, n_tied + n_g, 1).ravel(),
                          np.tile(ids, n_tied + n_g).ravel()))
        vals, rows, cols = (np.concatenate(x) for x in zip(*parts))
        self.matrix = sps.csc_matrix((vals, (rows, cols)),
                                     shape=(self.n_global, self.n_global))
        self.lu = spla.splu(self.matrix, permc_spec="MMD_AT_PLUS_A",
                            diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    def solve(self, b):
        """The solution of the system for the right-hand side ``b``."""
        x = np.zeros(len(b))
        x[self.fixed] = b[self.fixed]
        rhs = np.zeros(self.n_global)
        rhs[:len(self.kept)] = b[self.kept]
        loads = [(np.where(first, b[u], 0.0), -b[p]) for *_, u, first, p in self.stacks]
        for (R, Z, T, E, g, *_), (f_u, f_p) in zip(self.stacks, loads):
            x_u = _local_solve(R, Z, T, f_u, f_p)[0]
            rhs += np.bincount(g.ravel(), (_t(E) @ x_u[:, :, None]).ravel(),
                               minlength=self.n_global)
        y = self.lu.solve(rhs)
        for (R, Z, T, E, g, u, _, p), (f_u, f_p) in zip(self.stacks, loads):
            x[u], x[p] = _local_solve(R, Z, T, f_u - (E @ y[g][:, :, None])[:, :, 0], f_p)
        x[self.kept] = y[:len(self.kept)]
        return x


def solve(system: GlobalSystem, tol: float = 1e-10) -> "DiscreteSolution":
    """Solve the assembled system; report singular systems with a null-space
    dimension estimate instead of returning garbage."""
    if not system.bc_applied:
        raise ValueError("apply_boundary_conditions before solving")
    A, b = system.matrix, system.rhs
    n = len(b)
    if n > DIRECT_SOLVE_LIMIT:
        raise ConfigError(f"the system has {n} DOFs, above the direct solve "
                          f"limit of {DIRECT_SOLVE_LIMIT}")
    with np.errstate(all="ignore"):
        try:
            hyb = Hybridized(system)
            x = hyb.solve(b)
            before = np.linalg.norm(A @ x - b)
            x = x + hyb.solve(b - A @ x)  # one refinement step
        except RuntimeError:  # singular factorization
            x = np.full(n, np.nan)
    scale = np.linalg.norm(b) if np.linalg.norm(b) > 0 else 1.0
    res = np.linalg.norm(A @ x - b)
    if not np.all(np.isfinite(x)) or res > tol * scale:
        null_dim = None
        if n <= 2000:
            sv = np.linalg.svd(A.tocsr().toarray(), compute_uv=False)
            null_dim = int(np.sum(sv <= 1e-10 * sv.max()))
        raise SingularSystemError(
            f"global system singular or solve failed (residual {res:.3e})",
            null_dim=null_dim)
    return DiscreteSolution(system=system, x=x, residual=res,
                            residual_before_refinement=before,
                            global_dofs=hyb.n_global, lu_fill=hyb.lu.nnz,
                            worst_pivot_ratio=hyb.worst_pivot_ratio)


@dataclass
class DiscreteSolution:
    """Global DOF vector with per-domain views and projected velocities, and
    the solve's health: factorized size and entries, worst local pivot ratio
    of the cell eliminations and of the element solves."""

    system: GlobalSystem
    x: np.ndarray
    residual: float
    residual_before_refinement: float = 0.0
    global_dofs: int = 0
    lu_fill: int = 0
    worst_pivot_ratio: float = 1.0
    _proj: dict = field(default_factory=dict)

    @property
    def dofmap(self):
        return self.system.dofmap

    @property
    def worst_element_pivot_ratio(self):
        """Smallest pivot ratio of the local solves that built the elements
        (``local_matrices``)."""
        return min((loc.pivot_ratio for blk in self.dofmap.blocks.values()
                    for loc in blk.locals_ if loc is not None), default=1.0)

    @property
    def md(self):
        return self.system.md

    def local_flux_dofs(self, blk, ci):
        """Element flux DOFs in the element's own outward convention."""
        return blk.cell_u_signs[ci] * self.x[blk.cell_u_dofs[ci]]

    def pressure_coeffs(self, blk, ci):
        return self.x[blk.cell_p_dofs[ci]]

    def projected_velocity(self, blk, ci):
        """Coefficients of the element velocity in the cell's ``vec_basis``
        (exact on a segment)."""
        key = (blk.dim, blk.index, ci)
        if key not in self._proj:
            self._proj[key] = blk.locals_[ci].Pi0_hat @ self.local_flux_dofs(blk, ci)
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
            # the pressure (and divergence) monomials lead the velocity ones:
            # same centre and scale, graded-lex order, lower degree
            vb = loc.vec_basis
            mono = vb.scalar.evaluate(pts)
            mono_p = mono[:, :loc.basis_p.size]
            # pressure
            p_h = mono_p @ sol.pressure_coeffs(blk, ci)
            p_ex = field_values(ex.pressure, phys)
            acc[0] += np.sum(w * (p_ex - p_h) ** 2)
            acc[3] += np.sum(w * p_ex ** 2)
            # velocity
            u_ex = field_values(ex.velocity, phys)
            if blk.frame is not None:
                u_ex = u_ex @ blk.frame.T
            # contract the coefficients first: (n_k, d) monomial rows
            u_h = mono @ np.einsum(
                "b,bij->ji", sol.projected_velocity(blk, ci), vb.coeffs)
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
    times its sign times the face measure (a segment's end has unit
    measure)."""
    j = blk.locals_[ci].layout.face_slice(lf).start
    return (float(blk.cell_u_signs[ci][j] * sol.x[blk.cell_u_dofs[ci][j]])
            * blk.geoms[ci].faces[lf].measure)


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
        for ci, loc in enumerate(blk.locals_):
            c_local = loc.vec_basis.scalar.center[None, :]   # in cell coordinates
            vec = np.einsum("b,pbi->pi", sol.projected_velocity(blk, ci),
                            loc.vec_basis.evaluate(c_local))[0]
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

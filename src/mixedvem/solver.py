"""Sparse solve, velocity projection, error norms and flux accounting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import GlobalSystem
from .errors import SingularSystemError
from .mesh import field_values

DIRECT_SOLVE_LIMIT = 500_000


def solve(system: GlobalSystem, tol: float = 1e-10) -> "DiscreteSolution":
    """Solve the assembled system; report singular systems with a null-space
    dimension estimate instead of returning garbage."""
    if not system.bc_applied:
        raise ValueError("apply_boundary_conditions before solving")
    A = system.matrix.tocsc()
    b = system.rhs
    n = A.shape[0]
    if n <= DIRECT_SOLVE_LIMIT:
        with np.errstate(all="ignore"):
            try:
                lu = spla.splu(A)
                x = lu.solve(b)
                x = x + lu.solve(b - A @ x)  # one refinement step
            except RuntimeError:  # singular factorization
                x = np.full(n, np.nan)
    else:
        ilu = spla.spilu(A.tocsc(), drop_tol=1e-6)
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
    return DiscreteSolution(system=system, x=x, residual=res)


@dataclass
class DiscreteSolution:
    """Global DOF vector with per-domain views and projected velocities."""

    system: GlobalSystem
    x: np.ndarray
    residual: float
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


def error_norms(sol: DiscreteSolution, exact: dict, quad_order=None):
    """L2 errors (e_p, e_u, e_div) per domain and aggregated.

    ``exact`` maps (dim, index) -> ExactFields; domains without an entry are
    skipped.  Returns {key: (e_p, e_u, e_div, n_p, n_u, n_div)} with absolute
    errors and exact norms, plus an "aggregate" entry.
    """
    dm = sol.dofmap
    qo = quad_order if quad_order is not None else 2 * (dm.order + 2)
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
                fh.write(f"{name} S {(-(self.entities[key].source)):.12e}\n")
                fh.write(f"{name} DIV {e.divergence:.12e}\n")
                for tgt, v in sorted(e.sent.items()):
                    fh.write(f"{name} {_entity_name(tgt)} {v:.12e}\n")


def _entity_name(key):
    d, i = key
    return {3: "matrix", 2: f"fracture_{i}", 1: f"trace_{i}",
            0: f"intersection_{i}"}[d]


def boundary_face_fluxes(sol: DiscreteSolution, blk) -> list:
    """Outward flux through each boundary face of a block, in the order of
    ``blk.boundary``: the lowest face moment times its sign times the face
    measure (an endpoint of a 1D cell has unit measure)."""
    per = sol.dofmap.space(blk.dim).n_face_dofs()
    out = []
    for ci, lf, *_ in blk.boundary:
        j = lf * per
        measure = blk.geoms[ci].faces[lf].measure if blk.dim > 1 else 1.0
        out.append(float(blk.cell_u_signs[ci][j] * sol.x[blk.cell_u_dofs[ci][j]])
                   * measure)
    return out


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

    # interface exchanges: first face moments of the duplicated DOF sets
    blk3 = dm.block(3)
    per3 = dm.space(3).n_face_dofs()
    for fm in md.fractures:
        total = 0.0
        for cell in fm.cells:
            area = cell.geometry.measure
            for cid in (cell.cell_plus, cell.cell_minus):
                dof0 = blk3.offset + dm.face_dofs[(cell.face_id, cid)][0]
                total += float(sol.x[dof0]) * area
        entities[(3, 0)].sent[(2, fm.index)] = total
        entities[(2, fm.index)].received[(3, 0)] = total
    per2 = dm.space(2).n_face_dofs()
    for tm in md.traces:
        for l in tm.fractures:
            total = 0.0
            blk2 = dm.block(2, l)
            for cell in tm.cells:
                key_e = tuple(sorted((cell.vid_a, cell.vid_b)))
                if l not in cell.sides:
                    continue
                for side in cell.sides[l]:
                    dof0 = blk2.offset + dm.edge_dofs[(l, key_e, side.cell_index)][0]
                    total += float(sol.x[dof0]) * cell.geometry.measure
            entities[(2, l)].sent[(1, tm.index)] = total
            entities[(1, tm.index)].received[(2, l)] = total
    if dm.trace_flow:
        for ip in md.intersections:
            for s in ip.sides:
                tm = md.traces[s.trace]
                blk1 = dm.block(1, s.trace)
                cell = tm.cells[s.cell_index]
                vid = cell.vid_a if s.endpoint == 0 else cell.vid_b
                dof = blk1.offset + dm.vertex_dof(s.trace, vid, s.cell_index)
                val = float(s.outward_tangent * sol.x[dof])
                ent = entities[(1, s.trace)]
                ent.sent[(0, ip.index)] = ent.sent.get((0, ip.index), 0.0) + val
                rec = entities[(0, ip.index)]
                rec.received[(1, s.trace)] = rec.received.get((1, s.trace), 0.0) + val
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
    """Legacy-VTK polygon soup with cell pressures, plus centroid velocities."""
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

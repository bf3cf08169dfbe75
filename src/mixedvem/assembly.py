"""Global saddle-point assembly over the mixed-dimensional mesh.

Global layout follows the dimension blocks

    [ h3 | h2_1 .. h2_N2 | h1_1 .. h1_N1 | h0 ]

with each domain block h = [flux dofs, pressure dofs].  Flux DOFs are shared
across neighbouring cells (H(div) conformity) except on interfaces: a face
on a fracture carries one DOF set per 3D side, an edge on a trace carries
one set per fracture side, and a trace endpoint at a trace intersection one
set per 1D side.  ``fill_block`` is the one routine that numbers every 2D
and 3D block (and the standalone 1D/2D meshes): face DOFs in face order,
then the interiors cell by cell, then the pressures; the ``_build_*_block``
functions only name the faces, their users' signs and the interfaces.  The assembled matrix
has the block skeleton

    [ K3+C33   C32     0      0  ]
    [ -C32^T  K2+C22  C21     0  ]
    [   0    -C21^T  K1+C11  C10 ]
    [   0      0    -C10^T   0  ]

where the K blocks are the per-domain [A, -W^T; W, 0] saddle matrices, the
same-dimension C blocks carry the finite normal-transmissivity terms (they
vanish when inverse_eta = 0) and the cross-dimension C blocks pair flux
jumps with lower-dimensional pressures.

With trace flow disabled the 1D/0D equations are replaced by Lagrange
multipliers enforcing weak flux continuity across traces; the multipliers
approximate the trace pressure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps

from .elements import ElementSpace, local_matrices, local_matrices_1d
from .errors import ConfigError
from .mesh import MixedDimensionalMesh, field_values
from .polyspace import MonomialBasis, dim_poly


def _same_points(ci, pts):
    return pts


@dataclass
class DomainBlock:
    """One domain's slice of the global system with its scatter data.

    ``point_map(ci, pts)`` maps cell ``ci``'s quadrature points (in the
    coordinates its geometry uses) to physical (n, 3) points; ``frame`` holds
    the domain's orthonormal tangent directions as (dim, 3) rows (None in 3D).
    """

    dim: int
    index: int
    offset: int = 0
    n_u: int = 0
    n_p: int = 0
    geoms: list = field(default_factory=list)
    locals_: list = field(default_factory=list)
    cell_u_dofs: list = field(default_factory=list)    # global flux dof ids
    cell_u_signs: list = field(default_factory=list)   # local-outward = sign*global
    cell_p_dofs: list = field(default_factory=list)
    nu: object = 1.0
    source: object = 0.0
    # (cell, local face/edge/endpoint, bc) for external boundary parts
    boundary: list = field(default_factory=list)
    constrained: list = field(default_factory=list)    # zero-flux dof ids
    cell_ids: list = field(default_factory=list)       # 3D: mesh cell ids
    cell_index_of: dict = field(default_factory=dict)
    point_map: object = _same_points
    frame: np.ndarray = None

    def place_on_plane(self, plane):
        """Cells in the 2D frame of ``plane``."""
        self.point_map = lambda ci, pts: plane.to_3d(pts)
        self.frame = np.vstack([plane.t1, plane.t2])

    def place_on_line(self, tangent):
        """Segment cells along ``tangent``, with arc-length points measured
        from each cell's midpoint."""
        geoms = self.geoms
        self.point_map = lambda ci, pts: geoms[ci].centroid + pts[:, :1] * tangent
        self.frame = tangent[None, :]

    @property
    def n_dof(self):
        return self.n_u + self.n_p

    @property
    def slice_u(self):
        return slice(self.offset, self.offset + self.n_u)

    @property
    def slice_p(self):
        return slice(self.offset + self.n_u, self.offset + self.n_dof)


@dataclass
class GlobalDofMap:
    """DOF numbering with interface duplication plus per-domain blocks."""

    blocks: dict
    total: int
    order: int
    family3d: str
    trace_flow: bool
    # registries used by the coupling assembly and post-processing
    face_dofs: dict = field(default_factory=dict)     # (fid, cid) -> ids
    face_signs: dict = field(default_factory=dict)    # (fid, cid) -> +-1
    edge_dofs: dict = field(default_factory=dict)     # (frac, ekey, ci) -> ids
    edge_signs: dict = field(default_factory=dict)
    vertex_dofs: dict = field(default_factory=dict)   # (trace, vid, ci) -> id
    local_face: dict = field(default_factory=dict)    # (fid, cid) -> cell face index

    def block(self, dim, index=0):
        return self.blocks[(dim, index)]

    def vertex_dof(self, trace, vid, ci):
        """Block-local flux DOF of trace vertex ``vid`` seen from 1D cell
        ``ci``: the cell's own DOF at a duplicated endpoint, else the shared
        one."""
        key = (trace, vid, ci)
        return self.vertex_dofs[key if key in self.vertex_dofs else (trace, vid, None)]

    def space(self, dim) -> ElementSpace:
        if dim == 3:
            return ElementSpace(3, self.order, self.family3d)
        return ElementSpace(dim, self.order, "RT")

    def counts(self):
        """Flux/pressure totals per dimension (diagnostic, manifest)."""
        out = {}
        for (d, _), blk in self.blocks.items():
            u, p = out.get(d, (0, 0))
            out[d] = (u + blk.n_u, p + blk.n_p)
        return out


def _local_quad_order(order, override):
    return override if override is not None else 2 * (order + 1)


def build_dof_map(md: MixedDimensionalMesh, order: int, family3d: str = "RT",
                  trace_flow: bool = True, quad_order: int = None) -> GlobalDofMap:
    """Number all DOFs, duplicate interface DOFs, build local matrices."""
    if not trace_flow:
        for tm in md.traces:
            if md.spec.trace_data(tm.index).inverse_eta1 > 0:
                raise ConfigError(
                    "trace-flow-neglected mode conflicts with a finite trace "
                    "normal transmissivity (eta1)")
    dm = GlobalDofMap(blocks={}, total=0, order=order, family3d=family3d,
                      trace_flow=trace_flow)
    offset = 0
    offset = _build_3d_block(dm, md, offset, quad_order)
    for fm in md.fractures:
        offset = _build_2d_block(dm, md, fm, offset, quad_order)
    for tm in md.traces:
        offset = _build_1d_block(dm, md, tm, offset, quad_order)
    if trace_flow:
        for ip in md.intersections:
            blk = DomainBlock(dim=0, index=ip.index, offset=offset, n_u=0, n_p=1)
            idata = md.spec.intersection_data(ip.index)
            blk.source = idata.source
            dm.blocks[(0, ip.index)] = blk
            offset += 1
    dm.total = offset
    return dm


def fill_block(blk, space, geoms, face_users, split, quad_order):
    """Number one domain's DOFs and build its local matrices.

    ``face_users`` maps each face key, in numbering order, to its users as
    (cell index, local face, sign); ``split`` holds the interface keys.  A
    face with two users that is not an interface carries one DOF set, which
    each user sees with its own sign (local outward = sign * global); every
    other face carries one set per user, with sign +1.  The interior DOFs
    follow all face DOFs, cell by cell, and the pressures follow all fluxes.
    Fills the block's geometry, local matrices and per-cell DOF ids, and
    returns the block-local (ids, sign) of each (face key, cell index).
    """
    per = space.n_face_dofs()
    dofs, slots = {}, [{} for _ in geoms]
    next_u = 0
    for key, users in face_users.items():
        shared = len(users) == 2 and key not in split
        for i, (ci, lf, sign) in enumerate(users):
            if i == 0 or not shared:
                ids = np.arange(next_u, next_u + per)
                next_u += per
            dofs[(key, ci)] = slots[ci][lf] = (ids, sign if shared else 1)

    if space.dim == 1:
        locs = [local_matrices_1d(space, geom, nu=blk.nu, quad_order=quad_order)
                for geom in geoms]
    else:
        locs = local_matrices(space, geoms, nu=blk.nu, quad_order=quad_order)
    for ci, (geom, loc) in enumerate(zip(geoms, locs)):
        n_int = loc.layout.n_typeii + loc.layout.n_typeiii
        faces = [slots[ci][lf] for lf in range(len(slots[ci]))]
        blk.geoms.append(geom)
        blk.locals_.append(loc)
        blk.cell_u_dofs.append(blk.offset + np.concatenate(
            [ids for ids, _ in faces] + [np.arange(next_u, next_u + n_int)]))
        blk.cell_u_signs.append(np.concatenate(
            [np.full(per, sign, dtype=float) for _, sign in faces] + [np.ones(n_int)]))
        next_u += n_int
    blk.n_u = next_u
    for loc in blk.locals_:
        n_p = loc.basis_p.size
        blk.cell_p_dofs.append(blk.offset + next_u + blk.n_p + np.arange(n_p))
        blk.n_p += n_p
    return dofs


def _build_3d_block(dm, md, offset, quad_order):
    """Faces in fid order; fracture faces are the interfaces."""
    mesh = md.mesh3d
    blk = DomainBlock(dim=3, index=0, offset=offset)
    blk.nu = 1.0 / md.spec.a3
    blk.source = md.spec.source3
    cids = sorted(mesh.cells)
    geoms = [mesh.cell_geometry(cid) for cid in cids]
    users = {fid: [] for fid in sorted(mesh.faces)}
    for ci, cid in enumerate(cids):
        for lf, (fid, s) in enumerate(mesh.cells[cid]):
            dm.local_face[(fid, cid)] = lf
            users[fid].append((ci, lf, s))
    split = {fid for fid in users if mesh.face_fracture.get(fid) is not None}
    for fid, owners in users.items():
        if len(owners) == 2 and fid not in split:
            # the face loop's own normal, as seen by its positive owner
            ci, lf, s = max(owners, key=lambda owner: owner[2])
            intrinsic = s * geoms[ci].faces[lf].normal
            canon = 1 if tuple(intrinsic) > tuple(-intrinsic) else -1
            users[fid] = [(ci, lf, s * canon) for ci, lf, s in owners]

    dofs = fill_block(blk, dm.space(3), geoms, users, split,
                      _local_quad_order(dm.order, quad_order))
    for (fid, ci), (ids, sign) in dofs.items():
        dm.face_dofs[(fid, cids[ci])] = ids
        dm.face_signs[(fid, cids[ci])] = sign
    for ci, cid in enumerate(cids):
        for lf, (fid, _) in enumerate(mesh.cells[cid]):
            if len(users[fid]) == 1:
                blk.boundary.append((ci, lf, fid, mesh.boundary_tags.get(fid)))
    blk.cell_index_of = {cid: i for i, cid in enumerate(cids)}
    blk.cell_ids = cids
    dm.blocks[(3, 0)] = blk
    return offset + blk.n_dof


def _build_2d_block(dm, md, fm, offset, quad_order):
    """Edges in order of first use; trace edges are the interfaces, external
    edges take boundary data and tip edges carry no flow."""
    blk = DomainBlock(dim=2, index=fm.index, offset=offset)
    blk.nu = 1.0 / fm.spec.a2
    blk.source = fm.spec.source
    blk.place_on_plane(fm.plane)

    users, cell_edges = {}, []
    for ci, cell in enumerate(fm.cells):
        n = len(cell.vids)
        keys = [tuple(sorted((cell.vids[k], cell.vids[(k + 1) % n]))) for k in range(n)]
        for k, key in enumerate(keys):
            # the outward normal is the traversal tangent turned by -90 deg,
            # so the tangent against its canonical direction gives the sign
            ta = cell.coords2d[(k + 1) % n] - cell.coords2d[k]
            users.setdefault(key, []).append(
                (ci, k, 1 if tuple(ta) > tuple(-ta) else -1))
        cell_edges.append(keys)
    kind = {key: fm.edge_class.get(key, ("interior",))[0] for key in users}
    split = {key for key in users if kind[key] == "trace"}

    dofs = fill_block(blk, dm.space(2), [cell.geometry for cell in fm.cells],
                      users, split, _local_quad_order(dm.order, quad_order))
    for (key, ci), (ids, sign) in dofs.items():
        dm.edge_dofs[(fm.index, key, ci)] = ids
        dm.edge_signs[(fm.index, key, ci)] = sign
    for ci, keys in enumerate(cell_edges):
        for k, key in enumerate(keys):
            if kind[key] == "external":
                blk.boundary.append((ci, k, key, None))
            elif kind[key] == "tip":
                blk.constrained.extend(int(v) for v in offset + dofs[(key, ci)][0])
    dm.blocks[(2, fm.index)] = blk
    return offset + blk.n_dof


def _build_1d_block(dm, md, tm, offset, quad_order):
    space = dm.space(1)
    blk = DomainBlock(dim=1, index=tm.index, offset=offset)
    tdata = md.spec.trace_data(tm.index)
    blk.nu = 1.0 / tdata.a1
    blk.source = tdata.source
    blk.place_on_line(tm.tangent)

    if not dm.trace_flow:
        # multiplier-only block: no 1D flux, one multiplier per pressure dof
        n_p_cell = dim_poly(1, space.grad_order)
        blk.n_u = 0
        blk.n_p = n_p_cell * len(tm.cells)
        for ci, cell in enumerate(tm.cells):
            blk.geoms.append(cell.geometry)
            blk.locals_.append(None)
            blk.cell_u_dofs.append(np.zeros(0, dtype=int))
            blk.cell_u_signs.append(np.zeros(0))
            blk.cell_p_dofs.append(offset + n_p_cell * ci + np.arange(n_p_cell))
        dm.blocks[(1, tm.index)] = blk
        return offset + blk.n_dof

    # duplicated endpoints at trace intersections
    duplicated = {}
    for ip in md.intersections:
        for s in ip.sides:
            if s.trace == tm.index:
                duplicated.setdefault(ip.vid, []).append((s.cell_index, s.endpoint))

    next_u = 0
    for ci, cell in enumerate(tm.cells):
        for endpoint, vid in ((0, cell.vid_a), (1, cell.vid_b)):
            if vid in duplicated and (ci, endpoint) in duplicated[vid]:
                dm.vertex_dofs[(tm.index, vid, ci)] = next_u
                next_u += 1
            elif (tm.index, vid, None) not in dm.vertex_dofs:
                dm.vertex_dofs[(tm.index, vid, None)] = next_u
                next_u += 1
    n_ii = space.grad_order  # interior gradient moments per cell
    interior_of = {}
    for ci in range(len(tm.cells)):
        interior_of[ci] = np.arange(next_u, next_u + n_ii)
        next_u += n_ii
    blk.n_u = next_u
    n_p_cell = dim_poly(1, space.grad_order)
    blk.n_p = n_p_cell * len(tm.cells)

    qo = quad_order
    for ci, cell in enumerate(tm.cells):
        geom = cell.geometry
        blk.geoms.append(geom)
        blk.locals_.append(local_matrices_1d(space, geom, nu=blk.nu, quad_order=qo))
        ids, sgn = [], []
        for endpoint, vid in ((0, cell.vid_a), (1, cell.vid_b)):
            ids.append(dm.vertex_dof(tm.index, vid, ci))
            # global convention: flux value along +tangent; outward at the
            # start of a cell is the -tangent direction
            sgn.append(-1.0 if endpoint == 0 else 1.0)
        blk.cell_u_dofs.append(offset + np.concatenate(
            [np.array(ids, dtype=int), interior_of[ci]]))
        blk.cell_u_signs.append(np.concatenate([np.array(sgn), np.ones(n_ii)]))
        blk.cell_p_dofs.append(offset + blk.n_u + n_p_cell * ci + np.arange(n_p_cell))

    # external / tip endpoints (the extreme vertices not at intersections)
    for endpoint_vid, ci, endpoint in _trace_extremes(tm):
        if (tm.index, endpoint_vid, ci) in dm.vertex_dofs:
            continue  # duplicated: intersection side, no external BC
        kind = tm.endpoint_class.get(endpoint_vid, "tip")
        if kind == "intersection":
            continue
        if kind == "external":
            blk.boundary.append((ci, endpoint, endpoint_vid, None))
        else:
            dof = offset + dm.vertex_dof(tm.index, endpoint_vid, ci)
            blk.constrained.append(int(dof))
    dm.blocks[(1, tm.index)] = blk
    return offset + blk.n_dof


def _trace_extremes(tm):
    first, last = tm.cells[0], tm.cells[-1]
    return [(first.vid_a, 0, 0), (last.vid_b, len(tm.cells) - 1, 1)]


# ---------------------------------------------------------------------------
# Matrix assembly
# ---------------------------------------------------------------------------


class _Coo:
    def __init__(self):
        self.rows, self.cols, self.vals = [], [], []

    def add(self, rows, cols, mat):
        r, c = np.meshgrid(rows, cols, indexing="ij")
        self.rows.append(r.ravel())
        self.cols.append(c.ravel())
        self.vals.append(np.asarray(mat, dtype=float).ravel())

    def matrix(self, n):
        if not self.rows:
            return sps.csr_matrix((n, n))
        mat = sps.csr_matrix(
            (np.concatenate(self.vals),
             (np.concatenate(self.rows), np.concatenate(self.cols))),
            shape=(n, n))
        mat.eliminate_zeros()
        return mat


@dataclass
class GlobalSystem:
    matrix: sps.csr_matrix
    rhs: np.ndarray
    dofmap: GlobalDofMap
    md: MixedDimensionalMesh
    bc_applied: bool = False
    constrained: np.ndarray = None

    def export_coo(self, path):
        coo = self.matrix.tocoo()
        with open(path, "w") as fh:
            fh.write(f"# {coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
            for r, c, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{r} {c} {v:.17e}\n")


def assemble_dimension(dm: GlobalDofMap, dim: int) -> _Coo:
    """K^{dD}: block-diagonal saddle matrices of all domains of one dimension."""
    coo = _Coo()
    for (d, idx), blk in dm.blocks.items():
        if d != dim:
            continue
        for ci in range(len(blk.geoms)):
            loc = blk.locals_[ci]
            if loc is None:
                continue
            u, s, p = blk.cell_u_dofs[ci], blk.cell_u_signs[ci], blk.cell_p_dofs[ci]
            n_u = len(u)
            K = loc.K
            S = np.concatenate([s, np.ones(len(p))])
            Ksc = K * np.outer(S, S)
            dofs = np.concatenate([u, p])
            coo.add(dofs, dofs, Ksc)
    return coo


def assemble_coupling_same_dim(dm: GlobalDofMap, md, dim: int, coo: _Coo,
                               quad_order=None):
    """(1/eta) face/edge/point mass terms on duplicated interface DOFs.

    A finite normal transmissivity penalizes inter-dimensional exchange: the
    term enters the flux rows with a positive (dissipative) sign, so the flux
    block stays positive definite and any nonzero exchange costs a pressure
    drop proportional to 1/eta.  It vanishes identically when inverse_eta = 0.
    """
    qo = _local_quad_order(dm.order, quad_order)
    if dim == 3:
        blk3 = dm.block(3)
        for fm in md.fractures:
            inv_eta = fm.spec.inverse_eta2
            if inv_eta == 0.0:
                continue
            for cell in fm.cells:
                for cid in (cell.cell_plus, cell.cell_minus):
                    ci3 = blk3.cell_index_of[cid]
                    loc = blk3.locals_[ci3]
                    lf = dm.local_face[(cell.face_id, cid)]
                    face = blk3.geoms[ci3].faces[lf]
                    fpts, fw = face.quadrature(qo)
                    vals = loc.face_dual_values(lf, face.to_face_coords(fpts))
                    N = vals.T @ (fw[:, None] * vals)
                    ids = blk3.offset + dm.face_dofs[(cell.face_id, cid)]
                    coo.add(ids, ids, inv_eta * N)
    elif dim == 2:
        for tm in md.traces:
            inv_eta = md.spec.trace_data(tm.index).inverse_eta1
            if inv_eta == 0.0:
                continue
            for cell in tm.cells:
                for l, sides in cell.sides.items():
                    blk2 = dm.block(2, l)
                    for side in sides:
                        loc = blk2.locals_[side.cell_index]
                        edge = blk2.geoms[side.cell_index].faces[side.local_edge]
                        epts, ew = edge.quadrature(qo)
                        vals = loc.face_dual_values(side.local_edge,
                                                    edge.to_face_coords(epts))
                        N = vals.T @ (ew[:, None] * vals)
                        key = tuple(sorted((cell.vid_a, cell.vid_b)))
                        ids = blk2.offset + dm.edge_dofs[(l, key, side.cell_index)]
                        coo.add(ids, ids, inv_eta * N)
    elif dim == 1:
        for ip in md.intersections:
            inv_eta = md.spec.intersection_data(ip.index).inverse_eta0
            if inv_eta == 0.0:
                continue
            for s in ip.sides:
                tm = md.traces[s.trace]
                blk1 = dm.block(1, s.trace)
                cell = tm.cells[s.cell_index]
                vid = cell.vid_a if s.endpoint == 0 else cell.vid_b
                dof = blk1.offset + dm.vertex_dof(s.trace, vid, s.cell_index)
                coo.add([dof], [dof], [[inv_eta]])


def assemble_coupling_cross_dim(dm: GlobalDofMap, md, dim: int, coo: _Coo,
                                quad_order=None):
    """Pair dim-flux jumps with (dim-1)-pressures: +C and -C^T blocks."""
    qo = _local_quad_order(dm.order + 1, quad_order)
    if dim == 3:
        blk3 = dm.block(3)
        for fm in md.fractures:
            blk2 = dm.block(2, fm.index)
            for ci2, cell in enumerate(fm.cells):
                loc2 = blk2.locals_[ci2]
                p2 = blk2.cell_p_dofs[ci2]
                for cid in (cell.cell_plus, cell.cell_minus):
                    ci3 = blk3.cell_index_of[cid]
                    loc3 = blk3.locals_[ci3]
                    lf = dm.local_face[(cell.face_id, cid)]
                    face = blk3.geoms[ci3].faces[lf]
                    fpts, fw = face.quadrature(qo)
                    dual = loc3.face_dual_values(lf, face.to_face_coords(fpts))
                    mu = loc2.basis_p.evaluate(fm.plane.to_2d(fpts))
                    C = dual.T @ (fw[:, None] * mu)       # (per_face, n_p2)
                    u3 = blk3.offset + dm.face_dofs[(cell.face_id, cid)]
                    coo.add(u3, p2, C)
                    coo.add(p2, u3, -C.T)
    elif dim == 2:
        for tm in md.traces:
            blk1 = dm.block(1, tm.index)
            for ci1, cell in enumerate(tm.cells):
                p1 = blk1.cell_p_dofs[ci1]
                mid = 0.5 * (cell.s_a + cell.s_b)
                L = cell.s_b - cell.s_a
                basis_p1 = MonomialBasis(1, dm.space(1).grad_order, np.zeros(1), L)
                key = tuple(sorted((cell.vid_a, cell.vid_b)))
                for l, sides in cell.sides.items():
                    blk2 = dm.block(2, l)
                    fm = md.fractures[l]
                    for side in sides:
                        loc2 = blk2.locals_[side.cell_index]
                        edge = blk2.geoms[side.cell_index].faces[side.local_edge]
                        epts, ew = edge.quadrature(qo)
                        dual = loc2.face_dual_values(side.local_edge,
                                                     edge.to_face_coords(epts))
                        pts3 = fm.plane.to_3d(epts)
                        s_par = (pts3 - tm.p0) @ tm.tangent - mid
                        mu = basis_p1.evaluate(s_par[:, None])
                        C = dual.T @ (ew[:, None] * mu)
                        u2 = blk2.offset + dm.edge_dofs[(l, key, side.cell_index)]
                        coo.add(u2, p1, C)
                        coo.add(p1, u2, -C.T)
    elif dim == 1:
        for ip in md.intersections:
            blk0 = dm.block(0, ip.index)
            p0 = [blk0.offset]
            for s in ip.sides:
                tm = md.traces[s.trace]
                blk1 = dm.block(1, s.trace)
                cell = tm.cells[s.cell_index]
                vid = cell.vid_a if s.endpoint == 0 else cell.vid_b
                dof = blk1.offset + dm.vertex_dof(s.trace, vid, s.cell_index)
                # outward flux at the endpoint in global (+tangent) convention
                val = s.outward_tangent
                coo.add([dof], p0, [[val]])
                coo.add(p0, [dof], [[-val]])


def assemble_rhs(dm: GlobalDofMap, md) -> np.ndarray:
    """Source moments on the pressure rows (physical convention)."""
    rhs = np.zeros(dm.total)
    qo = 2 * (dm.order + 2)
    for (d, idx), blk in dm.blocks.items():
        if d == 0:
            src = blk.source
            rhs[blk.offset] = src if not callable(src) else src(md.intersections[idx].coords)
            continue
        src = blk.source
        if not callable(src) and float(src) == 0.0:
            continue
        for ci, geom in enumerate(blk.geoms):
            loc = blk.locals_[ci]
            basis = loc.basis_p if loc is not None else None
            if basis is None:
                continue
            pts, w = geom.quadrature(qo)
            f = field_values(src, blk.point_map(ci, pts))
            rhs[blk.cell_p_dofs[ci]] += basis.evaluate(pts).T @ (w * f)
    return rhs


def assemble_complete(md: MixedDimensionalMesh, order: int, family3d="RT",
                      trace_flow=True, quad_order=None) -> GlobalSystem:
    """Assemble the full block system (boundary conditions NOT yet applied)."""
    dm = build_dof_map(md, order, family3d=family3d, trace_flow=trace_flow,
                       quad_order=quad_order)
    coo = _Coo()
    for d in (3, 2, 1):
        part = assemble_dimension(dm, d)
        coo.rows += part.rows
        coo.cols += part.cols
        coo.vals += part.vals
        assemble_coupling_same_dim(dm, md, d, coo)
    assemble_coupling_cross_dim(dm, md, 3, coo)
    assemble_coupling_cross_dim(dm, md, 2, coo)
    if trace_flow:
        assemble_coupling_cross_dim(dm, md, 1, coo)
    rhs = assemble_rhs(dm, md)
    return GlobalSystem(matrix=coo.matrix(dm.total), rhs=rhs, dofmap=dm, md=md)


# ---------------------------------------------------------------------------
# Boundary conditions
# ---------------------------------------------------------------------------


def apply_boundary_conditions(system: GlobalSystem) -> GlobalSystem:
    """Dirichlet data into the flux RHS; homogeneous Neumann DOFs eliminated.

    No-flow flux DOFs are fixed at zero and Dirichlet intersection pressures
    at their datum: their known values move to the right-hand side and their
    rows and columns become unit rows, so the system keeps its size.
    """
    if system.bc_applied:
        raise ValueError("boundary conditions are already applied")
    dm, md = system.dofmap, system.md
    rhs = system.rhs
    qo = 2 * (dm.order + 2)
    no_flow = []
    for (d, idx), blk in dm.blocks.items():
        no_flow.extend(blk.constrained)
        for ci, lf, where, tag in blk.boundary:
            if d == 3:
                bc = md.spec.bc3.get(tag)
                if bc is None:
                    raise ConfigError(f"external face {where} has boundary tag "
                                      f"{tag!r} with no boundary condition")
            else:
                bc = (md.fractures[idx].spec.bc if d == 2
                      else md.spec.trace_data(idx).bc)
            if bc.kind == "neumann":
                sl = blk.locals_[ci].layout.face_slice(lf)
                no_flow.extend(blk.cell_u_dofs[ci][sl])
            else:
                add_dirichlet_load(rhs, blk, ci, lf, bc, qo)

    pinned, values = [], []
    if dm.trace_flow:
        for ip in md.intersections:
            bc = md.spec.intersection_data(ip.index).bc
            if bc is not None and bc.kind == "dirichlet":
                pinned.append(dm.block(0, ip.index).offset)
                values.append(bc.datum(ip.coords))
    cset = np.unique(np.asarray(no_flow, dtype=int))
    fixed = np.concatenate([np.asarray(pinned, dtype=int), cset])
    x_fixed = np.concatenate([values, np.zeros(len(cset))])

    A = system.matrix
    rhs -= A[:, fixed] @ x_fixed
    free = np.ones(A.shape[0])
    free[fixed] = 0.0
    A = sps.diags(free) @ A @ sps.diags(free) + sps.diags(1.0 - free)
    A = A.tocsr()
    A.eliminate_zeros()
    rhs[fixed] = x_fixed

    system.matrix = A
    system.rhs = rhs
    system.bc_applied = True
    system.constrained = cset
    return system


def add_dirichlet_load(rhs, blk, ci, lf, bc, quad_order):
    """Add the pressure datum's moments on external face ``lf`` of cell ``ci``
    to the flux rows of ``rhs``."""
    loc = blk.locals_[ci]
    sl = loc.layout.face_slice(lf)
    if blk.dim == 1:
        # an endpoint: the datum itself, at arc length -+ L/2
        pts = np.array([[(lf - 0.5) * loc.measure]])
        w, dual = np.ones(1), np.ones((1, 1))
    else:
        face = blk.geoms[ci].faces[lf]
        pts, w = face.quadrature(quad_order)
        dual = loc.face_dual_values(lf, face.to_face_coords(pts))
    g = bc.datum(blk.point_map(ci, pts))
    rhs[blk.cell_u_dofs[ci][sl]] -= blk.cell_u_signs[ci][sl] * (dual.T @ (w * g))

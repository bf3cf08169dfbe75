"""Global saddle-point assembly over the mixed-dimensional mesh.

Global layout follows the dimension blocks

    [ h3 | h2_1 .. h2_N2 | h1_1 .. h1_N1 | h0 ]

with each domain block h = [flux dofs, pressure dofs].  Flux DOFs are shared
across neighbouring cells (H(div) conformity) except on interfaces: a face
on a fracture carries one DOF set per 3D side, an edge on a trace one set
per fracture side, and a trace vertex at a trace intersection one DOF per
1D side.  ``fill_block`` is the one routine that numbers every 1D, 2D and
3D block (and the standalone 1D/2D meshes): face DOFs in face order, then
the interiors cell by cell, then the pressures; the ``_build_*_block``
functions only name the faces, their users' signs, the interfaces and the
boundary parts, each with its ``BoundaryCondition`` (tips are no-flow
parts).  An interface or external face's DOF set is its cell's outward flux
moments.  Each interface set is recorded once, as an ``InterfaceSide`` in
``GlobalDofMap.interfaces``; the couplings and the exchange fluxes of the
flux report are loops over that list.  The assembled matrix has the block
skeleton

    [ K3+C33   C32     0      0  ]
    [ -C32^T  K2+C22  C21     0  ]
    [   0    -C21^T  K1+C11  C10 ]
    [   0      0    -C10^T   0  ]

where the K blocks are the per-domain [A, -W^T; W, 0] saddle matrices, the
same-dimension C blocks carry the finite normal-transmissivity terms (they
vanish when inverse_eta = 0) and the cross-dimension C blocks pair flux
jumps with lower-dimensional pressures.  The matrix is the sum of one dense
``CellBlock`` per cell (its signed K, the 1/eta masses of its interface
sides, its +-C rows and columns), which the solver eliminates cell by cell.
``assemble`` makes them, for the mixed-dimensional mesh
(``assemble_complete``) and the standalone meshes alike.  The blocks are
the matrix's only copy: ``GlobalSystem.matrix`` applies them block by
block, ``apply_boundary_conditions`` (one loop over every block's boundary
parts) moves their fixed columns to the right-hand side, and only the
export and the singular-system diagnosis sum them (``summed_entries``,
numpy only); ``tocsr`` (tests, the traced benchmark) puts the sum in a
scipy CSR matrix.

With trace flow disabled the 1D/0D equations are replaced by Lagrange
multipliers enforcing weak flux continuity across traces; the multipliers
approximate the trace pressure, and a trace block holds no element records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .elements import ElementSpace, local_matrices, local_matrices_1d, stiffness
from .errors import ConfigError
from .mesh import NEUMANN, MixedDimensionalMesh, field_values_stacked
from .polyspace import MonomialBasis, dim_poly, monomials

# an intersection's one pressure: the constant, in physical coordinates
POINT_BASIS = MonomialBasis(3, 0, np.zeros(3), 1.0)


def _same_points(ci, pts):
    return pts


@dataclass
class DomainBlock:
    """One domain's slice of the global system with its scatter data.

    ``point_map(ci, pts)`` maps cell ``ci``'s quadrature points (in the
    coordinates its geometry uses) to physical (n, 3) points; ``frame`` holds
    the domain's orthonormal tangent directions as (dim, 3) rows (None in 3D).
    ``bases_p`` holds each cell's pressure monomials in those coordinates.
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
    bases_p: list = field(default_factory=list)
    nu: object = 1.0
    source: object = 0.0
    # (cell, local face/edge/end, key, BoundaryCondition) of each boundary
    # part: external parts take their data, tips are NEUMANN (no flow), and
    # a pinned intersection's one part (cell 0, face 0) holds its datum;
    # the condition of a 3D face whose tag has none is None
    boundary: list = field(default_factory=list)
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

    def local_coords(self, ci, phys):
        """Cell ``ci``'s coordinates of physical (n, 3) points: the inverse
        of ``point_map``."""
        if self.frame is None:
            return phys
        origin = self.point_map(ci, np.zeros((1, len(self.frame))))
        return (phys - origin) @ self.frame.T

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
class InterfaceSide:
    """One flux-DOF set on an interface: the face ``face`` of cell ``cell`` of
    the upper block, against cell ``lower_cell`` of the block one dimension
    down.  ``dofs`` are the set's global ids, the outward flux moments."""

    upper: tuple
    cell: int
    face: int
    dofs: np.ndarray
    lower: tuple
    lower_cell: int
    inverse_eta: float


@dataclass
class GlobalDofMap:
    """DOF numbering with interface duplication plus per-domain blocks."""

    blocks: dict
    total: int
    order: int
    family3d: str
    trace_flow: bool
    interfaces: list = field(default_factory=list)   # InterfaceSide records

    def block(self, dim, index=0):
        return self.blocks[(dim, index)]

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


def build_dof_map(md: MixedDimensionalMesh, order: int, family3d: str = "RT",
                  trace_flow: bool = True) -> GlobalDofMap:
    """Number all DOFs, duplicate interface DOFs, build local matrices."""
    if not trace_flow:
        for tm in md.traces:
            if md.spec.trace_data(tm.index).inverse_eta1 > 0:
                raise ConfigError(
                    "trace-flow-neglected mode conflicts with a finite trace "
                    "normal transmissivity (eta1)")
        data = {f"trace {tm.index}": md.spec.trace_data(tm.index) for tm in md.traces}
        data.update({f"intersection {ip.index}": md.spec.intersection_data(ip.index)
                     for ip in md.intersections})
        for name, d in data.items():
            if callable(d.source) or d.source != 0 or getattr(d.bc, "kind", "") == "dirichlet":
                raise ConfigError("trace-flow-neglected mode has no equation for the "
                                  f"source or Dirichlet data of {name}")
    dm = GlobalDofMap(blocks={}, total=0, order=order, family3d=family3d,
                      trace_flow=trace_flow)
    offset = 0
    offset = _build_3d_block(dm, md, offset)
    for fm in md.fractures:
        offset = _build_2d_block(dm, md, fm, offset)
    for tm in md.traces:
        offset = _build_1d_block(dm, md, tm, offset)
    if trace_flow:
        for ip in md.intersections:
            idata = md.spec.intersection_data(ip.index)
            blk = dm.blocks[(0, ip.index)] = DomainBlock(
                dim=0, index=ip.index, offset=offset, n_p=1, geoms=[ip.coords],
                cell_p_dofs=[np.array([offset])], bases_p=[POINT_BASIS],
                source=idata.source)
            if idata.bc is not None and idata.bc.kind == "dirichlet":
                blk.boundary.append((0, 0, ip.vid, idata.bc))
            offset += 1
    dm.total = offset
    return dm


def fill_block(blk, space, geoms, face_users, split):
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

    build = local_matrices_1d if space.dim == 1 else local_matrices
    locs = build(space, geoms, nu=blk.nu)
    for ci, (geom, loc) in enumerate(zip(geoms, locs)):
        n_int = loc.layout.n_typeii + loc.layout.n_typeiii
        faces = [slots[ci][lf] for lf in range(len(slots[ci]))]
        blk.geoms.append(geom)
        blk.locals_.append(loc)
        blk.bases_p.append(loc.basis_p)
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


def _add_interfaces(dm, blk, face_users, dofs, lower):
    """One ``InterfaceSide`` per user of each interface key; ``lower`` maps
    the key to (lower block key, lower cell, inverse_eta)."""
    for key, (low, lower_cell, inverse_eta) in lower.items():
        for ci, lf, _ in face_users[key]:
            dm.interfaces.append(InterfaceSide(
                (blk.dim, blk.index), ci, lf, blk.offset + dofs[(key, ci)][0],
                low, lower_cell, inverse_eta))


def _build_3d_block(dm, md, offset):
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
            users[fid].append((ci, lf, s))
    lower = {cell.face_id: ((2, fm.index), ci2, fm.spec.inverse_eta2)
             for fm in md.fractures for ci2, cell in enumerate(fm.cells)}
    shared = [fid for fid, owners in users.items() if len(owners) == 2 and fid not in lower]
    for fid, face in zip(shared, mesh.face_geometry(shared)):
        users[fid] = [(ci, lf, s * face.lex_sign) for ci, lf, s in users[fid]]

    dofs = fill_block(blk, dm.space(3), geoms, users, lower)
    _add_interfaces(dm, blk, users, dofs, lower)
    for ci, cid in enumerate(cids):
        for lf, (fid, _) in enumerate(mesh.cells[cid]):
            if len(users[fid]) == 1:
                tag = mesh.boundary_tags.get(fid)
                blk.boundary.append((ci, lf, (fid, tag), md.spec.bc3.get(tag)))
    blk.cell_index_of = {cid: i for i, cid in enumerate(cids)}
    blk.cell_ids = cids
    dm.blocks[(3, 0)] = blk
    return offset + blk.n_dof


def _build_2d_block(dm, md, fm, offset):
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
        for k, (key, edge) in enumerate(zip(keys, cell.geometry.faces)):
            users.setdefault(key, []).append((ci, k, edge.lex_sign))
        cell_edges.append(keys)
    kind = {key: fm.edge_class.get(key, ("interior",))[0] for key in users}
    lower = {tuple(sorted((cell.vid_a, cell.vid_b))):
             ((1, tm.index), ci1, md.spec.trace_data(tm.index).inverse_eta1)
             for tm in md.traces if fm.index in tm.fractures
             for ci1, cell in enumerate(tm.cells)}

    dofs = fill_block(blk, dm.space(2), [cell.geometry for cell in fm.cells],
                      users, lower)
    _add_interfaces(dm, blk, users, dofs, lower)
    bcs = {"external": fm.spec.bc, "tip": NEUMANN}
    for ci, keys in enumerate(cell_edges):
        for k, key in enumerate(keys):
            if kind[key] in bcs:
                blk.boundary.append((ci, k, key, bcs[kind[key]]))
    dm.blocks[(2, fm.index)] = blk
    return offset + blk.n_dof


def _build_1d_block(dm, md, tm, offset):
    """Vertices in order of first use, seen with the sign of the +tangent
    flux; trace intersections are the interfaces, external extremes take
    boundary data and tip extremes carry no flow."""
    space = dm.space(1)
    blk = DomainBlock(dim=1, index=tm.index, offset=offset)
    tdata = md.spec.trace_data(tm.index)
    blk.nu = 1.0 / tdata.a1
    blk.source = tdata.source
    blk.place_on_line(tm.tangent)
    geoms = [cell.geometry for cell in tm.cells]

    if not dm.trace_flow:
        # multiplier-only block: no 1D flux, one multiplier per pressure dof
        n_p_cell = dim_poly(1, space.grad_order)
        blk.n_p = n_p_cell * len(geoms)
        for ci, geom in enumerate(geoms):
            blk.geoms.append(geom)
            blk.bases_p.append(MonomialBasis(1, space.grad_order, np.zeros(1),
                                             geom.measure))
            blk.cell_p_dofs.append(offset + n_p_cell * ci + np.arange(n_p_cell))
        dm.blocks[(1, tm.index)] = blk
        return offset + blk.n_dof

    users = {}
    for ci, cell in enumerate(tm.cells):
        users.setdefault(cell.vid_a, []).append((ci, 0, -1))
        users.setdefault(cell.vid_b, []).append((ci, 1, 1))
    lower = {ip.vid: ((0, ip.index), 0,
                      md.spec.intersection_data(ip.index).inverse_eta0)
             for ip in md.intersections
             if tm.index in ip.traces}

    dofs = fill_block(blk, space, geoms, users, lower)
    _add_interfaces(dm, blk, users, dofs, lower)
    for vid, owners in users.items():
        if len(owners) == 1 and vid not in lower:
            ci, end, _ = owners[0]
            external = tm.endpoint_class.get(vid, "tip") == "external"
            blk.boundary.append((ci, end, vid, tdata.bc if external else NEUMANN))
    dm.blocks[(1, tm.index)] = blk
    return offset + blk.n_dof


# ---------------------------------------------------------------------------
# Matrix assembly
# ---------------------------------------------------------------------------


@dataclass
class CellBlock:
    """One cell's dense share of the global matrix, on the global ids
    ``dofs``: its flux DOFs (in the global orientation), its own pressures,
    then the pressures of the lower cells its interface sides face, which
    start at ``lower[(lower block key, lower cell)]``.  The cell's physical
    ``centroid`` places its unknowns for the solver's ordering."""

    dofs: np.ndarray
    n_u: int
    n_p: int
    matrix: np.ndarray
    centroid: np.ndarray = field(default_factory=lambda: np.zeros(3))
    lower: dict = field(default_factory=dict)


def summed_entries(cells, n, fixed=()):
    """Rows, columns and values of the nonzero entries of the (n, n) sum of
    the cell blocks, row-major, with unit rows and columns at ``fixed``.  A
    repeated entry is summed in block order."""
    free = np.ones(n, dtype=bool)
    free[np.asarray(fixed, dtype=int)] = False
    dofs = [np.zeros(0, dtype=np.int64)] + [cb.dofs.astype(np.int64) for cb in cells]
    rows = np.concatenate([np.repeat(d, len(d)) for d in dofs])
    cols = np.concatenate([np.tile(d, len(d)) for d in dofs])
    at = free[rows] & free[cols]
    key, slot = np.unique(rows[at] * n + cols[at], return_inverse=True)
    vals = np.bincount(slot, np.concatenate(
        [np.zeros(0)] + [cb.matrix.ravel() for cb in cells])[at], len(key))
    key = np.concatenate([key, np.flatnonzero(~free) * (n + 1)])
    vals = np.concatenate([vals, np.ones(len(key) - len(vals))])
    order = np.argsort(key, kind="stable")
    key, vals = key[order], vals[order]
    nonzero = vals != 0
    return key[nonzero] // n, key[nonzero] % n, vals[nonzero]


def scatter(cells, n, fixed=()):
    """The ``summed_entries`` as a scipy CSR matrix."""
    import scipy.sparse as sps
    rows, cols, vals = summed_entries(cells, n, fixed)
    return sps.csr_matrix((vals, (rows, cols)), shape=(n, n))


class BlockOperator:
    """A system's matrix, applied block by block: the sum of its cell blocks
    with unit rows and columns at its fixed DOFs.  ``tocsr``, ``tocsc`` and
    ``nnz`` sum the blocks on each call (tests and the traced benchmark read
    them)."""

    def __init__(self, system):
        self.system = system
        self.shape = (len(system.rhs),) * 2

    def __matmul__(self, x):
        cells, fixed = self.system.cells, self.system.fixed
        free = np.where(np.isin(np.arange(self.shape[0]), fixed), 0.0, x)
        y = np.bincount(
            np.concatenate([np.zeros(0, dtype=int)] + [cb.dofs for cb in cells]),
            np.concatenate([np.zeros(0)] + [cb.matrix @ free[cb.dofs] for cb in cells]),
            minlength=self.shape[0])
        y[fixed] = x[fixed]
        return y

    def tocsr(self):
        return scatter(self.system.cells, self.shape[0], self.system.fixed)

    def tocsc(self):
        return self.tocsr().tocsc()

    nnz = property(lambda self: self.tocsr().nnz)


@dataclass
class GlobalSystem:
    """One ``CellBlock`` per cell, the only copy of the matrix, and the
    right-hand side.  ``matrix`` applies the blocks, and ``fix`` is the one
    way to change the system after assembly, so the blocks the solver
    eliminates and the operator it refines with stay one system; it keeps
    the assembled right-hand side, the ``source_moments``, before any BC."""

    cells: list
    rhs: np.ndarray
    dofmap: GlobalDofMap
    md: MixedDimensionalMesh
    bc_applied: bool = False
    constrained: np.ndarray = None
    fixed: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int), init=False)
    source_moments: np.ndarray = field(init=False)

    def __post_init__(self):
        self.source_moments = self.rhs.copy()

    @property
    def matrix(self) -> BlockOperator:
        return BlockOperator(self)

    def fix(self, dofs, values):
        """Hold ``dofs`` at ``values``: their columns move to the right-hand
        side and their rows and columns become unit rows; the solver drops
        the ``fixed`` DOFs from the cell blocks."""
        self.rhs -= self.matrix @ np.bincount(dofs, values, len(self.rhs))
        self.rhs[dofs] = values
        self.fixed = np.union1d(self.fixed, dofs)

    def export_coo(self, path):
        n = len(self.rhs)
        rows, cols, vals = summed_entries(self.cells, n, self.fixed)
        with open(path, "w") as fh:
            fh.write(f"# {n} {n} {len(vals)}\n")
            for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
                fh.write(f"{r} {c} {v:.17e}\n")


def assemble_dimension(dm: GlobalDofMap, dim: int) -> dict:
    """The cell blocks of all domains of one dimension, keyed by (block key,
    cell): each cell's K, conjugated by its flux signs, with zero rows and
    columns for the pressures of its lower cells.  K is made here, one stack
    per layout, and written straight into the blocks."""
    lower = {}
    for side in dm.interfaces:
        if side.upper[0] == dim:
            lower.setdefault((side.upper, side.cell), {})[side.lower, side.lower_cell] = (
                dm.blocks[side.lower].cell_p_dofs[side.lower_cell])
    cells = {}
    for key, blk in dm.blocks.items():
        if key[0] != dim:
            continue
        layouts = {}
        for ci, loc in enumerate(blk.locals_):
            u, p = blk.cell_u_dofs[ci], blk.cell_p_dofs[ci]
            low = lower.get((key, ci), {})
            dofs = np.concatenate([u, p, *low.values()])
            at = accumulate([len(u) + len(p)] + [len(q) for q in low.values()])
            c = blk.geoms[ci].centroid   # a segment's is physical already
            cells[(key, ci)] = CellBlock(
                dofs, len(u), len(p), np.zeros((len(dofs),) * 2),
                c if blk.dim == 1 else blk.point_map(ci, c[None])[0],
                dict(zip(low, at)))
            layouts.setdefault(loc.layout, []).append(ci)
        for group in layouts.values():
            for ci, K in zip(group, stiffness([blk.locals_[ci] for ci in group])):
                s = blk.cell_u_signs[ci]
                S = np.concatenate([s, np.ones(len(K) - len(s))])
                cells[(key, ci)].matrix[:len(K), :len(K)] = K * np.outer(S, S)
    return cells


def face_rule(blk, ci, lf, qo):
    """Points (in cell ``ci``'s coordinates), weights and face-DOF dual values
    of a degree-``qo`` rule on face ``lf``.  A segment's face is its end: the
    one point, with weight 1 and dual value 1."""
    face = blk.geoms[ci].faces[lf]
    pts, w = face.quadrature(qo)
    return pts, w, blk.locals_[ci].face_dual_values(lf, face.to_face_coords(pts))


def face_mass(blk, ci, lf):
    """Mass matrix of the face-DOF duals of face ``lf`` of cell ``ci``.

    The duals solve ``M x = |f| I`` against the face mass ``M`` of the face
    monomials, so their own mass is ``|f|`` times the stored dual
    coefficients; a segment's end, of unit measure and dual, has mass 1.
    """
    return blk.geoms[ci].faces[lf].measure * blk.locals_[ci].face_dual[lf]


def assemble_coupling_same_dim(dm: GlobalDofMap, cells: dict):
    """(1/eta) face mass terms on the interface sides' flux DOFs.

    A finite normal transmissivity penalizes inter-dimensional exchange: the
    term enters the flux rows with a positive (dissipative) sign, so the flux
    block stays positive definite and any nonzero exchange costs a pressure
    drop proportional to 1/eta.  It vanishes identically when inverse_eta = 0.
    """
    for side in dm.interfaces:
        if side.inverse_eta != 0.0:
            upper = dm.blocks[side.upper]
            sl = upper.locals_[side.cell].layout.face_slice(side.face)
            cells[(side.upper, side.cell)].matrix[sl, sl] += (
                side.inverse_eta * face_mass(upper, side.cell, side.face))


def assemble_coupling_cross_dim(dm: GlobalDofMap, cells: dict):
    """Pair each interface side's outward flux with the pressures of its
    lower cell: +C and -C^T blocks.  For all sides of one dimension pair,
    the face and lower pressure monomials are evaluated on the stacked face
    rules (one per face and lower cell: a fracture face's two sides share
    it), and C comes from one batched product, over rules padded with zero
    rows."""
    qo = 2 * (dm.order + 2)
    pairs = {}
    for side in dm.interfaces:
        pairs.setdefault((side.upper[0], side.lower[0]), []).append(side)
    for sides in pairs.values():
        index, rules, r = {}, [], []
        for side in sides:
            upper, lower = dm.blocks[side.upper], dm.blocks[side.lower]
            face = upper.geoms[side.cell].faces[side.face]
            key = (id(face), side.lower, side.lower_cell)
            if key not in index:
                index[key] = len(rules)
                pts, w = face.quadrature(qo)
                basis = lower.bases_p[side.lower_cell]
                y = lower.local_coords(side.lower_cell, upper.point_map(side.cell, pts))
                rules.append((face.to_face_coords(pts) /
                              upper.locals_[side.cell].face_scale[side.face],
                              (y - basis.center) / basis.scale, w))
            r.append(index[key])
        xi, z, w = (np.concatenate(x) for x in zip(*rules))
        n = np.array([len(rule[2]) for rule in rules])
        at = np.arange(n.max()) < n[:, None]
        F = np.zeros(at.shape + (dim_poly(xi.shape[1], dm.order),))
        F[at] = monomials(xi, dm.order)
        degree = dm.blocks[sides[0].lower].bases_p[0].order
        mu = np.zeros(at.shape + (dim_poly(z.shape[1], degree),))
        mu[at] = w[:, None] * monomials(z, degree)
        dual = np.stack([dm.blocks[s.upper].locals_[s.cell].face_dual[s.face]
                         for s in sides])
        for side, C in zip(sides, (F[r] @ dual).transpose(0, 2, 1) @ mu[r]):
            cb = cells[(side.upper, side.cell)]
            sl = dm.blocks[side.upper].locals_[side.cell].layout.face_slice(side.face)
            q0 = cb.lower[side.lower, side.lower_cell]
            q = slice(q0, q0 + C.shape[1])
            cb.matrix[sl, q] += C
            cb.matrix[q, sl] -= C.T


def cell_fields(blk, cells, qo, fields):
    """Yields (cell, points, weights, values of each of the tuple ``fields``)
    of the degree-``qo`` rule on each of ``cells``; the fields are evaluated
    on stacked runs of cells (``field_values_stacked``)."""
    def rules():
        for ci in cells:
            pts, w = blk.geoms[ci].quadrature(qo)
            yield blk.point_map(ci, pts), (ci, pts, w)
    for (ci, pts, w), values in field_values_stacked(fields, rules()):
        yield ci, pts, w, values


def assemble_rhs(dm: GlobalDofMap) -> np.ndarray:
    """Source moments on the pressure rows (physical convention)."""
    rhs = np.zeros(dm.total)
    qo = 2 * (dm.order + 2)
    for blk in dm.blocks.values():
        if blk.dim == 0:
            src = blk.source
            rhs[blk.offset] = src if not callable(src) else src(blk.geoms[0])
            continue
        if not callable(blk.source) and float(blk.source) == 0.0:
            continue
        for ci, pts, w, (f,) in cell_fields(blk, range(len(blk.locals_)), qo,
                                            (blk.source,)):
            rhs[blk.cell_p_dofs[ci]] += blk.locals_[ci].basis_p.evaluate(pts).T @ (w * f)
    return rhs


def assemble(dm: GlobalDofMap, md: MixedDimensionalMesh = None) -> GlobalSystem:
    """The block system of the numbered domains ``dm`` (boundary conditions
    NOT yet applied): the cell blocks of every dimension, the couplings of
    its interfaces and the source moments.  ``md`` is the mesh the solution
    is post-processed on (None for a standalone mesh)."""
    cells = {}
    for d in (3, 2, 1):
        cells.update(assemble_dimension(dm, d))
    assemble_coupling_same_dim(dm, cells)
    assemble_coupling_cross_dim(dm, cells)
    return GlobalSystem(cells=list(cells.values()), rhs=assemble_rhs(dm),
                        dofmap=dm, md=md)


def assemble_complete(md: MixedDimensionalMesh, order: int, family3d="RT",
                      trace_flow=True) -> GlobalSystem:
    """Assemble the full block system (boundary conditions NOT yet applied)."""
    return assemble(build_dof_map(md, order, family3d=family3d,
                                  trace_flow=trace_flow), md)


# ---------------------------------------------------------------------------
# Boundary conditions
# ---------------------------------------------------------------------------


def apply_boundary_conditions(system: GlobalSystem) -> GlobalSystem:
    """Apply the condition of every block's boundary parts.

    A Neumann part's flux DOFs are fixed at zero, a Dirichlet part's datum
    moments go into its flux rows, and a pinned intersection's pressure is
    fixed at its datum (``GlobalSystem.fix``), so the system keeps its size.
    """
    if system.bc_applied:
        raise ValueError("boundary conditions are already applied")
    dm = system.dofmap
    qo = 2 * (dm.order + 2)
    no_flow, pinned = [], {}
    for blk in dm.blocks.values():
        dirichlet = {}   # id(bc) -> (bc, [(cell, local face), ...])
        for ci, lf, where, bc in blk.boundary:
            if bc is None:   # a 3D face, keyed by (face id, tag)
                raise ConfigError(f"external face {where[0]} has boundary tag "
                                  f"{where[1]!r} with no boundary condition")
            if blk.dim == 0:
                pinned[blk.offset] = bc.datum(blk.geoms[0])
            elif bc.kind == "neumann":
                sl = blk.locals_[ci].layout.face_slice(lf)
                no_flow.extend(blk.cell_u_dofs[ci][sl])
            else:
                dirichlet.setdefault(id(bc), (bc, []))[1].append((ci, lf))
        for bc, faces in dirichlet.values():
            add_dirichlet_loads(system.rhs, blk, faces, bc, qo)

    fixed = dict.fromkeys(no_flow, 0.0) | pinned
    system.constrained = np.unique(np.asarray(no_flow, dtype=int))
    system.fix(np.array(list(fixed), dtype=int), np.array(list(fixed.values())))
    system.bc_applied = True
    return system


def add_dirichlet_loads(rhs, blk, faces, bc, quad_order):
    """Add the pressure datum's moments on the external faces ``faces``
    ((cell, local face) pairs) to the flux rows of ``rhs``; the datum is
    evaluated on stacked runs of faces (``field_values_stacked``)."""
    def rules():
        for ci, lf in faces:
            pts, w, dual = face_rule(blk, ci, lf, quad_order)
            yield blk.point_map(ci, pts), (ci, lf, w, dual)
    for (ci, lf, w, dual), (g,) in field_values_stacked((bc.value,), rules()):
        sl = blk.locals_[ci].layout.face_slice(lf)
        rhs[blk.cell_u_dofs[ci][sl]] -= blk.cell_u_signs[ci][sl] * (dual.T @ (w * g))

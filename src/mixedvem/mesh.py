"""Conforming mixed-dimensional meshes built by cutting a 3D background mesh.

A background polyhedral mesh is cut along each (convex, planar) fracture
polygon in turn.  A cell crossed by a fracture is split by the full fracture
plane, so cuts are prolonged to the cell boundary; the part of the cut
cross-section inside the fracture polygon becomes fracture faces, the rest
becomes co-planar hanging faces, and neighbours of cut cells acquire hanging
faces through the shared-face splitting.  Fracture geometry is never altered.
Each new vertex goes into every face loop with the mesh edge it splits.

After cutting, the lower meshes are read from the cut mesh's topology: the
2D fracture meshes are the patchworks of marked faces, a 1D trace mesh is
the set of mesh edges that the faces of both its fractures hold, ordered
along their intersection segment, and the 0D points are the vertices where
cells of two or more traces end.  External fracture edges and trace ends
are those in a boundary face's loop.

Data callbacks (boundary data, sources, exact fields) are evaluated on many
points at once through ``field_values``, on the stacked quadrature points of
runs of a block's cells or faces (``field_values_stacked``).  A callable
receives the coordinate rows ``x = points.T``, so ``x[0]``, ``x[1]`` and
``x[2]`` are arrays, and returns an (n,) array for a scalar field or a
(3, n) array (components as rows) for a vector field; a scalar or (3,)
result is broadcast.  Written with ``x[i]`` and NumPy ufuncs, the same
function also serves a single (3,) point.  The batched values are checked
against per-point calls on a few probe points; a callable that raises on
rows or disagrees there is evaluated point by point instead.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ConformityError, DegenerateGeometryError, TopologyError
from .geometry import (EPS_GEO_FACTOR, Plane, PolygonGeometry, PolyhedronGeometry,
                       SegmentGeometry, build_cells, build_faces, fit_plane,
                       polygon_area_centroid_2d)


# ---------------------------------------------------------------------------
# Boundary conditions and network description
# ---------------------------------------------------------------------------


@dataclass
class BoundaryCondition:
    """Either homogeneous Neumann (no flux) or Dirichlet with a pressure datum."""

    kind: str                      # "dirichlet" | "neumann"
    value: Callable | float = 0.0  # pressure datum for Dirichlet (physical)

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann"):
            raise ConfigError(f"unknown boundary condition kind {self.kind!r}")

    def datum(self, x):
        """Pressure datum at one (3,) point, or at each row of an (n, 3)
        array (see ``field_values``)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return field_values(self.value, x[None, :])[0]
        return field_values(self.value, x)


# Relative agreement required between batched and per-point probe values.
FIELD_PROBE_RTOL = 1e-12


def field_values(f, points):
    """Values of a data field at the rows of an (n, 3) point array.

    ``f`` is a constant (scalar or (3,) vector) or a callable.  A callable is
    called once on the coordinate rows ``points.T``; its result is checked
    against per-point calls at the first, middle and last point, and if the
    call raises or the values disagree beyond FIELD_PROBE_RTOL, ``f`` is
    called point by point.  Returns (n,) for a scalar field, (n, 3) for a
    vector field.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if not callable(f):
        value = np.asarray(f, dtype=float)
        return np.broadcast_to(value, (n,) + value.shape).copy()
    probes = sorted({0, n // 2, n - 1}) if n else []
    probed = np.array([f(points[i]) for i in probes], dtype=float)
    if n <= len(probes):
        return probed
    try:
        batched = _rows_result(f(points.T), probed.shape[1:], n)
    except Exception:   # a callable that only takes single points
        batched = None
    if batched is not None:
        scale = max(float(np.abs(probed).max()), np.finfo(float).tiny)
        if np.all(np.abs(batched[probes] - probed) <= FIELD_PROBE_RTOL * scale):
            return batched
    return np.array([f(x) for x in points], dtype=float)


# Points per stacked evaluation of a data field: a run of small cells shares
# one call, while the stack stays small beside the solver's working memory.
STACK_POINTS = 1 << 13


def field_values_stacked(fields, rules):
    """``field_values`` of each of the tuple ``fields`` for an iterable of
    ((n_i, 3) points, item) pairs: yields (item, tuple of (n_i,) or (n_i, 3)
    values) in order.  Consecutive point arrays are stacked until they hold
    STACK_POINTS points, and each stack is one evaluation of each field, so
    only one run of ``rules`` is held at once."""
    run, size = [], 0
    for points, item in rules:
        run.append((points, item))
        size += len(points)
        if size >= STACK_POINTS:
            yield from _evaluate_run(fields, run)
            run, size = [], 0
    yield from _evaluate_run(fields, run)


def _evaluate_run(fields, run):
    if run:
        points = np.concatenate([points for points, _ in run])
        ends = np.cumsum([len(points) for points, _ in run])[:-1]
        values = [np.split(field_values(f, points), ends) for f in fields]
        yield from zip((item for _, item in run), zip(*values))


def _rows_result(values, shape, n):
    """A batched callback result as (n,) + shape, or None if it has neither
    the per-point shape (a constant) nor the rows layout shape + (n,)."""
    values = np.asarray(values, dtype=float)
    if values.shape == shape:
        return np.broadcast_to(values, (n,) + shape).copy()
    if values.shape == shape + (n,):
        return np.moveaxis(values, -1, 0).copy()
    return None


NEUMANN = BoundaryCondition("neumann")


@dataclass
class FractureSpec:
    """One planar convex fracture polygon with its physical data."""

    vertices: np.ndarray
    a2: float = 1.0
    inverse_eta2: float = 0.0   # 0 encodes eta -> infinity (pressure continuity)
    bc: BoundaryCondition = field(default_factory=lambda: NEUMANN)
    source: Callable | float = 0.0

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        if self.vertices.shape[0] < 3:
            raise ConfigError("fracture polygon needs at least 3 vertices")
        if self.inverse_eta2 < 0:
            raise ConfigError("inverse_eta must be >= 0")
        n = fit_plane(self.vertices, lex=True).normal
        self.plane = Plane.from_normal_point(n, self.vertices.mean(axis=0))
        poly2d = self.plane.to_2d(self.vertices)
        area, _ = polygon_area_centroid_2d(poly2d)
        if area < 0:
            poly2d = poly2d[::-1]
        self.polygon2d = poly2d
        if not _is_convex(poly2d):
            raise ConfigError("fracture polygons must be convex")


def _is_convex(poly, rel_tol=1e-9):
    n = len(poly)
    scale = max(np.ptp(poly[:, 0]), np.ptp(poly[:, 1]))
    tol = rel_tol * scale * scale
    for i in range(n):
        a, b, c = poly[i], poly[(i + 1) % n], poly[(i + 2) % n]
        if (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) < -tol:
            return False
    return True


@dataclass
class TraceData:
    a1: float = 1.0
    inverse_eta1: float = 0.0
    bc: BoundaryCondition = field(default_factory=lambda: NEUMANN)
    source: Callable | float = 0.0


@dataclass
class IntersectionData:
    inverse_eta0: float = 0.0
    bc: Optional[BoundaryCondition] = None  # None: balance equation; else Dirichlet
    source: float = 0.0


@dataclass
class NetworkSpec:
    """Fracture network plus per-dimension physical data and BCs."""

    fractures: list
    a3: float = 1.0
    source3: Callable | float = 0.0
    bc3: dict = field(default_factory=dict)        # boundary tag -> BoundaryCondition
    trace_defaults: TraceData = field(default_factory=TraceData)
    trace_overrides: dict = field(default_factory=dict)          # trace idx -> TraceData
    intersection_defaults: IntersectionData = field(default_factory=IntersectionData)
    intersection_overrides: dict = field(default_factory=dict)

    def trace_data(self, t: int) -> TraceData:
        return self.trace_overrides.get(t, self.trace_defaults)

    def intersection_data(self, i: int) -> IntersectionData:
        return self.intersection_overrides.get(i, self.intersection_defaults)


# ---------------------------------------------------------------------------
# Background polyhedral mesh
# ---------------------------------------------------------------------------


class PolyMesh3D:
    """Mutable polyhedral mesh: vertices, oriented faces, cells of faces.

    Cells store (face_id, sign) pairs; sign is +1 when the face's intrinsic
    loop normal (right-hand rule) points out of the cell.

    ``face_geometry`` keeps one FaceGeometry record per face, reused while
    the face's vertex tuple is unchanged and built for all faces at once;
    ``cell_geometry`` keeps one PolyhedronGeometry per cell on those records,
    reused while the cell's (face, sign) tuple and its faces' vertex tuples
    are unchanged, and builds every missing or stale cell in one
    ``build_cells`` batch, so validation and assembly share one batch.
    ``snap_vertex`` is the only edit that moves an existing vertex and drops
    every entry.  Other vertex coordinates must not be changed in place.

    ``face_cells`` is the face-to-cell map, kept current by ``add_face`` and
    ``set_cell``; cells are added, changed and deleted only through them.
    """

    def __init__(self, merge_tol=1e-9):
        self.verts: list[np.ndarray] = []
        self.faces: dict[int, tuple] = {}          # fid -> vertex id tuple
        self.face_fracture: dict[int, int] = {}    # fid -> fracture index
        self.cells: dict[int, tuple] = {}          # cid -> ((fid, sign), ...)
        self._face_cells: dict[int, list] = {}     # fid -> [(cid, sign), ...]
        self.boundary_tags: dict[int, str] = {}
        self._next_face = 0
        self._next_cell = 0
        self.merge_tol = merge_tol
        self._vhash: dict[tuple, list] = {}
        self._geometry: dict[int, tuple] = {}      # cid -> (key, geometry)
        self._face_geometry: dict[int, tuple] = {}  # fid -> (vertex ids, record)
        self.background_volume = None

    # -- vertices ----------------------------------------------------------

    def _hash_key(self, p):
        g = 4.0 * self.merge_tol
        return tuple(math.floor(c / g) for c in p)

    def find_vertex(self, p):
        """The first vertex within ``merge_tol`` of ``p``, searching only the
        hash cells that the tolerance ball about ``p`` meets (at most 8), in
        x, then y, then z order; None if there is none."""
        p = np.asarray(p, dtype=float)
        tol, g = self.merge_tol, 4.0 * self.merge_tol
        spans = (range(math.floor((c - tol) / g), math.floor((c + tol) / g) + 1)
                 for c in p.tolist())
        for key in itertools.product(*spans):
            for vid in self._vhash.get(key, ()):
                d = self.verts[vid] - p
                if d @ d <= tol * tol:
                    return vid
        return None

    def add_vertex(self, p):
        vid = self.find_vertex(p)
        if vid is not None:
            return vid
        p = np.asarray(p, dtype=float)
        vid = len(self.verts)
        self.verts.append(p)
        self._vhash.setdefault(self._hash_key(p), []).append(vid)
        return vid

    def snap_vertex(self, vid, p):
        old_key = self._hash_key(self.verts[vid])
        self._vhash[old_key].remove(vid)
        self.verts[vid] = np.asarray(p, dtype=float)
        self._vhash.setdefault(self._hash_key(p), []).append(vid)
        self._geometry.clear()
        self._face_geometry.clear()

    # -- faces and cells ----------------------------------------------------

    def add_face(self, vids, fracture=None):
        fid = self._next_face
        self._next_face += 1
        self.faces[fid] = tuple(int(v) for v in vids)
        self._face_cells[fid] = []
        if fracture is not None:
            self.face_fracture[fid] = fracture
        return fid

    def add_cell(self, oriented_faces):
        cid = self._next_cell
        self._next_cell += 1
        self.set_cell(cid, oriented_faces)
        return cid

    def set_cell(self, cid, oriented_faces):
        """Give cell ``cid`` the (face, sign) pairs ``oriented_faces``, or
        delete it and its geometry with None; update the face-to-cell map."""
        for fid, s in self.cells.get(cid, ()):
            self._face_cells[fid].remove((cid, s))
        if oriented_faces is None:
            del self.cells[cid]
            self._geometry.pop(cid, None)
            return
        self.cells[cid] = tuple((int(f), int(s)) for f, s in oriented_faces)
        for fid, s in self.cells[cid]:
            bisect.insort(self._face_cells[fid], (cid, s))

    def face_coords(self, fid):
        return np.array([self.verts[v] for v in self.faces[fid]])

    def face_cells(self):
        """fid -> list of (cell id, sign), in cell id order, which is the
        order of ``cells``.  The mesh's own map: read it, do not change it."""
        return self._face_cells

    def face_geometry(self, fids):
        """The FaceGeometry of each face in ``fids``.  When one of them is
        missing or stale, every missing or stale record of the mesh is built,
        in one batch.  A requested face whose loop is degenerate raises
        DegenerateGeometryError; a degenerate face not requested does not."""
        records = self._face_records(fids)
        for face in records:
            if isinstance(face, DegenerateGeometryError):
                raise DegenerateGeometryError(*face.args)
        return records

    def _face_records(self, fids):
        """``face_geometry`` with a degenerate face's error in place of its
        record."""
        cache, faces = self._face_geometry, self.faces
        if any(cache.get(fid, (None,))[0] != faces[fid] for fid in fids):
            stale = [fid for fid, vids in faces.items()
                     if cache.get(fid, (None,))[0] != vids]
            for fid, face in zip(stale, build_faces([self.face_coords(fid)
                                                     for fid in stale])):
                cache[fid] = (faces[fid], face)
        return [cache[fid][1] for fid in fids]

    def _cell_key(self, cid):
        ofs = self.cells[cid]
        return ofs, tuple(self.faces[fid] for fid, _ in ofs)

    def cell_geometry(self, cid) -> PolyhedronGeometry:
        """The cell's geometry, kept while the cell is unchanged.  When it is
        missing or stale, every missing or stale cell of the mesh is built,
        in one ``build_cells`` batch.  A degenerate cell (a degenerate face,
        no positive volume) raises DegenerateGeometryError."""
        cache = self._geometry
        if cache.get(cid, (None,))[0] != self._cell_key(cid):
            keys = {c: self._cell_key(c) for c in self.cells}
            stale = [c for c, key in keys.items() if cache.get(c, (None,))[0] != key]
            fids = list({fid for c in stale for fid, _ in self.cells[c]})
            records = dict(zip(fids, self._face_records(fids)))
            for c, geom in zip(stale, build_cells([[(records[fid], s) for fid, s in
                                                    self.cells[c]] for c in stale])):
                cache[c] = (keys[c], geom)
        geom = cache[cid][1]
        if isinstance(geom, DegenerateGeometryError):
            raise DegenerateGeometryError(*geom.args)
        return geom

    def domain_diameter(self):
        pts = np.asarray(self.verts)
        return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))

    def total_volume(self):
        return sum(self.cell_geometry(c).measure for c in self.cells)

    def prune_unused_faces(self):
        for fid in [f for f, owners in self._face_cells.items() if not owners]:
            del self.faces[fid], self._face_cells[fid]
            self.face_fracture.pop(fid, None)
            self.boundary_tags.pop(fid, None)
            self._face_geometry.pop(fid, None)


BOX_TAGS = ["xmin", "xmax", "ymin", "ymax", "zmin", "zmax"]


def box_mesh(lo, hi, subdivisions) -> PolyMesh3D:
    """Axis-aligned box grid with its boundary faces tagged by ``BOX_TAGS``."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    nx, ny, nz = subdivisions
    mesh = PolyMesh3D(merge_tol=EPS_GEO_FACTOR * np.linalg.norm(hi - lo))
    xs = [np.linspace(lo[i], hi[i], subdivisions[i] + 1) for i in range(3)]

    def vid(i, j, k):
        return i * (ny + 1) * (nz + 1) + j * (nz + 1) + k

    for i in range(nx + 1):
        for j in range(ny + 1):
            for k in range(nz + 1):
                mesh.add_vertex([xs[0][i], xs[1][j], xs[2][k]])

    xfaces, yfaces, zfaces = {}, {}, {}
    for i in range(nx + 1):
        for j in range(ny):
            for k in range(nz):
                f = mesh.add_face([vid(i, j, k), vid(i, j + 1, k),
                                   vid(i, j + 1, k + 1), vid(i, j, k + 1)])
                xfaces[i, j, k] = f  # loop normal +x
                if i == 0:
                    mesh.boundary_tags[f] = "xmin"
                elif i == nx:
                    mesh.boundary_tags[f] = "xmax"
    for j in range(ny + 1):
        for i in range(nx):
            for k in range(nz):
                f = mesh.add_face([vid(i, j, k), vid(i, j, k + 1),
                                   vid(i + 1, j, k + 1), vid(i + 1, j, k)])
                yfaces[i, j, k] = f  # loop normal +y
                if j == 0:
                    mesh.boundary_tags[f] = "ymin"
                elif j == ny:
                    mesh.boundary_tags[f] = "ymax"
    for k in range(nz + 1):
        for i in range(nx):
            for j in range(ny):
                f = mesh.add_face([vid(i, j, k), vid(i + 1, j, k),
                                   vid(i + 1, j + 1, k), vid(i, j + 1, k)])
                zfaces[i, j, k] = f  # loop normal +z
                if k == 0:
                    mesh.boundary_tags[f] = "zmin"
                elif k == nz:
                    mesh.boundary_tags[f] = "zmax"

    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                mesh.add_cell([
                    (xfaces[i, j, k], -1), (xfaces[i + 1, j, k], +1),
                    (yfaces[i, j, k], -1), (yfaces[i, j + 1, k], +1),
                    (zfaces[i, j, k], -1), (zfaces[i, j, k + 1], +1)])
    mesh.background_volume = float(np.prod(hi - lo))
    return mesh


# ---------------------------------------------------------------------------
# Mesh text format  (see README for the grammar)
# ---------------------------------------------------------------------------


def write_mesh(mesh: PolyMesh3D, path):
    with open(path, "w") as fh:
        fh.write("# mixedvem mesh v1\n")
        fh.write(f"vertices {len(mesh.verts)}\n")
        for i, v in enumerate(mesh.verts):
            fh.write(f"{i} {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        fh.write(f"faces {len(mesh.faces)}\n")
        fmap = {fid: i for i, fid in enumerate(mesh.faces)}
        for fid, vids in mesh.faces.items():
            fh.write(f"{fmap[fid]} {len(vids)} " + " ".join(map(str, vids)) + "\n")
        fh.write(f"cells {len(mesh.cells)}\n")
        for i, (cid, ofs) in enumerate(mesh.cells.items()):
            toks = [str((fmap[f] + 1) * s) for f, s in ofs]
            fh.write(f"{i} {len(ofs)} " + " ".join(toks) + "\n")
        tags = {fid: t for fid, t in mesh.boundary_tags.items() if fid in fmap}
        fh.write(f"boundary {len(tags)}\n")
        for fid, tag in tags.items():
            fh.write(f"{fmap[fid]} {tag}\n")


def read_mesh(path) -> PolyMesh3D:
    """Read a mesh written by ``write_mesh``.  File ids are mapped to the ids
    the mesh gives, so coincident vertices merge into one.  An unknown id, a
    malformed row or a section that ends early raises ConfigError naming
    the line."""
    with open(path) as fh:
        rows = [(n, ln.split()) for n, ln in enumerate(fh, 1)
                if ln.strip() and not ln.lstrip().startswith("#")]
    pos, line = 0, 0        # the next row to read; the line of the last one

    def section(word):
        """The (line, tokens) rows of the section headed ``word``."""
        nonlocal pos, line
        line, head = rows[pos] if pos < len(rows) else (line, [])
        if head[:1] != [word] or len(head) != 2:
            raise ValueError(f"expected a {word!r} section header")
        count = int(head[1])
        body, pos = rows[pos + 1:pos + 1 + count], pos + 1 + count
        if len(body) < count:
            line = rows[-1][0]
            raise ValueError(f"the {word!r} section ends after {len(body)} of "
                             f"{count} rows")
        return body

    try:
        coords = {}
        for line, row in section("vertices"):
            i, x, y, z = row
            coords[int(i)] = [float(x), float(y), float(z)]
        pts = np.array(list(coords.values()))
        mesh = PolyMesh3D(merge_tol=EPS_GEO_FACTOR *
                          float(np.linalg.norm(pts.max(0) - pts.min(0))))
        vid_of = {i: mesh.add_vertex(p) for i, p in coords.items()}
        fid_of = {}
        for line, row in section("faces"):
            i, n, *vids = row
            if len(vids) != int(n):
                raise ValueError(f"{len(vids)} vertex ids where the row counts {n}")
            fid_of[int(i)] = mesh.add_face([vid_of[int(v)] for v in vids])
        for line, row in section("cells"):
            _, n, *faces = row
            if len(faces) != int(n):
                raise ValueError(f"{len(faces)} face ids where the row counts {n}")
            mesh.add_cell([(fid_of[abs(int(f)) - 1], 1 if int(f) > 0 else -1)
                           for f in faces])
        if pos < len(rows):     # the boundary section is optional
            for line, row in section("boundary"):
                fid, tag = row
                mesh.boundary_tags[fid_of[int(fid)]] = tag
    except KeyError as exc:
        raise ConfigError(f"mesh file {path} line {line}: unknown id {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"mesh file {path} line {line}: {exc}") from None
    return mesh


# ---------------------------------------------------------------------------
# Cutting one fracture into the mesh
# ---------------------------------------------------------------------------


def _snap_vertices(mesh, plane, eps):
    """Each vertex's side of the plane: +1, -1, or 0 within ``eps`` of it.
    The vertices within ``eps`` are moved onto the plane, which keeps their
    sign 0."""
    dists = plane.signed_distance(np.asarray(mesh.verts))
    signs = np.where(dists > eps, 1, np.where(dists < -eps, -1, 0))
    for vid in np.nonzero((signs == 0) & (np.abs(dists) > 0))[0]:
        mesh.snap_vertex(int(vid), mesh.verts[vid] - dists[vid] * plane.normal)
    return signs


def _face_sign_ranges(mesh, signs):
    """The face ids, and the lowest and highest sign of each face's
    vertices, from one pass over the concatenated loops."""
    loops = list(mesh.faces.values())
    sizes = np.fromiter(map(len, loops), int, len(loops))
    face_signs = signs[np.fromiter(itertools.chain.from_iterable(loops), int,
                                   int(sizes.sum()))]
    starts = np.cumsum(sizes) - sizes
    return (np.fromiter(mesh.faces, int, len(loops)),
            np.minimum.reduceat(face_signs, starts),
            np.maximum.reduceat(face_signs, starts))


def _split_loop(loop, signs, cut_vid):
    """Split a face loop by the plane into (plus_loop, minus_loop).

    ``cut_vid(a, b)`` returns the vertex on the crossing of edge (a, b).
    Requires the face to cross the plane in a single chord (convex faces).
    """
    aug, augsign = [], []
    n = len(loop)
    for i in range(n):
        a, b = loop[i], loop[(i + 1) % n]
        aug.append(a)
        augsign.append(signs[a])
        if signs[a] * signs[b] < 0:
            v = cut_vid(a, b)
            aug.append(v)
            augsign.append(0)
    plus = [v for v, s in zip(aug, augsign) if s >= 0]
    minus = [v for v, s in zip(aug, augsign) if s <= 0]

    def contiguous(keep):
        idx = [i for i, s in enumerate(augsign) if keep(s)]
        if not idx:
            return True
        gaps = sum(1 for i, j in zip(idx, idx[1:] + [idx[0] + len(aug)]) if j - i > 1)
        return gaps <= 1

    if not (contiguous(lambda s: s >= 0) and contiguous(lambda s: s <= 0)):
        raise ConformityError("face crosses the cutting plane more than once "
                              "(non-convex face); unsupported input mesh")
    return plus, minus


def _chain_loops(edges):
    """Chain undirected edges (vertex id pairs) into closed loops."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    unused = {tuple(sorted(e)) for e in edges}
    loops = []
    while unused:
        a0, b0 = next(iter(sorted(unused)))
        loop = [a0, b0]
        unused.discard((a0, b0) if a0 < b0 else (b0, a0))
        while loop[-1] != loop[0]:
            cur, prev = loop[-1], loop[-2]
            nxts = [v for v in adj.get(cur, ()) if
                    tuple(sorted((cur, v))) in unused]
            if not nxts:
                raise ConformityError("open cut chain; cross-section not closed")
            nxt = nxts[0]
            unused.discard(tuple(sorted((cur, nxt))))
            loop.append(nxt)
        loops.append(loop[:-1])
    return loops


def _clip_halfplane(poly, a, d, keep_left, eps):
    """Sutherland-Hodgman clip of polygon ``poly`` against the line a + t*d."""
    nrm = np.array([-d[1], d[0]])  # left normal
    if not keep_left:
        nrm = -nrm
    out = []
    n = len(poly)
    dist = [(p - a) @ nrm for p in poly]
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        dp, dq = dist[i], dist[(i + 1) % n]
        if dp >= -eps:
            out.append(p)
        if (dp > eps and dq < -eps) or (dp < -eps and dq > eps):
            t = dp / (dp - dq)
            out.append(p + t * (q - p))
    return _clean_loop(out, eps)


def _clean_loop(pts, eps):
    clean = []
    for p in pts:
        if not clean or np.linalg.norm(p - clean[-1]) > eps:
            clean.append(p)
    if len(clean) >= 2 and np.linalg.norm(clean[0] - clean[-1]) <= eps:
        clean.pop()
    return clean if len(clean) >= 3 else []


def _piece_ok(piece, eps):
    """Keep pieces of positive width; zero-width ribbons collapse under the
    vertex merge tolerance and are dropped here (tiny 2D pieces are kept:
    the method is robust to small faces)."""
    if not piece or len(piece) < 3:
        return False
    arr = np.asarray(piece)
    diam = max(np.ptp(arr[:, 0]), np.ptp(arr[:, 1]))
    return abs(polygon_area_centroid_2d(arr)[0]) > eps * max(diam, eps)


def _split_in_plane(plane, coords, qpoly, eps):
    """Split a convex polygon, given by its 3D points ``coords`` on the
    plane, by the convex polygon ``qpoly`` in the plane's frame.  Returns
    (piece, inside) pairs of counter-clockwise 2D loops, the piece inside
    ``qpoly`` first, or none when no piece is inside; and whether the
    polygon runs clockwise (``flip``)."""
    inside = [plane.to_2d(p[None, :])[0] for p in coords]
    flip = polygon_area_centroid_2d(np.asarray(inside))[0] < 0
    inside = inside[::-1] if flip else inside
    outs = []
    nq = len(qpoly)
    for i in range(nq):
        a, b = qpoly[i], qpoly[(i + 1) % nq]
        d = b - a
        d = d / np.linalg.norm(d)
        out_part = _clip_halfplane(inside, a, d, keep_left=False, eps=eps)
        if _piece_ok(out_part, eps):
            outs.append((out_part, False))
        inside = _clip_halfplane(inside, a, d, keep_left=True, eps=eps)
        if not inside:
            break
    return ([(inside, True)] + outs if _piece_ok(inside, eps) else []), flip


def _cross_section(mesh, cid, signs):
    """Cut chords of a cell as edges between cross-section keys: (v, v) for
    a vertex v on the plane, the sorted pair (a, b) for a crossed edge."""
    on_plane_edges = set()
    for fid, _ in mesh.cells[cid]:
        loop = mesh.faces[fid]
        n = len(loop)
        chord = []
        for i in range(n):
            a, b = loop[i], loop[(i + 1) % n]
            if signs[a] == 0 and signs[b] == 0:
                on_plane_edges.add(((a, a), (b, b)) if a < b else ((b, b), (a, a)))
            if signs[a] * signs[b] < 0:
                chord.append((a, b) if a < b else (b, a))
            elif signs[a] == 0 and signs[loop[i - 1]] * signs[b] < 0:
                chord.append((a, a))
        if len(chord) == 2:
            on_plane_edges.add(tuple(sorted(chord)))
        elif len(chord) > 2:
            raise ConformityError("face cut chord has more than two points")
    return on_plane_edges


def _record_on_edges(mesh, outline, pieces, eps, on_edge):
    """Record in ``on_edge`` (sorted vertex pair -> vertex ids) each vertex of
    the in-plane ``pieces`` (vertex loops) inside an edge of their ``outline``
    loop or of a sibling piece, which meet in T-junctions at polygon corners.
    A vertex is inside an edge of length ``L > eps`` when its projection
    ``t`` along it is in ``(eps, L - eps)`` and it is within ``eps`` of it."""
    vids = list(dict.fromkeys(v for loop in pieces for v in loop))
    if not vids:
        return
    loops = [outline] + pieces
    starts = [a for loop in loops for a in loop]
    ends = [loop[(i + 1) % len(loop)] for loop in loops for i in range(len(loop))]
    pa = np.array([mesh.verts[a] for a in starts])
    d = np.array([mesh.verts[b] for b in ends]) - pa
    L = np.linalg.norm(d, axis=1)
    dn = d / np.where(L > eps, L, 1.0)[:, None]
    p = np.array([mesh.verts[v] for v in vids])[None]       # (1, c, 3)
    t = np.einsum("ecj,ej->ec", p - pa[:, None], dn)
    foot = pa[:, None] + t[..., None] * dn[:, None]
    dist = np.linalg.norm(p - foot, axis=2)
    hit = ((L > eps)[:, None] & (t > eps) & (t < (L - eps)[:, None]) & (dist <= eps))
    for e, j in zip(*np.nonzero(hit)):
        a, b = starts[e], ends[e]
        on_edge.setdefault((a, b) if a < b else (b, a), set()).add(vids[j])


def _insert_on_edges(mesh, on_edge):
    """Insert each recorded vertex into every face loop that has its edge,
    after the edge's start vertex and in order along the edge."""
    verts = mesh.verts
    edge_ends = {v for key in on_edge for v in key}
    for fid, loop in mesh.faces.items():
        if edge_ends.isdisjoint(loop):
            continue
        out = []
        for a, b in zip(loop, loop[1:] + loop[:1]):
            out.append(a)
            inside = on_edge.get((a, b) if a < b else (b, a))
            if inside:
                d = verts[b] - verts[a]
                out.extend(sorted(inside, key=lambda v: (verts[v] - verts[a]) @ d))
        if len(out) > len(loop):
            mesh.faces[fid] = tuple(out)


def cut_with_fracture(mesh: PolyMesh3D, frac: FractureSpec, fracture_index: int,
                      eps=None, physical: bool = True):
    """Cut every cell crossed by the fracture polygon; mark fracture faces.

    One pass over the faces' vertex signs finds the crossed cells (those
    with vertices on both sides of the plane) and the interior faces that
    lie in the plane.  Each crossed cell's cross-section is probed without
    adding a vertex, and clipped by the polygon only where their bounding
    boxes are within ``eps``: only the cells that the polygon cuts add their
    vertices, so every vertex the cut adds is in some face loop.  The
    face-to-cell map is kept current through the cut.

    Edge rule: each new vertex is recorded against the mesh edge it splits,
    and one pass over the face loops inserts it into every loop with that
    edge.  The new vertices are the cut vertices of the faces that are split
    and the vertices of cross-section pieces and coplanar faces' children
    that lie inside an edge of their outline or of a sibling.

    With ``physical=False`` the cut is applied as pure mesh refinement: no
    face is marked, so no 2D domain appears (useful to roughen a mesh with
    artificial cuts).
    """
    if eps is None:
        eps = EPS_GEO_FACTOR * mesh.domain_diameter()
    plane = frac.plane
    qpoly = frac.polygon2d
    signs = _snap_vertices(mesh, plane, eps)
    fids, lowest, highest = _face_sign_ranges(mesh, signs)
    inc = mesh.face_cells()

    def owners(faces):
        return {cid for fid in faces.tolist() for cid, _ in inc[fid]}

    points: dict[tuple, np.ndarray] = {}   # cross-section key -> point
    cut_cache: dict[tuple, int] = {}       # cross-section key -> vertex
    on_edge: dict[tuple, set] = {}         # mesh edge -> new vertices inside it

    def cut_point(a, b):
        """The point of cross-section key (a, b), which adds no vertex."""
        if (a, b) not in points:
            p = mesh.verts[a]
            if a != b:
                da = plane.signed_distance(p[None, :])[0]
                db = plane.signed_distance(mesh.verts[b][None, :])[0]
                p = p + da / (da - db) * (mesh.verts[b] - p)
            points[a, b] = p
        return points[a, b]

    def cut_vid(a, b):
        """The vertex of cross-section key (a, b), added on first use."""
        if (a, b) not in cut_cache:
            cut_cache[a, b] = a if a == b else mesh.add_vertex(cut_point(a, b))
        return cut_cache[a, b]

    def split_vid(a, b):
        key = (a, b) if a < b else (b, a)
        vid = cut_vid(*key)
        on_edge.setdefault(key, set()).add(vid)
        return vid

    # the crossed cells that the polygon cuts, each with its cross-section
    # loop of keys and the loop's pieces; a cross-section whose bounding box
    # is more than eps from the polygon's has no piece inside, and is not
    # clipped
    candidates = []
    q_lo, q_hi = qpoly.min(axis=0) - eps, qpoly.max(axis=0) + eps
    for cid in sorted(owners(fids[highest > 0]) & owners(fids[lowest < 0])):
        loops = _chain_loops(list(_cross_section(mesh, cid, signs)))
        if len(loops) != 1:
            raise ConformityError(
                f"cell {cid}: cross-section is not a single loop (non-convex cell?)")
        section = np.array([cut_point(*key) for key in loops[0]])
        flat = plane.to_2d(section)
        if np.any(flat.max(axis=0) < q_lo) or np.any(flat.min(axis=0) > q_hi):
            continue
        pieces, _ = _split_in_plane(plane, section, qpoly, eps)
        if pieces:
            candidates.append((cid, loops[0], pieces))

    # split the crossing faces of the cells to be cut (shared faces split once)
    crossing = set(fids[(lowest < 0) & (highest > 0)].tolist())
    split_children: dict[int, tuple] = {}
    for cid, _, _ in candidates:
        for fid, _ in mesh.cells[cid]:
            if fid in crossing and fid not in split_children:
                mark = mesh.face_fracture.get(fid)
                split_children[fid] = tuple(
                    _child_face(mesh, sub, fid, mark)
                    for sub in _split_loop(mesh.faces[fid], signs, split_vid))
    _replace_faces(mesh, split_children)
    # every vertex added so far is a cut vertex, on the plane
    signs = np.concatenate([signs, np.zeros(len(mesh.verts) - len(signs), int)])

    # now split each candidate cell into its two sides + cross-section faces
    for cid, section, pieces in candidates:
        plus_faces, minus_faces = [], []
        for fid, s in mesh.cells[cid]:
            fsigns = {int(signs[v]) for v in mesh.faces[fid]}
            if fsigns == {0}:
                raise ConformityError("face lies entirely in the cutting plane "
                                      "of a crossed cell")
            (plus_faces if 1 in fsigns else minus_faces).append((fid, s))
        outline = [cut_vid(*key) for key in section]
        piece_faces = _piece_faces(mesh, plane, pieces, outline,
                                   fracture_index if physical else None, eps, on_edge)
        # piece loops are CCW w.r.t. the fracture normal: that normal points
        # out of the minus-side cell
        mesh.set_cell(cid, None)
        mesh.add_cell(plus_faces + [(f, -1) for f in piece_faces])
        mesh.add_cell(minus_faces + [(f, +1) for f in piece_faces])

    # mark the interior faces in the plane inside the polygon, and split
    # the faces that it partly overlaps
    coplanar = fids[(lowest == 0) & (highest == 0)].tolist() if physical else []
    coplanar_children = {}
    for fid in coplanar:
        if len(inc[fid]) != 2:
            continue
        loop = mesh.faces[fid]
        pieces, flip = _split_in_plane(plane, [mesh.verts[v] for v in loop], qpoly, eps)
        if pieces and mesh.face_fracture.get(fid, fracture_index) != fracture_index:
            raise ConformityError("face belongs to two distinct fractures")
        if len(pieces) == 1:
            # the face lies entirely inside the fracture polygon
            mesh.face_fracture[fid] = fracture_index
        elif pieces:
            coplanar_children[fid] = tuple(_piece_faces(
                mesh, plane, pieces, loop, fracture_index, eps, on_edge, fid, flip))
    _replace_faces(mesh, coplanar_children)
    mesh.prune_unused_faces()
    _insert_on_edges(mesh, on_edge)


def _child_face(mesh, vids, parent, mark):
    """Add a face cut from face ``parent`` (None for a cross-section piece)
    with fracture mark ``mark``; it keeps the parent's boundary tag."""
    fid = mesh.add_face(vids, fracture=mark)
    if parent in mesh.boundary_tags:
        mesh.boundary_tags[fid] = mesh.boundary_tags[parent]
    return fid


def _piece_faces(mesh, plane, pieces, outline, inside_mark, eps, on_edge,
                 parent=None, flip=False):
    """The new faces of the in-plane ``pieces`` that keep three vertices
    under the vertex merge, reversed with ``flip``: marked ``inside_mark``
    inside the polygon and as face ``parent`` outside it.  Their vertices
    inside an edge of the ``outline`` loop or of a sibling go to ``on_edge``."""
    faces, loops = [], []
    outside_mark = mesh.face_fracture.get(parent)
    for p2d, inside in pieces:
        vids = list(dict.fromkeys(mesh.add_vertex(plane.to_3d(np.asarray(pt))[0])
                                  for pt in p2d))
        if len(vids) < 3:
            continue
        vids = vids[::-1] if flip else vids
        faces.append(_child_face(mesh, vids, parent,
                                 inside_mark if inside else outside_mark))
        loops.append(vids)
    _record_on_edges(mesh, outline, loops, eps, on_edge)
    return faces


def _replace_faces(mesh, children):
    """Put each split face's children in its place in every cell that uses it."""
    inc = mesh.face_cells()
    for cid in {cid for fid in children for cid, _ in inc[fid]}:
        mesh.set_cell(cid, [(c, s) for f, s in mesh.cells[cid]
                            for c in children.get(f, (f,))])


# ---------------------------------------------------------------------------
# Lower-dimensional meshes
# ---------------------------------------------------------------------------


@dataclass
class FractureCell:
    face_id: int
    vids: tuple            # loop, CCW in the fracture frame
    geometry: PolygonGeometry
    cell_plus: int         # 3D cell on the lex-positive co-normal side
    cell_minus: int


@dataclass
class FractureMesh:
    index: int
    spec: FractureSpec
    plane: Plane
    cells: list
    # edge key (sorted vid pair) -> list of (cell index, local edge index)
    edge_cells: dict
    edge_class: dict       # edge key -> ("trace", t) | ("external",) | ("tip",) | ("interior",)

    def area(self):
        return sum(c.geometry.measure for c in self.cells)


@dataclass
class TraceCell:
    vid_a: int
    vid_b: int
    s_a: float
    s_b: float
    geometry: SegmentGeometry


@dataclass
class TraceMesh:
    index: int
    fractures: tuple       # (i, j) owning fracture indices
    tangent: np.ndarray
    length: float
    cells: list
    endpoint_class: dict = field(default_factory=dict)  # extreme vid -> kind


@dataclass
class IntersectionPoint:
    index: int
    coords: np.ndarray
    vid: int
    traces: list           # the trace of each trace cell that ends at the point


@dataclass
class MixedDimensionalMesh:
    mesh3d: PolyMesh3D
    spec: NetworkSpec
    fractures: list
    traces: list
    intersections: list


def _segment_of_pair(fa: FractureSpec, fb: FractureSpec, eps):
    """Intersection segment of two convex fracture polygons, or None."""
    n1, n2 = fa.plane.normal, fb.plane.normal
    d = np.cross(n1, n2)
    nd = np.linalg.norm(d)
    if nd < 1e-12:
        return None
    d = d / nd
    # a point on both planes
    A = np.array([n1, n2, d])
    rhs = np.array([fa.plane.offset, fb.plane.offset, 0.0])
    p = np.linalg.solve(A, rhs)

    def param_interval(frac):
        poly = frac.polygon2d
        a2 = frac.plane.to_2d(p[None, :])[0]
        d2 = frac.plane.to_2d((p + d)[None, :])[0] - a2
        lo, hi = -np.inf, np.inf
        n = len(poly)
        for i in range(n):
            e0, e1 = poly[i], poly[(i + 1) % n]
            ed = e1 - e0
            nrm = np.array([ed[1], -ed[0]])  # outward of CCW polygon
            denom = d2 @ nrm
            num = (e0 - a2) @ nrm
            if abs(denom) < 1e-14:
                if num < -eps:
                    return None  # line parallel to the edge and outside it
                continue
            t = num / denom
            if denom > 0:
                hi = min(hi, t)
            else:
                lo = max(lo, t)
        return (lo, hi) if hi - lo > eps else None

    ia = param_interval(fa)
    ib = param_interval(fb)
    if ia is None or ib is None:
        return None
    lo, hi = max(ia[0], ib[0]), min(ia[1], ib[1])
    if hi - lo <= eps:
        return None
    p0, p1 = p + lo * d, p + hi * d
    if tuple(p1) < tuple(p0):
        p0, p1 = p1, p0
    return p0, p1


def extract_lower_meshes(mesh: PolyMesh3D, spec: NetworkSpec, eps=None):
    """Collect fracture patchworks, trace partitions and intersection points
    from the cut mesh's topology.

    A fracture's cells are the faces marked with it; a fracture that keeps
    none, as one in the domain boundary, raises.  Each pair of fractures
    whose polygons meet in a segment (``_segment_of_pair``) has a trace, whose
    cells are the mesh edges that the cells of both fractures hold, ordered
    by their projection on the segment; they must cover it.  An intersection
    point is a vertex that cells of two or more traces end at.
    """
    if eps is None:
        eps = EPS_GEO_FACTOR * mesh.domain_diameter()
    inc = mesh.face_cells()

    # --- fracture meshes --------------------------------------------------
    fractures = []
    for l, fspec in enumerate(spec.fractures):
        plane = fspec.plane
        cells = []
        fids = [fid for fid in sorted(mesh.faces) if mesh.face_fracture.get(fid) == l]
        if not fids:
            raise ConformityError(f"fracture {l} keeps no face; a fracture must "
                                  f"not lie in the domain boundary")
        for fid, face in zip(fids, mesh.face_geometry(fids)):
            owners = inc.get(fid, ())
            if len(owners) != 2:
                raise ConformityError(
                    f"fracture {l}: face {fid} has {len(owners)} owner cells")
            # the loop runs counter-clockwise in the fracture frame when its
            # normal is along the (lex-positive) fracture normal
            step = 1 if face.normal @ plane.normal > 0 else -1
            # '+' is the owner whose outward normal is along the fracture normal
            sides = {s * step: cid for cid, s in owners}
            if set(sides) != {1, -1}:
                raise TopologyError(f"fracture face {fid}: sides not resolvable")
            cells.append(FractureCell(
                face_id=fid, vids=mesh.faces[fid][::step],
                geometry=PolygonGeometry(plane.to_2d(face.coords[::step])),
                cell_plus=sides[1], cell_minus=sides[-1]))
        edge_cells = {}
        for ci, cell in enumerate(cells):
            n = len(cell.vids)
            for k in range(n):
                key = tuple(sorted((cell.vids[k], cell.vids[(k + 1) % n])))
                edge_cells.setdefault(key, []).append((ci, k))
        fractures.append(FractureMesh(index=l, spec=fspec, plane=plane,
                                      cells=cells, edge_cells=edge_cells,
                                      edge_class={}))

    # --- the external boundary: vertices and edges of one-owner face loops ---
    bloops = [mesh.faces[fid] for fid, owners in inc.items() if len(owners) == 1]
    boundary_vids = {v for loop in bloops for v in loop}
    boundary_edges = {tuple(sorted(e)) for loop in bloops
                      for e in zip(loop, loop[1:] + loop[:1])}

    # --- trace meshes: the edges that both fractures of a pair hold ---------
    traces = []
    edge_trace = {}     # 1D edge key -> the trace that claimed it
    for i, j in itertools.combinations(range(len(fractures)), 2):
        seg = _segment_of_pair(spec.fractures[i], spec.fractures[j], eps)
        if seg is None:
            continue
        t, p0 = len(traces), seg[0]
        L = np.linalg.norm(seg[1] - p0)
        tangent = (seg[1] - p0) / L
        cells = []
        for key in fractures[i].edge_cells.keys() & fractures[j].edge_cells.keys():
            if edge_trace.setdefault(key, t) != t:
                raise TopologyError(
                    f"edge {key} lies on traces {edge_trace[key]} and {t}: a "
                    f"trace shared by more than two fractures is not supported")
            for l in (i, j):
                if len(fractures[l].edge_cells[key]) > 2:
                    raise ConformityError(
                        f"trace {t}: edge {key} shared by "
                        f"{len(fractures[l].edge_cells[key])} cells of fracture {l}")
                fractures[l].edge_class[key] = ("trace", t)
            (s_a, a), (s_b, b) = sorted(
                (min(max((mesh.verts[v] - p0) @ tangent, 0.0), L), v) for v in key)
            cells.append(TraceCell(vid_a=a, vid_b=b, s_a=s_a, s_b=s_b,
                                   geometry=SegmentGeometry(mesh.verts[a],
                                                            mesh.verts[b])))
        cells.sort(key=lambda c: c.s_a)
        total = sum(c.s_b - c.s_a for c in cells)
        if abs(total - L) > 1e-10 * L:
            raise ConformityError(
                f"trace {t}: 1D cells cover {total:.3e} of length {L:.3e}")
        tm = TraceMesh(index=t, fractures=(i, j), tangent=tangent, length=L,
                       cells=cells)
        for vid in (cells[0].vid_a, cells[-1].vid_b):
            tm.endpoint_class[vid] = "external" if vid in boundary_vids else "tip"
        traces.append(tm)

    # classify the remaining fracture edges
    for fm in fractures:
        for key, users in fm.edge_cells.items():
            if key in fm.edge_class:
                continue
            if len(users) == 2:
                fm.edge_class[key] = ("interior",)
            elif key in boundary_edges:
                fm.edge_class[key] = ("external",)
            else:
                fm.edge_class[key] = ("tip",)

    # --- intersection points: the vertices where cells of two traces end ---
    ends = {}           # vid -> the trace of each trace cell ending there
    for tm in traces:
        for cell in tm.cells:
            for vid in (cell.vid_a, cell.vid_b):
                ends.setdefault(vid, []).append(tm.index)
    hubs = [vid for vid, ts in ends.items() if len(set(ts)) > 1]
    intersections = []
    for idx, vid in enumerate(sorted(hubs, key=lambda v: tuple(mesh.verts[v]))):
        for t in ends[vid]:
            if vid in traces[t].endpoint_class:
                traces[t].endpoint_class[vid] = "intersection"
        intersections.append(IntersectionPoint(index=idx, coords=mesh.verts[vid],
                                               vid=vid, traces=ends[vid]))
    return fractures, traces, intersections


def cut_background_mesh(mesh: PolyMesh3D, spec: NetworkSpec,
                        eps=None) -> MixedDimensionalMesh:
    """Full pipeline: cut all fractures, extract the lower meshes."""
    if eps is None:
        eps = EPS_GEO_FACTOR * mesh.domain_diameter()
    if mesh.background_volume is None:
        mesh.background_volume = mesh.total_volume()
    pts = np.asarray(mesh.verts)
    lo, hi = pts.min(axis=0) - eps, pts.max(axis=0) + eps
    for l, frac in enumerate(spec.fractures):
        if np.any(frac.vertices < lo) or np.any(frac.vertices > hi):
            raise ConfigError(f"fracture {l} extends outside the mesh bounding "
                              f"box; fractures must lie inside the domain")
        cut_with_fracture(mesh, frac, l, eps=eps)
    fractures, traces, intersections = extract_lower_meshes(mesh, spec, eps=eps)
    return MixedDimensionalMesh(mesh3d=mesh, spec=spec, fractures=fractures,
                                traces=traces, intersections=intersections)


# ---------------------------------------------------------------------------
# Conformity validation
# ---------------------------------------------------------------------------


def validate_conformity(md: MixedDimensionalMesh) -> list:
    """Report-only validation; an empty list means the mesh is conforming."""
    report = []
    mesh = md.mesh3d

    volumes = []
    for cid in mesh.cells:
        edge_use = {}
        for fid, s in mesh.cells[cid]:
            loop = mesh.faces[fid] if s > 0 else tuple(reversed(mesh.faces[fid]))
            n = len(loop)
            for i in range(n):
                key = tuple(sorted((loop[i], loop[(i + 1) % n])))
                edge_use[key] = edge_use.get(key, 0) + 1
        bad = [k for k, c in edge_use.items() if c != 2]
        if bad:
            report.append(f"cell {cid}: {len(bad)} edges not shared by exactly "
                          f"two faces")
        try:
            geom = mesh.cell_geometry(cid)
            volumes.append(geom.measure)
            geom.cone()   # raises for a sliver or non-star-shaped cell
        except DegenerateGeometryError as exc:
            report.append(f"cell {cid}: {exc}")

    # a cell without geometry is reported above and has no volume to add
    if mesh.background_volume is not None and len(volumes) == len(mesh.cells):
        vol = sum(volumes)
        if abs(vol - mesh.background_volume) > 1e-10 * mesh.background_volume:
            report.append(f"volume mismatch: cells {vol!r} vs background "
                          f"{mesh.background_volume!r}")

    for fm in md.fractures:
        area, _ = polygon_area_centroid_2d(fm.spec.polygon2d)
        got = fm.area()
        if abs(got - area) > 1e-10 * area:
            report.append(f"fracture {fm.index}: area {got!r} vs polygon {area!r}")
    return report

"""Conforming mixed-dimensional meshes built by cutting a 3D background mesh.

A background polyhedral mesh is cut along each (convex, planar) fracture
polygon in turn.  A cell crossed by a fracture is split by the full fracture
plane, so cuts are prolonged to the cell boundary; the part of the cut
cross-section inside the fracture polygon becomes fracture faces, the rest
becomes co-planar hanging faces, and neighbours of cut cells acquire hanging
faces through the shared-face splitting.  Fracture geometry is never altered.

After cutting, the 2D fracture meshes are the patchworks of marked faces,
the 1D trace meshes are the shared edge partitions along fracture-fracture
intersection segments, and 0D points are collected where traces meet.

Data callbacks (boundary data, sources, exact fields) are evaluated on all
quadrature points of a cell at once through ``field_values``.  A callable
receives the coordinate rows ``x = points.T``, so ``x[0]``, ``x[1]`` and
``x[2]`` are arrays, and returns an (n,) array for a scalar field or a
(3, n) array (components as rows) for a vector field; a scalar or (3,)
result is broadcast.  Written with ``x[i]`` and NumPy ufuncs, the same
function also serves a single (3,) point.  The batched values are checked
against per-point calls on a few probe points; a callable that raises on
rows or disagrees there is evaluated point by point instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ConformityError, DegenerateGeometryError, TopologyError
from .geometry import (EPS_GEO_FACTOR, Plane, PolygonGeometry, PolyhedronGeometry,
                       SegmentGeometry, fit_plane, polygon_area_centroid_2d)


def _lexmax_direction(n):
    """Flip the unit vector, if needed, so it is lexicographically positive."""
    for c in n:
        if c > 0:
            return n
        if c < 0:
            return -n
    return n


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
        plane = fit_plane(self.vertices)
        n = _lexmax_direction(plane.normal)
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

    ``cell_geometry`` keeps one PolyhedronGeometry per cell.  An entry is
    reused while the cell's (face, sign) tuple and its faces' vertex tuples
    are unchanged; ``snap_vertex`` is the only edit that moves an existing
    vertex and drops every entry.  Other vertex coordinates must not be
    changed in place.
    """

    def __init__(self, merge_tol=1e-9):
        self.verts: list[np.ndarray] = []
        self.faces: dict[int, tuple] = {}          # fid -> vertex id tuple
        self.face_fracture: dict[int, int] = {}    # fid -> fracture index
        self.cells: dict[int, tuple] = {}          # cid -> ((fid, sign), ...)
        self.boundary_tags: dict[int, str] = {}
        self._next_face = 0
        self._next_cell = 0
        self.merge_tol = merge_tol
        self._vhash: dict[tuple, list] = {}
        self._geometry: dict[int, tuple] = {}      # cid -> (key, geometry)
        self.background_volume = None

    # -- vertices ----------------------------------------------------------

    def _hash_key(self, p):
        g = 4.0 * self.merge_tol
        return tuple(int(np.floor(c / g)) for c in p)

    def find_vertex(self, p):
        p = np.asarray(p, dtype=float)
        base = self._hash_key(p)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    key = (base[0] + dx, base[1] + dy, base[2] + dz)
                    for vid in self._vhash.get(key, ()):
                        if np.linalg.norm(self.verts[vid] - p) <= self.merge_tol:
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

    # -- faces and cells ----------------------------------------------------

    def add_face(self, vids, fracture=None):
        fid = self._next_face
        self._next_face += 1
        self.faces[fid] = tuple(int(v) for v in vids)
        if fracture is not None:
            self.face_fracture[fid] = fracture
        return fid

    def add_cell(self, oriented_faces):
        cid = self._next_cell
        self._next_cell += 1
        self.cells[cid] = tuple((int(f), int(s)) for f, s in oriented_faces)
        return cid

    def face_coords(self, fid):
        return np.array([self.verts[v] for v in self.faces[fid]])

    def face_cells(self):
        """fid -> list of (cell id, sign)."""
        inc = {fid: [] for fid in self.faces}
        for cid, ofs in self.cells.items():
            for fid, s in ofs:
                inc[fid].append((cid, s))
        return inc

    def cell_vertices(self, cid):
        out = []
        seen = set()
        for fid, _ in self.cells[cid]:
            for v in self.faces[fid]:
                if v not in seen:
                    seen.add(v)
                    out.append(v)
        return out

    def cell_geometry(self, cid) -> PolyhedronGeometry:
        """The cell's geometry, built once while the cell is unchanged."""
        ofs = self.cells[cid]
        key = (ofs, tuple(self.faces[fid] for fid, _ in ofs))
        cached = self._geometry.get(cid)
        if cached is not None and cached[0] == key:
            return cached[1]
        loops = []
        for fid, s in ofs:
            coords = self.face_coords(fid)
            loops.append(coords if s > 0 else coords[::-1])
        geom = PolyhedronGeometry(loops)
        self._geometry[cid] = (key, geom)
        return geom

    def face_outward_normal(self, fid, cid):
        """Outward unit normal of face ``fid`` of cell ``cid``, from the plane
        fit the cell's cached geometry holds."""
        for lf, (f, _) in enumerate(self.cells[cid]):
            if f == fid:
                return self.cell_geometry(cid).faces[lf].normal
        raise KeyError(f"face {fid} does not bound cell {cid}")

    def domain_diameter(self):
        pts = np.asarray(self.verts)
        return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))

    def total_volume(self):
        return sum(self.cell_geometry(c).measure for c in self.cells)

    def prune_unused_faces(self):
        for cid in [c for c in self._geometry if c not in self.cells]:
            del self._geometry[cid]   # geometry of a cell that was split
        used = {fid for ofs in self.cells.values() for fid, _ in ofs}
        for fid in list(self.faces):
            if fid not in used:
                del self.faces[fid]
                self.face_fracture.pop(fid, None)
                self.boundary_tags.pop(fid, None)


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
    with open(path) as fh:
        toks = [ln.split() for ln in fh
                if ln.strip() and not ln.lstrip().startswith("#")]
    it = iter(toks)

    def expect(word):
        row = next(it)
        if row[0] != word:
            raise ConfigError(f"mesh file: expected {word!r}, got {row[0]!r}")
        return int(row[1])

    nv = expect("vertices")
    coords = np.zeros((nv, 3))
    for _ in range(nv):
        row = next(it)
        coords[int(row[0])] = [float(row[1]), float(row[2]), float(row[3])]
    mesh = PolyMesh3D(merge_tol=EPS_GEO_FACTOR *
                      float(np.linalg.norm(coords.max(0) - coords.min(0))))
    for p in coords:
        mesh.add_vertex(p)
    nf = expect("faces")
    fid_of = {}
    for _ in range(nf):
        row = next(it)
        n = int(row[1])
        fid_of[int(row[0])] = mesh.add_face([int(v) for v in row[2:2 + n]])
    nc = expect("cells")
    for _ in range(nc):
        row = next(it)
        n = int(row[1])
        ofs = []
        for tok in row[2:2 + n]:
            signed = int(tok)
            ofs.append((fid_of[abs(signed) - 1], 1 if signed > 0 else -1))
        mesh.add_cell(ofs)
    try:
        nb = expect("boundary")
    except (StopIteration, ConfigError):
        nb = 0
    for _ in range(nb):
        row = next(it)
        mesh.boundary_tags[fid_of[int(row[0])]] = row[1]
    mesh.background_volume = mesh.total_volume()
    return mesh


# ---------------------------------------------------------------------------
# Cutting one fracture into the mesh
# ---------------------------------------------------------------------------


def _vertex_signs(mesh, plane, eps):
    dists = plane.signed_distance(np.asarray(mesh.verts))
    signs = np.where(dists > eps, 1, np.where(dists < -eps, -1, 0))
    return signs, dists


def _snap_vertices(mesh, plane, eps):
    signs, dists = _vertex_signs(mesh, plane, eps)
    for vid in np.nonzero((signs == 0) & (np.abs(dists) > 0))[0]:
        mesh.snap_vertex(int(vid), mesh.verts[vid] - dists[vid] * plane.normal)
    return _vertex_signs(mesh, plane, eps)[0]


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


def _poly_area(pts):
    if len(pts) < 3:
        return 0.0
    arr = np.asarray(pts)
    return polygon_area_centroid_2d(arr)[0]


def _piece_ok(piece, eps):
    """Keep pieces of positive width; zero-width ribbons collapse under the
    vertex merge tolerance and are dropped here (tiny 2D pieces are kept:
    the method is robust to small faces)."""
    if not piece or len(piece) < 3:
        return False
    arr = np.asarray(piece)
    diam = max(np.ptp(arr[:, 0]), np.ptp(arr[:, 1]))
    return abs(_poly_area(piece)) > eps * max(diam, eps)


def split_by_convex_polygon(poly, qpoly, eps):
    """Split a convex polygon into parts inside / outside a convex polygon q."""
    inside = [np.asarray(p, dtype=float) for p in poly]
    outs = []
    nq = len(qpoly)
    for i in range(nq):
        a, b = qpoly[i], qpoly[(i + 1) % nq]
        d = b - a
        d = d / np.linalg.norm(d)
        out_part = _clip_halfplane(inside, a, d, keep_left=False, eps=eps)
        if _piece_ok(out_part, eps):
            outs.append(out_part)
        inside = _clip_halfplane(inside, a, d, keep_left=True, eps=eps)
        if not inside:
            break
    ins = [inside] if _piece_ok(inside, eps) else []
    return ins, outs


def _cross_section(mesh, cid, signs, cut_vid_existing):
    """Cut chords of a cell as 3D vertex-pair edges lying on the plane."""
    on_plane_edges = set()
    for fid, _ in mesh.cells[cid]:
        loop = mesh.faces[fid]
        n = len(loop)
        chord = []
        for i in range(n):
            a, b = loop[i], loop[(i + 1) % n]
            if signs[a] == 0 and signs[b] == 0:
                on_plane_edges.add(tuple(sorted((a, b))))
            if signs[a] * signs[b] < 0:
                chord.append(cut_vid_existing(a, b))
            elif signs[a] == 0 and signs[loop[i - 1]] * signs[b] < 0:
                chord.append(a)
        chord = list(dict.fromkeys(chord))
        if len(chord) == 2:
            on_plane_edges.add(tuple(sorted(chord)))
        elif len(chord) > 2:
            raise ConformityError("face cut chord has more than two points")
    return on_plane_edges


# (face, new vertex) pairs per batched bounding-box comparison
_BOX_TEST_PAIRS = 1 << 16


def _insert_hanging_vertices(mesh, new_vids, eps):
    """Insert new vertices into the loops of all faces whose edges they lie on.

    Keeps the mesh vertex-conforming: every vertex on a face boundary is a
    member of that face's loop (as a collinear, hanging vertex).

    Every face's bounding box, grown by ``eps``, is compared with all new
    vertices at once, a chunk of faces at a time.  A face with candidates
    (boxed new vertices not already in its loop) tests all its edges against
    all of them at once: a candidate lies on an edge of length ``L > eps``
    when its projection ``t`` along the edge is in ``(eps, L - eps)`` and its
    distance from the edge is ``<= eps``.  The hits on one edge follow the
    edge's start vertex in increasing ``t``.
    """
    new = np.fromiter(new_vids, dtype=np.intp)
    if new.size == 0:
        return
    verts = np.asarray(mesh.verts)
    pts = verts[new]
    fids = list(mesh.faces)
    loops = [mesh.faces[fid] for fid in fids]
    sizes = np.fromiter(map(len, loops), dtype=np.intp, count=len(loops))
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    coords = verts[np.concatenate(loops)]
    lo = np.minimum.reduceat(coords, starts) - eps
    hi = np.maximum.reduceat(coords, starts) + eps
    step = max(1, _BOX_TEST_PAIRS // new.size)
    for s in range(0, len(fids), step):
        boxed = ((pts >= lo[s:s + step, None]) &
                 (pts <= hi[s:s + step, None])).all(axis=2)
        for i in np.flatnonzero(boxed.any(axis=1)):
            loop = loops[s + i]
            cands = [v for v in new[boxed[i]].tolist() if v not in loop]
            if cands:
                out = _loop_with_hanging(verts, loop, cands, eps)
                if len(out) > len(loop):
                    mesh.faces[fids[s + i]] = out


def _loop_with_hanging(verts, loop, cands, eps):
    """``loop`` with each candidate vertex that lies on one of its edges
    inserted after that edge's start vertex."""
    pa = verts[list(loop)]                          # (n, 3) edge starts
    d = np.roll(pa, -1, axis=0) - pa
    L = np.linalg.norm(d, axis=1)
    edge = L > eps
    dn = d / np.where(edge, L, 1.0)[:, None]
    p = verts[cands][None]                          # (1, c, 3)
    t = np.einsum("ecj,ej->ec", p - pa[:, None], dn)
    foot = pa[:, None] + t[..., None] * dn[:, None]
    dist = np.linalg.norm(p - foot, axis=2)
    hit = (edge[:, None] & (t > eps) & (t < (L - eps)[:, None]) & (dist <= eps))
    out = []
    for e, a in enumerate(loop):
        out.append(a)
        js = np.flatnonzero(hit[e])
        if js.size:
            out.extend(v for _, v in sorted(zip(t[e, js].tolist(),
                                                (cands[j] for j in js))))
    return tuple(out)


def cut_with_fracture(mesh: PolyMesh3D, frac: FractureSpec, fracture_index: int,
                      eps=None, physical: bool = True):
    """Cut every cell crossed by the fracture polygon; mark fracture faces.

    With ``physical=False`` the cut is applied as pure mesh refinement: no
    face is marked, so no 2D domain appears (useful to roughen a mesh with
    artificial cuts).
    """
    if eps is None:
        eps = EPS_GEO_FACTOR * mesh.domain_diameter()
    plane = frac.plane
    qpoly = frac.polygon2d
    first_new_vid = len(mesh.verts)
    signs = _snap_vertices(mesh, plane, eps)

    cut_cache: dict[tuple, int] = {}

    def cut_vid(a, b):
        key = (a, b) if a < b else (b, a)
        if key in cut_cache:
            return cut_cache[key]
        da = plane.signed_distance(mesh.verts[a][None, :])[0]
        db = plane.signed_distance(mesh.verts[b][None, :])[0]
        t = da / (da - db)
        vid = mesh.add_vertex(mesh.verts[a] + t * (mesh.verts[b] - mesh.verts[a]))
        cut_cache[key] = vid
        return vid

    # candidate cells: strict vertices on both sides and overlap with qpoly;
    # each keeps the pieces of its cross-section for the split below
    candidates = []
    for cid in sorted(mesh.cells):
        ss = {signs[v] for v in mesh.cell_vertices(cid)}
        if not (1 in ss and -1 in ss):
            continue
        loops = _chain_loops(list(_cross_section(mesh, cid, signs, cut_vid)))
        if len(loops) != 1:
            raise ConformityError(
                f"cell {cid}: cross-section is not a single loop (non-convex cell?)")
        loop2d = [plane.to_2d(mesh.verts[v][None, :])[0] for v in loops[0]]
        if _poly_area(loop2d) < 0:
            loop2d = loop2d[::-1]
        ins, outs = split_by_convex_polygon(loop2d, qpoly, eps)
        if ins:
            candidates.append((cid, [(p, True) for p in ins] + [(p, False) for p in outs]))

    # the signs of the cut vertices created while probing; splitting the
    # faces below reuses those vertices and makes no new ones
    signs = _vertex_signs(mesh, plane, eps)[0]

    # split the crossing faces of the cells to be cut (shared faces split once)
    split_children: dict[int, tuple] = {}
    for cid, _ in candidates:
        for fid, _ in mesh.cells[cid]:
            if fid in split_children:
                continue
            loop = mesh.faces[fid]
            fs = {int(signs[v]) for v in loop}
            if not (1 in fs and -1 in fs):
                continue
            frac_mark = mesh.face_fracture.get(fid)
            tag = mesh.boundary_tags.get(fid)
            children = []
            for sub in _split_loop(loop, signs, cut_vid):
                nf = mesh.add_face(sub, fracture=frac_mark)
                if tag is not None:
                    mesh.boundary_tags[nf] = tag
                children.append(nf)
            split_children[fid] = tuple(children)
    _replace_faces(mesh, split_children)

    # now split each candidate cell into its two sides + cross-section faces
    pieces_made = set()
    for cid, pieces in candidates:
        plus_faces, minus_faces = [], []
        for fid, s in mesh.cells[cid]:
            fsigns = {int(signs[v]) for v in mesh.faces[fid]}
            if 1 in fsigns and -1 in fsigns:
                raise ConformityError("crossing face survived the splitting pass")
            if 1 in fsigns:
                plus_faces.append((fid, s))
            elif -1 in fsigns:
                minus_faces.append((fid, s))
            else:
                raise ConformityError("face lies entirely in the cutting plane "
                                      "of a crossed cell")
        piece_faces = []
        for p2d, inside in pieces:
            vids = _piece_vids(mesh, plane, p2d)
            if vids:
                mark = fracture_index if (inside and physical) else None
                piece_faces.append(mesh.add_face(vids, fracture=mark))
        pieces_made.update(piece_faces)
        # piece loops are CCW w.r.t. the fracture normal: that normal points
        # out of the minus-side cell
        plus_cell = plus_faces + [(f, -1) for f in piece_faces]
        minus_cell = minus_faces + [(f, +1) for f in piece_faces]
        del mesh.cells[cid]
        mesh.add_cell(plus_cell)
        mesh.add_cell(minus_cell)

    if physical:
        _split_and_mark_coplanar(mesh, plane, qpoly, fracture_index, eps,
                                 pieces_made)
    _insert_hanging_vertices(mesh, range(first_new_vid, len(mesh.verts)), eps)
    mesh.prune_unused_faces()


def _split_and_mark_coplanar(mesh, plane, qpoly, fracture_index, eps, pieces):
    """Mark interior on-plane faces inside the polygon; split partial overlaps.

    The cut's own ``pieces`` are already classified and marked, and skipped.
    """
    signs = _vertex_signs(mesh, plane, eps)[0]
    inc = mesh.face_cells()
    split_children = {}
    for fid in sorted(mesh.faces):
        if fid in pieces or len(inc.get(fid, ())) != 2:
            continue
        loop = mesh.faces[fid]
        if any(signs[v] != 0 for v in loop):
            continue
        loop2d = [plane.to_2d(mesh.verts[v][None, :])[0] for v in loop]
        reversed_loop = False
        if _poly_area(loop2d) < 0:
            loop2d = loop2d[::-1]
            reversed_loop = True
        ins, outs = split_by_convex_polygon(loop2d, qpoly, eps)
        if not ins:
            continue
        if not outs:
            # the face lies entirely inside the fracture polygon
            if mesh.face_fracture.get(fid, fracture_index) != fracture_index:
                raise ConformityError("face belongs to two distinct fractures")
            mesh.face_fracture[fid] = fracture_index
            continue
        # partial overlap: split the face in-plane along the polygon boundary
        children = []
        for p2d, inside in [(p, True) for p in ins] + [(p, False) for p in outs]:
            vids = _piece_vids(mesh, plane, p2d)
            if not vids:
                continue
            if reversed_loop:
                vids = vids[::-1]
            nf = mesh.add_face(vids, fracture=fracture_index if inside else
                               mesh.face_fracture.get(fid))
            if fid in mesh.boundary_tags:
                mesh.boundary_tags[nf] = mesh.boundary_tags[fid]
            children.append(nf)
        split_children[fid] = tuple(children)
    _replace_faces(mesh, split_children)


def _piece_vids(mesh, plane, p2d):
    """Vertex loop of an in-plane piece given in plane coordinates, or None
    when it collapses below three vertices under the vertex merge."""
    vids = [mesh.add_vertex(plane.to_3d(np.asarray(pt))[0]) for pt in p2d]
    vids = list(dict.fromkeys(vids))
    return vids if len(vids) >= 3 else None


def _replace_faces(mesh, children):
    """Put each split face's children in its place in every cell that uses it."""
    if not children:
        return
    for cid, ofs in mesh.cells.items():
        if any(f in children for f, _ in ofs):
            mesh.cells[cid] = tuple((c, s) for f, s in ofs for c in children.get(f, (f,)))


# ---------------------------------------------------------------------------
# Lower-dimensional meshes and the domain graph
# ---------------------------------------------------------------------------


@dataclass
class FractureCell:
    face_id: int
    vids: tuple            # loop, CCW in the fracture frame
    coords2d: np.ndarray
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
class TraceSide:
    """One side of a trace inside one fracture."""

    conormal: np.ndarray   # outward in-plane unit normal of that cell, 3D


@dataclass
class TraceCell:
    vid_a: int
    vid_b: int
    s_a: float
    s_b: float
    geometry: SegmentGeometry
    sides: dict            # fracture index -> list of TraceSide (the +,- sides)


@dataclass
class TraceMesh:
    index: int
    fractures: tuple       # (i, j) owning fracture indices
    p0: np.ndarray
    p1: np.ndarray
    tangent: np.ndarray
    length: float
    cells: list
    vertex_params: dict    # vid -> arc-length parameter
    endpoint_class: dict = field(default_factory=dict)  # extreme vid -> kind


@dataclass
class IntersectionSide:
    """One trace cell ending at an intersection point."""

    trace: int


@dataclass
class IntersectionPoint:
    index: int
    coords: np.ndarray
    vid: int
    sides: list            # list of IntersectionSide


@dataclass
class DomainGraph:
    """Index sets between dimensions; interface sides live on the meshes."""

    n_fractures: int
    n_traces: int
    n_intersections: int
    fractures_of_trace: dict   # t -> (i, j)
    traces_of_fracture: dict   # l -> sorted trace ids
    intersections_of_trace: dict
    traces_of_intersection: dict

    def check_reciprocal(self):
        for t, (i, j) in self.fractures_of_trace.items():
            for l in (i, j):
                if t not in self.traces_of_fracture.get(l, ()):
                    raise TopologyError(f"trace {t} missing from fracture {l} down-set")
        for x, ts in self.traces_of_intersection.items():
            for t in ts:
                if x not in self.intersections_of_trace.get(t, ()):
                    raise TopologyError(f"intersection {x} missing on trace {t}")


@dataclass
class MixedDimensionalMesh:
    mesh3d: PolyMesh3D
    spec: NetworkSpec
    fractures: list
    traces: list
    intersections: list
    graph: DomainGraph
    eps: float


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


def _point_on_segment(x, p0, p1, eps):
    d = p1 - p0
    L = np.linalg.norm(d)
    t = (x - p0) @ d / (L * L)
    if t < -eps / L or t > 1 + eps / L:
        return None
    closest = p0 + t * d
    if np.linalg.norm(x - closest) > eps:
        return None
    return t * L


def extract_lower_meshes(mesh: PolyMesh3D, spec: NetworkSpec, eps=None):
    """Collect fracture patchworks, trace partitions and intersection points."""
    if eps is None:
        eps = EPS_GEO_FACTOR * mesh.domain_diameter()
    inc = mesh.face_cells()

    # --- traces as geometric segments -----------------------------------
    traces_geo = []
    for i in range(len(spec.fractures)):
        for j in range(i + 1, len(spec.fractures)):
            seg = _segment_of_pair(spec.fractures[i], spec.fractures[j], eps)
            if seg is not None:
                traces_geo.append(((i, j), seg[0], seg[1]))

    # --- fracture meshes --------------------------------------------------
    fractures = []
    for l, fspec in enumerate(spec.fractures):
        plane = fspec.plane
        cells = []
        for fid in sorted(mesh.faces):
            if mesh.face_fracture.get(fid) != l:
                continue
            owners = inc.get(fid, ())
            if len(owners) != 2:
                raise ConformityError(
                    f"fracture {l}: face {fid} has {len(owners)} owner cells")
            loop = mesh.faces[fid]
            coords2d = plane.to_2d(mesh.face_coords(fid))
            vids = loop
            if polygon_area_centroid_2d(coords2d)[0] < 0:
                vids = tuple(reversed(loop))
                coords2d = coords2d[::-1]
            plus, minus = None, None
            for cid, _ in owners:
                outward = mesh.face_outward_normal(fid, cid)
                if outward @ plane.normal > 0:
                    plus = cid   # outward co-normal equals the lex-positive normal
                else:
                    minus = cid
            if plus is None or minus is None:
                raise TopologyError(f"fracture face {fid}: sides not resolvable")
            cells.append(FractureCell(
                face_id=fid, vids=tuple(vids), coords2d=coords2d,
                geometry=PolygonGeometry(coords2d), cell_plus=plus, cell_minus=minus))
        edge_cells = {}
        for ci, cell in enumerate(cells):
            n = len(cell.vids)
            for k in range(n):
                key = tuple(sorted((cell.vids[k], cell.vids[(k + 1) % n])))
                edge_cells.setdefault(key, []).append((ci, k))
        fractures.append(FractureMesh(index=l, spec=fspec, plane=plane,
                                      cells=cells, edge_cells=edge_cells,
                                      edge_class={}))

    # --- external-boundary point test --------------------------------------
    bfaces = [fid for fid, owners in inc.items() if len(owners) == 1]
    bplanes = []
    for fid in bfaces:
        coords = mesh.face_coords(fid)
        plane = fit_plane(coords)
        bplanes.append((plane, plane.to_2d(coords)))

    def on_external_boundary(x):
        for plane, poly2d in bplanes:
            if abs(plane.signed_distance(x[None, :])[0]) > eps:
                continue
            if _point_in_poly2d(plane.to_2d(x[None, :])[0], poly2d, eps):
                return True
        return False

    # --- trace meshes -----------------------------------------------------
    traces = []
    edge_trace = {}     # 1D edge key -> the trace that claimed it
    for t, ((i, j), p0, p1) in enumerate(traces_geo):
        d = p1 - p0
        L = np.linalg.norm(d)
        tangent = d / L
        params = {}
        for l in (i, j):
            for cell in fractures[l].cells:
                for v in cell.vids:
                    if v in params:
                        continue
                    s = _point_on_segment(mesh.verts[v], p0, p1, eps)
                    if s is not None:
                        params[v] = min(max(s, 0.0), L)
        order = sorted(params, key=lambda v: params[v])
        cells = []
        for a, b in zip(order[:-1], order[1:]):
            if params[b] - params[a] <= eps:
                continue
            key = (a, b) if a < b else (b, a)
            if edge_trace.setdefault(key, t) != t:
                raise TopologyError(
                    f"edge {key} lies on traces {edge_trace[key]} and {t}: a "
                    f"trace shared by more than two fractures is not supported")
            sides = {}
            for l in (i, j):
                fm = fractures[l]
                if key not in fm.edge_cells:
                    raise ConformityError(
                        f"trace {t}: segment {key} missing from fracture {l} mesh")
                fm.edge_class[key] = ("trace", t)
                srecs = []
                for ci, k in fm.edge_cells[key]:
                    cell = fm.cells[ci]
                    a2 = cell.coords2d[k]
                    b2 = cell.coords2d[(k + 1) % len(cell.vids)]
                    e = b2 - a2
                    e = e / np.linalg.norm(e)
                    nrm2 = np.array([e[1], -e[0]])  # outward of CCW cell
                    srecs.append(TraceSide(
                        conormal=nrm2[0] * fm.plane.t1 + nrm2[1] * fm.plane.t2))
                if len(srecs) not in (1, 2):
                    raise ConformityError(
                        f"trace {t}: edge {key} shared by {len(srecs)} cells "
                        f"of fracture {l}")
                srecs.sort(key=lambda r: tuple(-r.conormal))  # lex-max first = '+'
                sides[l] = srecs
            cells.append(TraceCell(
                vid_a=a, vid_b=b, s_a=params[a], s_b=params[b],
                geometry=SegmentGeometry(mesh.verts[a], mesh.verts[b]),
                sides=sides))
        if not cells:
            raise ConformityError(f"trace {t} has no 1D cells")
        total = sum(c.s_b - c.s_a for c in cells)
        if abs(total - L) > 1e-10 * L:
            raise ConformityError(
                f"trace {t}: 1D cells cover {total:.3e} of length {L:.3e}")
        tm = TraceMesh(index=t, fractures=(i, j), p0=p0, p1=p1,
                       tangent=tangent, length=L, cells=cells,
                       vertex_params=params)
        for vid in (cells[0].vid_a, cells[-1].vid_b):
            kind = "external" if on_external_boundary(mesh.verts[vid]) else "tip"
            tm.endpoint_class[vid] = kind
        traces.append(tm)

    # classify the remaining fracture edges
    for fm in fractures:
        for key, users in fm.edge_cells.items():
            if key in fm.edge_class:
                continue
            if len(users) == 2:
                fm.edge_class[key] = ("interior",)
            else:
                a, b = key
                mid = 0.5 * (mesh.verts[a] + mesh.verts[b])
                if (on_external_boundary(mesh.verts[a]) and
                        on_external_boundary(mesh.verts[b]) and
                        on_external_boundary(mid)):
                    fm.edge_class[key] = ("external",)
                else:
                    fm.edge_class[key] = ("tip",)

    # --- intersection points ------------------------------------------------
    points = []
    for a in range(len(traces)):
        for b in range(a + 1, len(traces)):
            x = _segment_intersection(traces[a], traces[b], eps)
            if x is not None:
                points.append(x)
    merged = []
    for x in points:
        if not any(np.linalg.norm(x - y) <= eps for y in merged):
            merged.append(x)

    intersections = []
    for idx, x in enumerate(sorted(merged, key=tuple)):
        vid = mesh.find_vertex(x)
        if vid is None:
            raise ConformityError("trace intersection is not a mesh vertex")
        sides = []
        for t, tm in enumerate(traces):
            s = _point_on_segment(x, tm.p0, tm.p1, eps)
            if s is None:
                continue
            for cell in tm.cells:
                if abs(cell.s_b - s) <= eps or abs(cell.s_a - s) <= eps:
                    sides.append(IntersectionSide(trace=t))
        if not sides:
            raise ConformityError("intersection point touches no trace cell")
        for s in sides:
            tm = traces[s.trace]
            if vid in tm.endpoint_class:
                tm.endpoint_class[vid] = "intersection"
        intersections.append(IntersectionPoint(index=idx, coords=x, vid=vid,
                                               sides=sides))
    return fractures, traces, intersections


def _point_in_poly2d(p, poly, eps):
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        d = b - a
        if (p[0] - a[0]) * d[1] - (p[1] - a[1]) * d[0] > eps * max(np.linalg.norm(d), 1):
            return False
    return True


def _segment_intersection(ta: TraceMesh, tb: TraceMesh, eps):
    d1, d2 = ta.tangent, tb.tangent
    r = tb.p0 - ta.p0
    c = np.cross(d1, d2)
    c2 = c @ c
    if c2 < 1e-20:
        return None
    s = np.cross(r, d2) @ c / c2
    u = np.cross(r, d1) @ c / c2
    if s < -eps or s > ta.length + eps or u < -eps or u > tb.length + eps:
        return None
    x1, x2 = ta.p0 + s * d1, tb.p0 + u * d2
    if np.linalg.norm(x1 - x2) > eps:
        return None
    return 0.5 * (x1 + x2)


def build_domain_graph(fractures, traces, intersections) -> DomainGraph:
    fr_of_tr = {t.index: t.fractures for t in traces}
    tr_of_fr = {fm.index: [] for fm in fractures}
    for t in traces:
        for l in t.fractures:
            tr_of_fr[l].append(t.index)
    in_of_tr = {t.index: [] for t in traces}
    tr_of_in = {}
    for x in intersections:
        ts = sorted({s.trace for s in x.sides})
        tr_of_in[x.index] = ts
        for t in ts:
            in_of_tr[t].append(x.index)
    graph = DomainGraph(
        n_fractures=len(fractures), n_traces=len(traces),
        n_intersections=len(intersections),
        fractures_of_trace=fr_of_tr,
        traces_of_fracture={k: sorted(v) for k, v in tr_of_fr.items()},
        intersections_of_trace={k: sorted(v) for k, v in in_of_tr.items()},
        traces_of_intersection=tr_of_in)
    graph.check_reciprocal()
    return graph


def cut_background_mesh(mesh: PolyMesh3D, spec: NetworkSpec,
                        eps=None) -> MixedDimensionalMesh:
    """Full pipeline: cut all fractures, extract lower meshes, build the graph."""
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
    graph = build_domain_graph(fractures, traces, intersections)
    return MixedDimensionalMesh(mesh3d=mesh, spec=spec, fractures=fractures,
                                traces=traces, intersections=intersections,
                                graph=graph, eps=eps)


# ---------------------------------------------------------------------------
# Conformity validation
# ---------------------------------------------------------------------------


def validate_conformity(md: MixedDimensionalMesh) -> list:
    """Report-only validation; an empty list means the mesh is conforming."""
    report = []
    mesh = md.mesh3d

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
            # builds the cell's quadrature cone once, for assembly to reuse
            mesh.cell_geometry(cid).cone()
        except DegenerateGeometryError as exc:
            report.append(f"cell {cid}: {exc}")

    if mesh.background_volume is not None:
        vol = mesh.total_volume()
        if abs(vol - mesh.background_volume) > 1e-10 * mesh.background_volume:
            report.append(f"volume mismatch: cells {vol!r} vs background "
                          f"{mesh.background_volume!r}")

    for fm in md.fractures:
        area, _ = polygon_area_centroid_2d(fm.spec.polygon2d)
        got = fm.area()
        if abs(got - area) > 1e-10 * area:
            report.append(f"fracture {fm.index}: area {got!r} vs polygon {area!r}")
        for cell in fm.cells:
            try:
                n_plus = mesh.face_outward_normal(cell.face_id, cell.cell_plus)
                n_minus = mesh.face_outward_normal(cell.face_id, cell.cell_minus)
            except (DegenerateGeometryError, KeyError) as exc:
                report.append(f"fracture {fm.index} face {cell.face_id}: {exc}")
                continue
            if n_plus @ n_minus > -1 + 1e-10:
                report.append(f"fracture {fm.index} face {cell.face_id}: owner "
                              f"normals not opposite")

    for tm in md.traces:
        covered = sum(c.s_b - c.s_a for c in tm.cells)
        if abs(covered - tm.length) > 1e-10 * tm.length:
            report.append(f"trace {tm.index}: covers {covered!r} of {tm.length!r}")
        for cell in tm.cells:
            for l, sides in cell.sides.items():
                if len(sides) == 2:
                    if sides[0].conormal @ sides[1].conormal > -1 + 1e-8:
                        report.append(f"trace {tm.index}: sides in fracture {l} "
                                      f"not opposite")
    return report

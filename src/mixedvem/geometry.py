"""Geometry kernel for arbitrary polygons and polyhedra.

Polytopes may be non-convex and may carry collinear (hanging) vertices or
co-planar (hanging) faces.  Measures and centroids are computed from signed
simplicial decompositions and are therefore exact for any simple polygon /
closed polyhedron; quadrature rules are built from positively oriented
triangulations only, so weights are guaranteed positive.

Geometry is computed once.  A ``FaceGeometry`` is the orientation-free
record of one planar face loop (normal, canonical frame, 2D loop, measures,
triangulation); ``mesh.PolyMesh3D.face_geometry`` keeps one per mesh face,
shared by the cells it bounds, and builds all missing ones in one
``build_faces`` call.  ``build_faces`` works on the concatenated loops
(``_Loops``) with array operations: plane fit, lex frame, shoelace, diameter
and centroid fan for every loop at once; only loops that are not star-shaped
about their centroid are ear clipped, one by one, and a degenerate loop gets
a DegenerateGeometryError in place of its record.

A ``PolyhedronGeometry`` holds (record, sign) pairs and keeps its centroid
*cone* (the positively oriented tetrahedra joining the face triangles to the
centroid, with their volumes) and its *face simplices* (all face triangles,
in face and in space coordinates).  ``build_cells`` makes the cells of a
batch of (record, sign) lists together, by array passes over their
concatenated oriented loops and face triangles: volume and centroid,
diameter, and every cone with its star and sliver tests;
``mesh.PolyMesh3D.cell_geometry`` builds all missing cells of a mesh in one
call, and ``PolyhedronGeometry(loops)`` is a batch of one cell.  A cell with
a degenerate face or no positive volume gets a DegenerateGeometryError in
place of its record; a sliver or non-star-shaped cell gets a record whose
``cone`` raises.

A ``PolygonGeometry`` is a batch record too: ``build_polygons`` makes a
fracture's polygons by array passes over their 2D loops (area, centroid,
diameter, every edge's records and segment, and one ``_triangulate`` call),
and ``PolygonGeometry(coords)`` is a batch of one.  A ``SegmentGeometry``'s
faces are its two ends: unit measure, a one-point rule of weight 1 and face
coordinates with no entries.  So segments, polygons and polyhedra offer one
face interface (``n_faces``, ``faces`` with ``measure``, ``quadrature`` and
``to_face_coords``) to the element and assembly code.  No point array is
kept per order: every ``quadrature(order)`` or ``face_quadrature(order)``
call maps the cached reference rule onto all simplices in one batch and
returns fresh arrays, so callers may modify them.  The objects are immutable
once built (records hold views of their batch's arrays); ``mesh.PolyMesh3D``
hands the same face and cell objects to every caller until their loops
change.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.ma  # noqa: F401  np.unique imports it on its first call
from numpy.polynomial.legendre import leggauss

from .errors import DegenerateGeometryError

# Relative coplanarity/degeneracy tolerance: eps = EPS_GEO_FACTOR * (scale).
EPS_GEO_FACTOR = 1e-9

# Share of a cell's volume its centroid cone may hold in tetrahedra under the
# volume tolerance geo_eps(d) * d**2 before the cell counts as a sliver.  A
# tiny face puts a few volume tolerances there: at most 3.4e-4 of a cell's
# volume over 400 scanned cut networks (200 seeded ``perfbench`` fracture
# networks on a 4^3 box and 200 random networks as the acceptance suite draws
# them).  A sliver cell, whose cone tetrahedra all fall under the tolerance,
# holds all of it there.
CONE_VOLUME_RTOL = 1e-3

# Cone tetrahedra of at most this many ulps of diameter**3 are degenerate
# (zero volume up to roundoff) and left out of the rule; all others are kept.
CONE_DROP_ULPS = 8


def geo_eps(scale: float) -> float:
    """Absolute tolerance for a geometric feature of the given size."""
    return EPS_GEO_FACTOR * max(scale, 1.0)


def _cross(a, b):
    """Cross product of two (..., 3) arrays, row by row."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def _dot_rows(a, b):
    return np.einsum("...i,...i->...", a, b)


def _next(a):
    """The rows of ``a`` shifted by one: row i holds row i + 1 (cyclically)."""
    return np.concatenate((a[1:], a[:1]))


# ---------------------------------------------------------------------------
# 1D Gauss rules and simplex rules with positive weights
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _gauss01(n: int):
    """n-point Gauss-Legendre rule on [0, 1]."""
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def _triangle_ref_rule(order: int):
    """Duffy rule on the reference triangle, exact for total degree <= order.

    Returns barycentric coordinates (n, 3) and weights summing to 1.
    """
    na = (order + 3) // 2
    nb = (order + 2) // 2
    xa, wa = _gauss01(max(1, na))
    xb, wb = _gauss01(max(1, nb))
    A, B = np.meshgrid(xa, xb, indexing="ij")
    WA, WB = np.meshgrid(wa, wb, indexing="ij")
    l1 = (A * (1.0 - B)).ravel()
    l2 = (A * B).ravel()
    l0 = 1.0 - l1 - l2
    # Jacobian of (a,b) -> (l1,l2) is a; factor 2 normalizes to unit area.
    w = (2.0 * A * WA * WB).ravel()
    return np.column_stack([l0, l1, l2]), w


@lru_cache(maxsize=None)
def _tet_ref_rule(order: int):
    """Duffy rule on the reference tetrahedron (barycentric, weights sum 1)."""
    na = (order + 4) // 2
    nb = (order + 3) // 2
    nc = (order + 2) // 2
    xa, wa = _gauss01(max(1, na))
    xb, wb = _gauss01(max(1, nb))
    xc, wc = _gauss01(max(1, nc))
    A, B, C = np.meshgrid(xa, xb, xc, indexing="ij")
    WA, WB, WC = np.meshgrid(wa, wb, wc, indexing="ij")
    l1 = (A * (1.0 - B)).ravel()
    l2 = (A * B * (1.0 - C)).ravel()
    l3 = (A * B * C).ravel()
    l0 = 1.0 - l1 - l2 - l3
    w = (6.0 * (A * A * B) * WA * WB * WC).ravel()
    return np.column_stack([l0, l1, l2, l3]), w


@lru_cache(maxsize=None)
def _segment_ref_rule(order: int):
    """Gauss rule on the reference segment (barycentric, weights sum 1)."""
    x, w = _gauss01(max(1, (order + 2) // 2))
    return np.column_stack([1.0 - x, x]), w


def triangle_quadrature(verts, order: int):
    """Quadrature on a triangle given by a (3, dim) vertex array."""
    verts = np.asarray(verts, dtype=float)
    bary, w = _triangle_ref_rule(order)
    pts = bary @ verts
    if verts.shape[1] == 2:
        u, v = verts[1] - verts[0], verts[2] - verts[0]
        area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
    else:
        area = 0.5 * np.linalg.norm(np.cross(verts[1] - verts[0], verts[2] - verts[0]))
    return pts, w * area


def tet_quadrature(verts, order: int):
    """Quadrature on a tetrahedron given by a (4, 3) vertex array."""
    verts = np.asarray(verts, dtype=float)
    bary, w = _tet_ref_rule(order)
    pts = bary @ verts
    vol = np.dot(np.cross(verts[1] - verts[0], verts[2] - verts[0]), verts[3] - verts[0]) / 6.0
    return pts, w * abs(vol)


def _map_rule(bary, w, simplices, measures):
    """One reference rule mapped onto every simplex of an (m, k, dim) array.

    Points and weights come simplex by simplex, in the order of
    ``simplices``, as a loop over ``triangle_quadrature``/``tet_quadrature``
    would concatenate them.
    """
    pts = np.matmul(bary, simplices).reshape(-1, simplices.shape[2])
    return pts, (measures[:, None] * w[None, :]).ravel()


def _face_quadrature(simplices, ref_rule):
    """One reference rule mapped onto all face simplices of a cell (see
    ``face_simplices``): face-frame coordinates (n, d-1), points in the
    cell's coordinates (n, d), weights (n,) and the face of each point (n,),
    face by face in face order."""
    local, space, measures, face_of = simplices
    bary, w = ref_rule
    coords, wts = _map_rule(bary, w, local, measures)
    pts = np.matmul(bary, space).reshape(-1, space.shape[2])
    return coords, pts, wts, np.repeat(face_of, len(w))


# ---------------------------------------------------------------------------
# Polygons
# ---------------------------------------------------------------------------


def polygon_area_centroid_2d(coords):
    """Signed area and centroid of a simple 2D polygon (shoelace); the cut
    calls it on single polygons, where ``_Loops.area_centroids`` would cost
    more to set up than to compute."""
    coords = np.asarray(coords, dtype=float)
    x, y = coords[:, 0], coords[:, 1]
    xn, yn = _next(x), _next(y)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum()
    if abs(area) < 1e-300:
        return 0.0, coords.mean(axis=0)
    cx = ((x + xn) * cross).sum() / (6.0 * area)
    cy = ((y + yn) * cross).sum() / (6.0 * area)
    return area, np.array([cx, cy])


def triangulate_polygon_2d(coords):
    """Triangulate a simple CCW polygon into positively oriented triangles.

    The triangulation of one loop by ``_triangulate``: a centroid fan when the
    polygon is star-shaped with respect to its centroid, ear clipping
    otherwise.  Returns a (t, 3, 2) array.  Collinear (hanging) vertices are
    tolerated.
    """
    return PolygonGeometry(coords).triangulation[0]


def _triangulate(loops, xy, area, centroid, errors):
    """Triangles of counter-clockwise 2D loops, all at once.

    ``xy`` holds the loops' vertices laid out as ``loops``, ``area`` and
    ``centroid`` their shoelace areas and centroids, ``errors`` per loop None
    or why it is already known to be degenerate.  A loop star-shaped with
    respect to its centroid gets the centroid fan, without the triangles of
    hanging vertices (fan area at most 1e-12 scale**2); the others are ear
    clipped, one by one.  Returns the triangles (t, 3, 2), loop by loop, their
    areas (t,), the first triangle of each loop and one past the last
    (L + 1,), and the errors, now also naming every loop with a zero area or
    no triangle.
    """
    errors = list(errors)
    scale = loops.extents(xy)
    for k in np.flatnonzero(area <= EPS_GEO_FACTOR * np.maximum(scale, 1.0) * scale):
        errors[k] = errors[k] or "polygon area is zero within tolerance"
    ok = np.array([e is None for e in errors])
    i = loops.loop_of
    a = xy - centroid[i]
    b = a[loops.next]
    fan = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    star = np.logical_and.reduceat(fan > 0.0, loops.starts)
    keep = (star & ok)[i] & (fan > 1e-12 * scale[i] ** 2)
    tris = [np.stack([centroid[i[keep]], xy[keep], xy[loops.next[keep]]], axis=1)]
    owner = [i[keep]]
    for k in np.flatnonzero(~star & ok):
        start = loops.starts[k]
        try:
            ears = _ear_clip(xy[start:start + loops.sizes[k]], scale[k])
        except DegenerateGeometryError as exc:
            errors[k] = str(exc)
            continue
        tris.append(np.array(ears).reshape(-1, 3, 2))
        owner.append(np.full(len(ears), k))
    owner = np.concatenate(owner)
    tris = np.concatenate(tris)[np.argsort(owner, kind="stable")]
    counts = np.bincount(owner, minlength=len(area))
    for k in np.flatnonzero(counts == 0):
        errors[k] = errors[k] or "polygon has no positively oriented triangle"
    u = tris[:, 1] - tris[:, 0]
    v = tris[:, 2] - tris[:, 0]
    areas = 0.5 * np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    return tris, areas, np.concatenate([[0], np.cumsum(counts)]), errors


def _ear_clip(coords, scale):
    verts = list(range(len(coords)))
    tris = []
    tol = 1e-12 * scale * scale
    guard = 0
    while len(verts) > 3:
        guard += 1
        if guard > 10 * len(coords) ** 2:
            raise DegenerateGeometryError("ear clipping failed; polygon not simple?")
        clipped = False
        m = len(verts)
        for j in range(m):
            i0, i1, i2 = verts[j - 1], verts[j], verts[(j + 1) % m]
            a, b, c = coords[i0], coords[i1], coords[i2]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cross <= tol:
                continue
            # no other active vertex strictly inside the candidate ear
            ok = True
            for k in verts:
                if k in (i0, i1, i2):
                    continue
                if _point_in_triangle(coords[k], a, b, c, tol):
                    ok = False
                    break
            if ok:
                tris.append(np.array([a, b, c]))
                verts.pop(j)
                clipped = True
                break
        if not clipped:
            # only degenerate ears remain: drop a collinear vertex
            dropped = False
            for j in range(len(verts)):
                i0, i1, i2 = verts[j - 1], verts[j], verts[(j + 1) % len(verts)]
                a, b, c = coords[i0], coords[i1], coords[i2]
                cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
                if abs(cross) <= tol:
                    verts.pop(j)
                    dropped = True
                    break
            if not dropped:
                raise DegenerateGeometryError("ear clipping failed to make progress")
    a, b, c = (coords[i] for i in verts)
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if cross > tol:
        tris.append(np.array([a, b, c]))
    return tris


def _point_in_triangle(p, a, b, c, tol):
    d1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    d2 = (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])
    d3 = (a[0] - c[0]) * (p[1] - c[1]) - (a[1] - c[1]) * (p[0] - c[0])
    return d1 > tol and d2 > tol and d3 > tol


def plane_frame(normal):
    """Deterministic orthonormal in-plane axes (t1, t2) with t1 x t2 = n, for
    one normal (3,) or for each of a stack of normals (m, 3)."""
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n, axis=-1, keepdims=True)
    n0, n1, n2 = n[..., 0], n[..., 1], n[..., 2]
    zero = np.zeros_like(n0)
    t1 = np.where((np.abs(n0) > 0.9)[..., None],
                  np.stack([n2, zero, -n0], axis=-1),    # e_y x n
                  np.stack([zero, -n2, n1], axis=-1))    # e_x x n
    t1 = t1 / np.linalg.norm(t1, axis=-1, keepdims=True)
    return t1, _cross(n, t1)


@dataclass(frozen=True)
class Plane:
    """Oriented plane n . x = offset with an attached 2D frame."""

    normal: np.ndarray
    offset: float
    origin: np.ndarray
    t1: np.ndarray
    t2: np.ndarray

    @classmethod
    def from_normal_point(cls, normal, point):
        n = np.asarray(normal, dtype=float)
        n = n / np.linalg.norm(n)
        point = np.asarray(point, dtype=float)
        t1, t2 = plane_frame(n)
        return cls(n, float(n @ point), point, t1, t2)

    def signed_distance(self, points):
        return np.asarray(points, dtype=float) @ self.normal - self.offset

    def to_2d(self, points):
        rel = np.asarray(points, dtype=float) - self.origin
        return np.column_stack([rel @ self.t1, rel @ self.t2])

    def to_3d(self, coords2d):
        """Map (n, 2) in-plane coordinates, or any (..., 2) array, to 3D."""
        coords2d = np.atleast_2d(np.asarray(coords2d, dtype=float))
        return self.origin + coords2d[..., :1] * self.t1 + coords2d[..., 1:] * self.t2


def fit_plane(coords, lex=False):
    """Best plane through a vertex loop (Newell normal); checks planarity.

    The normal follows the loop orientation (right-hand rule), or with
    ``lex`` is the lexicographically positive one, chosen as ``build_faces``
    chooses a face record's frame.
    """
    normal, mean, errors, noise = _Loops([np.asarray(coords, dtype=float)]).plane_normals()
    if errors[0]:
        raise DegenerateGeometryError(errors[0])
    sign = lex_sign(normal[0], noise[0]) if lex else 1
    return Plane.from_normal_point(sign * normal[0], mean[0])


def _diameters(coords, sizes):
    """Largest distance between two rows of each run of ``sizes`` consecutive
    rows of ``coords``, over all pairs of the run."""
    starts = np.cumsum(sizes) - sizes
    run = np.repeat(np.arange(len(sizes)), sizes)
    per = sizes[run]     # the pairs (a, b) of each row a
    pair0 = np.cumsum(per) - per
    a = np.repeat(np.arange(len(per)), per)
    b = np.arange(len(a)) - np.repeat(pair0 - starts[run], per)
    d2 = np.sum((coords[a] - coords[b]) ** 2, axis=1)
    return np.sqrt(np.maximum.reduceat(d2, pair0[starts]))


class _Loops:
    """Vertex loops stored as one (N, d) array, for work on all at once."""

    def __init__(self, loops):
        self.coords = np.vstack(loops)
        self.sizes = np.array([len(loop) for loop in loops])
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.loop_of = np.repeat(np.arange(len(loops)), self.sizes)
        nxt = np.arange(1, len(self.coords) + 1)    # next vertex in its loop
        nxt[self.starts + self.sizes - 1] = self.starts
        self.next = nxt

    def sums(self, values):
        return np.add.reduceat(values, self.starts)

    def extents(self, coords):
        """Largest coordinate extent of each loop."""
        return (np.maximum.reduceat(coords, self.starts) -
                np.minimum.reduceat(coords, self.starts)).max(axis=1)

    def area_centroids(self, xy):
        """Signed shoelace areas and centroids of 2D loops laid out as these;
        a loop of no area gets the mean of its vertices."""
        x, y = xy[:, 0], xy[:, 1]
        xn, yn = x[self.next], y[self.next]
        cross = x * yn - xn * y
        area = 0.5 * self.sums(cross)
        flat = np.abs(area) < 1e-300
        centroid = (np.column_stack([self.sums((x + xn) * cross),
                                     self.sums((y + yn) * cross)])
                    / (6.0 * np.where(flat, 1.0, area))[:, None])
        centroid[flat] = (self.sums(xy) / self.sizes[:, None])[flat]
        return area, centroid

    def plane_normals(self):
        """Unit Newell normals and vertex means of 3D loops, per loop None or
        why it is degenerate (zero area or non-planar), and the normals'
        roundoff over eps (squared coordinate magnitude over area).  A
        zero-area loop gets the normal e_x, so work on the batch stays finite."""
        c, nxt = self.coords, self.coords[self.next]
        normal = self.sums((c - nxt)[:, (1, 2, 0)] * (c + nxt)[:, (2, 0, 1)])
        nrm = np.linalg.norm(normal, axis=1)
        scale = np.maximum(self.extents(c), 1e-300)
        tol = EPS_GEO_FACTOR * np.maximum(scale, 1.0)
        flat = nrm <= tol * scale
        normal[flat] = (1.0, 0.0, 0.0)
        area = np.where(flat, 1.0, 0.5 * nrm)
        noise = np.maximum.reduceat(_dot_rows(c, c), self.starts) / area
        normal = normal / np.where(flat, 1.0, nrm)[:, None]
        mean = self.sums(c) / self.sizes[:, None]
        dist = np.maximum.reduceat(np.abs(_dot_rows(c - mean[self.loop_of],
                                                    normal[self.loop_of])),
                                   self.starts)
        errors = [None] * len(nrm)
        for k in np.flatnonzero(dist > tol):
            errors[k] = (f"vertex loop non-planar: max deviation {dist[k]:.3e} > "
                         f"{tol[k]:.3e}")
        for k in np.flatnonzero(flat):
            errors[k] = "degenerate vertex loop (zero area)"
        return normal, mean, errors, noise


# ---------------------------------------------------------------------------
# Element geometry views used by the local VEM machinery
# ---------------------------------------------------------------------------


@dataclass
class SegmentGeometry:
    """1D element: a straight segment parameterized by arc length.

    Its ``faces`` are its two ends, ``a`` then ``b`` (``_EndView``)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if np.linalg.norm(self.b - self.a) <= geo_eps(1.0):
            raise DegenerateGeometryError("zero-length segment")
        half = self.measure / 2
        self.faces = [_EndView((self.a,), -half, -1), _EndView((self.b,), half, 1)]

    dim = 1
    n_faces = 2

    @property
    def measure(self):
        return float(np.linalg.norm(self.b - self.a))

    @property
    def centroid(self):
        return 0.5 * (self.a + self.b)

    @property
    def diameter(self):
        return self.measure

    @property
    def tangent(self):
        t = self.b - self.a
        return t / np.linalg.norm(t)

    def quadrature(self, order):
        # returned points are 1D arc-length coordinates centered at the midpoint
        x, w = _gauss01(max(1, (order + 2) // 2))
        L = self.measure
        return ((x - 0.5) * L)[:, None], w * L


@dataclass(frozen=True, eq=False)
class _EndView:
    """End of a SegmentGeometry, acting as a 0-face: the point ``vertices[0]``
    at arc length ``s`` from the midpoint, outward along ``lex_sign`` times
    the segment tangent.  It has unit measure and diameter: its rule is the
    one point with weight 1, and its face coordinates have no entries, so the
    one face monomial is the constant."""

    vertices: tuple
    s: float
    lex_sign: int
    measure = 1.0
    diameter = 1.0

    def quadrature(self, order):
        return np.array([[self.s]]), np.ones(1)

    def to_face_coords(self, points):
        return np.zeros((len(points), 0))


class PolygonGeometry:
    """2D element living in its own planar frame.

    ``coords`` are the 2D in-frame vertex coordinates (CCW).  The element's
    "faces" are its edges; each edge carries the outward in-plane normal and a
    1D frame (signed arc length from the edge midpoint) for edge monomials.
    ``values`` come from a ``build_polygons`` batch; without them the polygon
    is a batch of one, and a degenerate one raises DegenerateGeometryError.
    """

    def __init__(self, coords2d, values=None):
        if values is None:
            values = _polygon_batch([coords2d])[0]
            if isinstance(values, DegenerateGeometryError):
                raise values
        (self.coords, self.measure, self.centroid, self.diameter, self.faces,
         self.normals, self.triangulation, self._face_simplices) = values

    dim = 2

    @property
    def n_faces(self):
        return len(self.coords)

    def quadrature(self, order):
        return _map_rule(*_triangle_ref_rule(order), *self.triangulation)

    def face_simplices(self):
        """Every edge as a segment: ends in its edge coordinate (e, 2, 1) and
        in the polygon's frame (e, 2, 2), lengths (e,) and edge indices (e,)."""
        return self._face_simplices

    def face_quadrature(self, order):
        """Rules on all edges at once; see ``_face_quadrature``."""
        return _face_quadrature(self.face_simplices(), _segment_ref_rule(order))


def build_polygons(loops):
    """One PolygonGeometry per CCW 2D vertex loop, made as ``build_faces``
    makes its records; a degenerate loop gets its (not raised)
    DegenerateGeometryError in place of its record."""
    return [values if isinstance(values, DegenerateGeometryError)
            else PolygonGeometry(None, values) for values in _polygon_batch(loops)]


def _polygon_batch(loops):
    """Per 2D loop, its DegenerateGeometryError (no positive area, a
    zero-length edge or no triangle) or its (coords, measure, centroid,
    diameter, edges, edge normals, triangulation, face simplices), from array
    passes over the concatenated loops and one ``_triangulate`` call."""
    lp = _Loops([np.asarray(loop, dtype=float) for loop in loops])
    xy, i = lp.coords, lp.loop_of
    area, centroid = lp.area_centroids(xy)
    diameter = _diameters(xy, lp.sizes)
    tol = EPS_GEO_FACTOR * np.maximum(diameter, 1.0)
    errors = [None] * len(area)
    for k in np.flatnonzero(area <= tol * diameter):
        errors[k] = "polygon area not positive"
    ends = np.stack([xy, xy[lp.next]], axis=1)
    t = ends[:, 1] - xy
    length = np.linalg.norm(t, axis=1)
    for k in np.unique(i[length <= tol[i]]):
        errors[k] = errors[k] or "zero-length polygon edge"
    t = t / np.where(length > 0.0, length, 1.0)[:, None]
    normal = np.column_stack([t[:, 1], -t[:, 0]])      # outward for a CCW loop
    sign = lex_sign(t)
    frame = sign[:, None] * t
    rel = ends - 0.5 * (ends[:, :1] + ends[:, 1:])
    local = np.einsum("ekd,ed->ek", rel, frame)[:, :, None]
    tris, tri_areas, first, errors = _triangulate(lp, xy, area, centroid, errors)
    edges = [_EdgeView(*row) for row in zip(xy, ends[:, 1], normal, t, sign.tolist(),
                                            frame, length.tolist())]
    starts, sizes, first = lp.starts.tolist(), lp.sizes.tolist(), first.tolist()
    out = []
    for k, error in enumerate(errors):
        e, tri = slice(starts[k], starts[k] + sizes[k]), slice(first[k], first[k + 1])
        out.append(DegenerateGeometryError(error) if error else (
            xy[e], float(area[k]), centroid[k], float(diameter[k]), edges[e], normal[e],
            (tris[tri], tri_areas[tri]), (local[e], ends[e], length[e], np.arange(sizes[k]))))
    return out


@dataclass(eq=False)
class _EdgeView:
    """Edge of a PolygonGeometry, acting as a (d-1)-face.

    Edge monomials use the lexicographically positive tangent
    ``frame_tangent`` so neighbouring cells agree on the edge coordinate;
    ``lex_sign`` is the sign of the traversal tangent (and of the outward
    normal) against it.
    """

    a: np.ndarray
    b: np.ndarray
    normal: np.ndarray
    tangent: np.ndarray
    lex_sign: int
    frame_tangent: np.ndarray
    measure: float

    @property
    def vertices(self):
        return self.a, self.b

    @property
    def centroid(self):
        return 0.5 * (self.a + self.b)

    @property
    def diameter(self):
        return self.measure

    def quadrature(self, order):
        x, w = _gauss01(max(1, (order + 2) // 2))
        pts = self.a[None, :] + np.outer(x, self.b - self.a)
        return pts, w * self.measure

    def to_face_coords(self, points):
        rel = np.atleast_2d(points) - self.centroid
        return (rel @ self.frame_tangent)[:, None]


def lex_sign(v, noise=1.0):
    """+1 if the first entry of ``v`` above roundoff (``8 eps |v|``, times a
    larger ``noise``, as ``plane_normals`` gives for Newell normals) is
    positive, else -1: a roundoff-level entry must not pick the frame.  For a
    stack of vectors (m, d), one sign per vector and noise."""
    v = np.asarray(v, dtype=float)
    tol = 8 * np.finfo(float).eps * np.maximum(noise, 1.0)[..., None]
    big = np.abs(v) > tol * np.linalg.norm(v, axis=-1, keepdims=True)
    lead = np.take_along_axis(v, np.argmax(big, axis=-1)[..., None], axis=-1)[..., 0]
    sign = np.where(big.any(axis=-1) & (lead < 0), -1, 1)
    return int(sign) if sign.ndim == 0 else sign


@dataclass(eq=False)
class FaceGeometry:
    """One planar face loop, without an owner cell; ``build_faces`` fills it.

    ``normal`` is the unit Newell normal of the loop ``coords`` (right-hand
    rule); a cell holding the face with sign ``s`` has the outward normal
    ``s * normal``.  The 2D frame ``plane`` (used for face monomials) is
    anchored at the face centroid and built from the lexicographically
    positive normal ``lex_sign * normal``, so all cells sharing the face see
    the same face coordinates.  ``coords2d`` is the loop in that frame,
    counter-clockwise; ``triangulation`` holds its triangles (t, 3, 2) and
    their areas (t,), ``triangles`` the triangles in space.
    """

    coords: np.ndarray
    normal: np.ndarray
    lex_sign: int
    plane: Plane
    coords2d: np.ndarray
    measure: float
    centroid: np.ndarray
    diameter: float
    triangulation: tuple
    triangles: np.ndarray

    def quadrature(self, order):
        return _map_rule(*_triangle_ref_rule(order), self.triangles,
                         self.triangulation[1])

    def to_face_coords(self, points3d):
        return self.plane.to_2d(points3d)


def build_faces(loops):
    """One FaceGeometry per planar (n_i, 3) vertex loop, all made by array
    operations on the concatenated loops; only the loops that are not
    star-shaped about their centroid are ear clipped, one by one.

    A zero-area, non-planar or untriangulable loop gets a (not raised)
    DegenerateGeometryError in place of its record, so one bad loop spoils no
    other.
    """
    lp = _Loops(loops)
    normal, mean, errors, noise = lp.plane_normals()
    i, at = lp.loop_of, np.arange(len(lp.loop_of))
    sign = lex_sign(normal, noise)
    n = sign[:, None] * normal
    t1, t2 = plane_frame(n)
    rel = lp.coords - mean[i]
    xy = np.column_stack([_dot_rows(rel, t1[i]), _dot_rows(rel, t2[i])])
    # a loop with sign -1 is clockwise in its lex frame: reverse it there
    xy = xy[np.where(sign[i] < 0, 2 * lp.starts[i] + lp.sizes[i] - 1 - at, at)]
    area, c2 = lp.area_centroids(xy)
    centroid = mean + c2[:, :1] * t1 + c2[:, 1:] * t2
    xy -= c2[i]
    tris, tri_areas, first, errors = _triangulate(lp, xy, area, np.zeros_like(c2),
                                                  errors)
    tri_of = np.repeat(np.arange(len(area)), np.diff(first))[:, None]
    space = centroid[tri_of] + tris[..., :1] * t1[tri_of] + tris[..., 1:] * t2[tri_of]
    offset, measure = _dot_rows(n, centroid).tolist(), np.abs(area).tolist()
    diameter = _diameters(lp.coords, lp.sizes).tolist()
    starts, first = lp.starts.tolist(), first.tolist()
    records = []
    for k, (loop, error) in enumerate(zip(loops, errors)):
        if error:
            records.append(DegenerateGeometryError(error))
            continue
        verts = slice(starts[k], starts[k] + len(loop))
        tri = slice(first[k], first[k + 1])
        records.append(FaceGeometry(
            loop, normal[k], int(sign[k]),
            Plane(n[k], offset[k], centroid[k], t1[k], t2[k]), xy[verts],
            measure[k], centroid[k], diameter[k], (tris[tri], tri_areas[tri]),
            space[tri]))
    return records


def build_cells(cells):
    """One PolyhedronGeometry per cell, each given as its list of
    (FaceGeometry, sign) pairs, all made by array passes over the
    concatenated oriented loops (``_cell_batch``).

    A cell with a degenerate face gets that face's DegenerateGeometryError
    in place of its record, and so does a cell with no positive volume; a
    sliver cell, or one not star-shaped about its centroid, gets a record
    whose ``cone`` and ``quadrature`` raise.  So one bad cell spoils no other.
    """
    return [values if isinstance(values, DegenerateGeometryError)
            else PolyhedronGeometry(None, faces, values)
            for faces, values in zip(cells, _cell_batch(cells))]


def _cell_batch(cells):
    """Per cell of (FaceGeometry, sign) pairs, its DegenerateGeometryError or
    its (face signs, outward normals, measure, centroid, diameter, face
    simplices, cone), the cone being (tetrahedra, volumes) or why the cell
    has no positive rule.

    Volume and centroid come from the signed tetrahedra (cell vertex mean,
    face vertex mean, loop edge), exact for any closed polyhedron; the
    diameter from all pairs of each cell's distinct vertices.  The centroid
    cone joins every face triangle to the centroid: a tetrahedron of negative
    volume beyond the tolerance ``geo_eps(d) * d**2`` means the cell is not
    star-shaped about its centroid, and one whose tetrahedra above the
    tolerance fall short of its volume by more than CONE_VOLUME_RTOL of it is
    a sliver.  Only degenerate tetrahedra (CONE_DROP_ULPS) are left out.
    """
    out = [next((face for face, _ in faces if isinstance(face, DegenerateGeometryError)),
                None) for faces in cells]
    good = [k for k, error in enumerate(out) if error is None]
    if not good:
        return out
    pairs = [pair for k in good for pair in cells[k]]
    faces = [face for face, _ in pairs]
    sign = np.array([s for _, s in pairs], dtype=float)
    n_faces = np.array([len(cells[k]) for k in good])
    f0 = np.cumsum(n_faces) - n_faces                 # each cell's first face
    cell_face = np.repeat(np.arange(len(good)), n_faces)
    lp = _Loops([face.coords[::int(s)] for face, s in pairs])
    c, d = lp.coords, lp.coords[lp.next]
    cell_of, first = cell_face[lp.loop_of], lp.starts[f0]
    apex = np.add.reduceat(c, first) / np.add.reduceat(lp.sizes, f0)[:, None]
    a = apex[cell_of]
    bases = (lp.sums(c) / lp.sizes[:, None])[lp.loop_of]
    v = _dot_rows(_cross(bases - a, c - a), d - a) / 6.0
    vol = np.add.reduceat(v, first)
    mom = np.add.reduceat(v[:, None] * ((a + bases + c + d) / 4.0), first)
    flat = np.abs(vol) < 1e-300
    centroid = np.where(flat[:, None], apex, mom / np.where(flat, 1.0, vol)[:, None])
    vol = np.where(flat, 0.0, np.abs(vol))
    # diameter over each cell's distinct vertices, sorted by cell then x, y, z
    at = np.lexsort((c[:, 2], c[:, 1], c[:, 0], cell_of))
    new = np.ones(len(at), dtype=bool)
    new[1:] = (np.diff(cell_of[at]) != 0) | np.any(np.diff(c[at], axis=0) != 0, axis=1)
    diam = _diameters(c[at[new]], np.bincount(cell_of[at[new]], minlength=len(good)))
    tol = EPS_GEO_FACTOR * np.maximum(diam, 1.0) * diam ** 2

    # the centroid cone over every face triangle; face 2D loops are CCW in
    # the lex frame, so the sign flips where that frame opposes the outward one
    face_of = np.repeat(np.arange(len(faces)), [len(face.triangles) for face in faces])
    cell_tri = cell_face[face_of]
    tri_count = np.bincount(cell_tri, minlength=len(good))
    t0 = np.append(np.cumsum(tri_count) - tri_count, len(face_of))
    tris = np.concatenate([face.triangles for face in faces])
    centre = centroid[cell_tri]
    orient = sign * np.array([face.lex_sign for face in faces])
    edge1, edge2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    tv = -orient[face_of] * _dot_rows(_cross(edge1, edge2), centre - tris[:, 0]) / 6.0
    inverted = np.logical_or.reduceat(tv < -tol[cell_tri], t0[:-1])
    resolved = np.add.reduceat(np.where(tv > tol[cell_tri], tv, 0.0), t0[:-1])
    keep = tv > CONE_DROP_ULPS * np.finfo(float).eps * diam[cell_tri] ** 3
    tets = np.concatenate([tris[keep], centre[keep][:, None]], axis=1)
    vols = tv[keep]
    k0 = np.concatenate([[0], np.cumsum(np.bincount(cell_tri[keep], minlength=len(good)))])
    local = np.concatenate([face.triangulation[0] for face in faces])
    areas = np.concatenate([face.triangulation[1] for face in faces])
    normals = sign[:, None] * np.array([face.normal for face in faces])
    f0 = np.append(f0, len(faces))
    for j, k in enumerate(good):
        if vol[j] <= tol[j]:
            out[k] = DegenerateGeometryError("polyhedron volume not positive")
            continue
        if inverted[j]:
            cone = ("cell not star-shaped w.r.t. centroid; cannot build a "
                    "positive quadrature rule")
        elif abs(resolved[j] - vol[j]) > CONE_VOLUME_RTOL * vol[j]:
            cone = (f"centroid cone resolves volume {resolved[j]:.3e} of "
                    f"{vol[j]:.3e}: sliver cell, no positive quadrature rule")
        else:
            cone = tets[k0[j]:k0[j + 1]], vols[k0[j]:k0[j + 1]]
        fs, ts = slice(f0[j], f0[j + 1]), slice(t0[j], t0[j + 1])
        out[k] = (sign[fs], normals[fs], float(vol[j]), centroid[j], float(diam[j]),
                  (local[ts], tris[ts], areas[ts], face_of[ts] - f0[j]), cone)
    return out


class PolyhedronGeometry:
    """3D element defined by oriented planar faces.

    ``face_loops`` is a list of (n_i, 3) vertex arrays, each ordered so the
    right-hand rule gives the OUTWARD normal.  The boundary must be closed.
    ``faces`` are the matching (FaceGeometry, sign) pairs, the sign turning
    the record's normal outward (loop i is ``faces[i][0].coords[::sign]``);
    by default each loop gets a record of its own with sign +1.  ``values``
    are the cell's numbers from a ``build_cells`` batch; without them the
    cell is a batch of its own, through the same code, and a degenerate cell
    raises DegenerateGeometryError.  ``normals`` holds the outward unit
    normals.
    """

    def __init__(self, face_loops, faces=None, values=None):
        if faces is None:
            faces = [(face, 1) for face in build_faces([np.asarray(f, dtype=float)
                                                        for f in face_loops])]
        if values is None:
            values = _cell_batch([faces])[0]
            if isinstance(values, DegenerateGeometryError):
                raise values
        self.faces = [face for face, _ in faces]
        self.face_loops = [face.coords[::int(s)] for face, s in faces]
        (self.face_signs, self.normals, self.measure, self.centroid, self.diameter,
         self._face_simplices, self._cone) = values

    dim = 3

    @property
    def n_faces(self):
        return len(self.faces)

    def face_simplices(self):
        """Triangles of every face: in its face frame (t, 3, 2) and in space
        (t, 3, 3), with areas (t,) and face indices (t,)."""
        return self._face_simplices

    def face_quadrature(self, order):
        """Rules on all faces at once; see ``_face_quadrature``."""
        return _face_quadrature(self.face_simplices(), _triangle_ref_rule(order))

    def cone(self):
        """Centroid cone over the face triangles: tetrahedra (m, 4, 3) and
        their volumes (m,), from the cell's batch (see ``_cell_batch``).

        Requires the element to be star-shaped with respect to its centroid
        (always true for the convex cells produced by plane cutting); a cell
        that is not, or a sliver cell, has no usable rule and
        DegenerateGeometryError is raised.
        """
        if isinstance(self._cone, str):
            raise DegenerateGeometryError(self._cone)
        return self._cone

    def quadrature(self, order):
        """Positive-weight rule from the centroid cone (see ``cone``)."""
        return _map_rule(*_tet_ref_rule(order), *self.cone())


# ---------------------------------------------------------------------------
# Spec-level convenience operations
# ---------------------------------------------------------------------------


def measure(polytope):
    """Length / area / volume of a geometry view."""
    return polytope.measure


def centroid_diameter(polytope):
    return np.asarray(polytope.centroid), polytope.diameter


def quadrature(polytope, exactness_order: int):
    """Rule integrating all monomials of total degree <= exactness_order."""
    if exactness_order < 0:
        raise ValueError("exactness_order must be >= 0")
    return polytope.quadrature(exactness_order)


def face_frame(polyhedron: PolyhedronGeometry, face_index: int):
    """Outward unit normal and in-plane frame of one face of a polyhedron."""
    plane = polyhedron.faces[face_index].plane
    return polyhedron.normals[face_index], (plane.t1, plane.t2)

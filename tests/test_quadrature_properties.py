"""Property tests: the batched cone and triangle rules against per-simplex
oracles on random convex polyhedra and polygons, and the batched face records
against a per-loop oracle on random planar loops."""

import itertools

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixedvem import geometry as geo
from tests.test_geometry import unit_cube_faces

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
RTOL = 1e-12
# Shapes with an edge shorter than this share of their diameter are slivers,
# whose cone may drop tetrahedra by design (see PolyhedronGeometry.cone).
MIN_EDGE = 1e-3


def _clip(loops, normal, offset, eps=1e-12):
    """Keep the part of a convex polyhedron where normal . x <= offset."""
    out, cap = [], []
    for loop in loops:
        dist = loop @ normal - offset
        dist[np.abs(dist) <= eps] = 0.0
        if not dist.any():
            return loops   # the plane holds a face: nothing to cut
        kept = []
        for i in range(len(loop)):
            j = (i + 1) % len(loop)
            if dist[i] <= 0:
                kept.append(loop[i])
            if dist[i] == 0:
                cap.append(loop[i])
            if dist[i] * dist[j] < 0:
                x = loop[i] + dist[i] / (dist[i] - dist[j]) * (loop[j] - loop[i])
                kept.append(x)
                cap.append(x)
        if len(kept) >= 3:
            out.append(np.array(kept))
    unique = []
    for p in cap:
        if all(np.linalg.norm(p - q) > 1e-10 for q in unique):
            unique.append(p)
    if len(unique) >= 3:
        unique = np.array(unique)
        rel = unique - unique.mean(axis=0)
        t1, t2 = geo.plane_frame(normal)
        out.append(unique[np.argsort(np.arctan2(rel @ t2, rel @ t1))])
    return out


@st.composite
def cut_cubes(draw):
    """The unit cube cut by 1-3 planes that keep a ball about its center."""
    loops = unit_cube_faces()
    for _ in range(draw(st.integers(1, 3))):
        n = np.array(draw(st.lists(st.floats(-1, 1), min_size=3, max_size=3)))
        assume(np.linalg.norm(n) > 0.1)
        n = n / np.linalg.norm(n)
        loops = _clip(loops, n, n @ [0.5, 0.5, 0.5] + draw(st.floats(0.15, 0.9)))
    edges = [np.linalg.norm(loop - np.roll(loop, -1, axis=0), axis=1).min()
             for loop in loops]
    assume(min(edges) > MIN_EDGE)
    return geo.PolyhedronGeometry(loops)


@st.composite
def convex_polygons(draw):
    """Points on an ellipse at sorted random angles."""
    ang = np.sort(draw(st.lists(st.floats(0, 2 * np.pi, exclude_max=True),
                                min_size=3, max_size=9, unique=True)))
    a, b = draw(st.floats(0.2, 3)), draw(st.floats(0.2, 3))
    coords = np.column_stack([a * np.cos(ang), b * np.sin(ang)])
    assume(np.linalg.norm(coords - np.roll(coords, -1, axis=0), axis=1).min()
           > MIN_EDGE * max(a, b))
    area, _ = geo.polygon_area_centroid_2d(coords)
    assume(area > MIN_EDGE * max(a, b) ** 2)
    return geo.PolygonGeometry(coords)


def _cone_oracle(cell, order):
    """Per-tetrahedron loop over the centroid cone with ``tet_quadrature``."""
    apex = cell.centroid
    tol = geo.geo_eps(cell.diameter) * cell.diameter ** 2
    pts, wts = [], []
    for face in cell.faces:
        orient = 1.0 if face.plane.normal @ face.normal > 0 else -1.0
        for tri2d in geo.triangulate_polygon_2d(face.coords2d):
            tri3d = face.plane.to_3d(tri2d)
            v = -orient * np.dot(np.cross(tri3d[1] - tri3d[0], tri3d[2] - tri3d[0]),
                                 apex - tri3d[0]) / 6.0
            if v > tol:
                p, w = geo.tet_quadrature(np.vstack([tri3d, apex]), order)
                pts.append(p)
                wts.append(w)
    return np.vstack(pts), np.concatenate(wts)


def _triangle_oracle(cell, order):
    rules = [geo.triangle_quadrature(t, order)
             for t in geo.triangulate_polygon_2d(cell.coords)]
    return np.vstack([p for p, _ in rules]), np.concatenate([w for _, w in rules])


def _check_rule(cell, rule, oracle, order):
    pts, w = rule
    assert np.all(w > 0)
    assert abs(w.sum() - cell.measure) <= RTOL * cell.measure
    # centered, scaled monomials are bounded by 1, so their integrals by measure
    x = (pts - cell.centroid) / cell.diameter
    xo = (oracle[0] - cell.centroid) / cell.diameter
    dim = pts.shape[1]
    for alpha in itertools.product(range(order + 1), repeat=dim):
        if sum(alpha) > order:
            continue
        got = np.sum(w * np.prod(x ** np.array(alpha), axis=1))
        want = np.sum(oracle[1] * np.prod(xo ** np.array(alpha), axis=1))
        assert abs(got - want) <= RTOL * cell.measure, alpha


@SETTINGS
@given(cut_cubes(), st.integers(0, 6))
def test_cone_rule_matches_per_tet_oracle(cell, order):
    _check_rule(cell, cell.quadrature(order), _cone_oracle(cell, order), order)


@SETTINGS
@given(convex_polygons(), st.integers(0, 8))
def test_polygon_rule_matches_per_triangle_oracle(cell, order):
    _check_rule(cell, cell.quadrature(order), _triangle_oracle(cell, order), order)


@SETTINGS
@given(cut_cubes(), st.integers(0, 4))
def test_face_rules_match_per_triangle_oracle(cell, order):
    for face in cell.faces:
        rules = [geo.triangle_quadrature(face.plane.to_3d(t), order)
                 for t in geo.triangulate_polygon_2d(face.coords2d)]
        oracle = (np.vstack([p for p, _ in rules]),
                  np.concatenate([w for _, w in rules]))
        _check_rule(face, face.quadrature(order), oracle, order)


# Face records agree with the per-loop oracle to this share of their scale.
FACE_RTOL = 1e-13


@st.composite
def planar_loops(draw):
    """A planar vertex loop in space: convex (points on an ellipse) or a U
    (not star-shaped about its centroid, so it is ear clipped), in either
    orientation, with collinear hanging vertices on some edges, on a plane
    whose normal is random or has its leading entry at roundoff."""
    a, b = draw(st.floats(0.2, 3)), draw(st.floats(0.2, 3))
    if draw(st.booleans()):
        ang = np.sort(draw(st.lists(st.floats(0, 2 * np.pi, exclude_max=True),
                                    min_size=3, max_size=9, unique=True)))
        xy = np.column_stack([a * np.cos(ang), b * np.sin(ang)])
        assume(np.linalg.norm(xy - np.roll(xy, -1, axis=0), axis=1).min()
               > MIN_EDGE * max(a, b))
        assume(geo.polygon_area_centroid_2d(xy)[0] > MIN_EDGE * max(a, b) ** 2)
    else:
        arm, foot = draw(st.floats(0.1, 0.4)) * a, draw(st.floats(0.05, 0.3)) * b
        xy = np.array([[0, 0], [a, 0], [a, b], [a - arm, b], [a - arm, foot],
                       [arm, foot], [arm, b], [0, b]])
    hanging = draw(st.lists(st.floats(0.2, 0.8) | st.none(),
                            min_size=len(xy), max_size=len(xy)))
    xy = np.vstack([row for k, t in enumerate(hanging) for row in
                    ([xy[k]] if t is None else
                     [xy[k], xy[k] + t * (xy[(k + 1) % len(xy)] - xy[k])])])
    if draw(st.booleans()):
        xy = xy[::-1]
    if draw(st.booleans()):
        phi = draw(st.floats(0, 2 * np.pi))
        n = np.array([draw(st.sampled_from([0.0, 1e-17, -1e-17])),
                      np.cos(phi), np.sin(phi)])
    else:
        n = np.array(draw(st.lists(st.floats(-1, 1), min_size=3, max_size=3)))
        assume(np.linalg.norm(n) > 0.1)
    n = n / np.linalg.norm(n)
    e1 = np.cross(n, [1.0, 0.0, 0.0] if abs(n[0]) < 0.5 else [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    origin = np.array(draw(st.lists(st.floats(-1, 1), min_size=3, max_size=3)))
    return origin + xy[:, :1] * e1 + xy[:, 1:] * np.cross(n, e1)


def _face_oracle(coords):
    """A face record's fields, loop by loop: Newell normal, lex sign and
    frame, the loop in that frame (counter-clockwise, about its centroid),
    shoelace measure and centroid, and the diameter over all vertex pairs."""
    nxt = np.roll(coords, -1, axis=0)
    normal = np.sum((coords - nxt)[:, (1, 2, 0)] * (coords + nxt)[:, (2, 0, 1)], axis=0)
    loop_area = 0.5 * np.linalg.norm(normal)
    normal = normal / (2 * loop_area)
    # an entry under the Newell sum's roundoff, eps times the squared
    # coordinate magnitude over the area, does not pick the sign
    noise = max(1.0, np.max(np.sum(coords ** 2, axis=1)) / loop_area)
    big = normal[np.abs(normal) > 8 * np.finfo(float).eps * noise]
    sign = -1 if len(big) and big[0] < 0 else 1
    n = sign * normal
    t1 = np.array([n[2], 0.0, -n[0]]) if abs(n[0]) > 0.9 else np.array([0.0, -n[2], n[1]])
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    mean = coords.mean(axis=0)
    xy = np.column_stack([(coords - mean) @ t1, (coords - mean) @ t2])[::sign]
    x, y = xy[:, 0], xy[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum()
    c2 = np.array([((x + xn) * cross).sum(), ((y + yn) * cross).sum()]) / (6 * area)
    return {"normal": normal, "lex_sign": sign, "t1": t1, "t2": t2,
            "coords2d": xy - c2, "measure": abs(area),
            "centroid": mean + c2[0] * t1 + c2[1] * t2,
            "diameter": max(np.linalg.norm(p - q) for p in coords for q in coords)}


@SETTINGS
@given(st.lists(planar_loops(), min_size=1, max_size=5))
def test_batched_face_records_match_per_loop_oracle(loops):
    for face, coords in zip(geo.build_faces(loops), loops):
        want = _face_oracle(coords)
        d = want["diameter"]
        assert face.lex_sign == want["lex_sign"]
        for got, key, scale in [
                (face.normal, "normal", 1.0), (face.plane.t1, "t1", 1.0),
                (face.plane.t2, "t2", 1.0), (face.coords2d, "coords2d", d),
                (face.centroid, "centroid", d + np.abs(want["centroid"]).max())]:
            assert np.abs(got - want[key]).max() <= FACE_RTOL * scale, key
        for key in ("measure", "diameter"):
            assert abs(getattr(face, key) - want[key]) <= FACE_RTOL * want[key], key
        areas = face.triangulation[1]
        assert np.all(areas > 0)
        assert abs(areas.sum() - face.measure) <= FACE_RTOL * face.measure

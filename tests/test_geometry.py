"""Geometry kernel: measures, centroids, frames, quadrature exactness."""

import numpy as np
import pytest

from mixedvem import geometry as geo
from mixedvem.errors import DegenerateGeometryError



def unit_cube_faces(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0)):
    """Outward-oriented face loops of an axis-aligned box."""
    l, h = np.asarray(lo, float), np.asarray(hi, float)
    v = np.array([[l[0], l[1], l[2]], [h[0], l[1], l[2]], [h[0], h[1], l[2]],
                  [l[0], h[1], l[2]], [l[0], l[1], h[2]], [h[0], l[1], h[2]],
                  [h[0], h[1], h[2]], [l[0], h[1], h[2]]])
    quads = [(0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
             (2, 3, 7, 6), (1, 2, 6, 5), (0, 4, 7, 3)]
    return [v[list(q)] for q in quads]


L_SHAPE = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0],
                    [1.0, 2.0], [0.0, 2.0]])


def l_shape_triangles():
    # independent oracle: explicit triangulation of the L-shape
    return [np.array([[0, 0], [2, 0], [2, 1]], float),
            np.array([[0, 0], [2, 1], [1, 1]], float),
            np.array([[0, 0], [1, 1], [1, 2]], float),
            np.array([[0, 0], [1, 2], [0, 2]], float)]


def test_cube_measure_and_centroid():
    cube = geo.PolyhedronGeometry(unit_cube_faces())
    assert cube.measure == pytest.approx(1.0, rel=1e-14)
    assert np.allclose(cube.centroid, [0.5, 0.5, 0.5], atol=1e-14)

    big = geo.PolyhedronGeometry(unit_cube_faces((-1, -1, -1), (1, 1, 1)))
    assert np.allclose(big.centroid, 0.0, atol=1e-14)
    assert big.diameter == pytest.approx(2 * np.sqrt(3.0), rel=1e-14)


def test_square_face_measure():
    square = geo.PolygonGeometry([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert square.measure == pytest.approx(1.0, rel=1e-14)


def test_segment_centroid():
    seg = geo.SegmentGeometry([0, 0, 0], [2, 0, 0])
    assert np.allclose(seg.centroid, [1, 0, 0])
    assert seg.diameter == pytest.approx(2.0)
    # its faces are its ends, a then b: unit measure, one point at -L/2 and
    # +L/2 (arc length from the midpoint) with weight 1, no face coordinates
    assert seg.n_faces == len(seg.faces) == 2
    for face, s, end in zip(seg.faces, (-1.0, 1.0), (seg.a, seg.b)):
        assert face.measure == face.diameter == 1.0
        pts, w = face.quadrature(6)
        assert np.array_equal(pts, [[s]]) and np.array_equal(w, [1.0])
        assert face.to_face_coords(pts).shape == (1, 0)
        assert face.lex_sign == s and np.array_equal(face.vertices[0], end)


def test_l_shape_measure_matches_triangulation_oracle():
    poly = geo.PolygonGeometry(L_SHAPE)
    oracle_area = sum(0.5 * abs((t[1] - t[0])[0] * (t[2] - t[0])[1] - (t[1] - t[0])[1] * (t[2] - t[0])[0])
                      for t in l_shape_triangles())
    assert oracle_area == pytest.approx(3.0)
    assert poly.measure == pytest.approx(oracle_area, rel=1e-14)

    # area-weighted centroid of the oracle triangulation
    num = np.zeros(2)
    for t in l_shape_triangles():
        u, v = t[1] - t[0], t[2] - t[0]
        num += 0.5 * abs(u[0] * v[1] - u[1] * v[0]) * t.mean(axis=0)
    assert np.allclose(poly.centroid, num / 3.0, atol=1e-14)


def test_degenerate_polygon_raises():
    with pytest.raises(DegenerateGeometryError):
        geo.PolygonGeometry([[0, 0], [1, 0], [2, 0]])


def test_quadrature_cube_monomials():
    cube = geo.PolyhedronGeometry(unit_cube_faces())
    pts, w = cube.quadrature(3)
    assert np.all(w > 0)
    assert w.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.sum(w * pts[:, 0] * pts[:, 1] * pts[:, 2]) == pytest.approx(1 / 8, rel=1e-12)


def test_quadrature_l_shape_against_triangle_oracle():
    poly = geo.PolygonGeometry(L_SHAPE)
    pts, w = poly.quadrature(2)
    got = np.sum(w * pts[:, 0] ** 2)
    oracle = 0.0
    for t in l_shape_triangles():
        tp, tw = geo.triangle_quadrature(t, 2)
        oracle += np.sum(tw * tp[:, 0] ** 2)
    assert got == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("order", [1, 2, 4, 7])
def test_quadrature_exactness_random_polytopes(order):
    # random convex polygons and perturbed hexahedra vs. simplex-sum oracle
    RNG = np.random.default_rng(20240817 + order)
    for _ in range(5):
        n = RNG.integers(4, 9)
        gaps = RNG.uniform(0.5, 1.0, n)
        ang = 2 * np.pi * np.cumsum(gaps) / gaps.sum()
        r = RNG.uniform(0.5, 1.5, n)
        coords = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        poly = geo.PolygonGeometry(coords)
        pts, w = poly.quadrature(order)
        assert np.all(w > 0)
        tris = poly.triangulation[0]
        for _ in range(3):
            px, py = RNG.integers(0, order + 1, 2)
            if px + py > order:
                continue
            got = np.sum(w * pts[:, 0] ** px * pts[:, 1] ** py)
            want = sum(np.sum(tw * tp[:, 0] ** px * tp[:, 1] ** py)
                       for tp, tw in (geo.triangle_quadrature(t, order) for t in tris))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_quadrature_perturbed_hexahedron():
    RNG = np.random.default_rng(7)
    loops = unit_cube_faces()
    verts = {tuple(v) for loop in loops for v in map(tuple, loop)}
    shift = {v: np.array(v) + RNG.uniform(-0.15, 0.15, 3) for v in verts}
    loops = [np.array([shift[tuple(v)] for v in loop]) for loop in loops]
    # faces may be warped by the perturbation; re-planarize by triangle split
    flat = []
    for loop in loops:
        flat.append(loop[[0, 1, 2]])
        flat.append(loop[[0, 2, 3]])
    cell = geo.PolyhedronGeometry(flat)
    pts, w = cell.quadrature(4)
    assert np.all(w > 0)
    assert w.sum() == pytest.approx(cell.measure, rel=1e-12)
    # oracle: tetrahedralize from a vertex instead of the centroid
    apex = flat[0][0]
    want = 0.0
    for tri in flat:
        tp, tw = geo.tet_quadrature(np.vstack([tri, apex]), 4)
        sgn = np.sign(np.dot(np.cross(tri[1] - tri[0], tri[2] - tri[0]), apex - tri[0]))
        want += -sgn * np.sum(tw * tp[:, 0] ** 2 * tp[:, 1])
    got = np.sum(w * pts[:, 0] ** 2 * pts[:, 1])
    assert got == pytest.approx(want, rel=1e-10)


def test_face_frames_of_cube():
    cube = geo.PolyhedronGeometry(unit_cube_faces())
    normals = np.array([f.normal for f in cube.faces])
    want = {(0, 0, -1), (0, 0, 1), (0, -1, 0), (0, 1, 0), (1, 0, 0), (-1, 0, 0)}
    got = {tuple(np.round(n).astype(int)) for n in normals}
    assert got == want
    for f in cube.faces:
        # outward: positive dot with centroid offset
        assert np.dot(f.normal, f.centroid - cube.centroid) > 0
        # the monomial frame is canonical: right-handed with the lex-positive normal
        t1, t2 = f.plane.t1, f.plane.t2
        lexpos = f.normal if tuple(f.normal) > tuple(-f.normal) else -f.normal
        assert np.allclose(np.cross(t1, t2), lexpos, atol=1e-14)


def test_oblique_tet_face_normal():
    tet = geo.PolyhedronGeometry([
        np.array([[0, 0, 0], [0, 1, 0], [1, 0, 0]], float),
        np.array([[0, 0, 0], [1, 0, 0], [0, 0, 1]], float),
        np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], float),
        np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]], float),
    ])
    n = tet.normals[3]
    oracle = np.cross(np.array([0, 1, 0]) - np.array([1, 0, 0]),
                      np.array([0, 0, 1]) - np.array([1, 0, 0]))
    oracle = oracle / np.linalg.norm(oracle)
    assert np.allclose(n, oracle, atol=1e-14)
    face_c = tet.faces[3].centroid
    assert np.dot(n, face_c - tet.centroid) > 0


def test_closed_surface_normal_sum():
    # divergence theorem on constants: sum of area-weighted normals vanishes
    for loops in (unit_cube_faces(), unit_cube_faces((-2, 0, 1), (0.5, 3, 4))):
        cell = geo.PolyhedronGeometry(loops)
        total = sum(f.measure * f.normal for f in cell.faces)
        area = sum(f.measure for f in cell.faces)
        assert np.linalg.norm(total) <= 1e-12 * area


def test_rigid_motion_invariance():
    coords = L_SHAPE
    poly = geo.PolygonGeometry(coords)
    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    moved = coords @ R.T + np.array([3.0, -1.0])
    poly2 = geo.PolygonGeometry(moved)
    assert poly2.measure == pytest.approx(poly.measure, rel=1e-12)
    assert np.allclose(poly2.centroid, R @ poly.centroid + np.array([3.0, -1.0]), atol=1e-12)
    assert poly2.diameter == pytest.approx(poly.diameter, rel=1e-12)


SLIVER_TET = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 3e-8]], float)
TET_FACES = [(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)]   # outward loops


def test_sliver_cone_raises_typed_error():
    # every centroid-cone tet of this sliver falls under the volume tolerance
    tet = geo.PolyhedronGeometry([SLIVER_TET[list(f)] for f in TET_FACES])
    assert tet.measure == pytest.approx(5e-9, rel=1e-12)
    with pytest.raises(DegenerateGeometryError, match="sliver"):
        tet.quadrature(2)
    with pytest.raises(DegenerateGeometryError, match="sliver"):
        tet.cone()


def test_quadrature_returns_fresh_arrays():
    cube = geo.PolyhedronGeometry(unit_cube_faces())
    square = geo.PolygonGeometry([[0, 0], [1, 0], [1, 1], [0, 1]])
    for cell in (cube, square, cube.faces[0]):
        pts, w = cell.quadrature(2)
        pts[:] = 0.0
        w[:] = -1.0
        pts2, w2 = cell.quadrature(2)
        assert np.all(w2 > 0)
        assert w2.sum() == pytest.approx(cell.measure, rel=1e-12)


@pytest.mark.parametrize("make", [
    lambda: geo.PolygonGeometry([[0, 0], [1.3, 0.1], [1.1, 1.2], [0.4, 1.5], [-0.2, 0.9]]),
    lambda: geo.PolyhedronGeometry(unit_cube_faces((0, 0, 0), (1.1, 0.9, 1.3))),
], ids=["pentagon", "box"])
def test_face_quadrature_matches_face_by_face_rules(make):
    poly = make()
    coords, pts, w, face_of = poly.face_quadrature(5)
    assert np.array_equal(np.unique(face_of), np.arange(poly.n_faces))
    assert np.all(np.diff(face_of) >= 0)    # face by face, in face order
    for i, face in enumerate(poly.faces):
        fpts, fw = face.quadrature(5)
        mine = face_of == i
        assert np.allclose(pts[mine], fpts, rtol=0, atol=1e-14)
        assert np.allclose(coords[mine], face.to_face_coords(fpts), rtol=0, atol=1e-14)
        assert np.allclose(w[mine], fw, rtol=1e-14, atol=0)


def test_lex_frame_ignores_newell_summation_order():
    # a loop on the plane with normal (0, 0.54, 0.84), coordinates up to 1.9
    # and area 0.10: the x entry of its unit Newell normal is roundoff, -1.7e-15
    # summed by np.add.reduceat and -2.2e-15 by ndarray.sum or Python's sum,
    # on both sides of 8 eps; its lex frame must not depend on that order
    loop = np.array([[1.8277850736864933, -0.7145133049336465, 1.6408932280259185],
                     [1.534917253031792, -0.6762139067810585, 1.6162721863563976],
                     [1.65311454551939, -1.0721291387278353, 1.8707891211793255],
                     [1.8519649500326865, -1.0106706046298872, 1.8312800635449304]])
    nxt = np.roll(loop, -1, axis=0)
    terms = (loop - nxt)[:, (1, 2, 0)] * (loop + nxt)[:, (2, 0, 1)]
    normals = [n / np.linalg.norm(n) for n in
               (np.add.reduceat(terms, [0])[0], terms.sum(axis=0), sum(terms))]
    assert len({abs(n[0]) > 8 * np.finfo(float).eps for n in normals}) == 2
    face = geo.build_faces([loop])[0]
    assert np.allclose(face.normal, [0.0, 0.54, 0.84], atol=0.01)
    noise = np.max(np.sum(loop ** 2, axis=1)) / face.measure
    assert {geo.lex_sign(n, noise) for n in normals} == {face.lex_sign}


def test_lex_frame_ignores_roundoff_entries():
    # a square on z = 0.75 with four collinear vertices on its edges (once
    # face 208 of the network-9400 4^3 mesh): its Newell normal is (0, 0, 1)
    # summed along the loop and (2.2e-16, 0, -1) along the reversed loop
    loop = np.array([[0.0, 0.0, 0.75],
                     [0.06521049539231791, 0.0, 0.75],
                     [0.1481527629488651, 0.0, 0.75],
                     [0.25, 0.0, 0.75],
                     [0.25, 0.23471738162909495, 0.75],
                     [0.25, 0.25, 0.75],
                     [0.0, 0.25, 0.75],
                     [0.0, 0.19521332276710507, 0.75]])
    ahead, back = geo.build_faces([loop, loop[::-1]])
    assert back.normal[0] != 0.0 and ahead.normal @ back.normal < 0
    assert ahead.lex_sign == -back.lex_sign
    for a, b in [(ahead.plane.normal, back.plane.normal),
                 (ahead.plane.t1, back.plane.t1), (ahead.plane.t2, back.plane.t2)]:
        assert np.abs(a - b).max() <= 1e-15


# A batch record matches the per-polygon construction to this share of its
# scale (measures to its square).
POLYGON_RTOL = 1e-14

# not star-shaped about its centroid (which lies in the notch): ear clipped
U_SHAPE = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [2.0, 3.0], [2.0, 1.0],
                    [1.0, 1.0], [1.0, 3.0], [0.0, 3.0]])


def _polygon_oracle(coords):
    """The per-polygon construction ``build_polygons`` replaced: shoelace
    area and centroid of the one loop, one record per edge with its own
    ``lex_sign`` call, the loop triangulated alone and the edge segments from
    the edge records.  Returns the values a record holds, by name."""
    coords = np.asarray(coords, dtype=float)
    area, centroid = geo.polygon_area_centroid_2d(coords)
    diameter = geo._diameters(coords, np.array([len(coords)]))[0]
    tris, areas, _, errors = geo._triangulate(geo._Loops([coords]), coords,
                                              np.array([area]), centroid[None], [None])
    assert errors == [None]
    ends = np.stack([coords, np.roll(coords, -1, axis=0)], axis=1)
    edges = []
    for a, b in ends:
        t = (b - a) / np.linalg.norm(b - a)
        sign = geo.lex_sign(t)
        edges.append((a, b, np.array([t[1], -t[0]]), t, sign, sign * t,
                      np.linalg.norm(b - a)))
    frame = np.array([e[5] for e in edges])
    rel = ends - 0.5 * (ends[:, :1] + ends[:, 1:])
    local = np.einsum("ekd,ed->ek", rel, frame)[:, :, None]
    return {"measure": area, "centroid": centroid, "diameter": diameter,
            "coords": coords, "normals": np.array([e[2] for e in edges]),
            "triangles": tris, "triangle areas": areas, "edges": edges,
            "face simplices": (local, ends, np.array([e[6] for e in edges]),
                               np.arange(len(coords)))}


def _assert_matches_oracle(poly, want):
    # positions and lengths to POLYGON_RTOL of the loop's reach, areas to
    # that times its diameter, unit vectors to POLYGON_RTOL
    reach = max(want["diameter"], np.abs(want["coords"]).max())
    area_tol, tol = POLYGON_RTOL * reach * want["diameter"], POLYGON_RTOL * reach
    got = [("measure", poly.measure, area_tol), ("centroid", poly.centroid, tol),
           ("diameter", poly.diameter, tol), ("coords", poly.coords, 0.0),
           ("normals", poly.normals, POLYGON_RTOL),
           ("triangles", poly.triangulation[0], tol),
           ("triangle areas", poly.triangulation[1], area_tol)]
    for name, value, bound in got:
        assert np.shape(value) == np.shape(want[name]), name
        assert np.abs(value - want[name]).max() <= bound, name
    assert len(poly.faces) == len(want["edges"]) == poly.n_faces
    for face, (a, b, normal, t, sign, frame, length) in zip(poly.faces, want["edges"]):
        assert face.lex_sign == sign
        for value, ref, bound in [(face.a, a, 0.0), (face.b, b, 0.0),
                                  (face.normal, normal, POLYGON_RTOL),
                                  (face.tangent, t, POLYGON_RTOL),
                                  (face.frame_tangent, frame, POLYGON_RTOL),
                                  (face.measure, length, tol)]:
            assert np.abs(value - ref).max() <= bound
    for value, ref in zip(poly.face_simplices(), want["face simplices"]):
        assert value.shape == ref.shape
        assert np.abs(value - ref).max() <= tol


def _network_polygon_loops():
    from mixedvem.mesh import box_mesh, cut_background_mesh
    from tests.test_mesh import _perfbench_network
    md = cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (4, 4, 4)),
                             _perfbench_network(9400))
    return [[cell.geometry.coords.copy() for cell in fm.cells] for fm in md.fractures]


def _standalone_quads():
    from mixedvem.standalone import unit_square_mesh
    return [[cell.coords.copy() for cell in unit_square_mesh(4, distort=0.3, seed=3)]]


@pytest.mark.parametrize("make", [
    _network_polygon_loops,
    _standalone_quads,
    lambda: [[U_SHAPE, L_SHAPE, 0.5 * U_SHAPE @ np.array([[0.8, 0.6], [-0.6, 0.8]]) + 1.0]],
], ids=["fracture-net-9400", "standalone-quads", "ear-clipped"])
def test_polygon_batch_matches_per_polygon_oracle(make):
    batches = make()
    for loops in batches:
        polys = geo.build_polygons(loops)
        assert len(polys) == len(loops)
        for poly, loop in zip(polys, loops):
            _assert_matches_oracle(poly, _polygon_oracle(loop))


def test_ear_clipped_polygon_is_in_its_batch():
    # the U's centroid lies in its notch: its centroid fan would fold over,
    # so its triangles come from ear clipping, and still tile it
    poly, square = geo.build_polygons([U_SHAPE, [[0, 0], [1, 0], [1, 1], [0, 1]]])
    _, centroid = geo.polygon_area_centroid_2d(U_SHAPE)
    assert 1 < centroid[0] < 2 and 1 < centroid[1] < 3     # in the notch
    tris, areas = poly.triangulation
    assert len(tris) == len(U_SHAPE) - 2 and np.all(areas > 0)
    assert not np.any(np.isclose(tris, centroid).all(axis=-1))
    assert areas.sum() == pytest.approx(poly.measure, rel=1e-14) and poly.measure == 7.0
    assert len(square.triangulation[0]) == 4                # the centroid fan


def test_degenerate_polygon_spoils_only_its_own_record():
    good = [L_SHAPE, [[0, 0], [1, 0], [1, 1], [0, 1]]]
    flat = [[0, 0], [1, 0], [2, 0]]
    records = geo.build_polygons([good[0], flat, good[1]])
    assert isinstance(records[1], DegenerateGeometryError)
    assert "area" in str(records[1])
    for poly, loop in zip(records[::2], good):
        _assert_matches_oracle(poly, _polygon_oracle(loop))
        alone = geo.PolygonGeometry(loop)
        assert poly.measure == alone.measure
        assert np.array_equal(poly.triangulation[0], alone.triangulation[0])
    with pytest.raises(DegenerateGeometryError, match="area"):
        geo.PolygonGeometry(flat)
    with pytest.raises(DegenerateGeometryError, match="zero-length polygon edge"):
        geo.PolygonGeometry([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]])

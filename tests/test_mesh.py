"""Mesh cutting, lower-dimensional extraction, domain graph, conformity."""

import copy
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from mixedvem import mesh as msh
from mixedvem.assembly import assemble_complete
from mixedvem.errors import (ConformityError, DegenerateGeometryError,
                             TopologyError)
from mixedvem.mesh import (BoundaryCondition, FractureSpec, NetworkSpec,
                           box_mesh, build_domain_graph, cut_background_mesh,
                           cut_with_fracture, extract_lower_meshes,
                           read_mesh, validate_conformity, write_mesh)
from tests.test_geometry import SLIVER_TET, TET_FACES

DIR = BoundaryCondition("dirichlet", 0.0)


def square_fracture(axis, offset, lo=-1.0, hi=1.0, **kw):
    """Full axis-plane square fracture (axis = plane normal direction)."""
    pts = []
    for u, v in [(lo, lo), (hi, lo), (hi, hi), (lo, hi)]:
        p = [0.0, 0.0, 0.0]
        p[axis] = offset
        p[(axis + 1) % 3] = u
        p[(axis + 2) % 3] = v
        pts.append(p)
    return FractureSpec(np.array(pts), **kw)


def problem1_spec(**kw):
    return NetworkSpec(fractures=[square_fracture(2, 0.0, **kw),
                                  square_fracture(1, 0.0, **kw),
                                  square_fracture(0, 0.0, **kw)])


def test_box_mesh_basics():
    mesh = box_mesh([0, 0, 0], [1, 1, 1], (2, 2, 2))
    assert len(mesh.cells) == 8
    assert mesh.total_volume() == pytest.approx(1.0, rel=1e-13)
    tags = set(mesh.boundary_tags.values())
    assert tags == {"xmin", "xmax", "ymin", "ymax", "zmin", "zmax"}
    for cid in mesh.cells:
        geom = mesh.cell_geometry(cid)
        assert geom.measure == pytest.approx(1 / 8, rel=1e-13)


def test_single_cube_half_split():
    mesh = box_mesh([-1, -1, -1], [1, 1, 1], (1, 1, 1))
    frac = square_fracture(2, 0.0)
    cut_with_fracture(mesh, frac, 0)
    assert len(mesh.cells) == 2
    assert mesh.total_volume() == pytest.approx(8.0, rel=1e-12)
    marked = [f for f in mesh.faces if mesh.face_fracture.get(f) == 0]
    assert len(marked) == 1
    inc = mesh.face_cells()
    assert len(inc[marked[0]]) == 2


def test_cut_prolongation_two_fractures():
    # one full fracture and one ending inside the cube: 4 sub-cells with
    # prolonged-cut hanging faces, fracture geometry unaltered
    mesh = box_mesh([-1, -1, -1], [1, 1, 1], (1, 1, 1))
    full = square_fracture(2, 0.0)
    partial = FractureSpec(np.array([
        [0.0, -1.0, -1.0], [0.0, 1.0, -1.0], [0.0, 1.0, 0.5], [0.0, -1.0, 0.5]]))
    spec = NetworkSpec(fractures=[full, partial])
    md = cut_background_mesh(mesh, spec)
    assert len(mesh.cells) == 4
    assert mesh.total_volume() == pytest.approx(8.0, rel=1e-12)
    # fracture areas preserved exactly
    assert md.fractures[0].area() == pytest.approx(4.0, rel=1e-12)
    assert md.fractures[1].area() == pytest.approx(3.0, rel=1e-12)
    # the prolonged (non-physical) part of the x=0 cut exists as plain faces
    on_plane_unmarked = 0
    for fid, vids in mesh.faces.items():
        coords = mesh.face_coords(fid)
        if np.max(np.abs(coords[:, 0])) < 1e-12 and mesh.face_fracture.get(fid) is None:
            on_plane_unmarked += 1
    assert on_plane_unmarked >= 1
    assert validate_conformity(md) == []


def test_problem1_eight_cube_coplanar_detection():
    mesh = box_mesh([-1, -1, -1], [1, 1, 1], (2, 2, 2))
    md = cut_background_mesh(mesh, problem1_spec())
    # fractures lie on existing faces: cells stay uncut
    assert len(mesh.cells) == 8
    for fm in md.fractures:
        assert len(fm.cells) == 4
        assert fm.area() == pytest.approx(4.0, rel=1e-12)
    assert len(md.traces) == 3
    for tm in md.traces:
        assert tm.length == pytest.approx(2.0, rel=1e-12)
        assert len(tm.cells) == 2
    assert len(md.intersections) == 1
    assert np.allclose(md.intersections[0].coords, 0.0, atol=1e-12)
    assert validate_conformity(md) == []


def test_problem1_domain_graph():
    mesh = box_mesh([-1, -1, -1], [1, 1, 1], (2, 2, 2))
    md = cut_background_mesh(mesh, problem1_spec())
    g = md.graph
    assert g.n_fractures == 3 and g.n_traces == 3 and g.n_intersections == 1
    # each fracture carries exactly two traces
    for l in range(3):
        assert len(g.traces_of_fracture[l]) == 2
    assert g.traces_of_intersection[0] == [0, 1, 2]
    # all trace sides are two-sided inside each fracture
    for tm in md.traces:
        for cell in tm.cells:
            for l, sides in cell.sides.items():
                assert len(sides) == 2
    # 6 sides at the intersection: 2 per trace
    assert len(md.intersections[0].sides) == 6


def test_no_fractures():
    mesh = box_mesh([0, 0, 0], [1, 1, 1], (2, 2, 2))
    md = cut_background_mesh(mesh, NetworkSpec(fractures=[]))
    assert md.fractures == [] and md.traces == [] and md.intersections == []


def test_two_parallel_fractures_no_trace():
    mesh = box_mesh([0, 0, 0], [1, 1, 1], (2, 2, 2))
    spec = NetworkSpec(fractures=[
        square_fracture(2, 0.25, lo=0.0, hi=1.0),
        square_fracture(2, 0.75, lo=0.0, hi=1.0)])
    md = cut_background_mesh(mesh, spec)
    assert len(md.fractures) == 2 and len(md.traces) == 0
    assert validate_conformity(md) == []
    assert md.mesh3d.total_volume() == pytest.approx(1.0, rel=1e-12)


def test_oblique_fracture_cut():
    mesh = box_mesh([0, 0, 0], [1, 1, 1], (2, 2, 2))
    tilt = FractureSpec(np.array([
        [0.1, 0.1, 0.2], [0.9, 0.1, 0.45], [0.9, 0.9, 0.75], [0.1, 0.9, 0.5]]))
    md = cut_background_mesh(mesh, NetworkSpec(fractures=[tilt]))
    assert md.mesh3d.total_volume() == pytest.approx(1.0, rel=1e-10)
    report = validate_conformity(md)
    assert report == []


def test_partial_coplanar_face_split():
    # fracture on an existing face plane but covering only part of it
    mesh = box_mesh([0, 0, 0], [2, 1, 1], (2, 1, 1))
    frac = FractureSpec(np.array([
        [0.5, 0.0, 0.0], [1.5, 0.0, 0.0], [1.5, 1.0, 0.0], [0.5, 1.0, 0.0]]) +
        np.array([0.0, 0.0, 0.0]))
    # shift fracture onto the interior plane x=1 instead
    frac = FractureSpec(np.array([
        [1.0, 0.2, 0.2], [1.0, 0.8, 0.2], [1.0, 0.8, 0.8], [1.0, 0.2, 0.8]]))
    md = cut_background_mesh(mesh, NetworkSpec(fractures=[frac]))
    assert md.fractures[0].area() == pytest.approx(0.36, rel=1e-12)
    assert md.mesh3d.total_volume() == pytest.approx(2.0, rel=1e-12)
    assert validate_conformity(md) == []


def test_cutting_idempotent():
    mesh = box_mesh([-1, -1, -1], [1, 1, 1], (2, 2, 2))
    spec = NetworkSpec(fractures=[square_fracture(2, 0.0)])
    cut_background_mesh(mesh, spec)
    n_cells = len(mesh.cells)
    n_faces = len(mesh.faces)
    cut_with_fracture(mesh, spec.fractures[0], 0)
    assert len(mesh.cells) == n_cells
    assert len(mesh.faces) == n_faces


def test_deleted_fracture_face_detected():
    mesh = box_mesh([-1, -1, -1], [1, 1, 1], (2, 2, 2))
    md = cut_background_mesh(mesh, NetworkSpec(fractures=[square_fracture(2, 0.0)]))
    cell = md.fractures[0].cells[0]
    md.mesh3d.face_fracture.pop(cell.face_id)
    md.fractures[0].cells.remove(cell)
    report = validate_conformity(md)
    assert any("area" in line for line in report)


def test_mesh_file_roundtrip(tmp_path):
    mesh = box_mesh([0, 0, 0], [1, 2, 3], (2, 1, 2))
    path = tmp_path / "box.mesh"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert len(back.cells) == len(mesh.cells)
    assert len(back.faces) == len(mesh.faces)
    assert back.total_volume() == pytest.approx(mesh.total_volume(), rel=1e-12)
    assert sorted(back.boundary_tags.values()) == sorted(mesh.boundary_tags.values())


def random_network(rng, n_frac):
    """Random contained rectangles (fractures must fit inside the domain)."""
    fractures = []
    for _ in range(n_frac):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        t1 = np.cross(n, [1.0, 0.3, 0.7])
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(n, t1)
        a, b = rng.uniform(0.12, 0.33, 2)
        r = float(np.hypot(a, b))
        pad = r + 0.02
        c = rng.uniform(pad, 1 - pad, 3)
        pts = [c + a * t1 + b * t2, c - a * t1 + b * t2,
               c - a * t1 - b * t2, c + a * t1 - b * t2]
        fractures.append(FractureSpec(np.array(pts)))
    return NetworkSpec(fractures=fractures)


@pytest.mark.parametrize("seed", range(10))
def test_random_networks_conserve(seed):
    rng = np.random.default_rng(1000 + seed)
    mesh = box_mesh([0, 0, 0], [1, 1, 1], (4, 4, 4))
    spec = random_network(rng, int(rng.integers(1, 6)))
    md = cut_background_mesh(mesh, spec)
    assert md.mesh3d.total_volume() == pytest.approx(1.0, rel=1e-10)
    for l, fm in enumerate(md.fractures):
        area = msh.polygon_area_centroid_2d(spec.fractures[l].polygon2d)[0]
        assert fm.area() == pytest.approx(area, rel=1e-10)
    assert validate_conformity(md) == []


def test_perturbed_vertices_reported():
    mesh = box_mesh([-1, -1, -1], [1, 1, 1], (2, 2, 2))
    md = cut_background_mesh(mesh, problem1_spec())
    assert validate_conformity(md) == []
    # push one interior vertex well beyond the geometric tolerance
    rng = np.random.default_rng(9)
    vid = mesh.find_vertex([0.0, 0.0, 1.0])
    mesh.snap_vertex(vid, np.array([3e-4, -2e-4, 1.0 + 4e-4]))
    report = validate_conformity(md)
    assert report != []


def single_tet_mesh(tet):
    mesh = msh.PolyMesh3D()
    for p in tet:
        mesh.add_vertex(p)
    fids = [mesh.add_face(f) for f in TET_FACES]
    for fid in fids:
        mesh.boundary_tags[fid] = "wall"
    mesh.add_cell([(fid, 1) for fid in fids])
    return mesh


def test_sliver_cell_reported_and_typed():
    md = cut_background_mesh(single_tet_mesh(SLIVER_TET), NetworkSpec(fractures=[]))
    report = validate_conformity(md)
    assert len(report) == 1 and "sliver" in report[0]
    with pytest.raises(DegenerateGeometryError, match="sliver"):
        assemble_complete(md, order=0)


def test_cell_geometry_rebuilt_after_snap():
    tet = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
    mesh = single_tet_mesh(tet)
    geom = mesh.cell_geometry(0)
    assert mesh.cell_geometry(0) is geom
    mesh.snap_vertex(3, np.array([0.0, 0.0, 2.0]))
    moved = mesh.cell_geometry(0)
    assert moved is not geom
    assert geom.measure == pytest.approx(1 / 6, rel=1e-14)
    assert moved.measure == pytest.approx(1 / 3, rel=1e-14)


def _fresh_cell_geometry(mesh, cid):
    loops = [mesh.face_coords(fid)[::s] for fid, s in mesh.cells[cid]]
    return msh.PolyhedronGeometry(loops)


@pytest.mark.parametrize("fracture", [
    square_fracture(2, 1e-9),   # snaps the z = 0 vertices, splits no cell
    # splits the middle cells; their neighbours gain hanging vertices
    FractureSpec(np.array([[-0.3, -0.3, -0.15], [0.3, -0.3, 0.15],
                           [0.3, 0.3, 0.25], [-0.3, 0.3, -0.05]])),
])
def test_cell_geometry_follows_cut(fracture):
    mesh = box_mesh([-1, -1, -1], [1, 1, 1], (3, 3, 3))
    assert mesh.total_volume() == pytest.approx(8.0, rel=1e-13)   # fills the cache
    cut_with_fracture(mesh, fracture, 0)
    assert mesh.total_volume() == pytest.approx(mesh.background_volume, rel=1e-12)
    for cid in mesh.cells:
        cached, fresh = mesh.cell_geometry(cid), _fresh_cell_geometry(mesh, cid)
        assert cached.measure == fresh.measure
        assert np.array_equal(cached.centroid, fresh.centroid)
        assert len(cached.face_loops) == len(fresh.face_loops)
        for a, b in zip(cached.face_loops, fresh.face_loops):
            assert np.array_equal(a, b)


def test_one_geometry_per_cell_through_assembly(monkeypatch):
    built = []
    init = msh.PolyhedronGeometry.__init__

    def counting_init(self, face_loops):
        built.append(self)
        init(self, face_loops)

    monkeypatch.setattr(msh.PolyhedronGeometry, "__init__", counting_init)
    mesh = box_mesh([-1, -1, -1], [1, 1, 1], (3, 3, 3))
    spec = NetworkSpec(fractures=[square_fracture(0, 0.1, lo=-0.8, hi=0.8)])
    md = cut_background_mesh(mesh, spec)
    assert validate_conformity(md) == []
    system = assemble_complete(md, order=1)
    assert len(built) == len(mesh.cells) > 27
    assert system.dofmap.block(3).geoms == [mesh.cell_geometry(c)
                                            for c in sorted(mesh.cells)]


def _perfbench_network(seed):
    """The seeded fracture network of the benchmark's fracture-net workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                         path)
    workloads = importlib.util.module_from_spec(module_spec)
    sys.modules[module_spec.name] = workloads   # its dataclasses look it up
    module_spec.loader.exec_module(workloads)
    return workloads.random_network(np.random.default_rng(seed))


def _acceptance_network(seed):
    rng = np.random.default_rng(seed)
    return random_network(rng, int(rng.integers(1, 6)))


# the cut networks whose cells once lost the most cone volume to dropped
# tetrahedra: 3.4e-4 and 2.1e-4 of a cell's volume
LOSSY_NETWORKS = [lambda: _acceptance_network(43012),
                  lambda: _perfbench_network(181)]


@pytest.mark.parametrize("network", LOSSY_NETWORKS,
                         ids=["acceptance-43012", "fracture-net-181"])
def test_cone_keeps_every_cell_volume(network):
    md = cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (4, 4, 4)),
                             network())
    for cid in md.mesh3d.cells:
        geom = md.mesh3d.cell_geometry(cid)
        _, vols = geom.cone()
        assert vols.sum() == pytest.approx(geom.measure, rel=1e-10), cid


def _face_loop_normal(mesh, fid):
    return msh.fit_plane(mesh.face_coords(fid)).normal


@pytest.mark.parametrize("make", [
    lambda: cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (3, 3, 3)),
                                NetworkSpec(fractures=[])),
    lambda: cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (4, 4, 4)),
                                _acceptance_network(43012)),
], ids=["box", "cut-network"])
def test_cached_face_normals_keep_signs_and_sides(make):
    # oracle: the normal fitted afresh to each face's own vertex loop
    md = make()
    mesh = md.mesh3d
    dm = assemble_complete(md, order=0).dofmap
    for fid, owners in mesh.face_cells().items():
        if len(owners) != 2 or mesh.face_fracture.get(fid) is not None:
            continue
        n = _face_loop_normal(mesh, fid)
        canon = 1 if tuple(n) > tuple(-n) else -1
        for cid, s in owners:
            assert dm.face_signs[(fid, cid)] == s * canon
    for fm in md.fractures:
        for cell in fm.cells:
            owners = dict(mesh.face_cells()[cell.face_id])
            n = _face_loop_normal(mesh, cell.face_id)
            assert owners[cell.cell_plus] * n @ fm.plane.normal > 0
            assert owners[cell.cell_minus] * n @ fm.plane.normal < 0
    cid = sorted(mesh.cells)[0]
    stranger = next(f for f in mesh.faces
                    if f not in dict(mesh.cells[cid]))
    with pytest.raises(KeyError):
        mesh.face_outward_normal(stranger, cid)


# -- the batched hanging-vertex search against the scalar search it replaced --

def _scalar_insert_hanging_vertices(mesh, new_vids, eps):
    """Oracle: one face, one edge and one new vertex at a time."""
    pts = {v: mesh.verts[v] for v in new_vids}
    if not pts:
        return
    for fid in list(mesh.faces):
        loop = mesh.faces[fid]
        coords = mesh.face_coords(fid)
        lo, hi = coords.min(axis=0) - eps, coords.max(axis=0) + eps
        cands = [v for v, p in pts.items()
                 if v not in loop and np.all(p >= lo) and np.all(p <= hi)]
        if not cands:
            continue
        out = []
        n = len(loop)
        for i in range(n):
            a, b = loop[i], loop[(i + 1) % n]
            out.append(a)
            pa, pb = mesh.verts[a], mesh.verts[b]
            d = pb - pa
            L = np.linalg.norm(d)
            if L <= eps:
                continue
            dn = d / L
            hits = []
            for v in cands:
                t = (pts[v] - pa) @ dn
                if t <= eps or t >= L - eps:
                    continue
                if np.linalg.norm(pts[v] - (pa + t * dn)) <= eps:
                    hits.append((t, v))
            out.extend(v for _, v in sorted(hits))
        if len(out) > n:
            mesh.faces[fid] = tuple(out)


def _assert_same_mesh(a, b):
    assert a.faces == b.faces
    assert a.cells == b.cells
    assert a.face_fracture == b.face_fracture
    assert a.boundary_tags == b.boundary_tags
    assert np.array_equal(np.asarray(a.verts), np.asarray(b.verts))


@pytest.mark.parametrize("network", [
    lambda: _perfbench_network(9400),
    lambda: _perfbench_network(181),
    lambda: _acceptance_network(43012),
    lambda: _acceptance_network(42007),
], ids=["fracture-net-9400", "fracture-net-181", "acceptance-43012",
        "acceptance-42007"])
def test_hanging_vertex_search_matches_scalar_oracle(network, monkeypatch):
    spec = network()
    batched = cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (4, 4, 4)),
                                  spec).mesh3d
    monkeypatch.setattr(msh, "_insert_hanging_vertices",
                        _scalar_insert_hanging_vertices)
    scalar = cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (4, 4, 4)),
                                 spec).mesh3d
    _assert_same_mesh(batched, scalar)
    # the networks do leave hanging vertices: some face has more than 4
    assert max(len(loop) for loop in batched.faces.values()) > 4


def test_hanging_vertex_search_hand_built():
    eps = 1e-3
    mesh = box_mesh([0, 0, 0], [1, 1, 1], (1, 1, 1))
    first = len(mesh.verts)
    off_edges = mesh.add_vertex([0.5, 0.5, 0.0])     # zmin's box, no edge
    near_end = mesh.add_vertex([5e-4, 0.0, 0.0])     # t <= eps: not inserted
    far = mesh.add_vertex([0.7, 0.0, 0.0])           # two on one edge, added
    near = mesh.add_vertex([0.3, 0.0, 0.0])          # against t order
    beside = mesh.add_vertex([1.0, 0.5, 5e-4])       # eps/2 off an edge
    oracle = copy.deepcopy(mesh)
    msh._insert_hanging_vertices(mesh, range(first, len(mesh.verts)), eps)
    _scalar_insert_hanging_vertices(oracle, range(first, len(oracle.verts)), eps)
    _assert_same_mesh(mesh, oracle)

    def users(v):
        return [loop for loop in mesh.faces.values() if v in loop]
    assert users(off_edges) == [] and users(near_end) == []
    assert len(users(beside)) == 2
    origin = mesh.find_vertex([0, 0, 0])
    x_end = mesh.find_vertex([1, 0, 0])
    loops = users(near)
    assert len(loops) == 2 and loops == users(far)
    for loop in loops:
        i = loop.index(near)
        j = loop.index(far)
        if loop[i - 1] == origin:        # edge runs from x = 0 to x = 1
            assert j == (i + 1) % len(loop)
        else:
            assert loop[j - 1] == x_end and i == (j + 1) % len(loop)


def test_trace_shared_by_three_fractures_rejected():
    # three rectangles through the line x = y = 0.5 (normals x, y and x + y)
    # would give three coincident traces; that is out of scope
    def rect(t1):
        c, t1, t2 = np.full(3, 0.5), np.asarray(t1, float), np.array([0, 0, 1.0])
        a = 0.3
        return FractureSpec(np.array([c + a * t1 + a * t2, c - a * t1 + a * t2,
                                      c - a * t1 - a * t2, c + a * t1 - a * t2]))
    s = np.sqrt(0.5)
    spec = NetworkSpec(fractures=[rect([0, 1, 0]), rect([1, 0, 0]),
                                  rect([s, -s, 0])])
    with pytest.raises(TopologyError, match="more than two fractures"):
        cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (3, 3, 3)), spec)
    # any two of them share one ordinary trace
    md = cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (3, 3, 3)),
                             NetworkSpec(fractures=spec.fractures[:2]))
    assert len(md.traces) == 1 and validate_conformity(md) == []


@pytest.mark.parametrize("network, sizes", [
    (lambda: _perfbench_network(9400), (139, 604, 435, 105)),
    (lambda: _perfbench_network(181), (130, 574, 427, 95)),
    (lambda: _acceptance_network(43012), (148, 632, 426, 111)),
    (lambda: _acceptance_network(42007), (136, 596, 441, 94)),
], ids=["fracture-net-9400", "fracture-net-181", "acceptance-43012",
        "acceptance-42007"])
def test_cut_splits_each_crossed_cell_once(network, sizes, monkeypatch):
    # each crossed cell's cross-section is probed once and split by the
    # fracture polygon once; the pieces are reused when the cell is cut, and
    # the coplanar pass does not split them again (no grid face lies in the
    # plane of these oblique fractures, so it splits nothing)
    calls = {"probe": 0, "split": 0, "coplanar": 0}
    cross_section, split = msh._cross_section, msh.split_by_convex_polygon

    def probing(*args):
        calls["probe"] += 1
        return cross_section(*args)

    def splitting(*args):
        caller = sys._getframe(1).f_code.co_name
        if caller == "cut_with_fracture":
            calls["split"] += 1
        elif caller == "_split_and_mark_coplanar":
            calls["coplanar"] += 1
        return split(*args)

    monkeypatch.setattr(msh, "_cross_section", probing)
    monkeypatch.setattr(msh, "split_by_convex_polygon", splitting)
    mesh = cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (4, 4, 4)),
                               network()).mesh3d
    assert calls["split"] == calls["probe"] > 0
    assert calls["coplanar"] == 0
    # (cells, faces, vertices, fracture faces) of the cut mesh
    n_fracture = sum(1 for mark in mesh.face_fracture.values() if mark is not None)
    assert (len(mesh.cells), len(mesh.faces), len(mesh.verts), n_fracture) == sizes

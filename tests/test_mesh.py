"""Mesh cutting, lower-dimensional extraction and its incidence, conformity."""

import copy
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from mixedvem import geometry as geo
from mixedvem import mesh as msh
from mixedvem.assembly import assemble_complete
from mixedvem.errors import (ConfigError, ConformityError,
                             DegenerateGeometryError, TopologyError)
from mixedvem.mesh import (BoundaryCondition, FractureSpec, NetworkSpec,
                           box_mesh, cut_background_mesh,
                           cut_with_fracture, extract_lower_meshes,
                           read_mesh, validate_conformity, write_mesh)
from mixedvem.problems import poisson3d_case, problem1_case, problem2_case
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
    assert len(md.fractures) == 3 and len(md.traces) == 3
    assert len(md.intersections) == 1
    # each fracture carries exactly two traces
    for l in range(3):
        assert sum(l in tm.fractures for tm in md.traces) == 2
    assert sorted(set(md.intersections[0].traces)) == [0, 1, 2]
    # all trace cells are two-sided inside each fracture
    for tm in md.traces:
        for cell in tm.cells:
            key = tuple(sorted((cell.vid_a, cell.vid_b)))
            for l in tm.fractures:
                assert len(md.fractures[l].edge_cells[key]) == 2
    # 6 sides at the intersection: 2 per trace
    assert len(md.intersections[0].traces) == 6


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


def _partial_coplanar_mesh():
    # a fracture on the interior face plane x = 1, covering part of the face
    mesh = box_mesh([0, 0, 0], [2, 1, 1], (2, 1, 1))
    frac = FractureSpec(np.array([
        [1.0, 0.2, 0.2], [1.0, 0.8, 0.2], [1.0, 0.8, 0.8], [1.0, 0.2, 0.8]]))
    return cut_background_mesh(mesh, NetworkSpec(fractures=[frac]))


def test_partial_coplanar_face_split():
    md = _partial_coplanar_mesh()
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


def _record_arrays(face):
    plane = face.plane
    return (face.coords, face.normal, face.lex_sign, plane.normal, plane.offset,
            plane.origin, plane.t1, plane.t2, face.coords2d, face.measure,
            face.centroid, face.diameter, *face.triangulation, face.triangles)


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
    for fid in mesh.faces:
        cached = mesh.face_geometry([fid])[0]
        fresh = geo.build_faces([mesh.face_coords(fid)])[0]
        for a, b in zip(_record_arrays(cached), _record_arrays(fresh)):
            assert np.array_equal(a, b), fid


def test_one_geometry_per_cell_through_assembly(monkeypatch):
    built = []
    init = msh.PolyhedronGeometry.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(msh.PolyhedronGeometry, "__init__", counting_init)
    mesh = box_mesh([-1, -1, -1], [1, 1, 1], (3, 3, 3))
    spec = NetworkSpec(fractures=[square_fracture(0, 0.1, lo=-0.8, hi=0.8)])
    md = cut_background_mesh(mesh, spec)
    assert validate_conformity(md) == []
    system = assemble_complete(md, order=1)
    assert len(built) == len(mesh.cells) > 27
    assert system.dofmap.block(3).geoms == [mesh.cell_geometry(c)
                                            for c in sorted(mesh.cells)]


@pytest.mark.parametrize("build", [
    lambda: poisson3d_case(3, 0).md,
    lambda: cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (3, 3, 3)),
                                _perfbench_network(9400)),
], ids=["poisson-box", "network-9400"])
def test_one_face_record_per_face_through_assembly(monkeypatch, build):
    built, batches = [], []
    init = geo.FaceGeometry.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    def counting_build_faces(loops):
        batches.append(len(loops))
        return geo.build_faces(loops)

    monkeypatch.setattr(geo.FaceGeometry, "__init__", counting_init)
    monkeypatch.setattr(msh, "build_faces", counting_build_faces)
    md = build()
    mesh = md.mesh3d
    assert validate_conformity(md) == []
    assemble_complete(md, order=1)
    assert len(built) == len(mesh.faces)
    # every record comes from one batch over the whole mesh
    assert batches == [len(mesh.faces)]
    interior = 0
    for fid, owners in mesh.face_cells().items():
        record = mesh.face_geometry([fid])[0]
        for cid, _ in owners:
            lf = [f for f, _ in mesh.cells[cid]].index(fid)
            assert mesh.cell_geometry(cid).faces[lf] is record
        interior += len(owners) == 2
    assert interior > 0 and len(built) == len(mesh.faces)   # no lookup rebuilt one


@pytest.mark.parametrize("build", [
    lambda: poisson3d_case(3, 0).md,
    lambda: cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (3, 3, 3)),
                                _perfbench_network(9400)),
], ids=["poisson-box", "network-9400"])
def test_one_cell_batch_per_mesh_through_assembly(monkeypatch, build):
    built, batches = [], []
    init = geo.PolyhedronGeometry.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    def counting_build_cells(cells):
        batches.append(len(cells))
        return geo.build_cells(cells)

    monkeypatch.setattr(geo.PolyhedronGeometry, "__init__", counting_init)
    monkeypatch.setattr(msh, "build_cells", counting_build_cells)
    md = build()
    mesh = md.mesh3d
    assert validate_conformity(md) == []
    system = assemble_complete(md, order=1)
    # every cell's record comes from one batch over the whole mesh
    assert batches == [len(mesh.cells)] and len(built) == len(mesh.cells)
    assert system.dofmap.block(3).geoms == [mesh.cell_geometry(c)
                                            for c in sorted(mesh.cells)]
    assert len(built) == len(mesh.cells)   # no lookup rebuilt one


def _cell_arrays(geom):
    return (geom.measure, geom.centroid, geom.diameter, geom.face_signs,
            geom.normals, *geom.face_loops, *geom.face_simplices(), *geom.cone())


def test_one_cell_batch_matches_the_mesh_batch():
    md = cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (3, 3, 3)),
                             _perfbench_network(9400))
    mesh = md.mesh3d
    for cid, ofs in mesh.cells.items():
        faces = list(zip(mesh.face_geometry([fid for fid, _ in ofs]),
                         (s for _, s in ofs)))
        alone = geo.build_cells([faces])[0]
        constructed = geo.PolyhedronGeometry(None, faces)
        for geom in (alone, constructed):
            assert geom.faces == mesh.cell_geometry(cid).faces
            for a, b in zip(_cell_arrays(geom), _cell_arrays(mesh.cell_geometry(cid)),
                            strict=True):
                assert np.array_equal(a, b), cid


def test_sliver_cell_fails_only_itself_in_a_mesh_batch(monkeypatch):
    tet = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
    mesh = msh.PolyMesh3D()
    for shift, verts in enumerate([tet, SLIVER_TET, tet]):
        base = len(mesh.verts)
        for p in verts:
            mesh.add_vertex(p + [2.0 * shift, 0, 0])
        mesh.add_cell([(mesh.add_face([base + v for v in f]), 1) for f in TET_FACES])
    for fid in mesh.faces:
        mesh.boundary_tags[fid] = "wall"
    batches = []

    def counting_build_cells(cells):
        batches.append(len(cells))
        return geo.build_cells(cells)

    monkeypatch.setattr(msh, "build_cells", counting_build_cells)
    md = cut_background_mesh(mesh, NetworkSpec(fractures=[]))
    report = validate_conformity(md)
    assert batches == [3]
    assert len(report) == 1 and report[0].startswith("cell 1:") and "sliver" in report[0]
    with pytest.raises(DegenerateGeometryError, match="sliver"):
        mesh.cell_geometry(1).cone()
    for cid in (0, 2):
        _, vols = mesh.cell_geometry(cid).cone()
        assert vols.sum() == pytest.approx(1 / 6, rel=1e-14)


def test_fracture_plane_takes_its_face_records_lex_frame():
    # a pentagon far from the origin on a plane through the x direction: the
    # x entry of its Newell normal is roundoff (-5e-15), above 8 eps but not
    # above the roundoff of the Newell sum, so it must not pick the frame
    th, ph = 1.0, 0.9
    e1, e2 = np.array([1.0, 0, 0]), np.array([0, np.cos(th), -np.sin(th)])
    t1, t2 = np.cos(ph) * e1 + np.sin(ph) * e2, -np.sin(ph) * e1 + np.cos(ph) * e2
    a = 2 * np.pi * np.arange(5) / 5
    verts = -20.0 + 0.5 * (np.outer(np.cos(a), t1) + np.outer(np.sin(a), t2))
    frac = FractureSpec(verts)
    face = geo.build_faces([frac.vertices])[0]
    assert 0 < -face.normal[0] < 1e-14
    assert np.allclose(frac.plane.normal, face.lex_sign * face.normal, rtol=0, atol=1e-15)


def test_degenerate_face_is_reported_for_its_owners_only():
    # one interior face folded onto itself (zero area) spoils the geometry
    # of its two owner cells and of no other, though its record is built in
    # the same batch as every other face of the mesh
    mesh = box_mesh([0, 0, 0], [1, 1, 1], (3, 3, 3))
    inc = mesh.face_cells()
    fid = next(f for f, owners in sorted(inc.items()) if len(owners) == 2)
    a, b, c, _ = mesh.faces[fid]
    mesh.faces[fid] = (a, b, c, b)
    md = cut_background_mesh(mesh, NetworkSpec(fractures=[]))
    report = validate_conformity(md)
    assert {int(line.split(":")[0].split()[1]) for line in report} == \
        {cid for cid, _ in inc[fid]}
    assert any("zero area" in line for line in report)
    with pytest.raises(DegenerateGeometryError, match="zero area"):
        mesh.face_geometry([fid])
    assert mesh.face_geometry([fid + 1])[0].measure == pytest.approx(1 / 9)


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
    blk = assemble_complete(md, order=0).dofmap.block(3)
    for fid, owners in mesh.face_cells().items():
        if len(owners) != 2 or mesh.face_fracture.get(fid) is not None:
            continue
        n = _face_loop_normal(mesh, fid)
        # lex-positive, with entries at roundoff of the unit normal ignored
        canon = 1 if n[np.abs(n) > 8 * np.finfo(float).eps][0] > 0 else -1
        for cid, s in owners:
            lf = [f for f, _ in mesh.cells[cid]].index(fid)   # RT0: one DOF per face
            assert blk.cell_u_signs[blk.cell_index_of[cid]][lf] == s * canon
    for fm in md.fractures:
        for cell in fm.cells:
            owners = dict(mesh.face_cells()[cell.face_id])
            n = _face_loop_normal(mesh, cell.face_id)
            assert owners[cell.cell_plus] * n @ fm.plane.normal > 0
            assert owners[cell.cell_minus] * n @ fm.plane.normal < 0


# -- hanging vertices: the cut's edge rule against a scalar geometric search --

def _scalar_insert_hanging_vertices(mesh, new_vids, eps):
    """Oracle: one face, one edge and one new vertex at a time."""
    pts = {v: mesh.verts[v] for v in new_vids}
    if not pts:
        return
    vids, coords_of = list(pts), np.array(list(pts.values()))
    for fid in list(mesh.faces):
        loop = mesh.faces[fid]
        coords = mesh.face_coords(fid)
        lo, hi = coords.min(axis=0) - eps, coords.max(axis=0) + eps
        boxed = np.all((coords_of >= lo) & (coords_of <= hi), axis=1)
        cands = [v for v, inside in zip(vids, boxed) if inside and v not in loop]
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


def _cut_box(network, n=4):
    return cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (n, n, n)), network())


@pytest.mark.parametrize("make", [
    lambda: _cut_box(lambda: _perfbench_network(9400)),
    lambda: _cut_box(lambda: _perfbench_network(181)),
    lambda: _cut_box(lambda: _acceptance_network(43012)),
    lambda: _cut_box(lambda: _acceptance_network(42007)),
    lambda: problem1_case(artificial_cuts=3).md,
    _partial_coplanar_mesh,
], ids=["fracture-net-9400", "fracture-net-181", "acceptance-43012",
        "acceptance-42007", "problem1-cuts-3", "partial-coplanar"])
def test_hanging_vertex_search_matches_scalar_oracle(make):
    # the cut inserts each new vertex by the edge it splits; a geometric
    # search of every used vertex against every face edge finds no vertex
    # that a loop lacks
    mesh = make().mesh3d
    used = {v for loop in mesh.faces.values() for v in loop}
    oracle = copy.deepcopy(mesh)
    _scalar_insert_hanging_vertices(oracle, sorted(used),
                                    geo.EPS_GEO_FACTOR * mesh.domain_diameter())
    _assert_same_mesh(mesh, oracle)
    # the cuts do leave hanging vertices: some face has more than 4
    assert max(len(loop) for loop in mesh.faces.values()) > 4


def test_hanging_vertex_search_hand_built():
    eps = 1e-3
    mesh = box_mesh([0, 0, 0], [1, 1, 1], (1, 1, 1))
    origin, x_end = mesh.find_vertex([0, 0, 0]), mesh.find_vertex([1, 0, 0])
    corner = mesh.find_vertex([1, 1, 0])
    zmin = next(loop for fid, loop in mesh.faces.items()
                if mesh.boundary_tags.get(fid) == "zmin")
    first = len(mesh.verts)
    off_edges = mesh.add_vertex([0.5, 0.5, 0.0])     # in zmin, on no edge
    near_end = mesh.add_vertex([5e-4, 0.0, 0.0])     # t <= eps: not recorded
    far = mesh.add_vertex([0.7, 0.0, 0.0])           # two on one edge, added
    near = mesh.add_vertex([0.3, 0.0, 0.0])          # against t order
    beside = mesh.add_vertex([1.0, 0.5, 5e-4])       # eps/2 off an edge
    oracle = copy.deepcopy(mesh)
    on_edge = {}
    # one-vertex pieces: their only edges have zero length
    msh._record_on_edges(mesh, zmin, [[v] for v in range(first, len(mesh.verts))],
                         eps, on_edge)
    assert on_edge == {(origin, x_end): {far, near}, (x_end, corner): {beside}}
    msh._insert_on_edges(mesh, on_edge)
    _scalar_insert_hanging_vertices(oracle, range(first, len(oracle.verts)), eps)
    _assert_same_mesh(mesh, oracle)

    def users(v):
        return [loop for loop in mesh.faces.values() if v in loop]
    assert users(off_edges) == [] and users(near_end) == []
    assert len(users(beside)) == 2
    # both faces that share the edge get both vertices, in order along it
    loops = users(near)
    assert len(loops) == 2 and loops == users(far)
    for loop in loops:
        n, i = len(loop), loop.index(origin)
        ahead = [loop[(i + k) % n] for k in (1, 2, 3)]
        behind = [loop[(i - k) % n] for k in (1, 2, 3)]
        assert [near, far, x_end] in (ahead, behind)


def test_cut_pieces_meet_at_polygon_corners():
    # Sutherland-Hodgman pieces meet in T-junctions: a polygon corner inside
    # a cell is a vertex of the fracture face and of the outside piece
    # clipped last, and lies inside an edge of the piece clipped before it
    # (network rng 1005, every corner of its three fractures)
    spec = _acceptance_network(1005)
    md = _cut_box(lambda: spec)
    mesh = md.mesh3d
    for l, frac in enumerate(spec.fractures):
        for corner in frac.vertices:
            vid = mesh.find_vertex(corner)
            users = [fid for fid, loop in mesh.faces.items() if vid in loop]
            assert sorted(mesh.face_fracture.get(f, -1) for f in users) == [-1, -1, l]
            straight = []
            for fid in users:
                loop = mesh.faces[fid]
                i = loop.index(vid)
                a, b = (mesh.verts[loop[(i + k) % len(loop)]] - corner for k in (-1, 1))
                straight.append(np.linalg.norm(np.cross(a, b)) < 1e-12)
            assert sum(straight) == 1
    assert validate_conformity(md) == []


# -- external boundary: the cut's face loops against a geometric point test --

def _on_boundary_face(mesh, eps):
    """Oracle: whether a point lies within ``eps`` of a boundary face's plane
    and inside its polygon."""
    bfaces = mesh.face_geometry([fid for fid, owners in mesh.face_cells().items()
                                 if len(owners) == 1])

    def inside(x):
        for face in bfaces:
            if abs(face.plane.signed_distance(x[None, :])[0]) > eps:
                continue
            p, poly = face.plane.to_2d(x[None, :])[0], face.coords2d
            d = np.roll(poly, -1, axis=0) - poly
            cross = (p[0] - poly[:, 0]) * d[:, 1] - (p[1] - poly[:, 1]) * d[:, 0]
            if np.all(cross <= eps * np.maximum(np.linalg.norm(d, axis=1), 1)):
                return True
        return False
    return inside


def _spanning_fractures():
    # two oblique planes across the unit box, each polygon the plane's
    # section of the box: every polygon edge and both trace ends lie on the
    # boundary
    return NetworkSpec(fractures=[
        FractureSpec(np.array([[0.5, 0, 0], [0.5, 1, 0], [0.2, 1, 1], [0.2, 0, 1]])),
        FractureSpec(np.array([[0, 0.55, 0], [1, 0.35, 0], [1, 0.35, 1],
                               [0, 0.55, 1]]))])


def _barrier_network():
    from mixedvem.config import load_config
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" /
                      "barrier_network.yaml")
    return cut_background_mesh(cfg.build_mesh(), cfg.spec)


@pytest.mark.parametrize("make", [
    *(lambda k=k: problem1_case(artificial_cuts=k).md for k in range(4)),
    lambda: problem2_case().md,
    _barrier_network,
    lambda: _cut_box(_spanning_fractures, n=3),
], ids=["problem1-cuts-0", "problem1-cuts-1", "problem1-cuts-2",
        "problem1-cuts-3", "problem2", "barrier-network", "spanning"])
def test_boundary_classes_match_geometric_oracle(make):
    # a fracture edge or trace end is external when it is in a boundary
    # face loop; the oracle tests its points against the boundary faces'
    # planes and polygons
    md = make()
    mesh = md.mesh3d
    on_boundary = _on_boundary_face(mesh, geo.EPS_GEO_FACTOR * mesh.domain_diameter())
    kinds = []
    for fm in md.fractures:
        for key, (kind, *_) in fm.edge_class.items():
            if kind in ("external", "tip"):
                a, b = (mesh.verts[v] for v in key)
                want = all(on_boundary(x) for x in (a, b, 0.5 * (a + b)))
                assert (kind == "external") == want, (fm.index, key)
                kinds.append(kind)
    for tm in md.traces:
        for vid, kind in tm.endpoint_class.items():
            if kind != "intersection":
                assert (kind == "external") == on_boundary(mesh.verts[vid])
                kinds.append(kind)
    assert "external" in kinds


MESH_FILE = """# unit cube; the origin is listed twice (ids 0 and 1)
vertices 9
0 0 0 0
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
5 0 0 1
6 1 0 1
7 1 1 1
8 0 1 1
faces 6
0 4 1 4 3 2
1 4 5 6 7 8
2 4 0 5 8 4
3 4 2 3 7 6
4 4 0 2 6 5
5 4 4 8 7 3
cells 1
0 6 1 2 3 4 5 6
boundary 2
0 zmin
1 zmax
"""


def test_mesh_file_merges_coincident_vertices(tmp_path):
    path = tmp_path / "cube.mesh"
    path.write_text(MESH_FILE)
    mesh = read_mesh(path)
    assert len(mesh.verts) == 8
    assert mesh.total_volume() == pytest.approx(1.0, rel=1e-14)
    assert sorted(mesh.boundary_tags.values()) == ["zmax", "zmin"]


def _replace(old, new):
    return lambda text: text.replace(old, new)


def _first_lines(n):
    return lambda text: "\n".join(text.splitlines()[:n]) + "\n"


@pytest.mark.parametrize("edit, line, match", [
    (_replace("5 4 4 8 7 3", "5 4 4 8 7 9"), 18, "unknown id 9"),
    (_replace("0 6 1 2 3 4 5 6", "0 6 1 2 3 4 5 -7"), 20, "unknown id 6"),
    (_replace("1 zmax", "6 zmax"), 23, "unknown id 6"),
    (_replace("5 4 4 8 7 3", "5 4 4 8 7"), 18, "3 vertex ids where the row counts 4"),
    (_replace("8 0 1 1\n", ""), 11, "not enough values to unpack"),
    (_first_lines(17), 17, "'faces' section ends after 5 of 6 rows"),
    (_first_lines(19), 19, "'cells' section ends after 0 of 1 rows"),
    (_replace("vertices 9", "vertex 9"), 2, "expected a 'vertices' section header"),
], ids=["vertex-id", "face-id", "boundary-face-id", "short-row",
        "vertex-section-short", "faces-truncated", "cells-truncated", "header"])
def test_malformed_mesh_file_names_the_line(tmp_path, edit, line, match):
    text = edit(MESH_FILE)
    assert text != MESH_FILE
    path = tmp_path / "bad.mesh"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"line {line}: .*{match}"):
        read_mesh(path)


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
    (lambda: _perfbench_network(9400), (139, 604, 359, 105, 266)),
    (lambda: _perfbench_network(181), (130, 574, 347, 95, 245)),
    (lambda: _acceptance_network(43012), (148, 632, 369, 111, 276)),
    # 248 fracture edges when the cut vertices of probed cells that the
    # polygon misses went into faces that no cut uses
    (lambda: _acceptance_network(42007), (136, 596, 356, 94, 244)),
], ids=["fracture-net-9400", "fracture-net-181", "acceptance-43012",
        "acceptance-42007"])
def test_cut_splits_each_crossed_cell_once(network, sizes, monkeypatch):
    # each crossed cell's cross-section is probed once and split by the
    # fracture polygon at most once: not when the two bounding boxes are
    # apart, which leaves the cut mesh as it was.  The pieces are reused when
    # the cell is cut, and the coplanar pass splits nothing (no grid face
    # lies in the plane of these oblique fractures).  A probe adds no vertex,
    # so every vertex of the cut mesh is in some face loop.
    calls = {"probe": 0, "split": 0}
    cross_section, split = msh._cross_section, msh._split_in_plane

    def probing(*args):
        calls["probe"] += 1
        return cross_section(*args)

    def splitting(*args):
        # a cross-section's split, or a coplanar face's
        calls["split"] += 1
        return split(*args)

    monkeypatch.setattr(msh, "_cross_section", probing)
    monkeypatch.setattr(msh, "_split_in_plane", splitting)
    md = _cut_box(network)
    mesh = md.mesh3d
    assert 0 < calls["split"] < calls["probe"]
    # (cells, faces, vertices, fracture faces, fracture edges) of the cut mesh
    n_fracture = sum(1 for mark in mesh.face_fracture.values() if mark is not None)
    n_edges = sum(len(fm.edge_cells) for fm in md.fractures)
    assert (len(mesh.cells), len(mesh.faces), len(mesh.verts), n_fracture,
            n_edges) == sizes


def _rebuilt_face_cells(mesh):
    """Oracle: the face-to-cell map rebuilt from every cell."""
    inc = {fid: [] for fid in mesh.faces}
    for cid, ofs in mesh.cells.items():
        for fid, s in ofs:
            inc[fid].append((cid, s))
    return inc


def _read_mesh_cut(tmp_path):
    # a cut mesh written and read back (new face and cell ids), cut again
    md = _cut_box(lambda: _acceptance_network(42007))
    write_mesh(md.mesh3d, tmp_path / "cut.mesh")
    return cut_background_mesh(read_mesh(tmp_path / "cut.mesh"),
                               _perfbench_network(9400))


@pytest.mark.parametrize("make", [
    lambda tmp_path: _cut_box(lambda: _perfbench_network(9400)),
    lambda tmp_path: _cut_box(lambda: _perfbench_network(181)),
    lambda tmp_path: _cut_box(lambda: _acceptance_network(43012)),
    lambda tmp_path: _cut_box(lambda: _acceptance_network(42007)),
    lambda tmp_path: problem1_case(artificial_cuts=2).md,
    lambda tmp_path: _partial_coplanar_mesh(),
    _read_mesh_cut,
], ids=["fracture-net-9400", "fracture-net-181", "acceptance-43012",
        "acceptance-42007", "problem1-cuts-2", "partial-coplanar", "read-mesh"])
def test_each_cut_keeps_the_face_map_and_uses_every_vertex(make, tmp_path,
                                                            monkeypatch):
    # after every cut the mesh's own face-to-cell map equals one rebuilt
    # from every cell, and every vertex is in some face loop
    cut, cuts = msh.cut_with_fracture, []

    def checked(mesh, *args, **kwargs):
        cut(mesh, *args, **kwargs)
        assert mesh.face_cells() == _rebuilt_face_cells(mesh)
        assert {v for loop in mesh.faces.values() for v in loop} == \
            set(range(len(mesh.verts)))
        cuts.append(len(mesh.cells))

    monkeypatch.setattr(msh, "cut_with_fracture", checked)
    make(tmp_path)
    assert cuts

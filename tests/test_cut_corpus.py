"""A fixed corpus of adversarial cuts: fractures within a few eps of grid
planes, through or next to a grid vertex, along a grid edge, two fractures
almost coplanar or coplanar and overlapping, a fracture in the domain
boundary, and a cell with no face across the cutting plane.

Each case on the 4^3 unit box (and one bipyramid cell) must give a conforming
mesh, with every vertex in some face loop, whose solve conserves mass at
every entity; or a typed error.  Never a wrong answer.
"""

import numpy as np
import pytest

from mixedvem.errors import (ConfigError, ConformityError,
                             DegenerateGeometryError, TopologyError)
from mixedvem.geometry import EPS_GEO_FACTOR
from mixedvem.mesh import (BOX_TAGS, BoundaryCondition, FractureSpec,
                           NetworkSpec, PolyMesh3D, box_mesh,
                           cut_background_mesh, validate_conformity)
from mixedvem.problems import BenchmarkCase
from mixedvem.solver import flux_report

H = 0.25                  # grid step of the 4^3 unit box
MISMATCH_TOL = 1e-10
TYPED_ERRORS = (ConfigError, ConformityError, DegenerateGeometryError,
                TopologyError)
CENTER = np.full(3, 0.5)  # a grid vertex
OBLIQUE = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)


def rectangle(center, normal, half=0.3):
    """A square fracture of half side ``half`` about ``center``."""
    normal = np.asarray(normal, float) / np.linalg.norm(normal)
    t1 = np.cross(normal, [0.3, 0.7, 1.1])
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(normal, t1)
    c = np.asarray(center, float)
    return FractureSpec(np.array([c + half * (s1 * t1 + s2 * t2)
                                  for s1, s2 in ((1, 1), (-1, 1), (-1, -1), (1, -1))]))


def z_square(lo, hi, z=0.5):
    """The axis-aligned square [lo, hi]^2 in the plane at height ``z``."""
    return FractureSpec(np.array([[lo, lo, z], [hi, lo, z], [hi, hi, z], [lo, hi, z]]))


def box_network(*fractures):
    """The fractures in the 4^3 unit box, pressure 0 on xmin and 1 on xmax."""
    bc3 = {tag: BoundaryCondition("neumann") for tag in BOX_TAGS}
    bc3["xmin"] = BoundaryCondition("dirichlet", 0.0)
    bc3["xmax"] = BoundaryCondition("dirichlet", 1.0)
    return cut_background_mesh(box_mesh([0, 0, 0], [1, 1, 1], (4, 4, 4)),
                               NetworkSpec(fractures=list(fractures), bc3=bc3))


def bipyramid_cut():
    """One octahedron cell cut through its equator: no face of the cell has
    vertices on both sides of the plane."""
    mesh = PolyMesh3D(merge_tol=EPS_GEO_FACTOR * 2.0)
    equator = [mesh.add_vertex(p) for p in
               ([1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0])]
    top, bottom = mesh.add_vertex([0, 0, 1]), mesh.add_vertex([0, 0, -1])
    faces = []
    for a, b in zip(equator, equator[1:] + equator[:1]):
        faces.append((mesh.add_face([a, b, top]), 1))      # loop normal outward
        faces.append((mesh.add_face([b, a, bottom]), 1))
        mesh.boundary_tags[faces[-2][0]] = "top"
        mesh.boundary_tags[faces[-1][0]] = "bottom"
    mesh.add_cell(faces)
    bc3 = {"top": BoundaryCondition("dirichlet", 1.0),
           "bottom": BoundaryCondition("dirichlet", 0.0)}
    frac = rectangle([0, 0, 0], [0, 0, 1], half=0.3)
    return cut_background_mesh(mesh, NetworkSpec(fractures=[frac], bc3=bc3))


def offset(distance, normal=(0, 0, 1)):
    return CENTER + distance * np.asarray(normal, float)


# case -> (mesh builder, "solves" or the name of the typed error it raises)
CORPUS = {
    "plane-1e-12-off-a-grid-plane": (
        lambda: box_network(rectangle(offset(1e-12), [0, 0, 1])), "solves"),
    "plane-1e-8-off-a-grid-plane": (
        lambda: box_network(rectangle(offset(1e-8), [0, 0, 1])),
        "DegenerateGeometryError"),
    "plane-1e-6h-off-a-grid-plane": (
        lambda: box_network(rectangle(offset(1e-6 * H), [0, 0, 1])),
        "DegenerateGeometryError"),
    "plane-1e-4h-from-a-grid-vertex": (
        lambda: box_network(rectangle(offset(1e-4 * H, OBLIQUE), OBLIQUE)),
        "solves"),
    "plane-through-a-grid-vertex": (
        lambda: box_network(rectangle(CENTER, OBLIQUE)), "solves"),
    "plane-along-a-grid-edge": (
        lambda: box_network(rectangle(CENTER, [1, 1, 0])), "solves"),
    "two-fractures-1e-7-off-coplanar": (
        lambda: box_network(rectangle(CENTER, OBLIQUE),
                            rectangle(offset(1e-7, OBLIQUE) + 0.1 * np.array([1, -1, 0]),
                                      OBLIQUE)),
        "DegenerateGeometryError"),
    # the second finds a face of the first wholly inside it
    "two-coplanar-overlapping-fractures": (
        lambda: box_network(rectangle(CENTER, [0, 0, 1]),
                            rectangle(CENTER + np.array([0.1, 0.05, 0]), [0, 0, 1])),
        "ConformityError"),
    # each piece of the first that the second overlaps is only partly inside it
    "two-coplanar-fractures-overlapping-partly": (
        lambda: box_network(z_square(0.1, 0.45), z_square(0.3, 0.7)),
        "ConformityError"),
    # boundary faces are not fracture faces: the fracture would vanish
    "fracture-in-a-domain-boundary-plane": (
        lambda: box_network(rectangle([0.5, 0.5, 0.0], [0, 0, 1])),
        "ConformityError"),
    "bipyramid-cut-through-its-equator": (bipyramid_cut, "solves"),
}


def outcome(build):
    """'solves' for a conforming cut mesh whose solve conserves mass, or the
    name of the typed error that building or solving it raises."""
    try:
        md = build()
        report = validate_conformity(md)
        sol = BenchmarkCase(md=md, exact={}, order=1, family3d="RT").solve()
    except TYPED_ERRORS as exc:
        return type(exc).__name__
    mesh = md.mesh3d
    assert report == []
    used = {v for loop in mesh.faces.values() for v in loop}
    assert used == set(range(len(mesh.verts)))
    assert flux_report(sol).max_relative_mismatch() <= MISMATCH_TOL
    return "solves"


@pytest.mark.parametrize("case", CORPUS)
def test_adversarial_cut_solves_or_raises_a_typed_error(case):
    build, expected = CORPUS[case]
    assert outcome(build) == expected

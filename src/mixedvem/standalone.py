"""Standalone single-dimension meshes for the 1D/2D patch tests.

A 1D segment chain lies on the x axis and a 2D polygon mesh in the z = 0
plane, so their data callbacks take physical (3,) points like every other
callback.  ``single_domain_block`` numbers the faces and builds one
``DomainBlock`` through ``assembly.fill_block``, the routine that numbers
every 1D/2D/3D block of the mixed-dimensional pipeline (interior faces share
one flux DOF set), with Dirichlet pressure data on each external face;
``solve_single_domain`` then runs it through the pipeline's
``assembly.assemble``, ``assembly.apply_boundary_conditions`` and
``solver.solve``.  Errors come from ``solver.error_norms``.
"""

from __future__ import annotations

import numpy as np
from numpy.random import default_rng

from .assembly import (DomainBlock, GlobalDofMap, apply_boundary_conditions, assemble,
                       fill_block)
from .elements import ElementSpace
from .errors import ConfigError, DegenerateGeometryError
from .geometry import Plane, SegmentGeometry, build_polygons
from .mesh import BoundaryCondition
from .solver import DiscreteSolution, solve

X_AXIS = np.array([1.0, 0.0, 0.0])
XY_PLANE = Plane(np.array([0.0, 0.0, 1.0]), 0.0, np.zeros(3), X_AXIS,
                 np.array([0.0, 1.0, 0.0]))


def _round_key(p, tol):
    return tuple(int(np.floor(c / tol + 0.5)) for c in p)


def _faces(geom, tol):
    """(rounded key, sign of the cell's outward normal against the
    canonical one) of each face of a 1D or 2D cell."""
    return [(tuple(sorted(_round_key(v, tol) for v in face.vertices)), face.lex_sign)
            for face in geom.faces]


def single_domain_block(geoms, space: ElementSpace, nu=1.0, source=0.0,
                        dirichlet=None) -> DomainBlock:
    """Number the DOFs of a 1D or 2D mesh and build its local matrices.

    ``geoms`` is a list of SegmentGeometry on the x axis (1D) or of
    PolygonGeometry in the z = 0 plane frame (2D).  Faces are matched by
    rounded coordinates and numbered in order of first use by
    ``assembly.fill_block``; there are no interfaces, so a face used by two
    cells carries one DOF set and one used by a single cell is external and
    listed in ``boundary`` with the Dirichlet pressure datum ``dirichlet``
    (zero if None).
    """
    d = space.dim
    if d == 3:
        raise ConfigError("use the mixed-dimensional pipeline for 3D domains")
    tol = 1e-8 * max(g.diameter for g in geoms)
    blk = DomainBlock(dim=d, index=0, nu=nu, source=source)
    if d == 1:
        blk.place_on_line(X_AXIS)
    else:
        blk.place_on_plane(XY_PLANE)

    faces = [_faces(geom, tol) for geom in geoms]
    users = {}
    for ci, cell_faces in enumerate(faces):
        for lf, (key, sign) in enumerate(cell_faces):
            users.setdefault(key, []).append((ci, lf, sign))
    fill_block(blk, space, geoms, users, set())
    bc = BoundaryCondition("dirichlet", 0.0 if dirichlet is None else dirichlet)
    blk.boundary = [(ci, lf, key, bc) for ci, cell_faces in enumerate(faces)
                    for lf, (key, _) in enumerate(cell_faces) if len(users[key]) == 1]
    return blk


def solve_single_domain(geoms, space: ElementSpace, nu=1.0, source=0.0,
                        dirichlet=None) -> DiscreteSolution:
    """Solve the mixed problem on a standalone mesh of one dimension.

    Every external face gets the Dirichlet pressure datum ``dirichlet``
    (zero if None).  The solution's only domain has the key (dim, 0).
    """
    blk = single_domain_block(geoms, space, nu=nu, source=source, dirichlet=dirichlet)
    dm = GlobalDofMap(blocks={(blk.dim, 0): blk}, total=blk.n_dof,
                      order=space.order, family3d="RT", trace_flow=True)
    return solve(apply_boundary_conditions(assemble(dm)))


def interval_mesh(a, b, n):
    """n-segment mesh of [a, b] on the x axis, as a SegmentGeometry list."""
    xs = np.linspace(a, b, n + 1)
    return [SegmentGeometry(xs[i] * X_AXIS, xs[i + 1] * X_AXIS) for i in range(n)]


def unit_square_mesh(n, distort=0.0, seed=0):
    """n x n polygon mesh of the unit square in the z = 0 plane frame,
    optionally with jittered interior nodes."""
    xs = np.linspace(0.0, 1.0, n + 1)
    rng = default_rng(seed)
    nodes = {}
    for i in range(n + 1):
        for j in range(n + 1):
            p = np.array([xs[i], xs[j]])
            if distort and 0 < i < n and 0 < j < n:
                p = p + rng.uniform(-distort, distort, 2) / n
            nodes[i, j] = p
    cells = build_polygons([np.array([nodes[i, j], nodes[i + 1, j],
                                      nodes[i + 1, j + 1], nodes[i, j + 1]])
                            for i in range(n) for j in range(n)])
    for cell in cells:
        if isinstance(cell, DegenerateGeometryError):
            raise cell
    return cells

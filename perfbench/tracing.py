"""Span tracing of the solver layers for the benchmark's traced run.

The traced run patches the public functions of each ``mixedvem`` module at
every place a caller looks them up and records one span per call: name,
start, end and parent span.  Data callbacks (boundary data, sources, exact
fields) are counted and their time summed, with no span per call.  Spans stay
in memory; the per-layer metrics are derived from them when the run ends.

Some per-layer metrics are computed from the solved system rather than
timed (``COMPUTED``); they are counts that repeat exactly between runs.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse.linalg as spla

from harness import mesh_sizes
from mixedvem import assembly, geometry, mesh, problems, solver
from mixedvem.mesh import BoundaryCondition

# span name -> every (owner, attribute) through which callers reach it
SPANNED = {
    "problems.case": [(problems, "poisson3d_case"), (problems, "problem1_case")],
    "mesh.box": [(mesh, "box_mesh"), (problems, "box_mesh")],
    "mesh.cut": [(mesh, "cut_background_mesh"), (problems, "cut_background_mesh")],
    "mesh.cut_with_fracture": [(mesh, "cut_with_fracture")],
    "mesh.validate": [(mesh, "validate_conformity")],
    "assembly.assemble": [(assembly, "assemble_complete")],
    "assembly.dofmap": [(assembly, "build_dof_map")],
    "elements.local": [(assembly, "local_matrices"),
                       (assembly, "local_matrices_1d")],
    "assembly.scatter": [(assembly, "assemble_dimension"),
                         (assembly, "assemble_coupling_same_dim"),
                         (assembly, "assemble_coupling_cross_dim")],
    "assembly.rhs": [(assembly, "assemble_rhs")],
    "assembly.bc": [(assembly, "apply_boundary_conditions")],
    "solver.solve": [(solver, "solve")],
    "solver.flux_report": [(solver, "flux_report")],
    "solver.error_norms": [(solver, "error_norms")],
    "solver.export": [(solver, "write_fields_vtk")],
}
QUADRATURE_CLASSES = (geometry.PolyhedronGeometry, geometry.PolygonGeometry,
                      geometry.SegmentGeometry)

# the spans whose top-level calls make up the time to solution
SOLUTION_SPANS = {"problems.case", "mesh.box", "mesh.cut",
                  "mesh.cut_with_fracture", "mesh.validate",
                  "assembly.assemble", "assembly.bc", "solver.solve",
                  "solver.flux_report"}

# timed metric -> (span names, "total" or "self")
TIMED = {
    "mesh.cut_s": ({"mesh.cut", "mesh.cut_with_fracture"}, "total"),
    "mesh.validate_s": ({"mesh.validate"}, "total"),
    "geometry.quadrature_s": ({"geometry.quadrature"}, "total"),
    "elements.local_s": ({"elements.local"}, "total"),
    "assembly.assemble_s": ({"assembly.assemble"}, "total"),
    "assembly.dofmap_s": ({"assembly.dofmap"}, "self"),
    "assembly.scatter_s": ({"assembly.scatter"}, "total"),
    "assembly.rhs_s": ({"assembly.rhs"}, "total"),
    "assembly.bc_s": ({"assembly.bc"}, "total"),
    "solver.solve_s": ({"solver.solve"}, "total"),
    "solver.flux_report_s": ({"solver.flux_report"}, "total"),
    "solver.error_norms_s": ({"solver.error_norms"}, "total"),
    "solver.export_s": ({"solver.export"}, "total"),
}
COMPUTED = {"mesh.distinct_shape_share", "elements.local_bytes",
            "elements.stiffness_bytes", "solver.lu_fill", "solver.fill_ratio"}


def distinct_shapes(md, blk3):
    """Distinct centroid-relative, diameter-scaled face loops among 3D cells."""
    keys = set()
    for cid, geom in zip(blk3.cell_ids, blk3.geoms):
        loops = []
        for fid, sign in md.mesh3d.cells[cid]:
            xyz = md.mesh3d.face_coords(fid)
            xyz = xyz if sign > 0 else xyz[::-1]
            rel = np.round((xyz - geom.centroid) / geom.diameter, 8) + 0.0
            loops.append(rel.tobytes())
        keys.add(tuple(loops))
    return len(keys)


def local_bytes(dofmap):
    """(all arrays, stiffness K only) held by the element matrix sets."""
    total = stiffness = 0
    for blk in dofmap.blocks.values():
        for loc in blk.locals_:
            if loc is None:
                continue
            for value in vars(loc).values():
                items = value if isinstance(value, list) else [value]
                total += sum(a.nbytes for a in items if isinstance(a, np.ndarray))
            stiffness += loc.K.nbytes
    return total, stiffness


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self._stack = []
        self._patched = []
        self.callback_calls = 0
        self.callback_s = 0.0
        self.quadrature_calls = 0
        self.quadrature_points = 0
        self._quadrature_keys = set()
        self._quadrature_geoms = []   # keeps ids unique while counted
        self.counts = dict.fromkeys(
            ["mesh.cells_3d", "mesh.cells_2d", "mesh.cells_1d", "mesh.traces",
             "mesh.points_0d", "mesh.distinct_shapes", "elements.local_bytes",
             "elements.stiffness_bytes", "assembly.constrained_dofs",
             "assembly.dofs", "assembly.nnz", "solver.lu_fill"], 0)
        self.rel_residual = 0.0

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def _quadrature(self, fn):
        spanned = self._span("geometry.quadrature", fn)

        def quadrature(geom, order):
            key = (id(geom), order)
            if key not in self._quadrature_keys:
                self._quadrature_keys.add(key)
                self._quadrature_geoms.append(geom)
            pts, wts = spanned(geom, order)
            self.quadrature_calls += 1
            self.quadrature_points += len(wts)
            return pts, wts
        return quadrature

    def _counted(self, fn):
        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.callback_s += time.perf_counter() - t0
                self.callback_calls += 1
        counted.perfbench_counted = True
        return counted

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper(getattr(owner, attr)))

    @contextmanager
    def installed(self):
        for name, places in SPANNED.items():
            for owner, attr in places:
                self._patch(owner, attr, lambda fn, name=name: self._span(name, fn))
        for cls in QUADRATURE_CLASSES:
            self._patch(cls, "quadrature", self._quadrature)
        self._patch(BoundaryCondition, "datum", self._counted)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patched):
                setattr(owner, attr, original)
            self._patched.clear()

    # -- harness hooks -----------------------------------------------------

    def built(self, case):
        """Count the case's source and exact-field callbacks."""
        spec = case.md.spec
        holders = [(spec, "source3")]
        holders += [(f, "source") for f in spec.fractures]
        holders += [(t, "source") for t in
                    [spec.trace_defaults, *spec.trace_overrides.values()]]
        holders += [(i, "source") for i in [spec.intersection_defaults,
                                            *spec.intersection_overrides.values()]]
        holders += [(ex, attr) for ex in case.exact.values()
                    for attr in ("pressure", "velocity", "divergence")]
        for obj, attr in holders:
            fn = getattr(obj, attr)
            if callable(fn) and not getattr(fn, "perfbench_counted", False):
                setattr(obj, attr, self._counted(fn))

    def solved(self, case, system, sol):
        """Accumulate the size counts and computed extras of a solved case."""
        md, dm = case.md, system.dofmap
        c = self.counts
        for key, value in mesh_sizes(md).items():
            c["mesh." + key] += value
        c["mesh.distinct_shapes"] += distinct_shapes(md, dm.block(3))
        total, stiffness = local_bytes(dm)
        c["elements.local_bytes"] += total
        c["elements.stiffness_bytes"] += stiffness
        c["assembly.constrained_dofs"] += len(system.constrained)
        c["assembly.dofs"] += system.matrix.shape[0]
        c["assembly.nnz"] += system.matrix.nnz
        with np.errstate(all="ignore"):
            lu = spla.splu(system.matrix.tocsc())
        c["solver.lu_fill"] += lu.L.nnz + lu.U.nnz
        scale = np.linalg.norm(system.rhs) or 1.0
        self.rel_residual = max(self.rel_residual, sol.residual / scale)

    # -- derived metrics ---------------------------------------------------

    def _has_ancestor_in(self, index, names):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_seconds(self, names, mode="total"):
        """Total time of the outermost spans named in ``names``, or their
        self time (duration minus the direct children's durations)."""
        total = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            if name not in names or self._has_ancestor_in(i, names):
                continue
            total += end - start
            if mode == "self":
                total -= sum(e - s for _, s, e, p in self.spans if p == i)
        return total

    def accounted_seconds(self):
        """Time of the top-level spans inside the time-to-solution window."""
        return sum(e - s for n, s, e, p in self.spans
                   if p == -1 and n in SOLUTION_SPANS)

    def metrics(self, time_to_solution_s):
        m = {name: self.layer_seconds(names, mode)
             for name, (names, mode) in TIMED.items()}
        c = self.counts
        m.update((k, v) for k, v in c.items() if k != "mesh.distinct_shapes")
        m["mesh.distinct_shape_share"] = (c["mesh.distinct_shapes"] /
                                          max(c["mesh.cells_3d"], 1))
        m["elements.local_calls"] = sum(1 for s in self.spans
                                        if s[0] == "elements.local")
        m["geometry.quadrature_calls"] = self.quadrature_calls
        m["geometry.quadrature_points"] = self.quadrature_points
        m["geometry.quadrature_reuse"] = (len(self._quadrature_keys) /
                                          max(self.quadrature_calls, 1))
        m["solver.fill_ratio"] = c["solver.lu_fill"] / max(c["assembly.nnz"], 1)
        m["solver.rel_residual"] = self.rel_residual
        m["problems.callback_calls"] = self.callback_calls
        m["problems.callback_s"] = self.callback_s
        m["traced.time_to_solution_s"] = time_to_solution_s
        m["traced.unaccounted_share"] = (
            (time_to_solution_s - self.accounted_seconds()) / time_to_solution_s)
        return m

    def write(self, path, metrics):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"metrics": metrics, "computed": sorted(COMPUTED),
                       "spans": [[n, s - t0, e - t0, p]
                                 for n, s, e, p in self.spans]}, fh)


UNITS = {"_s": "s", "_share": "ratio", "_ratio": "ratio", "_reuse": "ratio",
         "_bytes": "B", "_residual": "ratio"}


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"

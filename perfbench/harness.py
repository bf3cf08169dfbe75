"""Run benchmark cases through the solver pipeline and check their outputs.

The pipeline of one case is the one a ``mixedvem run`` user goes through:
build (box mesh and cut) -> validate_conformity -> assemble_complete ->
apply_boundary_conditions -> solve -> flux_report, then post-processing
(error_norms and write_fields_vtk).  Every library call goes through its
module attribute, so a traced run can patch it there.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mixedvem import assembly, mesh, solver

MISMATCH_TOL = 1e-10
SOLVER_TOL = 1e-10
# Post-processing shorter than POST_MIN_S is repeated (untraced runs only, at
# most POST_MAX_REPEATS times) and the median repeat is reported.
POST_MIN_S = 1.0
POST_MAX_REPEATS = 40


@dataclass
class CaseResult:
    label: str
    failures: list
    time_to_solution_s: float
    postprocess_s: float | None = None
    sizes: dict = field(default_factory=dict)


@dataclass
class WorkloadResult:
    rounds: list   # one list of CaseResult per round

    @property
    def cases(self):
        return [c for r in self.rounds for c in r]

    @property
    def attempted(self):
        return len(self.cases)

    @property
    def failed(self):
        return sum(1 for c in self.cases if c.failures)

    def time_to_solution_s(self):
        """Median over rounds of the round's summed time to solution."""
        return statistics.median(sum(c.time_to_solution_s for c in r)
                                 for r in self.rounds)

    def postprocess_s(self):
        return statistics.median(
            sum(c.postprocess_s for c in r if c.postprocess_s is not None)
            for r in self.rounds)


def mesh_sizes(md):
    return {"cells_3d": len(md.mesh3d.cells),
            "cells_2d": sum(len(fm.cells) for fm in md.fractures),
            "cells_1d": sum(len(tm.cells) for tm in md.traces),
            "traces": len(md.traces),
            "points_0d": len(md.intersections)}


def _solution_failures(system, sol, flux):
    out = []
    mismatch = flux.max_relative_mismatch()
    if not mismatch <= MISMATCH_TOL:
        out.append(f"flux mismatch {mismatch:.2e} exceeds {MISMATCH_TOL:.0e}")
    scale = np.linalg.norm(system.rhs) or 1.0
    if not sol.residual <= SOLVER_TOL * scale:
        out.append(f"residual {sol.residual:.2e} exceeds {SOLVER_TOL:.0e} "
                   f"x |b| = {SOLVER_TOL * scale:.2e}")
    return out


def run_case(spec, export_dir, tracer=None) -> CaseResult:
    """Time one case and check it; an exception fails the case, not the run."""
    failures = []
    t0 = time.perf_counter()
    try:
        case = spec.build()
        if tracer is not None:
            tracer.built(case)
        report = mesh.validate_conformity(case.md)
        if report:
            failures.append(f"validate_conformity: {len(report)} problems, "
                            f"first: {report[0]}")
        system = assembly.assemble_complete(case.md, case.order,
                                            family3d=case.family3d)
        assembly.apply_boundary_conditions(system)
        sol = solver.solve(system, tol=SOLVER_TOL)
        flux = solver.flux_report(sol)
        failures += _solution_failures(system, sol, flux) + spec.check_flux(flux)
    except Exception as exc:  # a failed case is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        failures.append(f"{type(exc).__name__}: {exc}")
        return CaseResult(spec.label, failures, time.perf_counter() - t0)
    result = CaseResult(spec.label, failures, time.perf_counter() - t0,
                        sizes=mesh_sizes(case.md) | {"dofs": system.matrix.shape[0]})

    times = []
    start = time.perf_counter()
    try:
        while True:
            # a fresh solution view, so no repeat reuses cached projections
            view = solver.DiscreteSolution(system=system, x=sol.x,
                                           residual=sol.residual)
            t1 = time.perf_counter()
            norms = solver.error_norms(view, case.exact)
            solver.write_fields_vtk(view, Path(export_dir) / "fields.vtk")
            times.append(time.perf_counter() - t1)
            if (tracer is not None or len(times) == POST_MAX_REPEATS
                    or time.perf_counter() - start >= POST_MIN_S):
                break
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        failures.append(f"post-processing {type(exc).__name__}: {exc}")
        return result
    result.postprocess_s = statistics.median(times)
    failures += spec.check_norms(norms)
    if tracer is not None:
        tracer.solved(case, system, sol)
    return result


def run_round(cases, tracer=None, workdir=".perfbench"):
    """Run every case once; exports go to a temporary directory under
    ``workdir``, removed at the end."""
    Path(workdir).mkdir(exist_ok=True)
    export_dir = tempfile.mkdtemp(prefix="export-", dir=workdir)
    try:
        return WorkloadResult([[run_case(spec, export_dir, tracer)
                                for spec in cases]])
    finally:
        shutil.rmtree(export_dir, ignore_errors=True)

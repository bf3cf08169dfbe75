"""The benchmark's workloads: seeded inputs, case builders and correctness gates.

Each workload function takes the seed and a ``tiny`` flag and returns the
list of cases one round runs.  Building a case (its ``build`` callable) is the
first call of the timed window; everything a workload function does before
that is set-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mixedvem import mesh, problems
from mixedvem.mesh import (BoundaryCondition, FractureSpec, IntersectionData,
                           NetworkSpec, TraceData)
from mixedvem.solver import relative_errors

# Relative (e_p, e_u, e_div) of poisson3d_case(n, 0), keyed by n.
POISSON_REFERENCE = {
    5: (0.33184373355563906, 0.3086606832943734, 0.3070473380266051),
    2: (0.9234276318089542, 0.7014158654090954, 0.6837094275328717),
}
POISSON_RTOL = 1e-6
QUARTIC_TOL = 1e-8

# Fracture-network inputs: one network shape placed by the seed.  The planes
# n_i . x = NETWORK_OFFSET of the four rectangles bound a small regular
# tetrahedron, so every placement has 6 traces that meet three at a time in
# 4 intersection points, and the seed changes how the network cuts the grid
# but not its topology or, much, its amount of work.
NETWORK_NORMALS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1],
                            [-1, -1, 1]]) / np.sqrt(3.0)
NETWORK_OFFSET = 0.05
NETWORK_HALF_SIDES = (0.25, 0.2)
NETWORK_SHIFT = 0.08
NETWORK_ORDER = 1
NETWORK_INVERSE_ETA = 1.0


@dataclass
class CaseSpec:
    """One solve: how to build it and what its outputs must satisfy.

    ``check_flux`` receives the FluxReport, ``check_norms`` the result of
    ``error_norms``; each returns a list of failure messages.
    """

    label: str
    build: Callable[[], problems.BenchmarkCase]
    check_flux: Callable = lambda flux: []
    check_norms: Callable = lambda norms: []


def _poisson_norms_check(n):
    ref = POISSON_REFERENCE[n]

    def check(norms):
        got = relative_errors(norms)[(3, 0)]
        return [f"{name} {g!r} differs from reference {r!r}"
                for name, g, r in zip(("e_p", "e_u", "e_div"), got, ref)
                if abs(g - r) > POISSON_RTOL * r]
    return check


def _quartic_flux_check(flux):
    values = problems.problem1_chart_values(flux)
    out = []
    for key, ref in problems.PROBLEM1_CHART.items():
        got = values[key] if isinstance(values[key], list) else [values[key]]
        worst = max((abs(g - ref) / ref for g in got), default=math.inf)
        if worst > QUARTIC_TOL:
            out.append(f"flux chart {key}: relative deviation {worst:.2e}")
    return out


def _quartic_norms_check(norms):
    worst = max(max(e) for e in relative_errors(norms).values())
    if worst > QUARTIC_TOL:
        return [f"worst relative error {worst:.2e} exceeds {QUARTIC_TOL:.0e}"]
    return []


def poisson_box(seed, tiny=False):
    """125 congruent box cells, RT0, sine solution, Dirichlet everywhere.

    The seed is not used: the case is fixed.
    """
    n = 2 if tiny else 5
    return [CaseSpec(label=f"poisson3d_case({n}, 0)",
                     build=lambda: problems.poisson3d_case(n, 0),
                     check_norms=_poisson_norms_check(n))]


def quartic_cut(seed, tiny=False):
    """Order-4 quartic benchmark on a mesh roughened by 2 artificial cuts.

    The seed is not used: the case is fixed.  The tiny size is uncut.
    """
    cuts = 0 if tiny else 2
    return [CaseSpec(label=f"problem1_case(order=4, artificial_cuts={cuts})",
                     build=lambda: problems.problem1_case(
                         (2, 2, 2), order=4, artificial_cuts=cuts),
                     check_flux=_quartic_flux_check,
                     check_norms=_quartic_norms_check)]


def random_network(rng) -> NetworkSpec:
    """The network shape under a random rotation and shift, inside [0,1]^3.

    Pressure is 0 on xmin and 1 on xmax; every other boundary is no-flow.
    """
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    rotation = q * np.sign(np.diag(r))
    rotation[:, 0] *= np.linalg.det(rotation)   # a rotation, not a reflection
    center = 0.5 + rng.uniform(-NETWORK_SHIFT, NETWORK_SHIFT, 3)
    a, b = NETWORK_HALF_SIDES
    fractures = []
    for normal in NETWORK_NORMALS:
        t1 = np.cross(normal, [1.0, 0.3, 0.7])
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(normal, t1)
        c = NETWORK_OFFSET * normal
        pts = np.array([c + a * t1 + b * t2, c - a * t1 + b * t2,
                        c - a * t1 - b * t2, c + a * t1 - b * t2])
        fractures.append(FractureSpec(center + pts @ rotation.T,
                                      inverse_eta2=NETWORK_INVERSE_ETA))
    return network_spec(fractures)


def network_spec(fractures) -> NetworkSpec:
    neumann = BoundaryCondition("neumann")
    bc3 = {tag: neumann for tag in problems.BOX_TAGS}
    bc3["xmin"] = BoundaryCondition("dirichlet", 0.0)
    bc3["xmax"] = BoundaryCondition("dirichlet", 1.0)
    return NetworkSpec(
        fractures=fractures, bc3=bc3,
        trace_defaults=TraceData(inverse_eta1=NETWORK_INVERSE_ETA),
        intersection_defaults=IntersectionData(inverse_eta0=NETWORK_INVERSE_ETA))


def network_case(label, spec, n_box) -> CaseSpec:
    def build():
        background = mesh.box_mesh([0, 0, 0], [1, 1, 1], (n_box,) * 3)
        md = mesh.cut_background_mesh(background, spec)
        return problems.BenchmarkCase(md=md, exact={}, order=NETWORK_ORDER,
                                      family3d="RT")
    return CaseSpec(label=label, build=build)


def fracture_net(seed, tiny=False):
    """One seeded placement of the network on a 4^3 box (3^3 when tiny)."""
    n_box = 3 if tiny else 4
    return [network_case(f"network {seed} on {n_box}^3",
                         random_network(np.random.default_rng(seed)), n_box)]


WORKLOADS = {
    "poisson-box": poisson_box,
    "quartic-cut": quartic_cut,
    "fracture-net": fracture_net,
}

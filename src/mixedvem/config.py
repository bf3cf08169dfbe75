"""Problem configuration files (YAML) and the run manifest.

The full grammar is documented in the README.  Every physical parameter of
the model is expressible: per-dimension tangential transmissivities, normal
transmissivities (``inf`` encodes pressure continuity), boundary conditions
per boundary tag / fracture / trace, constant sources, element family and
order, and the trace-flow switch.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ConfigError
from .mesh import (BOX_TAGS, BoundaryCondition, FractureSpec, IntersectionData,
                   NetworkSpec, TraceData, box_mesh, read_mesh)

# The names ``outputs:`` accepts; every run writes manifest.json anyway.
OUTPUTS = ("fluxes", "fields", "matrix", "manifest")
# The top-level keys a config may hold; ``quad_order`` is a retired knob that
# old configs still carry and that is ignored.
KEYS = ("order", "family3d", "trace_flow", "mesh", "a3", "source3", "bc3",
        "fractures", "traces", "intersections", "solver", "outputs",
        "eps_factor", "quad_order")


def _reject_unknown(what, names, known):
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ConfigError(f"unknown {what} {unknown}; known {what}: "
                          f"{', '.join(map(str, known))}")


@contextmanager
def _reading(what, node):
    """Turn the errors that a malformed config ``node`` raises while it is read
    (a value of the wrong type or form, a missing key) into a ConfigError
    naming it."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} {node!r} ({type(exc).__name__}: {exc})") from exc


def _parse_eta(value):
    """eta entries accept a positive number or "inf"; stored as 1/eta."""
    if value is None:
        return 0.0
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return 0.0
        raise ConfigError(f"bad eta value {value!r}")
    v = float(value)
    if v <= 0:
        raise ConfigError("eta must be positive (use 'inf' for continuity)")
    return 1.0 / v


def _parse_bc(node, default_kind="neumann"):
    if node is None:
        return BoundaryCondition(default_kind)
    kind = node.get("type", default_kind)
    value = float(node.get("value", 0.0))
    return BoundaryCondition(kind, value)


@dataclass
class ProblemConfig:
    """Parsed configuration: mesh source plus the network specification."""

    order: int
    family3d: str
    trace_flow: bool
    mesh_node: dict
    spec: NetworkSpec
    solver_tol: float
    outputs: list
    eps_factor: float = None   # geometric tolerance relative to domain size
    raw_text: str = ""
    mesh_path: str = None

    def build_mesh(self):
        node = self.mesh_node
        with _reading("mesh", node):
            kind = node.get("type", "box")
            if kind == "box":
                lo = node.get("lo", [0.0, 0.0, 0.0])
                hi = node.get("hi", [1.0, 1.0, 1.0])
                sub = node.get("subdivisions", [1, 1, 1])
                return box_mesh(lo, hi, tuple(int(n) for n in sub))
            if kind == "file":
                self.mesh_path = node["path"]
                return read_mesh(node["path"])
        raise ConfigError(f"unknown mesh type {kind!r}")


def load_config(path) -> ProblemConfig:
    with open(path) as fh:
        text = fh.read()
    return parse_config(text)


def parse_config(text) -> ProblemConfig:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    _reject_unknown("keys", doc, KEYS)
    mesh_node = doc.get("mesh", {"type": "box"})

    with _reading("order", doc.get("order")):
        order = int(doc.get("order", 0))
    family3d = str(doc.get("family3d", "RT")).upper()
    if family3d not in ("RT", "BDM"):
        raise ConfigError("family3d must be RT or BDM (3D block only)")
    if order > 4:
        raise ConfigError("orders above 4 are not supported")

    bc3_node = doc.get("bc3", {}) or {}
    bc3 = {}
    with _reading("bc3", bc3_node):
        if isinstance(mesh_node, dict) and mesh_node.get("type", "box") == "box":
            # a mesh file names its own tags
            _reject_unknown("bc3 tags", bc3_node, ["default"] + BOX_TAGS)
        default_bc = _parse_bc(bc3_node.get("default")) if "default" in bc3_node \
            else None
        for tag in set(list(bc3_node.keys()) + BOX_TAGS) - {"default"}:
            if tag in bc3_node:
                bc3[tag] = _parse_bc(bc3_node[tag])
            elif default_bc is not None:
                bc3[tag] = default_bc

    fnodes = doc.get("fractures", []) or []
    with _reading("fractures", fnodes):
        fractures = [FractureSpec(
            vertices=np.asarray(fnode["vertices"], dtype=float),
            a2=float(fnode.get("a2", 1.0)),
            inverse_eta2=_parse_eta(fnode.get("eta2", "inf")),
            bc=_parse_bc(fnode.get("bc")),
            source=float(fnode.get("source", 0.0))) for fnode in fnodes]

    tnode = doc.get("traces", {}) or {}

    def parse_trace(node):
        return TraceData(a1=float(node.get("a1", 1.0)),
                         inverse_eta1=_parse_eta(node.get("eta1", "inf")),
                         bc=_parse_bc(node.get("bc")),
                         source=float(node.get("source", 0.0)))

    with _reading("traces", tnode):
        trace_defaults = parse_trace(tnode.get("default", {}) or {})
        trace_overrides = {int(k): parse_trace(v)
                           for k, v in (tnode.get("overrides", {}) or {}).items()}

    inode = doc.get("intersections", {}) or {}

    def parse_inter(node):
        bc = None
        if "bc" in node:
            bc = _parse_bc(node["bc"], default_kind="dirichlet")
        return IntersectionData(inverse_eta0=_parse_eta(node.get("eta0", "inf")),
                                bc=bc, source=float(node.get("source", 0.0)))

    with _reading("intersections", inode):
        inter_defaults = parse_inter(inode.get("default", {}) or {})
        inter_overrides = {int(k): parse_inter(v)
                           for k, v in (inode.get("overrides", {}) or {}).items()}

    with _reading("a3", doc.get("a3")):
        a3 = float(doc.get("a3", 1.0))
    with _reading("source3", doc.get("source3")):
        source3 = float(doc.get("source3", 0.0))
    spec = NetworkSpec(
        fractures=fractures, a3=a3, source3=source3,
        bc3=bc3,
        trace_defaults=trace_defaults,
        trace_overrides=trace_overrides,
        intersection_defaults=inter_defaults,
        intersection_overrides=inter_overrides)

    solver = doc.get("solver", {}) or {}
    with _reading("solver", solver):
        solver_tol = float(solver.get("tolerance", 1e-10))
    eps_factor = doc.get("eps_factor")
    with _reading("eps_factor", eps_factor):
        eps_factor = float(eps_factor) if eps_factor is not None else None
    with _reading("outputs", doc.get("outputs")):
        outputs = list(doc.get("outputs", ["fluxes"]))
    _reject_unknown("outputs", outputs, OUTPUTS)
    return ProblemConfig(
        order=order, family3d=family3d,
        trace_flow=bool(doc.get("trace_flow", True)),
        mesh_node=mesh_node,
        spec=spec,
        solver_tol=solver_tol,
        outputs=outputs,
        eps_factor=eps_factor,
        raw_text=text)


@dataclass
class RunOutcome:
    """What one ``mixedvem run`` decided and wrote.

    ``checks`` holds the values the pass/fail decision read, ``outputs``
    every file written, ``solution`` the DiscreteSolution of a single-solve
    run, and ``inputs`` the named input texts whose hashes the manifest keeps.
    """

    ok: bool
    summary: str
    checks: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    solution: object = None
    inputs: dict = field(default_factory=dict)

    def write_manifest(self, path, timings):
        """``manifest.json``: input hashes, stage timings, files, status and
        checks; for a single solve also its DOF counts, residual and how the
        solve ran (factorized DOFs, the factor's stored entries, fronts and
        largest front, residual before refinement, worst pivot ratio of the
        solve's cell eliminations and of the element solves)."""
        manifest = {
            "inputs": {name: hashlib.sha256(
                text.encode() if isinstance(text, str) else text).hexdigest()
                for name, text in self.inputs.items()},
            "dof_counts": {}, "total_dofs": 0, "timings": timings,
            "outputs": self.outputs, "residual": 0.0,
            "status": "ok" if self.ok else "failed", "checks": self.checks}
        sol = self.solution
        if sol is not None:
            manifest["dof_counts"] = {
                str(d): {"flux": u, "pressure": p}
                for d, (u, p) in sorted(sol.dofmap.counts().items(), reverse=True)}
            manifest["total_dofs"] = sol.dofmap.total
            manifest["residual"] = sol.residual
            manifest["checks"] = {
                "global_dofs": sol.global_dofs, "lu_fill": sol.lu_fill,
                "fronts": sol.fronts, "largest_front": sol.largest_front,
                "residual_before_refinement": sol.residual_before_refinement,
                "worst_pivot_ratio": sol.worst_pivot_ratio,
                "worst_element_pivot_ratio": sol.worst_element_pivot_ratio} | self.checks
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2)


class StageTimer:
    """Wall time per named stage: ``with timer("solve"):``.  A stage entered
    more than once sums its times."""

    def __init__(self):
        self.timings = {}

    @contextmanager
    def __call__(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = (self.timings.get(name, 0.0)
                                  + time.perf_counter() - t0)

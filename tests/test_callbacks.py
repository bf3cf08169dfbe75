"""Data callbacks evaluated on point arrays (``mesh.field_values``): the
contract, the per-point fallback, and batched-versus-per-point equivalence of
every call site on whole benchmark cases."""

import numpy as np
import pytest

from mixedvem import problems
from mixedvem.assembly import apply_boundary_conditions, assemble_complete
from mixedvem.mesh import BoundaryCondition, field_values
from mixedvem.solver import DiscreteSolution, error_norms, flux_report, solve

RTOL = 1e-12
PROBES = 3   # field_values checks the first, middle and last point


def points(n=11, seed=3):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 3))


def per_point(f, pts):
    return np.array([f(x) for x in pts], dtype=float)


def assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    assert np.abs(got - want).max(initial=0.0) <= RTOL * scale


class Calls:
    """A callable wrapper that counts single-point and rows calls."""

    def __init__(self, f):
        self.f, self.single, self.rows = f, 0, 0

    def __call__(self, x):
        if np.ndim(x) > 1:
            self.rows += 1
        else:
            self.single += 1
        return self.f(x)


# -- the contract ------------------------------------------------------------

def test_constants_are_broadcast():
    pts = points()
    assert_close(field_values(2.5, pts), np.full(len(pts), 2.5))
    vec = np.array([1.0, -2.0, 0.5])
    assert_close(field_values(vec, pts), np.tile(vec, (len(pts), 1)))


@pytest.mark.parametrize("f", [
    lambda x: x[0] * x[1] + np.sin(x[2]),                       # scalar
    lambda x: np.array([x[1], -x[0], x[2] ** 2]),               # vector
    lambda x: 4.0,                                              # constant
    lambda x: np.array([0.0, 1.0, 2.0]),                        # constant vector
], ids=["scalar", "vector", "constant", "constant-vector"])
def test_row_capable_callables_are_called_once_on_rows(f):
    pts = points()
    counted = Calls(f)
    got = field_values(counted, pts)
    assert_close(got, per_point(f, pts))
    assert (counted.rows, counted.single) == (1, PROBES)


@pytest.mark.parametrize("f", [
    lambda x: float(x[0]),              # raises on rows
    lambda x: np.linalg.norm(x),        # runs on rows, wrong values
    lambda x: x[:, 0] if np.ndim(x) > 1 else x[0],   # wrong shape on rows
], ids=["scalar-only", "misreads-rows", "wrong-shape"])
def test_callables_that_fail_on_rows_are_evaluated_per_point(f):
    pts = points()
    counted = Calls(f)
    got = field_values(counted, pts)
    assert_close(got, per_point(f, pts))
    assert counted.single == PROBES + len(pts)


def test_few_points_use_the_probe_values():
    pts = points(2)
    counted = Calls(lambda x: float(x[0]))
    assert_close(field_values(counted, pts), pts[:, 0])
    assert (counted.rows, counted.single) == (0, 2)


def test_datum_takes_one_point_or_rows():
    bc = BoundaryCondition("dirichlet", lambda x: x[0] - 2.0 * x[2])
    pts = points()
    assert bc.datum(pts[4]) == pytest.approx(pts[4, 0] - 2.0 * pts[4, 2],
                                             rel=1e-15)
    assert_close(bc.datum(pts), pts[:, 0] - 2.0 * pts[:, 2])
    assert_close(BoundaryCondition("dirichlet", 3.0).datum(pts),
                 np.full(len(pts), 3.0))


# -- the built-in fields ----------------------------------------------------

def builtin_fields():
    out = {"quartic_pressure": problems.quartic_pressure,
           "quartic_velocity3": problems.quartic_velocity3,
           "quartic_div3": problems.quartic_div3}
    for axis in range(3):
        for name, fields in (("fracture", problems._fracture_fields(axis)),
                             ("trace", problems._trace_fields(axis))):
            for part, f in zip(("velocity", "div", "source"), fields):
                out[f"{name}{axis}_{part}"] = f
    for part, f in zip("P U DIV".split(), problems._sine_fields()):
        out[f"sine_{part}"] = f
    for dim in (1, 2, 3):
        for degree in range(5):
            for part, f in zip("P U DIV".split(),
                               problems._poly_fields(dim, degree, 2.5)):
                out[f"poly{dim}d{degree}_{part}"] = f
    return out


@pytest.mark.parametrize("name", sorted(builtin_fields()))
def test_builtin_fields_take_the_batched_path(name):
    f = builtin_fields()[name]
    pts = points(17)
    pts[3] = 0.0   # the quartic fields kink on the coordinate planes
    counted = Calls(f)
    assert_close(field_values(counted, pts), per_point(f, pts))
    assert (counted.rows, counted.single) == (1, PROBES)


# -- batched and per-point paths agree on whole cases ------------------------

class Pointwise:
    """Rejects coordinate rows, forcing field_values onto its per-point path."""

    def __init__(self, f):
        self.f, self.rejected = f, 0

    def __call__(self, x):
        if np.ndim(x) > 1:
            self.rejected += 1
            raise TypeError("single points only")
        return self.f(x)


def force_pointwise(case):
    """Wrap every callable datum of the case in place; return the wrappers."""
    spec = case.md.spec
    holders = [(spec, "source3")]
    holders += [(f, "source") for f in spec.fractures]
    traces = [spec.trace_defaults, *spec.trace_overrides.values()]
    holders += [(t, "source") for t in traces]
    bcs = [*spec.bc3.values(), *(f.bc for f in spec.fractures),
           *(t.bc for t in traces)]
    holders += [(bc, "value") for bc in {id(bc): bc for bc in bcs}.values()]
    holders += [(ex, attr) for ex in case.exact.values()
                for attr in ("pressure", "velocity", "divergence")]
    wrappers = []
    for obj, attr in holders:
        f = getattr(obj, attr)
        if callable(f):
            wrappers.append(Pointwise(f))
            setattr(obj, attr, wrappers[-1])
    return wrappers


def flux_values(report):
    out = {}
    for key, e in report.entities.items():
        out[key + ("bc",)] = e.bc_flux
        out[key + ("div",)] = e.divergence
        out[key + ("source",)] = e.source
        out.update({key + ("sent",) + k: v for k, v in e.sent.items()})
        out.update({key + ("received",) + k: v for k, v in e.received.items()})
    return out


@pytest.mark.parametrize("build", [
    lambda: problems.poisson3d_case(2, 1),
    lambda: problems.problem1_case(order=2, artificial_cuts=1),
], ids=["poisson3d_case(2, 1)", "problem1_case(order=2, artificial_cuts=1)"])
def test_batched_and_per_point_paths_agree(build):
    case = build()

    def assembled():
        system = assemble_complete(case.md, case.order, family3d=case.family3d)
        return apply_boundary_conditions(system)

    batched = assembled()
    sol = solve(batched)
    flux_b, norms_b = flux_report(sol), error_norms(sol, case.exact)

    wrappers = force_pointwise(case)
    pointwise = assembled()
    # the same solution vector, post-processed through the per-point path
    sol_p = DiscreteSolution(system=pointwise, x=sol.x, residual=sol.residual)
    flux_p, norms_p = flux_report(sol_p), error_norms(sol_p, case.exact)
    assert wrappers and all(w.rejected > 0 for w in wrappers)

    assert_close(pointwise.rhs, batched.rhs)
    fb, fp = flux_values(flux_b), flux_values(flux_p)
    assert fb.keys() == fp.keys()
    for key in fb:
        assert fp[key] == pytest.approx(fb[key], rel=RTOL, abs=1e-300), key
    assert norms_b.keys() == norms_p.keys()
    for key in norms_b:
        assert_close(norms_p[key], norms_b[key])

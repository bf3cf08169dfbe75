"""The stacked post-processing against the per-cell loops it replaced.

``per_cell_export`` and ``per_cell_flux_report`` are the export's and the
flux report's earlier loops, one cell or one face at a time, kept here as
the reference: the export's polygon coordinates and centroid pressures must
equal theirs exactly, its centroid velocities to 1e-15 of the largest, and
every flux-report entry to 1e-14 of its entity's balance scale.
"""

import numpy as np
import pytest

from mixedvem import solver
from mixedvem.assembly import (apply_boundary_conditions, assemble_complete,
                               cell_fields)
from mixedvem.problems import poisson3d_case, problem1_case
from mixedvem.errors import ConfigError
from mixedvem.solver import (EntityFlux, ExactFields, error_norms, flux_report, solve,
                             write_fields_vtk)
from tests.test_assembly import (_network_9400_md, _pinned_network_md,
                                 continuity_md)


def _solve(md, order, trace_flow=True):
    system = assemble_complete(md, order, trace_flow=trace_flow)
    apply_boundary_conditions(system)
    return solve(system)


EXPORT_CASES = {
    "network-9400": lambda: _solve(_network_9400_md(), 1),
    "quartic-cut": lambda: problem1_case((2, 2, 2), order=4, artificial_cuts=2).solve(),
    "poisson-3-1": lambda: poisson3d_case(3, 1).solve(),
}
FLUX_CASES = dict(EXPORT_CASES, **{
    "pinned-0d": lambda: _solve(_pinned_network_md(), 1),
    "no-trace-flow": lambda: _solve(continuity_md(), 0, trace_flow=False),
})


@pytest.fixture(scope="module")
def solutions():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = FLUX_CASES[name]()
        return cache[name]
    yield get
    cache.clear()


def _flux_dofs(sol, blk, ci):
    return blk.cell_u_signs[ci] * sol.x[blk.cell_u_dofs[ci]]


def per_cell_export(sol):
    """Each polygon's coordinates and centroid pressure, and each cell's
    centroid and velocity there, cell by cell."""
    dm, md = sol.dofmap, sol.md
    mesh = md.mesh3d
    polys, pressures, centers, vectors = [], [], [], []

    def centroid_pressure(blk, ci, centroid):
        return float(blk.locals_[ci].basis_p.evaluate(centroid[None, :])[0]
                     @ sol.x[blk.cell_p_dofs[ci]])

    blk3 = dm.block(3)
    for ci, cid in enumerate(blk3.cell_ids):
        p_c = centroid_pressure(blk3, ci, blk3.geoms[ci].centroid)
        for fid, _ in mesh.cells[cid]:
            polys.append(mesh.face_coords(fid))
            pressures.append(p_c)
    for fm in md.fractures:
        blk2 = dm.block(2, fm.index)
        for ci, cell in enumerate(fm.cells):
            polys.append(np.array([mesh.verts[v] for v in cell.vids]))
            pressures.append(centroid_pressure(blk2, ci, cell.geometry.centroid))
    for blk in dm.blocks.values():
        if not blk.locals_:
            continue
        for ci, loc in enumerate(blk.locals_):
            c_local = loc.vec_basis.scalar.center[None, :]   # in cell coordinates
            vec = np.einsum("b,pbi->pi", loc.Pi0_hat @ _flux_dofs(sol, blk, ci),
                            loc.vec_basis.evaluate(c_local))[0]
            centers.append(blk.point_map(ci, c_local)[0])
            vectors.append(vec if blk.frame is None else vec @ blk.frame)
    return polys, np.array(pressures), np.array(centers), np.array(vectors)


def per_cell_flux_report(sol):
    """The flux report's entities from per-cell divergences, per-face fluxes
    and a second quadrature pass over the source callbacks."""
    dm, md = sol.dofmap, sol.md

    def face_flux(blk, ci, lf):
        j = blk.locals_[ci].layout.face_slice(lf).start
        return (float(blk.cell_u_signs[ci][j] * sol.x[blk.cell_u_dofs[ci][j]])
                * blk.geoms[ci].faces[lf].measure)

    entities = {}
    for key, blk in dm.blocks.items():
        e = entities[key] = EntityFlux(key=key)
        if blk.dim == 0:
            src = blk.source
            e.source = src if not callable(src) else src(md.intersections[blk.index].coords)
            continue
        for ci, loc in enumerate(blk.locals_):
            e.divergence += float(loc.H[0] @ (loc.V @ _flux_dofs(sol, blk, ci)))
        for ci, lf, *_ in blk.boundary:
            e.bc_flux += face_flux(blk, ci, lf)
        if callable(blk.source) or float(blk.source) != 0.0:
            for _, _, w, (f,) in cell_fields(blk, range(len(blk.geoms)),
                                             2 * (dm.order + 2), (blk.source,)):
                e.source += float(np.sum(w * f))
    for side in dm.interfaces:
        flux = face_flux(dm.blocks[side.upper], side.cell, side.face)
        sent, received = entities[side.upper].sent, entities[side.lower].received
        sent[side.lower] = sent.get(side.lower, 0.0) + flux
        received[side.upper] = received.get(side.upper, 0.0) + flux
    if dm.trace_flow:
        for ip in md.intersections:
            idata = md.spec.intersection_data(ip.index)
            e = entities[(0, ip.index)]
            if idata.bc is not None and idata.bc.kind == "dirichlet":
                e.pinned = True
                e.bc_flux = sum(e.received.values()) + e.source
    return entities


@pytest.mark.parametrize("name", EXPORT_CASES)
def test_export_matches_per_cell_loops(name, solutions, tmp_path, monkeypatch):
    sol = solutions(name)
    written = []   # the arrays the export formats, in the order it writes them
    lines = solver._lines
    monkeypatch.setattr(solver, "_lines",
                        lambda fmt, rows: written.append(np.asarray(rows)) or lines(fmt, rows))
    paths = write_fields_vtk(sol, tmp_path / "fields.vtk")
    points, pressures, entity, centers, _, vectors = written
    text = (tmp_path / "fields.vtk").read_text().splitlines()
    at = text.index(next(line for line in text if line.startswith("POLYGONS")))
    n_polys = int(text[at].split()[1])
    ids = [np.array(line.split()[1:], dtype=int) for line in text[at + 1:at + 1 + n_polys]]
    polys, ref_pressures, ref_centers, ref_vectors = per_cell_export(sol)

    # each used mesh vertex once, and every polygon on the mesh's coordinates
    assert len(np.unique(points, axis=0)) == len(points) == len(np.unique(np.concatenate(ids)))
    assert len(points) == len(np.unique(np.concatenate(polys), axis=0))
    assert len(ids) == len(polys)
    assert all(np.array_equal(points[i], poly) for i, poly in zip(ids, polys))
    assert np.array_equal(pressures, ref_pressures)
    n_3d = sum(len(sol.md.mesh3d.cells[cid]) for cid in sol.dofmap.block(3).cell_ids)
    assert np.array_equal(entity, [3] * n_3d + [2] * (len(polys) - n_3d))
    assert np.array_equal(centers, ref_centers)
    assert np.abs(vectors - ref_vectors).max() <= 1e-15 * np.abs(ref_vectors).max()
    assert paths == [str(tmp_path / "fields.vtk"), str(tmp_path / "fields.vtk.velocity.vtk")]
    # the velocity file: one vertex and one vector per cell, as printed
    text = (tmp_path / "fields.vtk.velocity.vtk").read_text().splitlines()
    n = len(ref_centers)
    assert text[4] == f"POINTS {n} double" and text[5 + n] == f"VERTICES {n} {2 * n}"
    printed = np.loadtxt(text[-n:])
    assert np.abs(printed - ref_vectors).max() <= 1e-9 * np.abs(ref_vectors).max()


def test_error_norms_reject_a_multiplier_only_trace(solutions):
    # in trace-flow-neglected mode a trace carries only multipliers: it has no
    # element and no velocity to compare with exact data
    sol = solutions("no-trace-flow")
    zero = ExactFields(0.0, np.zeros(3), 0.0)
    assert np.all(np.isfinite(error_norms(sol, {(2, 0): zero})[(2, 0)]))
    with pytest.raises(ConfigError, match="trace 0 carries only multipliers"):
        error_norms(sol, {(1, 0): zero})


@pytest.mark.parametrize("name", FLUX_CASES)
def test_flux_report_matches_per_cell_loops(name, solutions):
    sol = solutions(name)
    got, ref = flux_report(sol).entities, per_cell_flux_report(sol)
    assert got.keys() == ref.keys()
    for key, r in ref.items():
        g, tol = got[key], 1e-14 * r.balance_scale
        assert g.pinned == r.pinned
        assert g.sent.keys() == r.sent.keys() and g.received.keys() == r.received.keys()
        for name in ("bc_flux", "divergence", "source"):
            assert abs(getattr(g, name) - getattr(r, name)) <= tol, (key, name)
        for side in ("sent", "received"):
            for other, value in getattr(r, side).items():
                assert abs(getattr(g, side)[other] - value) <= tol, (key, side, other)

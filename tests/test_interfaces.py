"""Flux reports and pressures of four interface-heavy systems, against
values recorded before the interface couplings became one loop over
``GlobalDofMap.interfaces``.

The cases cover finite eta at every interface dimension (fracture-net seed
9400, ``problem2_case`` with mixed eta), a cut quadratic case with 1D/0D
coupling, and the multiplier-only system without trace flow.  Flux DOFs of
unshared trace endpoints changed sign on purpose (they are outward fluxes
now), so the comparison is on flux-report entries and on each block's
pressure-DOF 2-norm, to 1e-10 relative.
"""

import numpy as np
import pytest

from mixedvem.assembly import (apply_boundary_conditions, assemble_complete,
                               assemble_coupling_cross_dim, assemble_dimension,
                               build_dof_map, face_mass, face_rule)
from mixedvem.problems import problem1_case, problem2_case
from mixedvem.solver import flux_report, solve
from tests.test_assembly import _network_9400_md, continuity_md

RTOL = 1e-10
# The continuity system's flow is uniform (unit flux DOFs) and parallel to both
# fractures, so its exchanges, net boundary fluxes and divergences are zero in
# exact arithmetic: every recorded flux entry (6e-17 to 7e-16) is roundoff of
# the solve.  Those entries are held to this absolute bound, 1e-14 of its unit
# fluxes, instead of to the roundoff itself; its pressures keep RTOL.
ROUNDOFF_FLUX = {"continuity": 1e-14}


def _solve(md, order, trace_flow=True):
    system = assemble_complete(md, order, trace_flow=trace_flow)
    apply_boundary_conditions(system)
    return solve(system)


CASES = {
    "network-9400": lambda: _solve(_network_9400_md(), 1),
    "problem1-cut": lambda: problem1_case(order=2, artificial_cuts=1).solve(),
    "problem2-eta": lambda: problem2_case(eta_overrides={0: 10.0, 3: 1e-3}).solve(),
    "continuity": lambda: _solve(continuity_md(), 0, trace_flow=False),
}

# entity key -> (bc_flux, divergence, source, sent, received), and block key
# -> pressure-DOF 2-norm
EXPECTED = {
    "network-9400": ({
        (0, 0): (0.0, 0.0, 0.0,
                 {},
                 {(1, 0): -0.0028616677422314525, (1, 1): 0.0025012016625798293,
                  (1, 3): 0.0003604660796516215}),
        (0, 1): (0.0, 0.0, 0.0,
                 {},
                 {(1, 0): -0.005597020944860959, (1, 2): 0.004424449766165329,
                  (1, 4): 0.0011725711786956298}),
        (0, 2): (0.0, 0.0, 0.0,
                 {},
                 {(1, 3): -0.0053109294216191, (1, 4): -0.0010805317755765754,
                  (1, 5): 0.006391461197195676}),
        (0, 3): (0.0, 0.0, 0.0,
                 {},
                 {(1, 1): -0.003459096587821363, (1, 2): -0.0003022217999915735,
                  (1, 5): 0.0037613183878129355}),
        (1, 0): (0.0, -0.008458688687092411, 0.0,
                 {(0, 0): -0.0028616677422314525, (0, 1): -0.005597020944860959},
                 {(2, 0): -0.004165877568163348, (2, 1): -0.004292811118929066}),
        (1, 1): (0.0, -0.0009578949252415352, 0.0,
                 {(0, 0): 0.0025012016625798293, (0, 3): -0.003459096587821363},
                 {(2, 0): -0.0019355893064506885, (2, 2): 0.0009776943812091561}),
        (1, 2): (0.0, 0.004122227966173753, 0.0,
                 {(0, 1): 0.004424449766165329, (0, 3): -0.0003022217999915735},
                 {(2, 0): 0.0008142268385628515, (2, 3): 0.0033080011276109015}),
        (1, 3): (0.0, -0.004950463341967486, 0.0,
                 {(0, 0): 0.0003604660796516215, (0, 2): -0.0053109294216191},
                 {(2, 1): -0.0034043607534040574, (2, 2): -0.001546102588563428}),
        (1, 4): (0.0, 9.203940311905369e-05, 0.0,
                 {(0, 1): 0.0011725711786956298, (0, 2): -0.0010805317755765754},
                 {(2, 1): -0.0004251670732152282, (2, 3): 0.0005172064763342802}),
        (1, 5): (0.0, 0.010152779585008612, 0.0,
                 {(0, 2): 0.006391461197195676, (0, 3): 0.0037613183878129355},
                 {(2, 2): 0.004474070998589373, (2, 3): 0.005678708586419242}),
        (2, 0): (0.0, -0.005287240036051188, 0.0,
                 {(1, 0): -0.004165877568163348, (1, 1): -0.0019355893064506885,
                  (1, 2): 0.0008142268385628515},
                 {(3, 0): -0.005287240036051178}),
        (2, 1): (0.0, -0.008122338945548355, 0.0,
                 {(1, 0): -0.004292811118929066, (1, 3): -0.0034043607534040574,
                  (1, 4): -0.0004251670732152282},
                 {(3, 0): -0.008122338945548351}),
        (2, 2): (0.0, 0.0039056627912350977, 0.0,
                 {(1, 1): 0.0009776943812091561, (1, 3): -0.001546102588563428,
                  (1, 5): 0.004474070998589373},
                 {(3, 0): 0.0039056627912351033}),
        (2, 3): (0.0, 0.009503916190364422, 0.0,
                 {(1, 2): 0.0033080011276109015, (1, 4): 0.0005172064763342802,
                  (1, 5): 0.005678708586419242},
                 {(3, 0): 0.009503916190364425}),
        (3, 0): (-9.020562075079397e-17, 1.600491282842623e-17, 0.0,
                 {(2, 0): -0.005287240036051178, (2, 1): -0.008122338945548351,
                  (2, 2): 0.0039056627912351033, (2, 3): 0.009503916190364425},
                 {}),
    }, {
        (0, 0): 0.4630529347074301, (0, 1): 0.4723179924956236,
        (0, 2): 0.4796310572048725, (0, 3): 0.4865150087761556,
        (1, 0): 1.0460224837865046, (1, 1): 1.0619676457641698,
        (1, 2): 1.1762046368643717, (1, 3): 1.051017285910589,
        (1, 4): 1.1664149694715875, (1, 5): 1.1919466012684812,
        (2, 0): 2.3327967558454166, (2, 1): 2.4003836579521383,
        (2, 2): 2.511730205667199, (2, 3): 2.509159163872649,
        (3, 0): 7.459774403370937}),
    "problem1-cut": ({
        (0, 0): (95.74486990872293, 0.0, 0.0,
                 {},
                 {(1, 0): 31.872010917076313, (1, 1): 31.972136880580923,
                  (1, 2): 31.900722111065704}),
        (1, 0): (-255.84822428472177, -223.97621336764553, -288.0,
                 {(0, 0): 31.872010917076313},
                 {(2, 0): 31.983990363343164, (2, 1): 32.039796269011276}),
        (1, 1): (-255.8959780750688, -223.92384119448775, -288.0,
                 {(0, 0): 31.972136880580923},
                 {(2, 0): 32.05885918567733, (2, 2): 32.01729961983481}),
        (1, 2): (-255.85668122878593, -223.9559591177202, -287.99999999999994,
                 {(0, 0): 31.900722111065704},
                 {(2, 1): 32.060402798748534, (2, 2): 31.98363808353114}),
        (2, 0): (-511.0918712676611, -447.0490217186408, -479.99999999999983,
                 {(1, 0): 31.983990363343164, (1, 1): 32.05885918567733},
                 {(3, 0): 32.95097828135909}),
        (2, 1): (-511.2805648066871, -447.18036573892755, -479.9999999999999,
                 {(1, 0): 32.039796269011276, (1, 2): 32.060402798748534},
                 {(3, 0): 32.8196342610724}),
        (2, 2): (-511.0269208692224, -447.02598316585676, -479.99999999999983,
                 {(1, 1): 32.01729961983481, (1, 2): 31.98363808353114},
                 {(3, 0): 32.97401683414327}),
        (3, 0): (-770.7446293765743, -671.9999999999994, -671.9999999999999,
                 {(2, 0): 32.95097828135909, (2, 1): 32.8196342610724,
                  (2, 2): 32.97401683414327},
                 {}),
    }, {
        (0, 0): 3.0, (1, 0): 28.210388015660094, (1, 1): 27.45834160460837,
        (1, 2): 27.7083690336612, (2, 0): 109.27894325803375,
        (2, 1): 105.87524319871918, (2, 2): 108.04396633974245,
        (3, 0): 272.0455823378471}),
    "problem2-eta": ({
        (0, 0): (0.0, 0.0, 0.0,
                 {},
                 {(1, 0): -0.08307801155887162, (1, 1): -0.08307801155887162,
                  (1, 2): 0.16615602311774325}),
        (0, 1): (0.0, 0.0, 0.0,
                 {},
                 {(1, 2): -0.08081027401716179, (1, 3): 0.04040513700858091,
                  (1, 4): 0.040405137008580894}),
        (1, 0): (0.0, -0.08307801155887162, 0.0,
                 {(0, 0): -0.08307801155887162},
                 {(2, 0): -0.515808511215132, (2, 1): 0.4327304996562604}),
        (1, 1): (0.0, -0.08307801155887162, 0.0,
                 {(0, 0): -0.08307801155887162},
                 {(2, 0): -0.515808511215132, (2, 2): 0.4327304996562605}),
        (1, 2): (0.0, 0.08534574910058149, 0.0,
                 {(0, 0): 0.16615602311774325, (0, 1): -0.08081027401716179},
                 {(2, 1): 0.042672874550290764, (2, 2): 0.04267287455029074}),
        (1, 3): (0.0, 0.040405137008580894, 0.0,
                 {(0, 1): 0.04040513700858091},
                 {(2, 1): -0.17729411984728521, (2, 3): 0.21769925685586616}),
        (1, 4): (0.0, 0.04040513700858088, 0.0,
                 {(0, 1): 0.040405137008580894},
                 {(2, 2): -0.17729411984728521, (2, 3): 0.21769925685586614}),
        (2, 0): (0.0, -1.031617022430264, 0.0,
                 {(1, 0): -0.515808511215132, (1, 1): -0.515808511215132},
                 {(3, 0): -1.031617022430265}),
        (2, 1): (0.0, 0.29810925435926594, 0.0,
                 {(1, 0): 0.4327304996562604, (1, 2): 0.042672874550290764,
                  (1, 3): -0.17729411984728521},
                 {(3, 0): 0.2981092543592663}),
        (2, 2): (0.0, 0.29810925435926594, 0.0,
                 {(1, 1): 0.4327304996562605, (1, 2): 0.04267287455029074,
                  (1, 4): -0.17729411984728521},
                 {(3, 0): 0.2981092543592663}),
        (2, 3): (0.0, 0.4353985137117323, 0.0,
                 {(1, 3): 0.21769925685586616, (1, 4): 0.21769925685586614},
                 {(3, 0): 0.43539851371173266}),
        (3, 0): (-1.6653345369377348e-16, 6.938893903907221e-17, 0.0,
                 {(2, 0): -1.031617022430265, (2, 1): 0.2981092543592663,
                  (2, 2): 0.2981092543592663, (2, 3): 0.43539851371173266},
                 {}),
    }, {
        (0, 0): 1.385622419198316, (0, 1): 1.6326139325046851,
        (1, 0): 1.9008190269341865, (1, 1): 1.9008190269341865,
        (1, 2): 2.1945659655553538, (1, 3): 2.33743647060425, (1, 4): 2.33743647060425,
        (2, 0): 2.42940225689315, (2, 1): 3.1250056644708577, (2, 2): 3.125005664470858,
        (2, 3): 3.414925116252164, (3, 0): 7.0982117107215865}),
    "continuity": ({
        (1, 0): (0.0, 0.0, 0.0,
                 {},
                 {(2, 0): -9.00943581902013e-17, (2, 1): 9.009435819020126e-17}),
        (2, 0): (-1.745934735312208e-16, -1.1102230246251565e-16, 0.0,
                 {(1, 0): -9.00943581902013e-17},
                 {(3, 0): 6.631551740162025e-17}),
        (2, 1): (-6.661338147750939e-16, -5.980392932395345e-16, 0.0,
                 {(1, 0): 9.009435819020126e-17},
                 {(3, 0): -4.321586894449194e-16}),
        (3, 0): (-1.4989541292829676e-16, -7.176377554398802e-17, 0.0,
                 {(2, 0): 6.631551740162025e-17, (2, 1): -4.321586894449194e-16},
                 {}),
    }, {
        (1, 0): 0.7071067811865475, (2, 0): 1.0000000000000002, (2, 1): 1.0,
        (3, 0): 1.4142135623730956}),
}


@pytest.mark.parametrize("name", list(CASES))
def test_interface_fluxes_and_pressures_match_recorded(name):
    sol = CASES[name]()
    entities, pressures = EXPECTED[name]
    report = flux_report(sol)
    assert set(report.entities) == set(entities)
    largest = max(abs(v) for want in entities.values()
                  for v in want[:3] + tuple(want[3].values()) + tuple(want[4].values()))
    for key, want in entities.items():
        e = report.entities[key]
        got = (e.bc_flux, e.divergence, e.source, e.sent, e.received)
        assert set(e.sent) == set(want[3]) and set(e.received) == set(want[4])
        pairs = list(zip(got[:3], want[:3]))
        pairs += [(got[i][k], want[i][k]) for i in (3, 4) for k in want[i]]
        # entries that cancel to roundoff are held to the entity's scale
        scale = max(abs(w) for _, w in pairs) or largest
        for g, w in pairs:
            assert abs(g - w) <= ROUNDOFF_FLUX.get(name, RTOL * scale), (key, g, w)
    assert set(sol.dofmap.blocks) == set(pressures)
    for key, want in pressures.items():
        got = np.linalg.norm(sol.x[sol.dofmap.blocks[key].slice_p])
        assert got == pytest.approx(want, rel=RTOL), key


# the finite-eta cases above, as (mesh, order)
FINITE_ETA = {
    "network-9400": lambda: (_network_9400_md(), 1),
    "problem2-eta": lambda: (problem2_case(eta_overrides={0: 10.0, 3: 1e-3}).md, 1),
}


@pytest.mark.parametrize("name", list(FINITE_ETA))
def test_face_mass_matches_face_quadrature(name):
    # the 1/eta term reads each side's mass from its element's face duals;
    # it must equal the mass integrated with a face rule of degree 2(k + 2)
    md, order = FINITE_ETA[name]()
    dm = build_dof_map(md, order)
    sides = [s for s in dm.interfaces if s.inverse_eta != 0.0]
    assert {s.upper[0] for s in sides} == {3, 2, 1}
    for s in sides:
        blk = dm.blocks[s.upper]
        _, w, dual = face_rule(blk, s.cell, s.face, 2 * (order + 2))
        want = dual.T @ (w[:, None] * dual)
        got = face_mass(blk, s.cell, s.face)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _per_side_coupling(dm, cells):
    """The per-side loop ``assemble_coupling_cross_dim`` replaced: each side's
    face rule and duals, its lower cell's pressure monomials at the rule's
    physical points, and the columns of those pressures found by searching
    the cell block's DOFs."""
    qo = 2 * (dm.order + 2)
    for side in dm.interfaces:
        upper, lower = dm.blocks[side.upper], dm.blocks[side.lower]
        pts, w, dual = face_rule(upper, side.cell, side.face, qo)
        lc = side.lower_cell
        phys = upper.point_map(side.cell, pts)
        mu = lower.bases_p[lc].evaluate(lower.local_coords(lc, phys))
        C = dual.T @ (w[:, None] * mu)
        cb = cells[(side.upper, side.cell)]
        sl = upper.locals_[side.cell].layout.face_slice(side.face)
        q = np.flatnonzero(np.isin(cb.dofs, lower.cell_p_dofs[lc]))
        cb.matrix[sl, q] += C
        cb.matrix[q, sl] -= C.T


@pytest.mark.parametrize("make", [
    lambda: (_network_9400_md(), 1),
    lambda: (problem1_case((2, 2, 2), order=4, artificial_cuts=2).md, 4),
], ids=["fracture-net-9400", "quartic-cut"])
def test_stacked_coupling_matches_per_side_oracle(make):
    # every C block of every side, stacked per dimension pair, against the
    # per-side loop to 1e-14 of the block's largest entry
    md, order = make()
    dm = build_dof_map(md, order)

    def blocks(couple):
        cells = {}
        for d in (3, 2, 1):
            cells.update(assemble_dimension(dm, d))
        couple(dm, cells)
        return cells

    got, want = blocks(assemble_coupling_cross_dim), blocks(_per_side_coupling)
    assert {(s.upper[0], s.lower[0]) for s in dm.interfaces} == {(3, 2), (2, 1), (1, 0)}
    for side in dm.interfaces:
        key = (side.upper, side.cell)
        p_dofs = dm.blocks[side.lower].cell_p_dofs[side.lower_cell]
        q0 = got[key].lower[side.lower, side.lower_cell]
        q = np.arange(q0, q0 + len(p_dofs))
        assert np.array_equal(got[key].dofs[q], p_dofs)
        sl = dm.blocks[side.upper].locals_[side.cell].layout.face_slice(side.face)
        C = want[key].matrix[sl][:, q]
        assert np.abs(C).max() > 0
        for block in (np.s_[sl, q0:q0 + len(q)], np.s_[q0:q0 + len(q), sl]):
            gap = np.abs(got[key].matrix[block] - want[key].matrix[block]).max()
            assert gap <= 1e-14 * np.abs(C).max()
    for key, cb in want.items():
        assert np.array_equal(got[key].dofs, cb.dofs)
        assert np.abs(got[key].matrix - cb.matrix).max() <= 1e-14 * np.abs(cb.matrix).max()

"""Hybridized direct solve, velocity projection, error norms and flux accounting.

The system's matrix is the sum of one dense block per cell and is never
assembled: the refinement step and the residual apply the blocks.  With the
pressure rows negated every block is symmetric, and each is eliminated
locally: all of the cell's flux DOFs (a flux set shared by two cells becomes
one private copy per cell, tied by a multiplier with +1 in the first cell and
-1 in the second; the shared row's right-hand side goes to the first copy),
and its own pressures when no interface reads them.  Fixed DOFs are dropped.
Only the multipliers and the 2D/1D/0D pressures stay global (hybridization:
Arnold & Brezzi, M2AN 19, 1985; Cockburn & Gopalakrishnan, SIAM J. Numer.
Anal. 42, 2004).  The negated sum of the cells' Schur complements is SPD.
``Multifrontal`` factors it, with numpy only, on a nested dissection of the
global unknowns by their cells' centroids (George, SIAM J. Numer. Anal. 10,
1973): one dense front per node of the dissection tree, each the node's
cells' Schur complements plus its children's updates (Liu, SIAM Review 34,
1992).  Incomplete factorizations failed on every fracture network tried, so
there is no iterative branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import GlobalSystem, cell_fields, summed_entries
from .errors import ConfigError, SingularSystemError
from .polyspace import inverse_factor, lower_inverse

DIRECT_SOLVE_LIMIT = 500_000
# the dissection stops at parts of at most this many unknowns, which keep
# their natural order and make one front each
LEAF_SIZE = 192


def _t(X):
    return X.transpose(0, 2, 1)


def _local_solve(R, Z, T, f_u, f_p):
    """Fluxes and eliminated pressures of a stack of cells for the flux and
    (negated) pressure loads, with ``A^-1 = R^T R``, ``Z = R B^T`` for the
    pressure rows ``B`` and ``(Z^T Z)^-1 = T^T T``."""
    a = R @ f_u[:, :, None]
    x_p = _t(T) @ (T @ (_t(Z) @ a - f_p[:, :, None]))
    return (_t(R) @ (a - Z @ x_p))[:, :, 0], x_p[:, :, 0]


def dissect(elem, var, centroids, n):
    """Nested dissection of the unknowns ``0 .. n-1`` held by elements:
    element ``elem[i]``, with centroid ``centroids[elem[i]]``, holds unknown
    ``var[i]``, and two unknowns are neighbours when an element holds both.

    Each unknown sits at the mean centroid of its elements.  A part of more
    than ``LEAF_SIZE`` unknowns is split at the median of its longest extent;
    its separator is the smaller of the two one-sided sets of unknowns with a
    neighbour across the split (empty when no element spans it), and the two
    halves without it are split in turn.  Each split reads only the part's
    own element-unknown pairs.  Returns the tree in postorder: each node's
    own unknowns (a separator, or a leaf in natural order) and its parent
    (-1 at the root)."""
    n_elem = len(centroids)
    count = np.maximum(np.bincount(var, minlength=n), 1)
    coords = np.stack([np.bincount(var, centroids[elem, i], n) / count
                       for i in range(centroids.shape[1])], 1)
    left, cut = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    pivots, parent = [], []

    def split(vs, e, v):
        children = []
        if len(vs) > LEAF_SIZE:
            x = coords[vs]
            half = np.argpartition(x[:, np.argmax(np.ptp(x, axis=0))], len(vs) // 2)
            left[vs] = False
            left[vs[half[:len(vs) // 2]]] = True
            on_left = left[v]
            spans = ((np.bincount(e, on_left, n_elem) > 0)
                     & (np.bincount(e, ~on_left, n_elem) > 0))[e]
            sep = min(np.unique(v[spans & on_left]), np.unique(v[spans & ~on_left]),
                      key=len)
            cut[sep] = True
            parts = [(vs[(left[vs] == side) & ~cut[vs]], (on_left == side) & ~cut[v])
                     for side in (True, False)]
            cut[sep] = False
            children = [split(part, e[at], v[at]) for part, at in parts if len(part)]
            vs = sep
        pivots.append(vs)
        parent.append(-1)
        for c in children:
            parent[c] = len(pivots) - 1
        return len(pivots) - 1

    split(np.arange(n), elem, var)
    return pivots, np.array(parent)


class Multifrontal:
    """Cholesky factor of the SPD sum of dense element matrices, on the
    ``dissect`` tree of their ``n`` unknowns.

    ``elements`` is a list of stacks ``(S, ids, centroids)``: matrices
    (m, q, q) on the unknowns ``ids`` (m, q), and the elements' centroids.
    Unknown ``perm[i]`` is eliminated ``i``-th.  Each tree node has one dense
    front: its own unknowns (pivots), then its boundary, the later unknowns
    that share an element with its subtree.  One symbolic pass of array
    operations makes every front's index list, the place of every element
    entry (in the front of the element's first eliminated unknown) and the
    place of every child's update in its parent's front.  The numeric pass
    factors the fronts in postorder: ``L_ss`` by ``np.linalg.cholesky``,
    ``L_bs = F_bs L_ss^-T`` with ``lower_inverse``, and the update
    ``F_bb - L_bs L_bs^T`` to the parent.  A non-positive pivot raises
    ``SingularSystemError`` naming the front.  ``fill`` counts the stored
    entries (the triangles of ``L_ss``, and ``L_bs``)."""

    def __init__(self, elements, n):
        stacks = [(S, ids, c) for S, ids, c in elements if ids.shape[1]]
        q = np.concatenate([np.zeros(0, dtype=int)] + [
            np.full(len(ids), ids.shape[1]) for _, ids, _ in stacks])
        var = np.concatenate([np.zeros(0, dtype=int)] + [ids.ravel() for _, ids, _ in stacks])
        centroids = (np.concatenate([c for *_, c in stacks]) if stacks
                     else np.zeros((0, 3)))
        pivots, parent = dissect(np.repeat(np.arange(len(q)), q), var, centroids, n)
        k = np.array([len(p) for p in pivots])
        self.perm = np.concatenate(pivots)
        self.bounds = np.concatenate([[0], np.cumsum(k)])
        end = self.bounds[1:]
        pos = np.empty(n, dtype=np.int64)
        pos[self.perm] = np.arange(n)
        node = np.repeat(np.arange(len(k)), k)   # the front of each position

        # the symbolic pass, on keys front * n + position.  An element's later
        # unknowns are in the boundary of its home front (the front of its
        # first eliminated unknown) ...
        P = [pos[ids] for _, ids, _ in stacks]
        home = [node[p].min(axis=1) for p in P]
        keys = np.concatenate([np.zeros(0, dtype=np.int64)] + [
            (h[:, None] * n + p)[p >= end[h][:, None]] for h, p in zip(home, P)])
        # ... and a boundary without its parent's pivots is in the parent's:
        # carry the keys up one depth at a time, deepest first
        depth = np.zeros(len(k), dtype=int)
        for t in range(len(k) - 2, -1, -1):
            depth[t] = depth[parent[t]] + 1
        key_depth = depth[keys // n]
        found, carry = [node * n + np.arange(n)], keys[:0]
        for d in range(depth.max(), 0, -1):
            found.append(np.unique(np.concatenate([keys[key_depth == d], carry])))
            t, r = np.divmod(found[-1], n)
            stays = r >= end[parent[t]]
            carry = parent[t[stays]] * n + r[stays]
        fkeys = np.sort(np.concatenate(found))   # each front: pivots, then boundary
        fnode, rows = np.divmod(fkeys, n)
        m = np.bincount(fnode, minlength=len(k))
        off = np.concatenate([[0], np.cumsum(m)])
        # each row's place in its parent's front (read for boundary rows)
        up = np.searchsorted(fkeys, parent[fnode] * n + rows) - off[parent[fnode]]
        # each element entry's flat place in its home front, grouped by front
        flat, vals, front = [], [], []
        for (S, _, _), h, p in zip(stacks, home, P):
            at = np.searchsorted(fkeys, h[:, None] * n + p) - off[h][:, None]
            flat.append((at[:, :, None] * m[h][:, None, None] + at[:, None, :]).ravel())
            vals.append(S.ravel())
            front.append(np.repeat(h, S.shape[1] ** 2))
        front = np.concatenate([np.zeros(0, dtype=int)] + front)
        order = np.argsort(front, kind="stable")
        flat = np.concatenate([np.zeros(0, dtype=int)] + flat)[order]
        vals = np.concatenate([np.zeros(0)] + vals)[order]
        eoff = np.searchsorted(front[order], np.arange(len(k) + 1))
        del stacks, P, front, order

        # the numeric pass: children's updates wait on a stack for their parent
        waiting = np.bincount(parent[m > k], minlength=len(k))
        self.fronts, updates, self.fill = [], [], 0
        for t in range(len(k)):
            mt, kt = m[t], k[t]
            F = np.bincount(flat[eoff[t]:eoff[t + 1]], vals[eoff[t]:eoff[t + 1]],
                            mt * mt).reshape(mt, mt).astype(float, copy=False)
            for _ in range(waiting[t]):
                rel, U = updates.pop()
                F[np.ix_(rel, rel)] += U
                del U   # spent: a top front's children hold most of the memory
            try:
                Linv = lower_inverse(np.linalg.cholesky(F[:kt, :kt]))
            except np.linalg.LinAlgError:
                raise SingularSystemError(
                    f"front {t} of {len(k)} ({kt} unknowns) has a non-positive "
                    "pivot") from None
            Lbs = F[kt:, :kt] @ Linv.T
            b = slice(off[t] + kt, off[t + 1])
            if mt > kt:
                updates.append((up[b], F[kt:, kt:] - Lbs @ Lbs.T))
            self.fronts.append((Linv, Lbs, rows[b]))
            self.fill += int(kt * (kt + 1) // 2 + Lbs.size)
        self.largest_front = int(m.max(initial=0))

    def solve(self, b):
        """``A^-1 b``: one forward and one backward pass over the fronts."""
        y = b[self.perm]
        piv = [slice(a, z) for a, z in zip(self.bounds, self.bounds[1:])]
        for (Linv, Lbs, rows), p in zip(self.fronts, piv):
            y[p] = Linv @ y[p]
            y[rows] -= Lbs @ y[p]
        for (Linv, Lbs, rows), p in zip(reversed(self.fronts), reversed(piv)):
            y[p] = Linv.T @ (y[p] - Lbs.T @ y[rows])
        x = np.empty_like(y)
        x[self.perm] = y
        return x


class Hybridized:
    """The local eliminations of a boundary-conditioned system's cell blocks,
    on stacks of equal-size blocks, and the ``Multifrontal`` factor of the
    SPD system of its global unknowns: the ``kept`` pressures, then the
    multipliers."""

    def __init__(self, system: GlobalSystem):
        n = len(system.rhs)
        fixed = np.isin(np.arange(n), system.fixed)
        # every entry of every block, flattened: its DOF, cell and position
        cells = system.cells
        size = np.array([len(cb.dofs) for cb in cells], dtype=int)
        start = np.cumsum(size) - size
        dofs = np.concatenate([np.zeros(0, dtype=int)] + [cb.dofs for cb in cells])
        cell = np.repeat(np.arange(len(cells)), size)
        pos = np.arange(len(dofs)) - start[cell]
        n_u = np.array([cb.n_u for cb in cells], dtype=int)[cell]
        n_own = n_u + np.array([cb.n_p for cb in cells], dtype=int)[cell]
        flux, own = pos < n_u, (pos >= n_u) & (pos < n_own)
        held = np.bincount(dofs[flux], minlength=n)
        read = np.bincount(dofs[pos >= n_own], minlength=n) > 0
        # a cell's own pressures are eliminated when no interface reads them
        unread = np.bincount(cell[own], read[dofs[own]], minlength=len(cells)) == 0
        local = held > 0
        local[dofs[own]] = unread[cell[own]]
        self.kept = np.flatnonzero(~local & ~fixed)
        self.fixed = np.flatnonzero(fixed)
        shared = np.flatnonzero((held == 2) & ~fixed)
        glob = np.full(n, -1, dtype=int)
        glob[self.kept] = np.arange(len(self.kept))
        glob[shared] = len(self.kept) + np.arange(len(shared))
        self.n_global = len(self.kept) + len(shared)
        # each entry's role, in elimination order: tied flux, private flux,
        # eliminated pressure, global unknown, fixed
        role = np.where(flux, np.where(held[dofs] == 2, 0, 1),
                        np.where(local[dofs], 2, 3))
        role[fixed[dofs]] = 4
        first = np.zeros(len(dofs), dtype=bool)   # a flux's first copy
        at = np.flatnonzero(flux)
        first[at[np.unique(dofs[at], return_index=True)[1]]] = True
        counts = np.bincount(5 * cell + role, minlength=5 * len(cells))
        keys, group = np.unique(np.column_stack([size, counts.reshape(-1, 5)]),
                                axis=0, return_inverse=True)

        self.stacks, elements, self.worst_pivot_ratio = [], [], 1.0
        for j, (N, n_tied, n_free, n_el, n_g, _) in enumerate(keys):
            members = np.flatnonzero(group.ravel() == j)
            # the group's entries sorted by role, so its blocks align
            at = start[members][:, None] + np.arange(N)
            at = np.take_along_axis(at, np.argsort(role[at], axis=1, kind="stable"), 1)
            loc = pos[at]
            M = np.stack([cells[c].matrix for c in members])
            M = M[np.arange(len(members))[:, None, None], loc[:, :, None], loc[:, None, :]]
            f = slice(0, n_tied + n_free)
            e, g = slice(f.stop, f.stop + n_el), slice(f.stop + n_el, f.stop + n_el + n_g)
            E = np.concatenate([np.zeros((len(members), f.stop, n_tied)), M[:, f, g]], 2)
            tie = np.arange(n_tied)
            E[:, tie, tie] = np.where(first[at[:, :n_tied]], 1.0, -1.0)
            ids = glob[dofs[np.concatenate([at[:, :n_tied], at[:, g]], 1)]]
            # A^-1 = R^T R and (Z^T Z)^-1 = T^T T; with no eliminated pressures
            # Z and T are empty
            R, ratio = inverse_factor(M[:, f, f], "cell flux block")
            Y, Z = R @ E, R @ M[:, f, e]
            T, ratio_p = inverse_factor(_t(Z) @ Z, "cell pressure Schur complement")
            Q = T @ (_t(Z) @ Y)
            self.worst_pivot_ratio = min(self.worst_pivot_ratio, float(ratio.min()),
                                         float(ratio_p.min()))
            self.stacks.append((R, Z, T, E, ids, dofs[at[:, f]], first[at[:, f]],
                                dofs[at[:, e]]))
            S = _t(Y) @ Y - _t(Q) @ Q
            S[:, n_tied:, n_tied:] += M[:, g, g]   # the blocks' own kept entries
            elements.append((S, ids, np.array([cells[c].centroid for c in members])))
        self.factor = Multifrontal(elements, self.n_global)

    def solve(self, b):
        """The solution of the system for the right-hand side ``b``."""
        x = np.zeros(len(b))
        x[self.fixed] = b[self.fixed]
        rhs = np.zeros(self.n_global)
        rhs[:len(self.kept)] = b[self.kept]
        loads = [(np.where(first, b[u], 0.0), -b[p]) for *_, u, first, p in self.stacks]
        for (R, Z, T, E, g, *_), (f_u, f_p) in zip(self.stacks, loads):
            x_u = _local_solve(R, Z, T, f_u, f_p)[0]
            rhs += np.bincount(g.ravel(), (_t(E) @ x_u[:, :, None]).ravel(),
                               minlength=self.n_global)
        y = self.factor.solve(rhs)
        for (R, Z, T, E, g, u, _, p), (f_u, f_p) in zip(self.stacks, loads):
            x[u], x[p] = _local_solve(R, Z, T, f_u - (E @ y[g][:, :, None])[:, :, 0], f_p)
        x[self.kept] = y[:len(self.kept)]
        return x


def solve(system: GlobalSystem, tol: float = 1e-10) -> "DiscreteSolution":
    """Solve the assembled system; report singular systems with a null-space
    dimension estimate instead of returning garbage."""
    if not system.bc_applied:
        raise ValueError("apply_boundary_conditions before solving")
    A, b = system.matrix, system.rhs
    n = len(b)
    if n > DIRECT_SOLVE_LIMIT:
        raise ConfigError(f"the system has {n} DOFs, above the direct solve "
                          f"limit of {DIRECT_SOLVE_LIMIT}")
    why = ""
    with np.errstate(all="ignore"):
        try:
            hyb = Hybridized(system)
            x = hyb.solve(b)
            before = np.linalg.norm(A @ x - b)
            x = x + hyb.solve(b - A @ x)  # one refinement step
        except SingularSystemError as exc:   # a non-positive front pivot
            x, why = np.full(n, np.nan), f": {exc}"
    scale = np.linalg.norm(b) if np.linalg.norm(b) > 0 else 1.0
    res = np.linalg.norm(A @ x - b)
    if not np.all(np.isfinite(x)) or res > tol * scale:
        null_dim = None
        if n <= 2000:
            dense = np.zeros((n, n))
            rows, cols, vals = summed_entries(system.cells, n, system.fixed)
            dense[rows, cols] = vals
            sv = np.linalg.svd(dense, compute_uv=False)
            null_dim = int(np.sum(sv <= 1e-10 * sv.max()))
        raise SingularSystemError(
            f"global system singular or solve failed (residual {res:.3e}){why}",
            null_dim=null_dim)
    factor = hyb.factor
    return DiscreteSolution(system=system, x=x, residual=res,
                            residual_before_refinement=before,
                            global_dofs=hyb.n_global, lu_fill=factor.fill,
                            fronts=len(factor.fronts),
                            largest_front=factor.largest_front,
                            worst_pivot_ratio=hyb.worst_pivot_ratio)


@dataclass
class DiscreteSolution:
    """Global DOF vector with per-domain views and projected velocities, and
    the solve's health: factorized size, the factor's stored entries
    (``lu_fill``), its number of fronts and the largest front's size, and the
    worst local pivot ratio of the cell eliminations and of the element
    solves."""

    system: GlobalSystem
    x: np.ndarray
    residual: float
    residual_before_refinement: float = 0.0
    global_dofs: int = 0
    lu_fill: int = 0
    fronts: int = 0
    largest_front: int = 0
    worst_pivot_ratio: float = 1.0
    _proj: dict = field(default_factory=dict)

    @property
    def dofmap(self):
        return self.system.dofmap

    @property
    def worst_element_pivot_ratio(self):
        """Smallest pivot ratio of the local solves that built the elements
        (``local_matrices``)."""
        return min((loc.pivot_ratio for blk in self.dofmap.blocks.values()
                    for loc in blk.locals_ if loc is not None), default=1.0)

    @property
    def md(self):
        return self.system.md

    def local_flux_dofs(self, blk, ci):
        """Element flux DOFs in the element's own outward convention."""
        return blk.cell_u_signs[ci] * self.x[blk.cell_u_dofs[ci]]

    def pressure_coeffs(self, blk, ci):
        return self.x[blk.cell_p_dofs[ci]]

    def projected_velocity(self, blk, ci):
        """Coefficients of the element velocity in the cell's ``vec_basis``
        (exact on a segment)."""
        key = (blk.dim, blk.index, ci)
        if key not in self._proj:
            self._proj[key] = blk.locals_[ci].Pi0_hat @ self.local_flux_dofs(blk, ci)
        return self._proj[key]


def project_solution(sol: DiscreteSolution):
    """All per-element projected velocity coefficient tables."""
    out = {}
    for key, blk in sol.dofmap.blocks.items():
        if blk.dim == 0 or blk.locals_[0] is None:
            continue
        out[key] = [sol.projected_velocity(blk, ci) for ci in range(len(blk.geoms))]
    return out


@dataclass
class ExactFields:
    """Exact solution callbacks in physical coordinates.

    ``velocity`` returns the 3D flux vector (its tangential components are
    compared on fractures and traces); ``divergence`` is the flux divergence
    within the domain's own dimension.
    """

    pressure: object
    velocity: object
    divergence: object


def error_norms(sol: DiscreteSolution, exact: dict):
    """L2 errors (e_p, e_u, e_div) per domain and aggregated.

    ``exact`` maps (dim, index) -> ExactFields; domains without an entry are
    skipped.  Returns {key: (e_p, e_u, e_div, n_p, n_u, n_div)} with absolute
    errors and exact norms, plus an "aggregate" entry.
    """
    dm = sol.dofmap
    qo = 2 * (dm.order + 2)
    out = {}
    agg = np.zeros(6)
    for key, blk in dm.blocks.items():
        if key not in exact or blk.dim == 0:
            continue
        ex = exact[key]
        sq = np.zeros(2 * (blk.dim + 2))
        fields = (ex.pressure, ex.velocity, ex.divergence)
        for ci, pts, w, (p_ex, u_ex, div_ex) in cell_fields(
                blk, range(len(blk.geoms)), qo, fields):
            loc = blk.locals_[ci]
            # one table over the velocity monomials, whose leading entries are
            # the pressure (and divergence) monomials: columns p_h, u_h, div_h
            vb, n_p = loc.vec_basis, loc.basis_p.size
            table = np.zeros((vb.coeffs.shape[2], blk.dim + 2))
            table[:n_p, 0] = sol.pressure_coeffs(blk, ci)
            table[:, 1:-1] = np.einsum("b,bij->ji", sol.projected_velocity(blk, ci),
                                       vb.coeffs)
            table[:n_p, -1] = loc.V @ sol.local_flux_dofs(blk, ci)
            if blk.frame is not None:
                u_ex = u_ex @ blk.frame.T
            E = np.column_stack([p_ex, u_ex, div_ex])
            E = np.hstack([E - vb.scalar.evaluate(pts) @ table, E])
            sq += w @ (E * E)
        d = blk.dim + 2
        acc = np.array([sq[0], sq[1:d - 1].sum(), sq[d - 1],
                        sq[d], sq[d + 1:2 * d - 1].sum(), sq[2 * d - 1]])
        out[key] = tuple(np.sqrt(acc))
        agg += acc
    out["aggregate"] = tuple(np.sqrt(agg))
    return out


def relative_errors(norms):
    """(e_p, e_u, e_div) relative to the exact norms (absolute if zero)."""
    out = {}
    for key, vals in norms.items():
        e = []
        for i in range(3):
            denom = vals[3 + i]
            e.append(vals[i] / denom if denom > 1e-14 else vals[i])
        out[key] = tuple(e)
    return out


# ---------------------------------------------------------------------------
# Flux accounting
# ---------------------------------------------------------------------------


@dataclass
class EntityFlux:
    """Signed flux bookkeeping of one domain entity.

    bc_flux       boundary outflux  (integral of u.n over the external boundary)
    divergence    integral of div(u_h) over the entity
    source        integral of the supplied loading
    sent          outflux into each lower-dimensional entity (the flux jump)
    received      inflow records mirrored from the higher dimension
    """

    key: tuple
    bc_flux: float = 0.0
    divergence: float = 0.0
    source: float = 0.0
    sent: dict = field(default_factory=dict)
    received: dict = field(default_factory=dict)
    pinned: bool = False   # 0D entity with a prescribed pressure value

    @property
    def mismatch(self):
        """Residual of the entity balance div - received - source.

        A pinned intersection has no balance equation: its residual is what
        flows out through the prescribed-pressure point, recorded in bc_flux.
        """
        res = self.divergence - sum(self.received.values()) - self.source
        return res + self.bc_flux if self.pinned else res

    @property
    def balance_scale(self):
        vals = [abs(self.bc_flux), abs(self.divergence), abs(self.source)]
        vals += [abs(v) for v in self.sent.values()]
        vals += [abs(v) for v in self.received.values()]
        return max(vals + [1.0])


@dataclass
class FluxReport:
    entities: dict

    def entity(self, dim, index=0) -> EntityFlux:
        return self.entities[(dim, index)]

    def max_relative_mismatch(self):
        return max(abs(e.mismatch) / e.balance_scale for e in self.entities.values())

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("# source target value\n")
            for key, e in sorted(self.entities.items()):
                name = _entity_name(key)
                fh.write(f"{name} BC {e.bc_flux:.12e}\n")
                fh.write(f"{name} S {-e.source:.12e}\n")
                fh.write(f"{name} DIV {e.divergence:.12e}\n")
                for tgt, v in sorted(e.sent.items()):
                    fh.write(f"{name} {_entity_name(tgt)} {v:.12e}\n")


def _entity_name(key):
    d, i = key
    return {3: "matrix", 2: f"fracture_{i}", 1: f"trace_{i}",
            0: f"intersection_{i}"}[d]


def face_flux(sol: DiscreteSolution, blk, ci, lf) -> float:
    """Outward flux through face ``lf`` of cell ``ci``: the lowest face moment
    times its sign times the face measure (a segment's end has unit
    measure)."""
    j = blk.locals_[ci].layout.face_slice(lf).start
    return (float(blk.cell_u_signs[ci][j] * sol.x[blk.cell_u_dofs[ci][j]])
            * blk.geoms[ci].faces[lf].measure)


def boundary_face_fluxes(sol: DiscreteSolution, blk) -> list:
    """Outward flux through each boundary face of a block, in the order of
    ``blk.boundary``."""
    return [face_flux(sol, blk, ci, lf) for ci, lf, *_ in blk.boundary]


def flux_report(sol: DiscreteSolution) -> FluxReport:
    """Integrate interface and boundary fluxes directly from face DOF data."""
    dm, md = sol.dofmap, sol.md
    entities = {}
    for key, blk in dm.blocks.items():
        e = EntityFlux(key=key)
        entities[key] = e
        if blk.dim == 0:
            src = blk.source
            e.source = src if not callable(src) else src(md.intersections[blk.index].coords)
            continue
        # divergence content from the pressure-space moments of div(u_h)
        for ci in range(len(blk.geoms)):
            loc = blk.locals_[ci]
            if loc is None:
                continue
            div_coeffs = loc.V @ sol.local_flux_dofs(blk, ci)
            e.divergence += float(loc.H[0] @ div_coeffs)
        for flux in boundary_face_fluxes(sol, blk):
            e.bc_flux += flux
        # constrained (no-flux) parts contribute zero by construction
        if callable(blk.source) or float(blk.source) != 0.0:
            for _, _, w, (f,) in cell_fields(blk, range(len(blk.geoms)),
                                             2 * (dm.order + 2), (blk.source,)):
                e.source += float(np.sum(w * f))

    # interface exchanges: the outward flux of every interface side
    for side in dm.interfaces:
        flux = face_flux(sol, dm.blocks[side.upper], side.cell, side.face)
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
    return FluxReport(entities=entities)


# ---------------------------------------------------------------------------
# Text/CSV exports
# ---------------------------------------------------------------------------


def write_error_table(norms: dict, path):
    rel = relative_errors(norms)
    with open(path, "w") as fh:
        fh.write("domain,d,l,e_p,e_u,e_div\n")
        for key in sorted(k for k in norms if isinstance(k, tuple)):
            d, l = key
            e = rel[key]
            fh.write(f"{_entity_name(key)},{d},{l},{e[0]:.6e},{e[1]:.6e},{e[2]:.6e}\n")
        e = rel["aggregate"]
        fh.write(f"aggregate,-,-,{e[0]:.6e},{e[1]:.6e},{e[2]:.6e}\n")


def _lines(fmt, rows):
    """One string of lines, each an entry (or row) of ``rows`` formatted by
    ``fmt``."""
    rows = np.asarray(rows)
    return ((fmt + "\n") * len(rows)) % tuple(rows.ravel().tolist())


def write_fields_vtk(sol: DiscreteSolution, path):
    """Legacy-VTK polygon soup with cell pressures, plus centroid velocities
    in the companion ``<path>.velocity.vtk``; returns both paths."""
    dm, md = sol.dofmap, sol.md
    mesh = md.mesh3d
    polys, pressures, entity = [], [], []

    def centroid_pressure(blk, ci, centroid):
        return float(blk.locals_[ci].basis_p.evaluate(centroid[None, :])[0]
                     @ sol.pressure_coeffs(blk, ci))

    blk3 = dm.block(3)
    for ci, cid in enumerate(blk3.cell_ids):
        p_c = centroid_pressure(blk3, ci, blk3.geoms[ci].centroid)
        for fid, _ in mesh.cells[cid]:
            polys.append(mesh.face_coords(fid))
            pressures.append(p_c)
            entity.append(3)
    for fm in md.fractures:
        blk2 = dm.block(2, fm.index)
        for ci, cell in enumerate(fm.cells):
            polys.append(np.array([mesh.verts[v] for v in cell.vids]))
            pressures.append(centroid_pressure(blk2, ci, cell.geometry.centroid))
            entity.append(2)
    sizes = np.array([len(p) for p in polys], dtype=int)
    points = np.concatenate(polys)
    # each polygon's line: its size, then its points' consecutive ids
    ids = np.insert(np.arange(len(points)), np.cumsum(sizes) - sizes, sizes)
    poly_fmt = "".join(" ".join(["%d"] * (n + 1)) + "\n" for n in sizes)

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nmixedvem fields\nASCII\n")
        fh.write("DATASET POLYDATA\n")
        fh.write(f"POINTS {len(points)} double\n")
        fh.write(_lines("%.9e %.9e %.9e", points))
        fh.write(f"POLYGONS {len(polys)} {len(ids)}\n")
        fh.write(poly_fmt % tuple(ids.tolist()))
        fh.write(f"CELL_DATA {len(polys)}\n")
        fh.write("SCALARS pressure double 1\nLOOKUP_TABLE default\n")
        fh.write(_lines("%.9e", pressures))
        fh.write("SCALARS entity_dim int 1\nLOOKUP_TABLE default\n")
        fh.write(_lines("%d", entity))

    # companion file: cell-centroid velocity vectors
    vec_path = str(path) + ".velocity.vtk"
    centers, vectors = [], []
    for key, blk in dm.blocks.items():
        if blk.dim == 0 or blk.locals_[0] is None:
            continue
        for ci, loc in enumerate(blk.locals_):
            c_local = loc.vec_basis.scalar.center[None, :]   # in cell coordinates
            vec = np.einsum("b,pbi->pi", sol.projected_velocity(blk, ci),
                            loc.vec_basis.evaluate(c_local))[0]
            if blk.frame is not None:
                vec = vec @ blk.frame
            centers.append(blk.point_map(ci, c_local)[0])
            vectors.append(vec)
    n = len(centers)
    with open(vec_path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nmixedvem velocities\nASCII\n")
        fh.write("DATASET POLYDATA\n")
        fh.write(f"POINTS {n} double\n")
        fh.write(_lines("%.9e %.9e %.9e", centers))
        fh.write(f"VERTICES {n} {2 * n}\n")
        fh.write(_lines("1 %d", np.arange(n)))
        fh.write(f"POINT_DATA {n}\n")
        fh.write("VECTORS velocity double\n")
        fh.write(_lines("%.9e %.9e %.9e", vectors))
    return [str(path), vec_path]

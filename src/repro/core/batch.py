"""Batched scheduling: every kernel heuristic on many grids in one lane loop.

The Monte-Carlo studies of the paper (Figures 1–4) schedule the *same*
heuristics on thousands of independent random grids of identical size.  This
module stacks the per-grid cost matrices of a whole chunk into ``(K, n, n)``
arrays and schedules **every kernel heuristic of the chunk at once**.  Each
*lane* is one (selection rule, grid) pair; all lanes advance one selection
round at a time, so every NumPy call does the work of many lanes.

The lane loop
-------------
FEF, ECEF and the ECEF-LA family are one rule,
``argmin over A×B of (u·RT_i + W_ij) + F_j``:

* FEF: ``u = 0`` and ``W`` is the latency (or the transfer time);
* the ECEF family: ``u = 1`` and ``W = g + L`` (the transfer time);
* ``F`` is the lookahead: zero, Bhat's min-edge, the grid-aware min or the
  grid-aware max (``max = −min(−x)``, which is exact).

BottomUp keeps the cheapest sender of every pending column, Flat Tree
follows its fixed visit order, and ``Mixed`` resolves to its delegate.
Heuristics that resolve to the same rule share one set of lanes.

Incremental row minima
----------------------
Each informed row ``i`` of a selection lane keeps its minimum over the
pending columns and the first column reaching it.  The pick is the first row
holding the smallest row minimum, then that row's column.  That is exactly
the first occurrence of the global minimum in row-major order — the
tie-breaking of the scalar loops (senders ascending, receivers ascending,
strict comparisons) — because the first row containing the global minimum is
the first row whose minimum equals it.

After a commit ``(s, r)`` only the *dirty* rows are recomputed, from the
same float expression ``(RT_i·u + W_ij) + F_j``:

* rows whose best column was ``r``, which left ``B`` — the sender's row
  among them, so its grown ready time is picked up too;
* the receiver's new row;
* rows whose best column's ``F`` rose: a min-lookahead ``F_j`` changes only
  when its argmin target was ``r``, so only those ``F_j`` are recomputed;
* every row of a lane whose max-lookahead ``F`` fell, since a smaller score
  can overtake any row's minimum.

Every other row keeps its minimum and its first column: removing a
non-minimal column or raising the score of a column after the first minimal
one cannot move either.  The final single-candidate round uses no lookahead,
as the per-grid engines do, so its row minima are rebuilt from that one
column.  BottomUp's column minima follow the same scheme: a column is
recomputed when its cheapest sender was the last sender (only when ``RT_i``
enters its cost), and the new informed row is merged in under the
first-index tie rule.

Dirty rows are gathered from the shared stacks in blocks of at most
``K·n/2`` rows — half a ``(K, n, n)`` stack — and no per-lane copy of a
stack is ever built, so working memory stays below the chunk's own stacks
however many lanes run.

The kernels reproduce the per-grid engines bit for bit (makespans identical,
ties included) for every paper heuristic and min/max lookahead; the
equivalence test-suite asserts exactly that.  The two *average*-based
ablation lookaheads reduce via BLAS matmuls whose summation order differs
from the other engines', so their scores can differ by ULPs; they recompute
``F`` every round and mark every row dirty.

Only the heuristics of the paper's Monte-Carlo line-up have lane rules (ECEF,
the ECEF-LA family with registered lookaheads, FEF, BottomUp, Flat Tree, and
Mixed by delegation).  :func:`batched_makespans` returns ``None`` for
anything else — e.g. :class:`~repro.core.optimal.OptimalSearch` or a custom
heuristic — and callers fall back to the per-grid path.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.core.base import SchedulingHeuristic
from repro.core.bottomup import BottomUp
from repro.core.costs import GridCostCache
from repro.core.ecef import ECEF, ECEFLookahead
from repro.core.fef import FastestEdgeFirst
from repro.core.flat_tree import FlatTreeHeuristic
from repro.core.lookahead import (
    average_informed_lookahead,
    average_latency_lookahead,
    grid_aware_max_lookahead,
    grid_aware_min_lookahead,
    min_edge_lookahead,
    no_lookahead,
)
from repro.core.mixed import MixedStrategy


class BatchedGridCosts:
    """Stacked cost matrices of ``K`` same-sized grids.

    The study runtime prices a Monte-Carlo chunk at its stacked cells,
    ``iterations * clusters**2``, when it sizes chunks and picks an
    executor lane (:mod:`repro.runtime.chunking`).

    Attributes
    ----------
    num_grids, num_clusters:
        The stack dimensions ``K`` and ``n``.
    gap, latency, transfer:
        ``(K, n, n)`` arrays (zero diagonals).
    broadcast:
        ``(K, n)`` array of local broadcast times.
    """

    def __init__(self, caches: Sequence[GridCostCache]) -> None:
        if not caches:
            raise ValueError("BatchedGridCosts needs at least one grid")
        sizes = {cache.num_clusters for cache in caches}
        if len(sizes) != 1:
            raise ValueError(
                f"all grids of a batch must have the same size, got {sorted(sizes)}"
            )
        self.num_grids = len(caches)
        self.num_clusters = sizes.pop()
        self.gap = np.stack([cache.gap for cache in caches])
        self.latency = np.stack([cache.latency for cache in caches])
        self.transfer = np.stack([cache.transfer for cache in caches])
        self.broadcast = np.stack([cache.broadcast for cache in caches])
        self._makespans: dict[tuple[int, _Rule], np.ndarray] = {}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> BatchedGridCosts:
        """Adopt ready-made ``gap``/``latency``/``transfer``/``broadcast``
        stacks without copying them — the Monte-Carlo study's path, fed by
        :meth:`repro.topology.generators.RandomGridGenerator.cost_stacks`.

        Raises :class:`ValueError` for an empty stack and for stacks that
        are not ``(K, n, n)`` / ``(K, n)`` of one ``K`` and ``n``.
        """
        stack = cls.__new__(cls)
        stack.gap = arrays["gap"]
        stack.latency = arrays["latency"]
        stack.transfer = arrays["transfer"]
        stack.broadcast = arrays["broadcast"]
        shapes = [
            np.shape(array)
            for array in (stack.gap, stack.latency, stack.transfer, stack.broadcast)
        ]
        if not shapes[0] or not shapes[0][0]:
            raise ValueError("BatchedGridCosts needs at least one grid")
        num_grids, num_clusters = shapes[0][0], shapes[0][-1]
        square = (num_grids, num_clusters, num_clusters)
        if shapes != [square, square, square, (num_grids, num_clusters)]:
            raise ValueError(
                f"all grids of a batch must have the same size, got shapes {shapes}"
            )
        stack.num_grids, stack.num_clusters = num_grids, num_clusters
        stack._makespans = {}
        return stack


# -- lane rules -----------------------------------------------------------------------


class _Rule(NamedTuple):
    """One selection rule; every heuristic resolving to it shares its lanes."""

    kind: str  # "select", "bottom_up" or "flat"
    weight: str = "transfer"  # select: the W stack ("latency" or "transfer")
    ready: float = 0.0  # u: 1.0 when RT_i enters the score
    lookahead: Callable | None = None  # select: F (None means F = 0)
    order: tuple[int, ...] | None = None  # flat: the explicit cluster order


#: ``(sign, with_broadcast)`` of the exact lookaheads:
#: ``F_j = sign · min_{k in B, k != j} sign · (g_{j,k} + L_{j,k} [+ T_k])``.
_EXTREMUM_LOOKAHEADS: dict[object, tuple[float, float]] = {
    min_edge_lookahead: (1.0, 0.0),
    grid_aware_min_lookahead: (1.0, 1.0),
    grid_aware_max_lookahead: (-1.0, 1.0),
}


def _average_latency(transfer, informed_f, pending_f) -> np.ndarray:
    # Zero diagonal => the row sums over pending columns already exclude j.
    sums = np.matmul(transfer, pending_f[:, :, None])[:, :, 0]
    others = pending_f.sum(axis=1) - 1.0
    return sums / others[:, None]


def _average_informed(transfer, informed_f, pending_f) -> np.ndarray:
    column_sums = np.matmul(informed_f[:, None, :], transfer)[:, 0, :]
    row_sums = np.matmul(transfer, pending_f[:, :, None])[:, :, 0]
    total = (column_sums * pending_f).sum(axis=1)
    informed_count = informed_f.sum(axis=1)
    others = pending_f.sum(axis=1) - 1.0
    count = (informed_count + 1.0) * others
    return (total[:, None] - column_sums + row_sums) / count[:, None]


#: The ablation lookaheads: ``(K, n)`` ``F`` columns from the full stacks.
_AVERAGE_LOOKAHEADS: dict[object, Callable[..., np.ndarray]] = {
    average_latency_lookahead: _average_latency,
    average_informed_lookahead: _average_informed,
}


def _rule(heuristic: SchedulingHeuristic, num_clusters: int) -> _Rule | None:
    """The lane rule of ``heuristic``, or ``None`` when it has none.

    Dispatch is on the *exact* type — a subclass may override
    ``build_order``, so it must take the per-grid path rather than silently
    inheriting the parent's rule.
    """
    kind = type(heuristic)
    if kind is MixedStrategy:
        return _rule(heuristic.choose(num_clusters), num_clusters)
    if kind is ECEF or (kind is ECEFLookahead and heuristic.lookahead is no_lookahead):
        return _Rule("select", ready=1.0)
    if kind is ECEFLookahead:
        lookahead = heuristic.lookahead
        if lookahead in _EXTREMUM_LOOKAHEADS or lookahead in _AVERAGE_LOOKAHEADS:
            return _Rule("select", ready=1.0, lookahead=lookahead)
        return None
    if kind is FastestEdgeFirst:
        weight = "latency" if heuristic.weight == "latency" else "transfer"
        return _Rule("select", weight=weight)
    if kind is BottomUp:
        return _Rule("bottom_up", ready=float(heuristic.use_ready_time))
    if kind is FlatTreeHeuristic:
        order = heuristic.cluster_order
        return _Rule("flat", order=None if order is None else tuple(order))
    return None


# -- the lane loop --------------------------------------------------------------------


def _blocks(count: int, size: int):
    """``(lo, hi)`` bounds of consecutive blocks of at most ``size`` items."""
    return ((lo, min(count, lo + size)) for lo in range(0, count, size))


class _LaneLoop:
    """Ready times and A/B sets of every (rule, grid) lane, in lockstep.

    Lanes are laid out rule-major: lane ``g·K + k`` runs rule ``g`` on grid
    ``k``.  Selection rules come first — latency-weighted before
    transfer-weighted, so each ``W`` stack serves one contiguous lane range,
    and min/max lookaheads contiguous — then BottomUp, then Flat Tree.
    """

    def __init__(self, costs: BatchedGridCosts, root: int, rules: list[_Rule]) -> None:
        K, n = costs.num_grids, costs.num_clusters
        select = sorted(
            (rule for rule in rules if rule.kind == "select"),
            key=lambda rule: (
                rule.weight != "latency",
                rule.lookahead in _EXTREMUM_LOOKAHEADS,
                rule.lookahead in _AVERAGE_LOOKAHEADS,
            ),
        )
        bottom_up = [rule for rule in rules if rule.kind == "bottom_up"]
        flat = [rule for rule in rules if rule.kind == "flat"]
        self.rules = select + bottom_up + flat
        self.costs, self.root, self.n = costs, root, n
        self.block = max(1, K * n // 2)
        self.count = np.arange(self.block)
        num_lanes = len(self.rules) * K
        self.lanes = np.arange(num_lanes)
        self.grid = np.tile(np.arange(K), len(self.rules))
        self.rt = np.zeros((num_lanes, n))
        self.informed = np.zeros((num_lanes, n), dtype=bool)
        self.informed[:, root] = True
        self.pending = ~self.informed

        # Selection lanes [0, S): row minima of (u·RT_i + W_ij) + F_j.
        S = self.S = len(select) * K
        self.ready = np.repeat([rule.ready for rule in select], K)
        self.weights = []  # (first lane, end lane, W stack)
        for weight, stack in (("latency", costs.latency), ("transfer", costs.transfer)):
            groups = [g for g, rule in enumerate(select) if rule.weight == weight]
            if groups:
                self.weights.append((groups[0] * K, (groups[-1] + 1) * K, stack))
        self.bonus = np.where(self.pending[:S], 0.0, np.inf)  # F_j on B, inf off B
        self.rowmin = np.full((S, n), np.inf)
        self.rowarg = np.full((S, n), -1)
        self.lane_column = self.lanes[:S, None]
        # Min/max lookahead lanes: F_j = sign·min_k (sign·W_jk + reach_k).
        sign, with_broadcast = np.repeat(
            [_EXTREMUM_LOOKAHEADS.get(rule.lookahead, (0.0, 0.0)) for rule in select]
            or np.empty((0, 2)),
            K,
            axis=0,
        ).T
        self.sign, self.falls = sign, sign < 0  # max lookahead: F only ever falls
        lanes = sign.nonzero()[0]  # contiguous, by the sort above
        self.extremum = slice(lanes[0], lanes[-1] + 1) if lanes.size else slice(0, 0)
        # sign·T_k on B (grid-aware lookaheads; 0 for min-edge), inf off B.
        reach = (sign * with_broadcast)[:, None] * costs.broadcast[self.grid[:S]]
        self.reach = np.where(self.pending[:S], reach, np.inf)
        self.target = np.full((S, n), -1)  # an argmin k of every F_j
        self.averages = [
            (slice(g * K, (g + 1) * K), _AVERAGE_LOOKAHEADS[rule.lookahead])
            for g, rule in enumerate(select)
            if rule.lookahead in _AVERAGE_LOOKAHEADS
        ]

        # BottomUp lanes: cheapest sender per pending column of (W_ij + T_j) + u·RT_i.
        B = len(bottom_up) * K
        self.bottom_up = slice(S, S + B)
        self.bu_local = np.arange(B)
        self.bu_ready = np.repeat([rule.ready for rule in bottom_up], K)
        self.bu_broadcast = costs.broadcast[self.grid[S : S + B]]
        self.colmin = np.where(self.pending[S : S + B], np.inf, -np.inf)
        self.colarg = np.full((B, n), root)

        # Flat Tree lanes: the fixed visit order of each rule.
        self.flat = slice(S + B, num_lanes)
        self.targets = np.repeat(
            [FlatTreeHeuristic(rule.order).resolve_targets(root, n) for rule in flat],
            K,
            axis=0,
        ).reshape(len(flat) * K, n - 1)

    # -- driving ------------------------------------------------------------------

    def run(self) -> dict[_Rule, np.ndarray]:
        """Schedule every lane; the makespans of each rule's ``K`` grids."""
        n, S, bu, flat = self.n, self.S, self.bottom_up, self.flat
        senders = np.full(len(self.lanes), self.root)
        receivers = np.empty(len(self.lanes), dtype=np.intp)
        if n > 1:
            self._refresh_select(None, n - 1)
            self._merge_bottom_up(senders[bu])
        for step in range(n - 1):
            senders[:S] = rows = self.rowmin.argmin(axis=1)
            receivers[:S] = self.rowarg[self.lanes[:S], rows]
            receivers[bu] = columns = self.colmin.argmax(axis=1)
            senders[bu] = self.colarg[self.bu_local, columns]
            receivers[flat] = self.targets[:, step]
            self._commit(senders, receivers)
            remaining = n - 2 - step
            if remaining:
                self._refresh_select(receivers[:S], remaining)
                self._refresh_bottom_up(senders[bu], receivers[bu])
        spans = (self.rt + self.costs.broadcast[self.grid]).max(axis=1)
        return dict(zip(self.rules, spans.reshape(len(self.rules), -1)))

    def _commit(self, senders: np.ndarray, receivers: np.ndarray) -> None:
        lanes, grid = self.lanes, self.grid
        release = self.rt[lanes, senders] + self.costs.gap[grid, senders, receivers]
        self.rt[lanes, senders] = release
        self.rt[lanes, receivers] = (
            release + self.costs.latency[grid, senders, receivers]
        )
        self.informed[lanes, receivers] = True
        self.pending[lanes, receivers] = False

    # -- selection lanes ------------------------------------------------------------

    def _refresh_select(self, receivers, remaining: int) -> None:
        """Bring the row minima up to date after a commit (``None``: start)."""
        S, ext = self.S, self.extremum
        if not S:
            return
        if remaining == 1:
            self._last_column()
            return
        if receivers is None:
            dirty = self.informed[:S].copy()
            stale = self.pending[ext]
        else:
            lanes = self.lanes[:S]
            self.reach[lanes, receivers] = np.inf
            self.bonus[lanes, receivers] = np.inf
            dirty = self.rowarg == receivers[:, None]  # the sender's row too
            dirty[lanes, receivers] = True
            stale = self.target[ext] == receivers[ext, None]
            stale &= self.pending[ext]
        lanes, columns = stale.nonzero()
        if lanes.size:
            self._refresh_lookahead(lanes + ext.start, columns, dirty)
        for block, average in self.averages:
            values = average(
                self.costs.transfer,
                self.informed[block].astype(float),
                self.pending[block].astype(float),
            )
            self.bonus[block] = np.where(self.pending[block], values, np.inf)
            dirty[block] = True
        dirty &= self.informed[:S]
        self._row_minima(*dirty.nonzero())

    def _refresh_lookahead(self, lanes, columns, dirty) -> None:
        """Recompute the min/max ``F_j`` of ``(lane, j)`` pairs; mark rows."""
        values = np.empty(len(lanes))
        targets = np.empty(len(lanes), dtype=np.intp)
        for lo, hi in _blocks(len(lanes), self.block):
            lane, column = lanes[lo:hi], columns[lo:hi]
            scores = self.costs.transfer[self.grid[lane], column]
            scores *= self.sign[lane, None]
            scores += self.reach[lane]
            scores[self.count[: hi - lo], column] = np.inf  # k != j
            targets[lo:hi] = best = scores.argmin(axis=1)
            values[lo:hi] = scores[self.count[: hi - lo], best] * self.sign[lane]
        moved = values != self.bonus[lanes, columns]
        self.bonus[lanes, columns] = values
        self.target[lanes, columns] = targets
        if moved.any():
            changed = np.zeros(dirty.shape, dtype=bool)
            changed[lanes[moved], columns[moved]] = True
            dirty |= changed[self.lane_column, self.rowarg]
            dirty[self.falls & changed.any(axis=1)] = True

    def _row_minima(self, lanes: np.ndarray, rows: np.ndarray) -> None:
        """Recompute the minimum and first column of ``(lane, row)`` pairs."""
        for lo, hi in _blocks(len(lanes), self.block):
            lane, row = lanes[lo:hi], rows[lo:hi]
            scores = self._weight_rows(lane, row)
            scores += (self.ready[lane] * self.rt[lane, row])[:, None]
            scores += self.bonus[lane]
            self.rowarg[lane, row] = best = scores.argmin(axis=1)
            self.rowmin[lane, row] = scores[self.count[: hi - lo], best]

    def _weight_rows(self, lanes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Rows ``W[grid, row, :]`` of each pair's weight stack.

        ``lanes`` is ascending (``nonzero`` order), so each weight stack's
        lanes form one contiguous run of the pairs.
        """
        if len(self.weights) == 1:
            return self.weights[0][2][self.grid[lanes], rows]
        out = np.empty((len(lanes), self.n))
        for first, end, stack in self.weights:
            lo, hi = np.searchsorted(lanes, (first, end))
            out[lo:hi] = stack[self.grid[lanes[lo:hi]], rows[lo:hi]]
        return out

    def _last_column(self) -> None:
        """Row minima over the single pending column, without lookahead."""
        last = self.pending[: self.S].argmax(axis=1)
        for first, end, stack in self.weights:
            lane = self.lanes[first:end]
            scores = stack[self.grid[lane], :, last[lane]]
            scores += self.ready[lane, None] * self.rt[lane]
            scores[np.arange(len(lane)), last[lane]] = np.inf  # the one row off A
            self.rowmin[lane] = scores
            self.rowarg[lane] = last[lane, None]

    # -- BottomUp lanes -------------------------------------------------------------

    def _refresh_bottom_up(self, senders: np.ndarray, receivers: np.ndarray) -> None:
        """Drop the served column, re-scan stale columns, merge the new row."""
        if not len(receivers):
            return
        self.colmin[self.bu_local, receivers] = -np.inf
        if self.bu_ready.any():  # the sender's costs grew with its RT
            stale = self.colarg == senders[:, None]
            stale &= self.bu_ready[:, None] > 0
            stale &= self.pending[self.bottom_up]
            local, columns = stale.nonzero()
            for lo, hi in _blocks(len(local), self.block):
                lane, column = local[lo:hi], columns[lo:hi]
                grid = self.grid[lane + self.bottom_up.start]
                scores = self.costs.transfer[grid, :, column]
                scores += self.costs.broadcast[grid, column][:, None]
                scores += self.rt[lane + self.bottom_up.start]
                scores[~self.informed[lane + self.bottom_up.start]] = np.inf
                self.colarg[lane, column] = best = scores.argmin(axis=1)
                self.colmin[lane, column] = scores[self.count[: hi - lo], best]
        self._merge_bottom_up(receivers)

    def _merge_bottom_up(self, rows: np.ndarray) -> None:
        """Fold the newly informed ``rows`` into the column minima."""
        lanes = self.lanes[self.bottom_up]
        if not len(lanes):
            return
        costs = self.costs.transfer[self.grid[lanes], rows] + self.bu_broadcast
        costs += (self.bu_ready * self.rt[lanes, rows])[:, None]
        better = (costs < self.colmin) | (
            (costs == self.colmin) & (rows[:, None] < self.colarg)
        )
        np.copyto(self.colmin, costs, where=better)
        np.copyto(self.colarg, rows[:, None], where=better)


# -- public entry points --------------------------------------------------------------


def has_batched_kernel(heuristic: SchedulingHeuristic, num_clusters: int) -> bool:
    """Whether :func:`batched_makespans` would handle this heuristic.

    Lets callers avoid stacking a :class:`BatchedGridCosts` at all when every
    configured heuristic needs the per-grid fallback anyway.
    """
    return _rule(heuristic, num_clusters) is not None


def batched_makespans(
    heuristic: SchedulingHeuristic,
    costs: BatchedGridCosts,
    *,
    root: int = 0,
    lineup: Sequence[SchedulingHeuristic] = (),
) -> np.ndarray | None:
    """Makespans of ``heuristic`` on every grid of the batch, or ``None``.

    ``None`` means the heuristic has no batched kernel (exhaustive search,
    custom heuristics, custom lookahead callables); the caller should fall
    back to scheduling grid by grid.

    ``lineup`` names the other heuristics the caller will ask about on the
    same stack.  The first call schedules all of them in one lane loop and
    keeps their makespans on ``costs``; later calls for the same root read
    them from there.  Results never depend on the line-up.
    """
    rule = _rule(heuristic, costs.num_clusters)
    if rule is None:
        return None
    if not 0 <= root < costs.num_clusters:
        raise ValueError(f"root must be a valid cluster index, got {root}")
    done = costs._makespans
    if (root, rule) not in done:
        rules = [rule]
        for other in lineup:
            extra = _rule(other, costs.num_clusters)
            if extra is not None and extra not in rules and (root, extra) not in done:
                rules.append(extra)
        for each, makespans in _LaneLoop(costs, root, rules).run().items():
            done[root, each] = makespans
    return done[root, rule].copy()

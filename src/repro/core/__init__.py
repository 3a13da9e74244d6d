"""Inter-cluster broadcast scheduling heuristics (the paper's contribution).

The scheduling problem
----------------------

A broadcast on a grid is organised hierarchically.  Only cluster
*coordinators* exchange the message across the wide area; once a coordinator
stops participating in inter-cluster traffic it broadcasts locally, which
takes the cluster-specific time ``T_i``.  Scheduling the inter-cluster phase
means choosing, round after round, a sender from the informed set ``A`` and a
receiver from the waiting set ``B`` (paper §3).  The quality of a schedule is
its **makespan**: the time at which the last machine of the last cluster holds
the message.

Public API
----------

* :class:`~repro.core.schedule.BroadcastSchedule` and
  :func:`~repro.core.schedule.evaluate_order` -- the schedule data structure
  and the shared pLogP timing model that turns an ordered list of
  (sender, receiver) decisions into start/arrival/completion times.
* :class:`~repro.core.base.SchedulingHeuristic` -- the heuristic interface.
* :class:`~repro.core.costs.GridCostCache` -- dense pLogP cost matrices
  computed once per (grid, message size) and shared by every heuristic, the
  timing model and the Monte-Carlo drivers.
* :mod:`repro.core.batch` -- the batched engine scheduling whole stacks of
  same-sized grids, every heuristic of a chunk in one lane loop (used by
  the Monte-Carlo study).
* Concrete heuristics: :class:`~repro.core.flat_tree.FlatTreeHeuristic`,
  :class:`~repro.core.fef.FastestEdgeFirst`, :class:`~repro.core.ecef.ECEF`,
  :class:`~repro.core.ecef.ECEFLookahead` (with pluggable lookahead
  functions, including the paper's grid-aware ECEF-LAt / ECEF-LAT),
  :class:`~repro.core.bottomup.BottomUp`, :class:`~repro.core.mixed.MixedStrategy`
  and the exhaustive :class:`~repro.core.optimal.OptimalSearch`.
* :func:`~repro.core.registry.get_heuristic` /
  :func:`~repro.core.registry.available_heuristics` -- name-based factory
  used by the experiment harness and the CLI.
"""

from repro.core.schedule import (
    BroadcastSchedule,
    ScheduledTransfer,
    evaluate_order,
)
from repro.core.costs import GridCostCache
from repro.core.base import SchedulingHeuristic, SchedulingState, run_heuristics
from repro.core.flat_tree import FlatTreeHeuristic
from repro.core.fef import FastestEdgeFirst
from repro.core.ecef import ECEF, ECEFLookahead
from repro.core.lookahead import (
    LookaheadFunction,
    average_latency_lookahead,
    grid_aware_max_lookahead,
    grid_aware_min_lookahead,
    min_edge_lookahead,
    no_lookahead,
)
from repro.core.bottomup import BottomUp
from repro.core.mixed import MixedStrategy
from repro.core.optimal import OptimalSearch
from repro.core.registry import (
    PAPER_HEURISTICS,
    available_heuristics,
    get_heuristic,
    register_heuristic,
)

__all__ = [
    "BroadcastSchedule",
    "ScheduledTransfer",
    "evaluate_order",
    "GridCostCache",
    "SchedulingHeuristic",
    "SchedulingState",
    "run_heuristics",
    "FlatTreeHeuristic",
    "FastestEdgeFirst",
    "ECEF",
    "ECEFLookahead",
    "LookaheadFunction",
    "no_lookahead",
    "min_edge_lookahead",
    "average_latency_lookahead",
    "grid_aware_min_lookahead",
    "grid_aware_max_lookahead",
    "BottomUp",
    "MixedStrategy",
    "OptimalSearch",
    "PAPER_HEURISTICS",
    "available_heuristics",
    "get_heuristic",
    "register_heuristic",
]

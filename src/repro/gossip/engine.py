"""The gossip round engines: vectorized flat-array hot loop + scalar reference.

Round-based epidemic protocols advance in synchronous rounds: every node
active in round ``r`` injects its messages, and every message is processed by
its receiver at the start of round ``r + 1``.  That structure is what makes a
million-node network tractable — all per-node state (informed round, TTL
budget, alive interval) lives in flat NumPy arrays, and one round is a
handful of vectorized passes over them, exactly the state-row layout the
batched simulator (PR 2/3) uses for per-rank message state.

Two engines share one contract:

* :func:`run_gossip` with ``engine="vectorized"`` (default) — the flat-array
  engine; a 10⁶-node random-fanout broadcast completes in a few seconds.
* ``engine="scalar"`` — the per-node reference: plain Python loops over the
  same per-round draws, kept as ground truth (``tests/test_gossip.py``
  asserts bit-identical results on every protocol, churn on and off).

**Determinism contract.**  Every round's fanout targets are *defined* by
one bulk draw from ``derive_seed(seed, "gossip/targets", protocol, round)``
over *all* nodes, whether or not they send that round
(:func:`_round_targets`), so the draw stream never depends on the informed
set's evolution, on the engine, or on how a study chunks its runs.  The
vectorized engine reads that definition lazily: it takes the raw draw and
shifts past the drawing node only the rows it reads (senders, and pullers
for ``pushpull``), which yields exactly those rows of the full shifted draw.
A round in which no uninformed node can still be alive next round (nothing
*reachable*) informs nobody whatever the targets are, so the vectorized
engine skips its draw and scatter outright; every round's draw has its own
seed, so skipping one never shifts another, and the round's message count
and TTL decrement still run.  Churn schedules and per-round noise factors
come from their own derived seeds the same way.  Both engines make their
stop decision through one shared helper on plain integer counts, so they
execute exactly the same rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gossip.spec import GossipSpec, churn_schedule
from repro.model.plogp import GapFunction, PLogPParameters
from repro.utils.rng import derive_seed

#: Valid ``engine=`` values of :func:`run_gossip`.
ENGINES = ("vectorized", "scalar")

#: Default wide-area link model for gossip timing: 1.5 ms latency and an
#: affine gap (60 µs software overhead + 1 Gbit/s).  Gossip runs over
#: commodity internet paths rather than the paper's Grid'5000 interconnect,
#: so the default is deliberately WAN-flavoured; studies pass their own
#: :class:`~repro.model.plogp.PLogPParameters` to model anything else.
DEFAULT_GOSSIP_PARAMS = PLogPParameters(
    latency=0.0015,
    gap=GapFunction.from_bandwidth(overhead=60e-6, bandwidth=125_000_000.0),
)


def gossip_round_time(
    spec: GossipSpec,
    message_size: float,
    params: PLogPParameters = DEFAULT_GOSSIP_PARAMS,
) -> float:
    """The noise-free pLogP duration of one gossip round.

    A round is one latency plus the sender occupancy of the messages a busy
    node injects (``fanout`` gaps for the random-fanout protocols, ``n - 1``
    for flood, one for the binomial tree) — the same ``L + k * g(m)`` shape
    the scheduling kernel uses for a cluster's local sends.
    """
    return params.latency + spec.sends_per_sender * params.gap(message_size)


def _raw_targets(spec: GossipSpec, round_index: int) -> np.ndarray:
    """The raw seeded ``(num_nodes, fanout)`` peer draw of one round.

    One bulk call over ``n - 1`` values from a seed keyed on
    ``(seed, protocol, round)``, not yet shifted past the drawing node —
    :func:`_round_targets` shifts every row, :func:`_target_rows` only the
    rows a round reads.
    """
    rng = np.random.default_rng(
        derive_seed(spec.seed, "gossip/targets", spec.protocol, round_index)
    )
    return rng.integers(0, spec.num_nodes - 1, size=(spec.num_nodes, spec.fanout))


def _round_targets(spec: GossipSpec, round_index: int) -> np.ndarray:
    """The ``(num_nodes, fanout)`` peer draw of one round, self-excluded.

    The definition of a round's targets: drawn for every node in one bulk
    call, a node's row is its targets *if* it sends (or pulls) this round.
    Drawing rows that nobody reads keeps the stream independent of the
    infection state, which is what makes the scalar and vectorized engines
    (and any study chunking) bit-identical.  Targets are sampled with
    replacement, as the epidemic literature assumes; the raw draw is over
    ``n - 1`` values and shifted past the drawing node, so a node never
    picks itself.  The scalar reference consumes this full array; the
    vectorized engine reads the same rows through :func:`_target_rows`.
    """
    raw = _raw_targets(spec, round_index)
    raw += raw >= np.arange(spec.num_nodes)[:, None]
    return raw


def _target_rows(raw: np.ndarray, nodes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows ``nodes`` of the shifted draw, i.e. ``_round_targets(...)[nodes]``.

    ``raw`` is the round's :func:`_raw_targets`; only the gathered rows are
    shifted past their own node, so a round pays for the rows it reads
    rather than for all ``n``.  The rows land in ``out``, a C-contiguous
    ``(len(nodes), fanout)`` ``int64`` buffer, which is returned.
    """
    # Each row moves as one opaque item: a plain axis-0 take copies it
    # element by element, about twice as slow for a fanout-wide row.
    whole_row = np.dtype((np.void, raw.itemsize * raw.shape[1]))
    raw.view(whole_row).take(nodes, axis=0, out=out.view(whole_row))
    out += out >= nodes[:, None]
    return out


def _should_stop(
    protocol: str,
    round_index: int,
    num_nodes: int,
    num_senders: int,
    num_uninformed_reachable: int,
) -> bool:
    """Whether round ``round_index`` has nothing left to do.

    One shared decision for both engines, on plain integer counts, so they
    can never diverge on *which* rounds execute:

    * a one-node network is delivered before any round;
    * ``tree`` runs its full ``ceil(log2 n)`` binomial ladder (offsets of
      ``2^r >= n`` can never land in range again);
    * ``flood`` and ``epto`` stop when no active sender remains — flood
      senders are only ever freshly informed nodes, and an EpTO ball with no
      TTL budget left anywhere is dead (EpTO keeps relaying after full
      delivery; that residual traffic is part of the protocol's cost);
    * ``push``/``pushpull`` stop when no sender remains or when every node
      that could still be alive in a future round is informed — the epidemic
      has delivered and further rounds would only add idle traffic.
    """
    if num_nodes <= 1:
        return True
    if protocol == "tree":
        return (1 << min(round_index, 62)) >= num_nodes
    if protocol in ("flood", "epto"):
        return num_senders == 0
    return num_senders == 0 or num_uninformed_reachable == 0


@dataclass
class GossipRunResult:
    """Integer outcome of one gossip run, engine-independent by contract.

    The engines produce only integer state — who was informed in which
    round, how many messages flew per round, the churn schedule they ran
    against — and every float (makespan, delivery time) is derived here
    through one shared code path, so engine bit-identity reduces to integer
    equality.

    Attributes
    ----------
    spec:
        The spec that produced the run.
    informed_round:
        Per-node round of first infection (``int64``; ``-1`` = never
        informed; the root holds ``0``).
    messages_per_round:
        Messages injected in each executed round (pull requests and their
        replies both count — traffic is traffic).
    rounds_executed:
        Number of executed rounds (``len(messages_per_round)``).
    join_round / leave_round:
        The churn schedule the run used: node ``i`` was alive in rounds
        ``[join_round[i], leave_round[i])``.
    final_ttl:
        Remaining EpTO relay budget per node (``None`` for other protocols).
    """

    spec: GossipSpec
    informed_round: np.ndarray
    messages_per_round: np.ndarray
    rounds_executed: int
    join_round: np.ndarray
    leave_round: np.ndarray
    final_ttl: np.ndarray | None = None

    # -- dissemination metrics ---------------------------------------------------

    @property
    def delivered_mask(self) -> np.ndarray:
        """Per-node bool: was the payload ever received (root included)?"""
        return self.informed_round >= 0

    @property
    def delivered_count(self) -> int:
        """Number of nodes the payload reached."""
        return int(self.delivered_mask.sum())

    @property
    def ever_alive_count(self) -> int:
        """Nodes whose alive interval was non-empty within the horizon."""
        return int((self.join_round < self.leave_round).sum())

    @property
    def delivery_fraction(self) -> float:
        """Delivered nodes over nodes that ever existed — the robustness axis."""
        return self.delivered_count / max(1, self.ever_alive_count)

    @property
    def rounds_to_delivery(self) -> int:
        """Round by which the last delivered node was informed."""
        return int(self.informed_round.max())

    @property
    def total_messages(self) -> int:
        """Total messages injected over the whole run."""
        return int(self.messages_per_round.sum())

    @property
    def messages_per_node(self) -> float:
        """Total traffic normalised by network size — the overhead axis."""
        return self.total_messages / self.spec.num_nodes

    def new_informed_per_round(self) -> np.ndarray:
        """Nodes first informed in round ``k``, for ``k = 0..rounds_executed``."""
        return np.bincount(
            self.informed_round[self.delivered_mask],
            minlength=self.rounds_executed + 1,
        )

    def informed_counts(self) -> np.ndarray:
        """Cumulative informed count after round ``k`` (monotone by design)."""
        return np.cumsum(self.new_informed_per_round())

    # -- timing (shared derivation: floats never depend on the engine) -----------

    def round_durations(
        self,
        message_size: float,
        *,
        params: PLogPParameters = DEFAULT_GOSSIP_PARAMS,
        noise_sigma: float = 0.0,
    ) -> np.ndarray:
        """Per-round wall durations under the pLogP model, optionally noisy.

        Noise is one bulk log-normal draw from
        ``derive_seed(seed, "gossip/noise")`` — one factor per executed
        round, the same multiplicative jitter model the measured simulator
        applies per message.
        """
        base = gossip_round_time(self.spec, message_size, params)
        durations = np.full(self.rounds_executed, base, dtype=float)
        if noise_sigma > 0.0 and self.rounds_executed:
            rng = np.random.default_rng(derive_seed(self.spec.seed, "gossip/noise"))
            durations *= rng.lognormal(0.0, noise_sigma, size=self.rounds_executed)
        return durations

    def makespan(
        self,
        message_size: float,
        *,
        params: PLogPParameters = DEFAULT_GOSSIP_PARAMS,
        noise_sigma: float = 0.0,
    ) -> float:
        """Wall time of the whole run (all executed rounds)."""
        return float(self.round_durations(
            message_size, params=params, noise_sigma=noise_sigma
        ).sum())

    def delivery_time(
        self,
        message_size: float,
        *,
        params: PLogPParameters = DEFAULT_GOSSIP_PARAMS,
        noise_sigma: float = 0.0,
    ) -> float:
        """Wall time until the last delivered node was informed."""
        durations = self.round_durations(
            message_size, params=params, noise_sigma=noise_sigma
        )
        return float(durations[: self.rounds_to_delivery].sum())


def run_gossip(spec: GossipSpec, *, engine: str = "vectorized") -> GossipRunResult:
    """Execute one gossip dissemination and return its integer outcome.

    ``engine="vectorized"`` (default) advances the whole network one flat
    NumPy pass per round; ``engine="scalar"`` is the per-node Python
    reference.  Both are bit-identical for every spec — same informed
    rounds, same per-round message counts, same executed round count — which
    ``tests/test_gossip.py`` asserts protocol by protocol.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == "scalar":
        return _run_scalar(spec)
    return _run_vectorized(spec)


def _run_vectorized(spec: GossipSpec) -> GossipRunResult:
    """One flat NumPy pass per round, drawing only when someone is reachable."""
    n = spec.num_nodes
    protocol = spec.protocol
    fanout = spec.fanout
    join, leave = churn_schedule(spec)
    # Round numbers fit int16 (rounds <= MAX_ROUNDS) and a TTL budget its
    # smallest unsigned type: the per-round alive, reachable and TTL passes
    # then stream a fraction of the int64 bytes.
    join_small, leave_small = join.astype(np.int16), leave.astype(np.int16)
    informed_round = np.full(n, -1, dtype=np.int64)
    informed_round[spec.root] = 0
    ttl = spec.effective_ttl if protocol == "epto" else 0
    ttl_left = np.zeros(n, dtype=np.min_scalar_type(ttl))
    if protocol == "epto":
        ttl_left[spec.root] = ttl
    offsets = (np.arange(n) - spec.root) % n if protocol == "tree" else None
    # Reused every round: the scatter target and, for the drawing protocols,
    # the gathered target rows (senders and pullers are disjoint, so both
    # gathers of a pushpull round fit side by side).
    hit = np.zeros(n, dtype=bool)
    rows_buffer = (
        np.empty((n, fanout), dtype=np.int64)
        if protocol in ("push", "pushpull", "epto")
        else None
    )
    messages: list[int] = []
    # Rolling state, updated in place each round: `informed` mirrors
    # `informed_round >= 0` (the informed set only grows) and `alive_now`
    # becomes the previous round's `alive_next` — one pass each instead of
    # recomputing from the int arrays every round.
    informed = informed_round >= 0
    alive_now = (join_small <= 0) & (leave_small > 0)
    # Uninformed nodes that could still be alive next round.  It never grows
    # (the informed set only grows, `leave > r + 1` only shrinks), so once it
    # reaches 0 it is not recounted.
    reachable = n

    for round_index in range(spec.rounds):
        if protocol == "flood":
            senders = informed & alive_now & (informed_round == round_index)
        elif protocol == "epto":
            # ttl_left > 0 implies informed: the budget is only ever set at
            # infection (and effective_ttl >= 1).
            senders = alive_now & (ttl_left > 0)
        elif protocol == "tree":
            pow2 = 1 << min(round_index, 62)
            senders = (
                informed & alive_now & (offsets < pow2) & (offsets + pow2 < n)
                if pow2 < n
                else np.zeros(n, dtype=bool)
            )
        else:
            senders = informed & alive_now
        num_senders = int(np.count_nonzero(senders))
        if reachable:
            reachable = int(
                np.count_nonzero(~informed & (leave_small > round_index + 1))
            )
        if _should_stop(protocol, round_index, n, num_senders, reachable):
            break

        alive_next = (join_small <= round_index + 1) & (leave_small > round_index + 1)
        count = num_senders * spec.sends_per_sender
        # With nothing reachable, `new` (a subset of the uninformed nodes
        # alive next round) is empty whatever the targets: skip the draw and
        # the scatter.  push/pushpull never get here — they stop instead.
        if reachable:
            if protocol == "flood":
                hit.fill(True)  # a fresh sender reaches every other node
            elif protocol == "tree":
                hit[(offsets[senders] + pow2 + spec.root) % n] = True
            else:
                raw = _raw_targets(spec, round_index)
                sender_nodes = np.flatnonzero(senders)
                used = sender_nodes.size
                hit[_target_rows(raw, sender_nodes, rows_buffer[:used])] = True
                if protocol == "pushpull":
                    puller_nodes = np.flatnonzero(alive_now & ~informed)
                    pulled = _target_rows(
                        raw, puller_nodes, rows_buffer[used : used + puller_nodes.size]
                    )
                    replied = (informed & alive_now)[pulled]
                    count += puller_nodes.size * fanout + int(np.count_nonzero(replied))
                    # OR the slot columns: several times faster than a
                    # fanout-wide `any(axis=1)` per row.
                    pulled_in = replied[:, 0].copy()
                    for column in replied.T[1:]:
                        pulled_in |= column
                    hit[puller_nodes[pulled_in]] = True
                del raw  # or the next round's draw would briefly hold two
            new_nodes = np.flatnonzero(hit & alive_next & ~informed)
            hit.fill(False)
            informed_round[new_nodes] = round_index + 1
            informed[new_nodes] = True
            if protocol == "epto":
                ttl_left[new_nodes] = ttl
        if protocol == "epto":
            ttl_left -= senders
        alive_now = alive_next
        messages.append(count)

    return GossipRunResult(
        spec=spec,
        informed_round=informed_round,
        messages_per_round=np.asarray(messages, dtype=np.int64),
        rounds_executed=len(messages),
        join_round=join,
        leave_round=leave,
        final_ttl=ttl_left.astype(np.int64) if protocol == "epto" else None,
    )


def _run_scalar(spec: GossipSpec) -> GossipRunResult:
    """The per-node reference: plain Python loops, same draws, same rounds.

    State lives in Python lists and every infection is decided node by node
    and slot by slot — the honest scalar baseline the vectorized engine's
    benchmark floor is measured against.  It consumes exactly the same
    per-round bulk draws (:func:`_round_targets`) and the same shared stop
    decision, which is what pins the two engines bit-identical.
    """
    n = spec.num_nodes
    protocol = spec.protocol
    fanout = spec.fanout
    join_array, leave_array = churn_schedule(spec)
    join = join_array.tolist()
    leave = leave_array.tolist()
    informed_round = [-1] * n
    informed_round[spec.root] = 0
    ttl = spec.effective_ttl if protocol == "epto" else 0
    ttl_left = [0] * n
    if protocol == "epto":
        ttl_left[spec.root] = ttl
    messages: list[int] = []

    for round_index in range(spec.rounds):
        pow2 = 1 << min(round_index, 62)
        senders: list[int] = []
        reachable = 0
        for node in range(n):
            alive = join[node] <= round_index < leave[node]
            is_informed = informed_round[node] >= 0
            if not is_informed and leave[node] > round_index + 1:
                reachable += 1
            if not (is_informed and alive):
                continue
            if protocol == "flood":
                if informed_round[node] == round_index:
                    senders.append(node)
            elif protocol == "epto":
                if ttl_left[node] > 0:
                    senders.append(node)
            elif protocol == "tree":
                offset = (node - spec.root) % n
                if pow2 < n and offset < pow2 and offset + pow2 < n:
                    senders.append(node)
            else:
                senders.append(node)
        if _should_stop(protocol, round_index, n, len(senders), reachable):
            break

        targets = (
            _round_targets(spec, round_index)
            if protocol in ("push", "pushpull", "epto")
            else None
        )
        hit = [False] * n
        count = 0
        for node in senders:
            if protocol == "flood":
                count += n - 1
                for other in range(n):
                    if other != node:
                        hit[other] = True
            elif protocol == "tree":
                count += 1
                hit[((node - spec.root) % n + pow2 + spec.root) % n] = True
            else:
                for slot in range(fanout):
                    count += 1
                    hit[int(targets[node, slot])] = True
        if protocol == "pushpull":
            for node in range(n):
                if informed_round[node] >= 0 or not join[node] <= round_index < leave[node]:
                    continue
                success = False
                for slot in range(fanout):
                    count += 1
                    target = int(targets[node, slot])
                    if (
                        informed_round[target] >= 0
                        and join[target] <= round_index < leave[target]
                    ):
                        count += 1
                        success = True
                if success:
                    hit[node] = True
        for node in range(n):
            if (
                hit[node]
                and informed_round[node] < 0
                and join[node] <= round_index + 1 < leave[node]
            ):
                informed_round[node] = round_index + 1
                if protocol == "epto":
                    ttl_left[node] = ttl
        if protocol == "epto":
            for node in senders:
                ttl_left[node] -= 1
        messages.append(count)

    return GossipRunResult(
        spec=spec,
        informed_round=np.asarray(informed_round, dtype=np.int64),
        messages_per_round=np.asarray(messages, dtype=np.int64),
        rounds_executed=len(messages),
        join_round=join_array,
        leave_round=leave_array,
        final_ttl=np.asarray(ttl_left, dtype=np.int64) if protocol == "epto" else None,
    )

"""Random grid generators for the Monte-Carlo simulation study.

Section 6 of the paper evaluates the heuristics on synthetic grids whose
parameters are drawn uniformly from the ranges of **Table 2**::

            minimum   maximum
    L        1 ms      15 ms
    g      100 ms     600 ms
    T       20 ms    3000 ms

At each Monte-Carlo iteration a fresh grid is generated: every unordered pair
of clusters receives one latency and one gap draw (the matrices are
symmetric, matching a single physical link per pair), and every cluster
receives an independent intra-cluster broadcast time ``T``.

**Draw-order contract.**  An ``n``-cluster grid consumes exactly
``n + n(n-1) = n²`` doubles of its stream, taken with a single
``Generator.random`` call: first the ``n`` cluster ``T`` values in cluster
order, then one ``(latency, gap)`` pair per cluster pair ``i < j`` in
row-major order.  Each double ``u`` is scaled as ``lo + (hi - lo) * u``,
which is bit for bit what a sequential ``Generator.uniform(lo, hi)`` call
returns, so the contract reproduces grids drawn one value at a time.
:meth:`RandomGridGenerator.generate` and :meth:`RandomGridGenerator.cost_stacks`
both go through :meth:`RandomGridGenerator._draw`, the one place that order
is written down:

* ``generate`` wraps the draw in a :class:`~repro.topology.grid.Grid` (for
  the simulator, the per-grid engines and the fallback heuristics);
* ``cost_stacks`` writes the draws of many seeds straight into the
  ``(K, n, n)`` cost stacks the batched kernels read
  (:meth:`repro.core.batch.BatchedGridCosts.from_arrays`), without building
  any grid object — the Monte-Carlo study's hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.topology.cluster import Cluster
from repro.topology.grid import Grid, InterClusterLink
from repro.utils.rng import RandomStream
from repro.utils.units import ms_to_s
from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class ParameterRanges:
    """Uniform sampling ranges for the Monte-Carlo grids (seconds).

    The defaults are exactly the paper's Table 2 values (converted from
    milliseconds).  The ablation benchmarks construct alternative ranges, for
    instance shrinking ``T`` to study when the grid-aware heuristics stop
    mattering.
    """

    latency_min: float = ms_to_s(1.0)
    latency_max: float = ms_to_s(15.0)
    gap_min: float = ms_to_s(100.0)
    gap_max: float = ms_to_s(600.0)
    broadcast_min: float = ms_to_s(20.0)
    broadcast_max: float = ms_to_s(3000.0)

    def __post_init__(self) -> None:
        for low_name, high_name in (
            ("latency_min", "latency_max"),
            ("gap_min", "gap_max"),
            ("broadcast_min", "broadcast_max"),
        ):
            low = check_non_negative(getattr(self, low_name), low_name)
            high = check_non_negative(getattr(self, high_name), high_name)
            if high < low:
                raise ValueError(f"{high_name} ({high}) must be >= {low_name} ({low})")

    def scaled_broadcast(self, factor: float) -> "ParameterRanges":
        """Return a copy with the intra-cluster broadcast range scaled.

        Used by the parameter-sensitivity ablation (DESIGN.md §7.4).
        """
        if factor < 0:
            raise ValueError(f"factor must be non-negative, got {factor}")
        return ParameterRanges(
            latency_min=self.latency_min,
            latency_max=self.latency_max,
            gap_min=self.gap_min,
            gap_max=self.gap_max,
            broadcast_min=self.broadcast_min * factor,
            broadcast_max=self.broadcast_max * factor,
        )


#: The paper's Table 2, verbatim.
PAPER_PARAMETER_RANGES = ParameterRanges()


class RandomGridGenerator:
    """Generates independent random grids per the Table 2 distribution.

    Parameters
    ----------
    ranges:
        Sampling ranges; defaults to the paper's Table 2.
    cluster_size:
        Nominal number of machines per cluster.  It does not influence the
        Monte-Carlo makespans (``T`` is drawn directly), but it makes the
        generated grids usable by the node-level simulator as well.
    """

    def __init__(
        self,
        ranges: ParameterRanges = PAPER_PARAMETER_RANGES,
        *,
        cluster_size: int = 16,
    ) -> None:
        if not isinstance(ranges, ParameterRanges):
            raise TypeError("ranges must be a ParameterRanges instance")
        if isinstance(cluster_size, bool) or not isinstance(cluster_size, int):
            raise TypeError("cluster_size must be an int")
        if cluster_size < 1:
            raise ValueError(f"cluster_size must be >= 1, got {cluster_size}")
        self.ranges = ranges
        self.cluster_size = cluster_size

    def _draw(
        self, num_clusters: int, streams: Sequence[RandomStream]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One grid per stream: its ``(T, latency, gap)`` in contract order.

        Row ``k`` of each array comes from ``streams[k]``: ``T`` has one
        column per cluster, ``latency`` and ``gap`` one column per cluster
        pair ``i < j`` in row-major order (the order of
        :func:`numpy.triu_indices`).
        """
        ranges = self.ranges
        n = num_clusters
        draws = np.stack([stream.generator.random(n * n) for stream in streams])
        pairs = draws[:, n:]
        return (
            _scale(draws[:, :n], ranges.broadcast_min, ranges.broadcast_max),
            _scale(pairs[:, 0::2], ranges.latency_min, ranges.latency_max),
            _scale(pairs[:, 1::2], ranges.gap_min, ranges.gap_max),
        )

    def generate(self, num_clusters: int, stream: RandomStream) -> Grid:
        """Draw one random grid with ``num_clusters`` clusters.

        Every unordered cluster pair receives one latency and one gap draw
        (used in both directions); every cluster receives one ``T`` draw.
        The shared ``stream`` advances by exactly the draws of one grid.
        """
        _check_num_clusters(num_clusters)
        if not isinstance(stream, RandomStream):
            raise TypeError("stream must be a RandomStream")
        broadcast, latency, gap = (
            values[0] for values in self._draw(num_clusters, [stream])
        )
        clusters = [
            Cluster(
                cluster_id=index,
                name=f"cluster{index}",
                size=self.cluster_size,
                fixed_broadcast_time=value,
            )
            for index, value in enumerate(broadcast.tolist())
        ]
        rows, columns = np.triu_indices(num_clusters, 1)
        links = {
            (i, j): InterClusterLink.from_values(latency=pair_latency, gap=pair_gap)
            for i, j, pair_latency, pair_gap in zip(
                rows.tolist(), columns.tolist(), latency.tolist(), gap.tolist()
            )
        }
        return Grid(clusters, links, name=f"random-{num_clusters}-clusters")

    def cost_stacks(
        self, num_clusters: int, seeds: Sequence[int]
    ) -> dict[str, np.ndarray]:
        """The cost matrices of the grids drawn from ``seeds``, stacked.

        Grid ``k`` is the one :meth:`generate` draws from
        ``RandomStream(seeds[k])``; the result holds read-only symmetric
        ``(K, n, n)`` ``gap``, ``latency`` and ``transfer`` (their sum)
        stacks with zero diagonals and the ``(K, n)`` ``broadcast`` stack —
        the input of :meth:`repro.core.batch.BatchedGridCosts.from_arrays`.
        The values equal a :class:`~repro.core.costs.GridCostCache` of the
        generated grid at any message size (Table 2 gaps ignore the size),
        including ``T = 0`` for single-node clusters.
        """
        _check_num_clusters(num_clusters)
        if not seeds:
            raise ValueError("cost_stacks needs at least one seed")
        n = num_clusters
        broadcast, pair_latency, pair_gap = self._draw(
            n, [RandomStream(seed=seed) for seed in seeds]
        )
        if self.cluster_size == 1:
            broadcast[:] = 0.0  # Cluster.broadcast_time of a lone coordinator
        rows, columns = np.triu_indices(n, 1)
        latency = np.zeros((len(seeds), n, n))
        gap = np.zeros((len(seeds), n, n))
        for stack, values in ((latency, pair_latency), (gap, pair_gap)):
            stack[:, rows, columns] = values
            stack[:, columns, rows] = values
        stacks = {
            "gap": gap,
            "latency": latency,
            "transfer": gap + latency,
            "broadcast": broadcast,
        }
        for array in stacks.values():
            array.setflags(write=False)
        return stacks


def _scale(draws: np.ndarray, low: float, high: float) -> np.ndarray:
    """``low + (high - low) * u``: ``Generator.uniform``'s own arithmetic."""
    return float(low) + (float(high) - float(low)) * draws


def _check_num_clusters(num_clusters: int) -> None:
    if isinstance(num_clusters, bool) or not isinstance(num_clusters, int):
        raise TypeError("num_clusters must be an int")
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")


def make_uniform_grid(
    num_clusters: int,
    *,
    latency: float = ms_to_s(10.0),
    gap: float = ms_to_s(300.0),
    broadcast_time: float = ms_to_s(500.0),
    cluster_size: int = 16,
    name: str = "uniform-grid",
) -> Grid:
    """Build a fully homogeneous grid (every link and cluster identical).

    Handy for unit tests and for analytical sanity checks: on a homogeneous
    grid every reasonable heuristic should produce the same makespan as a
    binomial schedule over coordinators.
    """
    check_non_negative(latency, "latency")
    check_non_negative(gap, "gap")
    check_non_negative(broadcast_time, "broadcast_time")
    clusters = [
        Cluster(
            cluster_id=index,
            name=f"site{index}",
            size=cluster_size,
            fixed_broadcast_time=broadcast_time,
        )
        for index in range(num_clusters)
    ]
    links = {
        (i, j): InterClusterLink.from_values(latency=latency, gap=gap)
        for i in range(num_clusters)
        for j in range(i + 1, num_clusters)
    }
    return Grid(clusters, links, name=name)

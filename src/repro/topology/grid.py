"""The two-level grid topology used by all heuristics and experiments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.model.plogp import GapFunction, PLogPParameters
from repro.topology.cluster import Cluster
from repro.topology.node import Node
from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class InterClusterLink:
    """The pLogP description of the link between two clusters.

    Attributes
    ----------
    latency:
        One-way latency ``L_{i,j}`` in seconds.
    gap:
        Gap function ``g_{i,j}(m)``.
    """

    latency: float
    gap: GapFunction

    def __post_init__(self) -> None:
        check_non_negative(self.latency, "latency")
        if not isinstance(self.gap, GapFunction):
            raise TypeError("gap must be a GapFunction")

    def transfer_time(self, message_size: float) -> float:
        """``g_{i,j}(m) + L_{i,j}``: time for the message to reach the peer."""
        return self.gap(message_size) + self.latency

    @classmethod
    def from_values(cls, latency: float, gap: float) -> "InterClusterLink":
        """Build a link with a size-independent gap (Monte-Carlo style)."""
        return cls(latency=latency, gap=GapFunction.constant(gap))


class Grid:
    """A grid: clusters plus a full mesh of inter-cluster links.

    The grid is the single topology object consumed by every other layer:

    * the **scheduling heuristics** (:mod:`repro.core`) read the inter-cluster
      latencies/gaps and the per-cluster local broadcast times ``T_i``;
    * the **simulator** (:mod:`repro.simulator`) additionally needs node-level
      point-to-point parameters, which the grid derives from the cluster
      intra-parameters (for two nodes of the same cluster) or from the
      inter-cluster link (for nodes of different clusters — the coordinators
      are the only nodes that actually use those paths in a hierarchical
      broadcast, but the information is defined for every pair).

    Parameters
    ----------
    clusters:
        The clusters, in index order.  ``clusters[k].cluster_id`` must be
        ``k``.
    links:
        Mapping ``(i, j) -> InterClusterLink`` for every unordered pair of
        distinct clusters.  Links may be asymmetric: the pair is looked up as
        ``(i, j)`` first and falls back to ``(j, i)``.
    name:
        Optional display name of the grid.
    """

    def __init__(
        self,
        clusters: Iterable[Cluster],
        links: dict[tuple[int, int], InterClusterLink],
        *,
        name: str = "grid",
    ) -> None:
        self._clusters: list[Cluster] = list(clusters)
        if not self._clusters:
            raise ValueError("a grid needs at least one cluster")
        for index, cluster in enumerate(self._clusters):
            if not isinstance(cluster, Cluster):
                raise TypeError("clusters must be Cluster instances")
            if cluster.cluster_id != index:
                raise ValueError(
                    f"cluster at position {index} has cluster_id {cluster.cluster_id}; "
                    "cluster ids must match their position"
                )
        self._links: dict[tuple[int, int], InterClusterLink] = dict(links)
        self.name = name
        self._validate_links()
        self._nodes: list[Node] = []
        rank = 0
        for cluster in self._clusters:
            self._nodes.extend(cluster.build_nodes(rank))
            rank += cluster.size

    # -- validation -------------------------------------------------------------

    def _validate_links(self) -> None:
        n = len(self._clusters)
        for (i, j), link in self._links.items():
            if not isinstance(link, InterClusterLink):
                raise TypeError("links values must be InterClusterLink instances")
            if i == j:
                raise ValueError(f"link ({i}, {j}) connects a cluster to itself")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"link ({i}, {j}) references an unknown cluster")
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in self._links and (j, i) not in self._links:
                    raise ValueError(f"missing inter-cluster link between {i} and {j}")

    # -- basic accessors ---------------------------------------------------------

    @property
    def num_clusters(self) -> int:
        """Number of clusters in the grid."""
        return len(self._clusters)

    @property
    def num_nodes(self) -> int:
        """Total number of machines across all clusters."""
        return len(self._nodes)

    @property
    def clusters(self) -> list[Cluster]:
        """The clusters, in index order."""
        return list(self._clusters)

    @property
    def nodes(self) -> list[Node]:
        """All nodes of the grid, in rank order."""
        return list(self._nodes)

    def cluster(self, cluster_id: int) -> Cluster:
        """The cluster with the given index."""
        if not 0 <= cluster_id < len(self._clusters):
            raise ValueError(f"unknown cluster id {cluster_id}")
        return self._clusters[cluster_id]

    def node(self, rank: int) -> Node:
        """The node with the given global rank."""
        if not 0 <= rank < len(self._nodes):
            raise ValueError(f"unknown rank {rank}")
        return self._nodes[rank]

    def coordinator_rank(self, cluster_id: int) -> int:
        """Global rank of the coordinator of ``cluster_id``."""
        return self.cluster(cluster_id).coordinator.rank

    def cluster_of_rank(self, rank: int) -> int:
        """Cluster index owning the given global rank."""
        return self.node(rank).cluster_id

    def link(self, i: int, j: int) -> InterClusterLink:
        """The inter-cluster link between clusters ``i`` and ``j``."""
        if i == j:
            raise ValueError("no inter-cluster link from a cluster to itself")
        self.cluster(i)
        self.cluster(j)
        if (i, j) in self._links:
            return self._links[(i, j)]
        return self._links[(j, i)]

    # -- pLogP quantities used by the heuristics ---------------------------------

    def latency(self, i: int, j: int) -> float:
        """Inter-cluster latency ``L_{i,j}`` in seconds."""
        return self.link(i, j).latency

    def gap(self, i: int, j: int, message_size: float) -> float:
        """Inter-cluster gap ``g_{i,j}(m)`` in seconds."""
        return self.link(i, j).gap(message_size)

    def transfer_time(self, i: int, j: int, message_size: float) -> float:
        """``g_{i,j}(m) + L_{i,j}``: the cost the heuristics reason about."""
        return self.link(i, j).transfer_time(message_size)

    def broadcast_time(self, cluster_id: int, message_size: float) -> float:
        """Intra-cluster broadcast time ``T_i`` of cluster ``cluster_id``."""
        return self.cluster(cluster_id).broadcast_time(message_size)

    def broadcast_times(self, message_size: float) -> list[float]:
        """``T_i`` for every cluster, in index order."""
        return [c.broadcast_time(message_size) for c in self._clusters]

    def cost_matrices(self, message_size: float) -> "tuple[np.ndarray, np.ndarray]":
        """Dense ``(latency, gap)`` matrices for every ordered cluster pair.

        Equivalent to querying :meth:`latency` / :meth:`gap` per pair (the
        same ``(i, j)``-then-``(j, i)`` link fallback applies), but each
        stored link's gap function is evaluated only once, so building the
        full matrices is O(links) gap evaluations instead of O(n²).  The
        diagonals are zero.  This is the bulk path behind
        :class:`repro.core.costs.GridCostCache`.
        """
        n = len(self._clusters)
        latencies = np.zeros((n, n), dtype=float)
        gaps = np.zeros((n, n), dtype=float)
        evaluated = {
            pair: (link.latency, link.gap(message_size))
            for pair, link in self._links.items()
        }
        for i in range(n):
            row_l = latencies[i]
            row_g = gaps[i]
            for j in range(n):
                if i == j:
                    continue
                values = evaluated.get((i, j))
                if values is None:
                    values = evaluated[(j, i)]
                row_l[j], row_g[j] = values
        return latencies, gaps

    # -- node-level quantities used by the simulator ------------------------------

    def node_link_parameters(self, rank_a: int, rank_b: int) -> PLogPParameters:
        """pLogP parameters of the path between two individual nodes.

        Two nodes of the same cluster use the cluster's intra-cluster
        parameters; nodes of different clusters use the inter-cluster link.
        A node talking to itself has zero cost.
        """
        node_a = self.node(rank_a)
        node_b = self.node(rank_b)
        if rank_a == rank_b:
            return PLogPParameters.from_values(latency=0.0, gap=0.0)
        if node_a.cluster_id == node_b.cluster_id:
            cluster = self.cluster(node_a.cluster_id)
            if cluster.intra_params is not None:
                return cluster.intra_params
            # Fall back to a proportional model derived from the fixed T_i so
            # that Monte-Carlo grids remain simulable at the node level.
            fixed = cluster.fixed_broadcast_time or 0.0
            rounds = max(1, (cluster.size - 1).bit_length())
            per_hop = fixed / rounds if rounds else 0.0
            return PLogPParameters(
                latency=per_hop / 2.0,
                gap=GapFunction.constant(per_hop / 2.0),
                num_procs=cluster.size,
            )
        link = self.link(node_a.cluster_id, node_b.cluster_id)
        return PLogPParameters(latency=link.latency, gap=link.gap, num_procs=2)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Grid(name={self.name!r}, clusters={self.num_clusters}, "
            f"nodes={self.num_nodes})"
        )


def complete_links(
    latencies: "list[list[float]] | object",
    gaps: "list[list[float]] | object",
) -> dict[tuple[int, int], InterClusterLink]:
    """Build a full link map from dense latency and gap matrices.

    ``latencies[i][j]`` and ``gaps[i][j]`` give the parameters of the link
    from cluster ``i`` to cluster ``j``; only the upper triangle is read (the
    paper's matrices are symmetric).  Accepts nested lists or numpy arrays.
    """
    size = len(latencies)
    links: dict[tuple[int, int], InterClusterLink] = {}
    for i in range(size):
        row_l = latencies[i]
        row_g = gaps[i]
        if len(row_l) != size or len(row_g) != size:
            raise ValueError("latency and gap matrices must be square and consistent")
        for j in range(i + 1, size):
            links[(i, j)] = InterClusterLink.from_values(
                latency=float(row_l[j]), gap=float(row_g[j])
            )
    return links

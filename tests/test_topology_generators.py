"""Tests for repro.topology.generators (Table 2 random grids)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch import BatchedGridCosts
from repro.core.costs import GridCostCache
from repro.topology.generators import (
    PAPER_PARAMETER_RANGES,
    ParameterRanges,
    RandomGridGenerator,
    make_uniform_grid,
)
from repro.utils.rng import RandomStream


class TestParameterRanges:
    def test_paper_defaults_match_table2(self):
        ranges = PAPER_PARAMETER_RANGES
        assert ranges.latency_min == pytest.approx(0.001)
        assert ranges.latency_max == pytest.approx(0.015)
        assert ranges.gap_min == pytest.approx(0.100)
        assert ranges.gap_max == pytest.approx(0.600)
        assert ranges.broadcast_min == pytest.approx(0.020)
        assert ranges.broadcast_max == pytest.approx(3.000)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            ParameterRanges(latency_min=0.01, latency_max=0.001)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ParameterRanges(gap_min=-0.1)

    def test_scaled_broadcast(self):
        scaled = PAPER_PARAMETER_RANGES.scaled_broadcast(0.1)
        assert scaled.broadcast_max == pytest.approx(0.3)
        assert scaled.latency_max == PAPER_PARAMETER_RANGES.latency_max

    def test_scaled_broadcast_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            PAPER_PARAMETER_RANGES.scaled_broadcast(-1.0)


class TestRandomGridGenerator:
    def test_generates_requested_cluster_count(self):
        grid = RandomGridGenerator().generate(7, RandomStream(seed=1))
        assert grid.num_clusters == 7

    def test_parameters_within_table2_ranges(self):
        grid = RandomGridGenerator().generate(8, RandomStream(seed=2))
        ranges = PAPER_PARAMETER_RANGES
        for i in range(8):
            t = grid.broadcast_time(i, 1_048_576)
            if grid.cluster(i).size > 1:
                assert ranges.broadcast_min <= t <= ranges.broadcast_max
            for j in range(i + 1, 8):
                assert ranges.latency_min <= grid.latency(i, j) <= ranges.latency_max
                assert ranges.gap_min <= grid.gap(i, j, 0) <= ranges.gap_max

    def test_links_are_symmetric(self):
        grid = RandomGridGenerator().generate(5, RandomStream(seed=3))
        for i in range(5):
            for j in range(i + 1, 5):
                assert grid.latency(i, j) == grid.latency(j, i)
                assert grid.gap(i, j, 0) == grid.gap(j, i, 0)

    def test_same_seed_same_grid(self):
        a = RandomGridGenerator().generate(5, RandomStream(seed=9))
        b = RandomGridGenerator().generate(5, RandomStream(seed=9))
        for i in range(5):
            assert a.broadcast_time(i, 0) == b.broadcast_time(i, 0)
            for j in range(i + 1, 5):
                assert a.latency(i, j) == b.latency(i, j)

    def test_different_seeds_differ(self):
        a = RandomGridGenerator().generate(5, RandomStream(seed=9))
        b = RandomGridGenerator().generate(5, RandomStream(seed=10))
        assert any(
            a.latency(i, j) != b.latency(i, j) for i in range(5) for j in range(i + 1, 5)
        )

    def test_single_cluster_grid(self):
        grid = RandomGridGenerator().generate(1, RandomStream(seed=1))
        assert grid.num_clusters == 1

    def test_rejects_zero_clusters(self):
        with pytest.raises(ValueError):
            RandomGridGenerator().generate(0, RandomStream(seed=1))

    def test_rejects_wrong_stream_type(self):
        with pytest.raises(TypeError):
            RandomGridGenerator().generate(3, stream=42)  # type: ignore[arg-type]

    def test_custom_cluster_size(self):
        grid = RandomGridGenerator(cluster_size=3).generate(4, RandomStream(seed=1))
        assert grid.num_nodes == 12

    def test_rejects_bad_cluster_size(self):
        with pytest.raises(ValueError):
            RandomGridGenerator(cluster_size=0)


class TestUniformGrid:
    def test_everything_identical(self):
        grid = make_uniform_grid(4, latency=0.002, gap=0.1, broadcast_time=0.5)
        for i in range(4):
            assert grid.broadcast_time(i, 0) == pytest.approx(0.5)
            for j in range(i + 1, 4):
                assert grid.latency(i, j) == pytest.approx(0.002)
                assert grid.gap(i, j, 0) == pytest.approx(0.1)

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            make_uniform_grid(3, latency=-1.0)


@st.composite
def _ranges(draw):
    """Random ``ParameterRanges``, zero-width ranges included."""
    bounds = []
    for _ in range(3):
        low = draw(st.floats(0.0, 5.0, allow_nan=False))
        width = draw(st.sampled_from([0.0, 1e-9, 0.5, 3.0]))
        bounds += [low, low + width]
    ranges = ParameterRanges(*bounds)
    if draw(st.booleans()):
        ranges = ranges.scaled_broadcast(draw(st.sampled_from([0.0, 0.1, 2.0])))
    return ranges


def _sequential_draw(num_clusters, stream, ranges):
    """The historical draw: one ``uniform`` call per value, in contract order."""
    broadcast = [
        stream.uniform(ranges.broadcast_min, ranges.broadcast_max)
        for _ in range(num_clusters)
    ]
    links = {}
    for i in range(num_clusters):
        for j in range(i + 1, num_clusters):
            latency = stream.uniform(ranges.latency_min, ranges.latency_max)
            links[(i, j)] = (latency, stream.uniform(ranges.gap_min, ranges.gap_max))
    return broadcast, links


class TestDrawContract:
    """``cost_stacks`` and ``generate`` read one draw, in one order."""

    @settings(max_examples=40, deadline=None)
    @given(
        num_clusters=st.integers(1, 50),
        ranges=_ranges(),
        cluster_size=st.sampled_from([1, 2, 16]),
        seeds=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=3),
        message_size=st.sampled_from([0.0, 1.0, 1_048_576.0]),
    )
    def test_stacks_equal_generated_grid_caches(
        self, num_clusters, ranges, cluster_size, seeds, message_size
    ):
        generator = RandomGridGenerator(ranges, cluster_size=cluster_size)
        stacks = generator.cost_stacks(num_clusters, seeds)
        reference = BatchedGridCosts(
            [
                GridCostCache.build(
                    generator.generate(num_clusters, RandomStream(seed)),
                    message_size,
                )
                for seed in seeds
            ]
        )
        assert set(stacks) == {"gap", "latency", "transfer", "broadcast"}
        for key, array in stacks.items():
            assert np.array_equal(array, getattr(reference, key)), key
            assert not array.flags.writeable

    @settings(max_examples=30, deadline=None)
    @given(
        num_clusters=st.integers(1, 12),
        ranges=_ranges(),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_generate_matches_sequential_uniform_calls(
        self, num_clusters, ranges, seed
    ):
        """A shared stream ends where the one-value-at-a-time draw ended,
        so a second grid from it matches too."""
        generator = RandomGridGenerator(ranges)
        shared, sequential = RandomStream(seed), RandomStream(seed)
        for _ in range(2):
            grid = generator.generate(num_clusters, shared)
            broadcast, links = _sequential_draw(num_clusters, sequential, ranges)
            assert grid.broadcast_times(0.0) == broadcast
            for (i, j), (latency, gap) in links.items():
                assert grid.latency(i, j) == latency
                assert grid.gap(i, j, 0.0) == gap
        assert shared.state == sequential.state

    def test_pinned_values(self):
        """Literal draws of seed 7, fixed independently of the implementation."""
        stacks = RandomGridGenerator().cost_stacks(4, [7])
        assert stacks["broadcast"][0].tolist() == [
            1.8827844904819075,
            2.693697126889335,
            2.3315433569306765,
            0.6911174261719638,
        ]
        for (i, j), latency, gap in (
            ((0, 1), 0.005202327988757156, 0.5367767226981309),
            ((0, 3), 0.012158972002528644, 0.3339674764218604),
            ((2, 3), 0.008063675625411345, 0.37674867603724627),
        ):
            for a, b in ((i, j), (j, i)):
                assert stacks["latency"][0, a, b] == latency
                assert stacks["gap"][0, a, b] == gap
                assert stacks["transfer"][0, a, b] == latency + gap
        assert not stacks["latency"][0].diagonal().any()

    def test_rejects_empty_seed_list(self):
        with pytest.raises(ValueError, match="seed"):
            RandomGridGenerator().cost_stacks(3, [])


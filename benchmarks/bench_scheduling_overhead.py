"""Scheduling overhead and throughput — the cost of the heuristics themselves.

Paper §7 notes that "the algorithm complexity is a factor that must be
considered when implementing more elaborate techniques like ECEF-LAT".  This
benchmark measures

* the wall-clock cost of producing one schedule with each heuristic on random
  10-, 30- and 50-cluster grids (the overhead an MPI library would pay at
  communicator-construction time), and
* the throughput of the Monte-Carlo engines on the paper's 10-cluster
  workload: the seed-style scalar reference (fresh cost matrices per
  schedule, scalar selection loops) versus the vectorized per-grid engine and
  the batched engine that drives whole chunks of grids per NumPy call, and
  how close the end-to-end Monte-Carlo study (``run_simulation_study``,
  random draws included) comes to the batched kernel alone.

The schedules/sec numbers and per-heuristic timings are also written to
``benchmarks/results/BENCH_scheduling.json`` so the trajectory is tracked
across PRs.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import bench_iterations, emit, emit_json

from repro.core.batch import BatchedGridCosts, batched_makespans
from repro.core.costs import GridCostCache
from repro.core.registry import PAPER_HEURISTICS, get_heuristic, instantiate
from repro.experiments.config import SimulationStudyConfig
from repro.experiments.simulation_study import run_simulation_study
from repro.topology.generators import RandomGridGenerator
from repro.utils.rng import RandomStream

CLUSTER_COUNTS = (10, 30, 50)
MESSAGE_SIZE = 1_048_576


def _grid(num_clusters: int):
    return RandomGridGenerator(cluster_size=2).generate(
        num_clusters, RandomStream(seed=num_clusters)
    )


def _monte_carlo_grids(num_clusters: int, count: int):
    generator = RandomGridGenerator(cluster_size=2)
    return [
        generator.generate(num_clusters, RandomStream(seed=seed))
        for seed in range(count)
    ]


@pytest.mark.parametrize("key", PAPER_HEURISTICS)
@pytest.mark.parametrize("num_clusters", CLUSTER_COUNTS)
def test_scheduling_overhead(benchmark, key, num_clusters):
    grid = _grid(num_clusters)
    heuristic = get_heuristic(key)
    benchmark.group = f"schedule {num_clusters} clusters"
    schedule = benchmark(lambda: heuristic.schedule(grid, MESSAGE_SIZE))
    assert schedule.makespan > 0


def test_scheduling_overhead_summary():
    """A one-shot, human-readable comparison (milliseconds per schedule)."""
    lines = ["Scheduling overhead (single schedule construction, wall-clock):"]
    per_heuristic: dict[str, dict[str, float]] = {}
    for num_clusters in CLUSTER_COUNTS:
        grid = _grid(num_clusters)
        cells = []
        for key in PAPER_HEURISTICS:
            heuristic = get_heuristic(key)
            start = time.perf_counter()
            repetitions = 5
            for _ in range(repetitions):
                heuristic.schedule(grid, MESSAGE_SIZE)
            elapsed = (time.perf_counter() - start) / repetitions
            cells.append(f"{heuristic.name}={elapsed * 1e3:.2f}ms")
            per_heuristic.setdefault(heuristic.name, {})[str(num_clusters)] = elapsed
        lines.append(f"  {num_clusters:2d} clusters: " + "  ".join(cells))
    emit("\n".join(lines))
    emit_json(
        "single_schedule_seconds",
        {"message_size": MESSAGE_SIZE, "per_heuristic": per_heuristic},
    )


def test_monte_carlo_throughput():
    """Schedules/sec on the 10-cluster Monte-Carlo workload, per engine.

    The *seed-style* baseline reproduces the seed implementation's cost
    profile: every ``heuristic.schedule`` call rebuilds the full cost
    matrices (uncached) and runs the scalar selection loops.  The vectorized
    engine shares one :class:`GridCostCache` per grid across all heuristics;
    the batched engine additionally stacks the whole workload and advances
    every (heuristic, grid) lane of it in one loop.

    ``end_to_end_vs_batched_kernel`` divides the grids/s of the whole
    in-process study on the same workload shape (random draws, chunking and
    result assembly included) by the grids/s of the batched kernels alone
    on prebuilt stack arrays, called the way the study calls them (one
    lane loop for the line-up).  Both sides run on the same machine within
    milliseconds of each other, so machine speed cancels out of the ratio;
    it reads as the share of study time spent scheduling.
    """
    num_clusters = 10
    # Floor the workload at 100 grids: the batched engine finishes a small
    # batch in a few milliseconds, which is too noisy to assert a speedup on.
    grid_count = max(bench_iterations(150), 100)
    grids = _monte_carlo_grids(num_clusters, grid_count)
    heuristics = instantiate(PAPER_HEURISTICS)
    schedules = len(grids) * len(heuristics)

    def measure(run) -> float:
        start = time.perf_counter()
        run()
        return time.perf_counter() - start

    def seed_style():
        for grid in grids:
            for heuristic in heuristics:
                heuristic.schedule(
                    grid,
                    MESSAGE_SIZE,
                    costs=GridCostCache.build(grid, MESSAGE_SIZE),
                    vectorized=False,
                )

    def vectorized():
        for grid in grids:
            costs = GridCostCache.build(grid, MESSAGE_SIZE)
            for heuristic in heuristics:
                heuristic.makespan(grid, MESSAGE_SIZE, costs=costs)

    def batched():
        caches = [GridCostCache.build(grid, MESSAGE_SIZE) for grid in grids]
        stacked = BatchedGridCosts(caches)
        results = [
            batched_makespans(h, stacked, root=0, lineup=heuristics)
            for h in heuristics
        ]
        assert all(r is not None for r in results)

    prebuilt = BatchedGridCosts(
        [GridCostCache.build(grid, MESSAGE_SIZE) for grid in grids]
    )
    arrays = {
        name: getattr(prebuilt, name)
        for name in ("gap", "latency", "transfer", "broadcast")
    }
    study = SimulationStudyConfig(
        cluster_counts=(num_clusters,),
        iterations=grid_count,
        heuristics=PAPER_HEURISTICS,
        message_size=MESSAGE_SIZE,
    )

    def batched_kernel():
        # The study's own path: the first call on a fresh (copy-free) stack
        # runs one lane loop for the whole line-up, the rest read its cache.
        stacked = BatchedGridCosts.from_arrays(arrays)
        for heuristic in heuristics:
            batched_makespans(heuristic, stacked, root=0, lineup=heuristics)

    def end_to_end():
        run_simulation_study(study, workers=1)

    # Warm up allocators / import costs on a small slice before timing.
    for grid in grids[:3]:
        for heuristic in heuristics:
            heuristic.makespan(grid, MESSAGE_SIZE)

    elapsed = {
        "seed_style_scalar": measure(seed_style),
        "vectorized_shared_cache": measure(vectorized),
        "batched": measure(batched),
    }
    throughput = {name: schedules / seconds for name, seconds in elapsed.items()}
    baseline = throughput["seed_style_scalar"]
    # Best of several short runs, interleaved so that a slow spell of the
    # machine hits both sides alike: each run takes tens of milliseconds.
    best = {"batched_kernel": float("inf"), "end_to_end": float("inf")}
    for _ in range(5):
        best["batched_kernel"] = min(best["batched_kernel"], measure(batched_kernel))
        best["end_to_end"] = min(best["end_to_end"], measure(end_to_end))
    grids_per_second = {name: grid_count / seconds for name, seconds in best.items()}
    end_to_end_ratio = (
        grids_per_second["end_to_end"] / grids_per_second["batched_kernel"]
    )

    lines = [
        f"Monte-Carlo scheduling throughput ({num_clusters} clusters, "
        f"{grid_count} grids x {len(heuristics)} heuristics):"
    ]
    for name, value in throughput.items():
        lines.append(
            f"  {name:<24} {value:10,.0f} schedules/s   ({value / baseline:5.1f}x)"
        )
    for name, value in grids_per_second.items():
        lines.append(f"  {name:<24} {value:10,.0f} grids/s")
    lines.append(f"  end-to-end / batched kernel: {end_to_end_ratio:.2f}")
    emit("\n".join(lines))

    emit_json(
        "monte_carlo_throughput",
        {
            "num_clusters": num_clusters,
            "grids": grid_count,
            "heuristics": list(PAPER_HEURISTICS),
            "message_size": MESSAGE_SIZE,
            "schedules": schedules,
            "schedules_per_second": throughput,
            "speedup_vs_seed_style": {
                name: value / baseline for name, value in throughput.items()
            },
            "grids_per_second": grids_per_second,
            "end_to_end_vs_batched_kernel": end_to_end_ratio,
        },
    )

    # The batched engine is the one the Monte-Carlo studies actually use;
    # it must stay well ahead of the seed-style baseline.
    assert throughput["batched"] >= 5.0 * baseline


def test_engines_agree_on_throughput_workload():
    """The three engines must produce identical makespans on the workload."""
    grids = _monte_carlo_grids(10, 25)
    heuristics = instantiate(PAPER_HEURISTICS)
    caches = [GridCostCache.for_grid(grid, MESSAGE_SIZE) for grid in grids]
    stacked = BatchedGridCosts(caches)
    for heuristic in heuristics:
        from_batch = batched_makespans(heuristic, stacked, root=0)
        from_vectorized = np.array(
            [
                heuristic.makespan(grid, MESSAGE_SIZE, costs=cache)
                for grid, cache in zip(grids, caches)
            ]
        )
        from_scalar = np.array(
            [
                heuristic.schedule(grid, MESSAGE_SIZE, vectorized=False).makespan
                for grid in grids
            ]
        )
        assert np.array_equal(from_batch, from_vectorized), heuristic.name
        assert np.array_equal(from_vectorized, from_scalar), heuristic.name

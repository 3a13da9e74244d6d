"""Figure 4 — hit rate of the ECEF-like heuristics against the global minimum.

Paper methodology: for each Monte-Carlo iteration the "global minimum" is the
best makespan achieved by any of the four ECEF-like heuristics; the hit rate
of a heuristic is the number of iterations where it matches that minimum.

Paper finding: ECEF, ECEF-LA and ECEF-LAt lose efficiency as the cluster count
grows while ECEF-LAT stays roughly constant around 45 %.  **Known divergence**
(see ``docs/reproducing.md``): under our pLogP timing model the grid-aware lookaheads'
T-signal (the spread between the largest remaining broadcast times, which
shrinks like 1/n) is drowned by the per-pair gap variance for large cluster
counts, so ECEF/ECEF-LA keep the highest hit rates instead.  The benchmark
still regenerates the figure's rows and asserts the parts of the claim that do
transfer: the ECEF family collectively dominates the global minimum and the
figure-4 methodology (ties counted for every matching heuristic) is honoured.
"""

from __future__ import annotations

from conftest import bench_iterations, emit

from repro.experiments.config import SimulationStudyConfig
from repro.experiments.hit_rate import run_hit_rate_study
from repro.experiments.report import render_hit_rate_table


def _run_figure4():
    config = SimulationStudyConfig.figure4(iterations=bench_iterations(150))
    return run_hit_rate_study(config)


def test_figure4_hit_rate(benchmark):
    result = benchmark.pedantic(_run_figure4, rounds=1, iterations=1)
    counts = {name: result.series(name) for name in result.heuristic_names}
    emit(
        render_hit_rate_table(
            result.cluster_counts,
            counts,
            iterations=result.iterations,
            title="Figure 4 — hit rate of ECEF-like heuristics",
        )
    )
    rates = result.hit_rates()
    # Every iteration has at least one winner, so rates sum to >= 1 per row.
    assert (rates.sum(axis=1) >= 1.0 - 1e-9).all()
    # Each heuristic wins a non-trivial share of the small-grid iterations.
    assert (rates[0] > 0.05).all()
    # The best heuristic of each row matches the global minimum at least ~40 %
    # of the time, the order of magnitude the paper reports for its winner.
    assert (rates.max(axis=1) >= 0.35).all()

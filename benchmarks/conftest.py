"""Shared helpers for the benchmark harness.

Every benchmark regenerates one artefact of the paper (a figure or a table)
and prints the corresponding rows/series, so the console output of::

    pytest benchmarks/ --benchmark-only -s

doubles as the data source for ``docs/reproducing.md``.  The Monte-Carlo iteration
counts default to values that finish in seconds; set the environment variable
``REPRO_BENCH_ITERATIONS`` to a larger number (the paper used 10 000) for
tighter averages.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

#: All emitted tables are appended here (cleared at the start of each pytest
#: session), so the regenerated paper artefacts survive output capturing.
RESULTS_FILE = Path(__file__).parent / "results" / "paper_artifacts.txt"

#: Machine-readable companion of the scheduling benchmarks: schedules/sec and
#: per-heuristic timings, merged section by section via :func:`emit_json` so
#: the throughput trajectory can be compared across PRs.
BENCH_JSON_FILE = Path(__file__).parent / "results" / "BENCH_scheduling.json"

#: Same, for the practical-study (measured sweep) benchmarks.
BENCH_PRACTICAL_JSON_FILE = Path(__file__).parent / "results" / "BENCH_practical.json"

#: Same, for the study-runtime benchmarks (persistent pool, zero-copy
#: shipping, pipelined end-to-end driver).
BENCH_RUNTIME_JSON_FILE = Path(__file__).parent / "results" / "BENCH_runtime.json"

#: Same, for the schedule-service benchmarks (cold vs warm latency, QPS).
BENCH_SERVICE_JSON_FILE = Path(__file__).parent / "results" / "BENCH_service.json"

#: Same, for the gossip round-engine benchmarks (rounds/s at 10^4..10^6
#: nodes, vectorized vs the scalar reference).
BENCH_GOSSIP_JSON_FILE = Path(__file__).parent / "results" / "BENCH_gossip.json"


def pytest_sessionstart(session):
    RESULTS_FILE.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_FILE.write_text("")


def bench_iterations(default: int) -> int:
    """Iteration count for Monte-Carlo benchmarks, overridable via the env."""
    override = os.environ.get("REPRO_BENCH_ITERATIONS")
    if override:
        return max(1, int(override))
    return default


def emit(text: str) -> None:
    """Record a result table.

    The table is appended to ``benchmarks/results/paper_artifacts.txt`` (the
    durable record behind ``docs/reproducing.md``) and also written to stderr so that
    running pytest with ``-s`` shows it inline.
    """
    RESULTS_FILE.parent.mkdir(parents=True, exist_ok=True)
    with RESULTS_FILE.open("a") as handle:
        handle.write(text + "\n\n")
    sys.stderr.write("\n" + text + "\n")


def emit_json(section: str, payload: dict, *, path: Path | None = None) -> None:
    """Merge one section into a benchmark JSON document.

    Defaults to ``benchmarks/results/BENCH_scheduling.json``; the practical
    sweep benchmarks pass ``path=BENCH_PRACTICAL_JSON_FILE``.  Sections are
    merged by name into the existing document (never wholesale cleared), so a
    partial benchmark run — or one that emits nothing — leaves the other
    recorded sections' trajectory data intact; a full run simply overwrites
    every section it re-measures.
    """
    target = path if path is not None else BENCH_JSON_FILE
    target.parent.mkdir(parents=True, exist_ok=True)
    data = {}
    if target.exists():
        try:
            data = json.loads(target.read_text())
        except json.JSONDecodeError:
            data = {}
    data[section] = payload
    target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.fixture
def iterations():
    """Default iteration count fixture (kept small for CI-speed runs)."""
    return bench_iterations(100)

"""Tests of the benchmark itself: ``python3 -m pytest e2ebench/``.

* a tiny run of each workload emits every metric of ``BENCHMARK.json`` with
  its unit, and passes its correctness gate;
* a deliberately corrupted output is caught by the gate;
* the traced mode emits a span for every per-layer metric;
* without the program's sources the benchmark fails and prints no result;
* a process a worker leaves behind is ended and reaped.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracing
import workloads
from repro.topology.grid5000 import build_grid5000_topology

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def tiny_runs() -> dict[tuple[str, int], list[str]]:
    """Stdout lines of a 1-second run of every workload, in both modes."""
    runs = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            run = run_bench(workload, trace)
            assert run.returncode == 0, run.stderr
            runs[workload, trace] = run.stdout.splitlines()
    return runs


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "e2ebench/run.py"]
    assert set(tracing.LAYER_METRICS) | {"trace.overhead_s", "trace.overhead_pct"} == {
        m["name"] for m in SPEC["per_layer"]
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(tiny_runs, workload, trace, section):
    lines = tiny_runs[workload, trace]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        printed = "\n".join(lines[:-1])
        assert "fingerprint" in printed and "setup_s" in printed


def test_traced_mode_emits_a_span_for_every_layer_metric(tiny_runs):
    seen: set[str] = set()
    for workload in workloads.WORKLOADS:
        path = BENCH_DIR / "results" / f"trace-{workload}-seed{SEED}.json"
        for event in json.loads(path.read_text())["traceEvents"]:
            assert event["ph"] == "X" and "parent" in event["args"]
            seen.add(event["name"])
    for metric, (source, _, _) in tracing.LAYER_METRICS.items():
        if source.endswith("*"):
            assert any(name.startswith(source[:-1]) for name in seen), metric
        else:
            assert source in seen, metric


def _nudge(array: np.ndarray) -> np.ndarray:
    """A copy of ``array`` one ULP away everywhere."""
    return np.nextafter(array, np.inf)


def test_corrupted_monte_carlo_output_is_caught():
    workload = workloads.MonteCarloSweep(seed=SEED)
    units = workload.loop(count=1)
    good = workloads.Outcome()
    workload.check_units(good, units)
    assert good.failed == 0 and good.attempted > 1
    index, (makespans,), wall, items = units[0]
    bad = workloads.Outcome()
    workload.check_units(bad, [(index, (_nudge(makespans),), wall, items)])
    assert bad.failed == bad.attempted  # the digest and every scalar comparison
    assert any("scalar" in problem for problem in bad.problems)


def test_corrupted_measured_output_is_caught():
    workload = workloads.MeasuredSweep(seed=SEED)
    workload.grid = build_grid5000_topology()
    workload.workers = 1
    units = workload.loop(count=1)
    good = workloads.Outcome()
    workload.check_units(good, units)
    assert good.failed == 0
    index, (predicted, replicas, baseline), wall, items = units[0]
    replicas = replicas.copy()
    replicas[0, 3, 2] = _nudge(replicas[0, 3, 2])
    bad = workloads.Outcome()
    workload.check_units(bad, [(index, (predicted, replicas, baseline), wall, items)])
    assert bad.failed == 1


def test_corrupted_service_reply_is_caught():
    workload = workloads.ServiceMix(seed=SEED, queries=40)
    records, _, stats = workload._in_process_round(None)
    good = workloads.Outcome()
    workload.verify(good, records)
    assert good.failed == 0 and good.attempted == len(workload.stream)
    assert stats["hits"] + stats["misses"] == len(workload.stream)
    # The first reply, as if the daemon had served a schedule one ULP off.
    record = records[0]
    payload = record.first_payload[record.keys[0]]
    payload["completion_times"][-1] = float(
        _nudge(np.float64(payload["completion_times"][-1]))
    )
    record.digests[0] = workloads._reply_digest(payload)
    bad = workloads.Outcome()
    workloads.ServiceMix(seed=SEED, queries=40).verify(bad, records)
    assert bad.failed >= 1


def test_fails_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    run = run_bench("mc_sweep", 0, cwd=tmp_path)
    assert run.returncode != 0
    assert not any(line.startswith("{") for line in run.stdout.splitlines())


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl")
def test_leftover_process_of_a_worker_is_ended():
    # A stand-in worker (a process-group leader) exits and leaves an orphan.
    script = "\n".join([
        "import subprocess, run",
        "run.GROUP_GRACE_S = 0.5",
        "assert run.become_subreaper()",
        "leader = subprocess.Popen(['sh', '-c', 'sleep 1000 & echo $!'],",
        "                          stdout=subprocess.PIPE, text=True, start_new_session=True)",
        "leader.stdout.readline()  # the orphan is running",
        "leader.wait()",
        "assert run.group_alive(leader.pid)",
        "run.end_group(leader.pid, subreaper=True)",
        "assert not run.group_alive(leader.pid)",
    ])
    run = subprocess.run([sys.executable, "-c", script], cwd=BENCH_DIR,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr

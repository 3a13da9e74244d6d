"""One benchmark process: set up one workload, then measure or trace it.

Started by ``run.py`` in a fresh interpreter with a cleaned environment.
The protocol on stdin/stdout is line based:

* the worker prints ``READY`` once imports are done and fixtures are built;
* it then reads one command: ``EXIT`` tears down and exits (a set-up
  probe), ``GO`` runs the workload and prints ``RESULT <json>``.

Usage (normally through ``run.py``)::

    python3 e2ebench/worker.py --workload mc_sweep --seed 1 --seconds 16 --trace 0
"""

from __future__ import annotations

import argparse
import json
import sys
import time

_import_started = time.perf_counter()
import repro.cli  # noqa: E402,F401  (timed: the CLI's import cost)

_import_s = time.perf_counter() - _import_started
_networkx_loaded = "networkx" in sys.modules

import os  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    head_file = ROOT / ".git" / "HEAD"
    try:
        head = head_file.read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict[str, object]:
    from repro.runtime.transport import shared_memory_available

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "shared_memory": shared_memory_available(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.make_workload(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.record(
            "import.cli",
            _import_started,
            _import_started + _import_s,
            networkx_loaded=float(_networkx_loaded),
        )
        patcher = tracing.Patcher(tracer)
        tracing.install(patcher)
        try:
            workload.setup(traced=True)
        finally:
            patcher.restore()
    else:
        workload.setup()
    print("READY", flush=True)
    try:
        command = sys.stdin.readline().strip()
        if command != "GO":
            return 0
        if tracer is None:
            outcome = workload.measure(args.seconds)
        else:
            outcome = workload.trace(args.seconds, tracer)
            outcome.layers.update(tracing.layer_metrics(tracer))
            tracer.write_chrome_trace(
                RESULTS_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            )
    finally:
        workload.teardown()
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "metrics": outcome.layers if tracer is not None else outcome.metrics,
        "named": outcome.named,
        "round_rates": outcome.round_rates,
        "fingerprint": fingerprint(),
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of the broadcast heuristics: one command, four workloads.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload mc_sweep --seed 1 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md).  Each run uses fresh interpreters with the ``REPRO_*``
environment cleared and BLAS/OpenMP pinned to one thread.  Set-up is
measured 7 times (each time in a new interpreter, from process start until
imports are done and fixtures are ready) and reported as the median.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric of the workload.  The exit status is non-zero, with no
JSON line, when the workload cannot run.

Every worker runs in a process group of its own, and ``run.py`` makes itself
the child subreaper (Linux), so the processes a worker leaves behind (pool
workers, the service daemon, the shared-memory resource tracker) become its
children once the worker exits.  Before ``run.py`` moves on, and on every
way out of it, it waits for the whole group to end, killing what is still
alive after a grace period, and reaps it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
RESULTS_DIR = BENCH_DIR / "results"

WORKLOADS = ("mc_sweep", "measured_sweep", "gossip_churn", "service_mix")

#: Set-up-only probes in fresh interpreters, before and after the measured
#: worker (whose own set-up is one more sample); spreading them over the
#: run keeps one slow stretch of a shared machine from owning the median.
SETUP_PROBES = 3

#: Upper bound on one worker's life, so a hung worker cannot hang the run.
WORKER_TIMEOUT_S = 170.0

#: How long a worker's leftover processes may take to end on their own
#: (the resource tracker exits on end-of-file) before they are killed.
GROUP_GRACE_S = 10.0

#: Linux ``prctl`` option that makes orphaned descendants our children.
PR_SET_CHILD_SUBREAPER = 36

#: Thread pools NumPy's BLAS/OpenMP back-ends would otherwise size to nproc.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """The workload could not run; no result is printed."""


def hermetic_env() -> dict[str, str]:
    """This environment without ``REPRO_*``, with pinned threads and ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def become_subreaper() -> bool:
    """Adopt orphaned descendants, so they can be waited for and reaped."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def reap_children() -> None:
    """Reap every child that has already ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def end_group(pgid: int, subreaper: bool) -> None:
    """Wait for every process of group ``pgid`` to end and reap it.

    What is still alive after :data:`GROUP_GRACE_S` is killed.  Without
    subreaper support the leftovers are not our children and cannot be
    waited for, so they are killed at once.
    """
    if not subreaper:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        return
    deadline = time.monotonic() + GROUP_GRACE_S
    killed = False
    while True:
        reap_children()
        if not group_alive(pgid):
            return
        if not killed and time.monotonic() >= deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            killed = True
        time.sleep(0.01)


#: Workers whose process groups have not been ended yet.
_live: list["Worker"] = []

#: Whether this process adopts orphaned descendants (set by :func:`main`).
_subreaper = False


class Worker:
    """One worker process, driven through its stdin/stdout line protocol."""

    def __init__(self, args: argparse.Namespace, trace: int) -> None:
        self.started = time.perf_counter()
        self._ended = False
        self.process = subprocess.Popen(
            [
                sys.executable, str(WORKER),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
            ],
            cwd=ROOT,
            env=hermetic_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        _live.append(self)
        self._deadline = threading.Timer(WORKER_TIMEOUT_S, self.kill)
        self._deadline.start()

    def kill(self) -> None:
        """Kill the worker and everything it started."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait_ready(self) -> float:
        """Seconds from spawn until the worker reported its fixtures ready."""
        line = self.process.stdout.readline()
        if line.strip() != "READY":
            self.stop()
            raise BenchmarkError(f"worker failed during set-up (got {line!r})")
        return time.perf_counter() - self.started

    def send(self, command: str) -> None:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()

    def result(self) -> dict:
        """Run the workload and return the worker's result object."""
        self.send("GO")
        result = None
        # RESULT is the worker's last line; reading on to end-of-file would
        # also wait for any process that inherited the worker's stdout.
        for line in self.process.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
                break
        status = self.stop()
        if status != 0 or result is None:
            raise BenchmarkError(f"worker exited with status {status}")
        return result

    def stop(self) -> int:
        """Close the pipes, wait for the worker, then end its process group.

        The worker is killed with its group at the deadline.
        """
        try:
            self.process.stdin.close()
        except OSError:
            pass
        status = self.process.wait()
        self._deadline.cancel()
        self.process.stdout.close()
        self.end()
        return status

    def end(self) -> None:
        """Make sure no process of this worker's group is left (idempotent)."""
        if self._ended:
            return
        if self.process.poll() is None:
            self.kill()
            self.process.wait()
        self._deadline.cancel()
        end_group(self.process.pid, _subreaper)
        self._ended = True
        _live.remove(self)


def setup_probe(args: argparse.Namespace) -> float:
    worker = Worker(args, trace=0)
    ready = worker.wait_ready()
    worker.send("EXIT")
    status = worker.stop()
    if status != 0:
        raise BenchmarkError(f"set-up probe exited with status {status}")
    return ready


def run(args: argparse.Namespace) -> dict:
    probes = 0 if args.trace else SETUP_PROBES
    setups = [setup_probe(args) for _ in range(probes)]
    worker = Worker(args, trace=args.trace)
    setups.append(worker.wait_ready())
    result = worker.result()
    setups += [setup_probe(args) for _ in range(probes)]
    if not args.trace:
        result["metrics"]["setup_s"] = [statistics.median(setups), "s"]
        result["named"]["setup_s"] = [statistics.median(setups), "s", len(setups)]
    result["setup_samples_s"] = setups
    return result


def report(args: argparse.Namespace, result: dict) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"e2ebench {args.workload} seed={args.seed} seconds={args.seconds} ({mode})")
    print("fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))
    if args.trace:
        for name, (value, unit) in sorted(result["metrics"].items()):
            print(f"  {name:<34} {value:>16.6g} {unit}")
    else:
        for name, (value, unit, samples) in result["named"].items():
            print(f"  {name:<34} {value:>16.6g} {unit:<6} (n={samples})")
    print(
        f"checks: {result['attempted']} attempted, {result['failed']} failed"
        + "".join(f"\n  FAILED {problem}" for problem in result["problems"])
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2ebench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    global _subreaper
    _subreaper = become_subreaper()
    previous = signal.signal(signal.SIGTERM, _terminated)
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    finally:
        for worker in list(_live):
            worker.end()
        signal.signal(signal.SIGTERM, previous)
    report(args, result)
    return 0


def _terminated(signum: int, frame: object) -> None:
    """Turn SIGTERM into an exception, so the workers are ended on the way out."""
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    sys.exit(main())

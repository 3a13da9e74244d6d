"""The four workloads of the end-to-end benchmark.

Every workload makes its inputs from the run seed, runs the user-visible
entry point of one part of ``repro`` for a timed stretch, and checks the
outputs before any number is reported.  See ``README.md`` for why each
workload was chosen and which layers it stresses.

Study workloads (``mc_sweep``, ``measured_sweep``, ``gossip_churn``) repeat
one *unit* -- a whole study call, exactly as the CLI makes it -- until the
time is up.  Unit inputs come from a pool of :data:`POOL_SIZE` study seeds
per workload whose result digests were recorded from a known-good commit
(``digests.json``, rewritten by ``record_digests.py``); the run seed picks
the order in which the pool is walked.  ``service_mix`` instead sends a
fixed, seeded query stream to a fresh daemon each round and checks every
reply against the inline scheduler.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.registry import PAPER_HEURISTICS, get_heuristic
from repro.experiments import report
from repro.experiments.config import PracticalStudyConfig, SimulationStudyConfig
from repro.experiments.gossip_study import GossipStudyConfig, run_gossip_study
from repro.experiments.practical_study import run_practical_study
from repro.experiments.simulation_study import run_simulation_study
from repro.gossip.engine import run_gossip
from repro.gossip.spec import ChurnSpec
from repro.runtime.pool import get_pool, shutdown_pool
from repro.runtime.service import (
    ScheduleClient,
    ScheduleReply,
    ScheduleService,
    ServiceError,
)
from repro.topology.generators import RandomGridGenerator
from repro.topology.grid5000 import build_grid5000_topology
from repro.utils.rng import RandomStream

import tracing

BENCH_DIR = Path(__file__).resolve().parent
DIGEST_FILE = BENCH_DIR / "digests.json"

#: Recorded study seeds per workload; a run walks them in a seeded order.
POOL_SIZE = 32

MIB = 1024 * 1024

MC_CLUSTER_COUNTS = (10, 20, 30, 40, 50)
MC_ITERATIONS = 10
#: Random grids per run re-scheduled by the scalar reference engine.
MC_SCALAR_SAMPLES = 8

MEASURED_REPLICAS = 32

GOSSIP_PROTOCOLS = tracing.GOSSIP_PROTOCOLS
GOSSIP_NODE_COUNTS = (100_000, 1_000_000)
GOSSIP_CHURN = 0.2
GOSSIP_NOISE = 0.03
#: Network size of the scalar-vs-vectorized engine check.
GOSSIP_CHECK_NODES = 10_000

SERVICE_CLIENTS = 2
SERVICE_TOPOLOGIES = 47  # grid5000 + 46 random specs; x 3 sizes x 7 = 987 keys
SERVICE_SIZES = (64 * 1024, MIB, 4 * MIB)
SERVICE_ZIPF = 1.0
#: Queries per round; the stream is fixed by the seed.
SERVICE_ROUND_QUERIES = 6000


def pool_seed(workload: str, index: int) -> int:
    """The study seed of one pool entry (independent of ``repro``'s RNG)."""
    raw = hashlib.sha256(f"e2ebench/{workload}/{index}".encode()).digest()
    return int.from_bytes(raw[:4], "little")


def digest_arrays(*arrays: np.ndarray) -> str:
    """sha256 over shapes and little-endian float64 bytes."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(repr(array.shape).encode())
        digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return digest.hexdigest()


def load_digests() -> dict[str, list[str]]:
    return json.loads(DIGEST_FILE.read_text())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def calibration_kernel() -> None:
    """Interpreter-bound calibration work: build, sort and scan small dicts."""
    records = [{"id": i, "value": i * 1.5, "pair": (i, i + 1)} for i in range(24_000)]
    records.sort(key=lambda record: -record["value"])
    total = 0.0
    for record in records:
        total += record["value"] * 0.5


#: Duration (s) of :func:`calibration_kernel` on the reference machine when
#: it was quiet.  A calibrated round's throughput is scaled by ``measured /
#: reference`` kernel time around it, so it reads in reference-machine units.
CALIBRATION_REFERENCE_S = 0.018


def calibration_factor(warm: bool = True) -> float:
    """How much slower than the reference machine this one runs right now.

    The shared test machine drifts in speed by up to 40% over tens of
    seconds, and interpreter-bound work slows down in step with the kernel.
    ``warm=False`` runs the kernel once untimed first: its first call pays
    one-off costs that later calls do not.
    """
    if not warm:
        calibration_kernel()
    began = time.perf_counter()
    calibration_kernel()
    return (time.perf_counter() - began) / CALIBRATION_REFERENCE_S


def calibrated_throughput(
    work: list[float], walls: list[float], factors: list[float] | None
) -> float:
    """Total work over total round time, each round rescaled by its factor.

    A round's factor is the mean of the calibration factors measured just
    before and just after it; without factors this is the plain mean rate.
    """
    if factors is not None:
        walls = [
            wall * 2.0 / (before + after)
            for wall, before, after in zip(walls, factors, factors[1:])
        ]
    return sum(work) / sum(walls)


def peak_rss_mb(children: bool = False) -> float:
    """Peak RSS of this process (plus its largest waited-for child)."""
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return usage / 1024.0


class Outcome:
    """What one run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.named: dict[str, tuple[float, str, int]] = {}
        self.layers: dict[str, tuple[float, str]] = {}
        #: Throughput of every round (a study call, or one service round).
        self.round_rates: list[float] = []

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


# -- study workloads -------------------------------------------------------------------


class StudyWorkload:
    """A workload whose operation is one whole study call."""

    name = ""
    #: Name of the work-per-second metric printed for this workload.
    throughput_name = ""
    #: Whether the calibration kernel tracks this workload's speed drift,
    #: so that its rounds are rescaled by it (see README.md).
    calibrated = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.order = random.Random(seed).sample(range(POOL_SIZE), POOL_SIZE)

    def setup(self, traced: bool = False) -> None:
        """Build the fixtures a user of this workload pays for before work."""

    def teardown(self) -> None:
        shutdown_pool()

    def run_unit(self, study_seed: int) -> tuple[Any, float]:
        """Run and render one study; return (result arrays, work items)."""
        raise NotImplementedError

    def unit_digest(self, result: Any) -> str:
        return digest_arrays(*result)

    def extra_checks(self, outcome: Outcome, first_seed: int, first: Any) -> None:
        """Checks against the reference engines, beyond the digests."""

    def loop(
        self,
        *,
        seconds: float | None = None,
        count: int | None = None,
        factors: list[float] | None = None,
    ) -> list[tuple[int, Any, float, float]]:
        """Run units until ``seconds`` elapsed or ``count`` units ran.

        Returns ``(pool index, result, wall seconds, work items)`` per unit.
        With ``factors``, a calibration factor is appended before the first
        unit and after every unit (outside the unit's wall time).
        """
        units = []
        start = time.perf_counter()
        if factors is not None:
            factors.append(calibration_factor(warm=False))
        while True:
            index = self.order[len(units) % POOL_SIZE]
            began = time.perf_counter()
            result, items = self.run_unit(pool_seed(self.name, index))
            units.append((index, result, time.perf_counter() - began, items))
            if factors is not None:
                factors.append(calibration_factor())
            if count is not None and len(units) >= count:
                break
            if seconds is not None and time.perf_counter() - start >= seconds:
                break
        return units

    def check_units(self, outcome: Outcome, units: list) -> None:
        recorded = load_digests().get(self.name, [])
        for index, result, _, _ in units:
            expected = recorded[index] if index < len(recorded) else None
            outcome.check(
                self.unit_digest(result) == expected,
                f"{self.name}: unit {index} digest differs from the recorded one",
            )
        index, result, _, _ = units[0]
        self.extra_checks(outcome, pool_seed(self.name, index), result)

    def measure(self, seconds: float) -> Outcome:
        outcome = Outcome()
        factors: list[float] | None = [] if self.calibrated else None
        start = time.perf_counter()
        units = self.loop(seconds=seconds, factors=factors)
        elapsed = time.perf_counter() - start
        self.check_units(outcome, units)
        work = [items for _, _, _, items in units]
        walls = [wall for _, _, wall, _ in units]
        outcome.round_rates = [items / wall for items, wall in zip(work, walls)]
        throughput = calibrated_throughput(work, walls, factors)
        outcome.metrics["throughput"] = (throughput, "1/s")
        outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        outcome.named[self.throughput_name] = (throughput, "1/s", len(units))
        outcome.named[f"{self.throughput_name}.raw_best"] = (
            max(outcome.round_rates), "1/s", len(units)
        )
        outcome.named[f"{self.throughput_name}.raw_mean"] = (
            sum(work) / elapsed, "1/s", len(units)
        )
        outcome.named["study_call_ms.first"] = (walls[0] * 1e3, "ms", 1)
        outcome.named["peak_rss_mb"] = outcome.metrics["peak_rss_mb"] + (1,)
        return outcome

    def trace(self, seconds: float, tracer: tracing.Tracer) -> Outcome:
        """Untraced pass, then the same units traced; the difference is overhead.

        One untimed unit runs first, so that first-use warm-up lands in
        neither pass.
        """
        outcome = Outcome()
        self.loop(count=1)
        plain = self.loop(seconds=seconds / 2)
        patcher = tracing.Patcher(tracer)
        tracing.install(patcher)
        try:
            traced = self.loop(count=len(plain))
        finally:
            patcher.restore()
        extra = self.extra_passes(tracer)
        self.check_units(outcome, plain + traced + extra)
        plain_s = sum(wall for _, _, wall, _ in plain)
        traced_s = sum(wall for _, _, wall, _ in traced)
        outcome.layers["trace.overhead_s"] = (traced_s - plain_s, "s")
        outcome.layers["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
        return outcome

    def extra_passes(self, tracer: tracing.Tracer) -> list:
        """Traced passes that only feed per-layer numbers; returns their units."""
        return []


class MonteCarloSweep(StudyWorkload):
    """``run_simulation_study`` in-process, all 7 heuristics, 10-50 clusters."""

    name = "mc_sweep"
    throughput_name = "mc.grids_per_s"
    #: Interpreter-bound grid generation tracks the kernel (per-unit r = 0.65).
    calibrated = True

    def config(self, study_seed: int) -> SimulationStudyConfig:
        return SimulationStudyConfig(
            cluster_counts=MC_CLUSTER_COUNTS,
            iterations=MC_ITERATIONS,
            heuristics=PAPER_HEURISTICS,
            seed=study_seed,
        )

    def run_unit(self, study_seed: int) -> tuple[Any, float]:
        config = self.config(study_seed)
        result = run_simulation_study(config, workers=1)
        report.render_series_table(
            "clusters",
            result.cluster_counts,
            {name: result.series(name) for name in result.heuristic_names},
            title=f"Mean completion time (s) over {config.iterations} iterations",
        )
        return (result.makespans,), float(result.makespans[:, 0, :].size)

    def extra_checks(self, outcome: Outcome, first_seed: int, first: Any) -> None:
        """Re-schedule a seeded subsample of grids with the scalar engine."""
        (makespans,) = first
        config = self.config(first_seed)
        parent = RandomStream(seed=config.seed)
        seeds = [
            [parent.spawn_seed() for _ in range(config.iterations)]
            for _ in config.cluster_counts
        ]
        picker = random.Random(self.seed)
        generator = RandomGridGenerator(config.ranges)
        for _ in range(MC_SCALAR_SAMPLES):
            count_index = picker.randrange(len(config.cluster_counts))
            iteration = picker.randrange(config.iterations)
            grid = generator.generate(
                config.cluster_counts[count_index],
                RandomStream(seed=seeds[count_index][iteration]),
            )
            for column, key in enumerate(config.heuristics):
                scalar = get_heuristic(key).schedule(
                    grid, config.message_size, root=config.root_cluster,
                    vectorized=False,
                ).makespan
                outcome.check(
                    scalar == makespans[count_index, column, iteration],
                    f"mc_sweep: {key} on grid ({count_index}, {iteration}) "
                    "differs from the scalar engine",
                )


class MeasuredSweep(StudyWorkload):
    """``run_practical_study`` on GRID5000 with noisy replicas, 2 process workers."""

    name = "measured_sweep"
    throughput_name = "measured.runs_per_s"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.workers = 2
        self.grid = None

    def setup(self, traced: bool = False) -> None:
        self.grid = build_grid5000_topology()
        get_pool(self.workers, kind="process")

    def run_unit(self, study_seed: int) -> tuple[Any, float]:
        result = run_practical_study(
            PracticalStudyConfig(seed=study_seed),
            grid=self.grid,
            workers=self.workers,
            executor="process",
            replicas=MEASURED_REPLICAS,
        )
        report.render_table(
            result.as_table(which="predicted"), title="Predicted completion time (s)"
        )
        report.render_table(
            result.as_table(which="measured"), title="Measured completion time (s)"
        )
        arrays = (result.predicted, result.measured_replicas, result.baseline_replicas)
        return arrays, float(result.measured_replicas.size + result.baseline_replicas.size)

    def extra_passes(self, tracer: tracing.Tracer) -> list:
        """One unit in-process, where the simulator's calls are visible."""
        patcher = tracing.Patcher(tracer)
        tracing.install(patcher, {"simulator"})
        self.workers = 1
        try:
            return self.loop(count=1)
        finally:
            self.workers = 2
            patcher.restore()


class GossipChurn(StudyWorkload):
    """``run_gossip_study``: 4 protocols, 10^5 and 10^6 nodes, churn and noise."""

    name = "gossip_churn"
    throughput_name = "gossip.node_rounds_per_s"

    def config(self, study_seed: int) -> GossipStudyConfig:
        return GossipStudyConfig(
            protocols=GOSSIP_PROTOCOLS,
            node_counts=GOSSIP_NODE_COUNTS,
            churn=ChurnSpec(leave_fraction=GOSSIP_CHURN),
            noise_sigma=GOSSIP_NOISE,
            seed=study_seed,
        )

    def run_unit(self, study_seed: int) -> tuple[Any, float]:
        config = self.config(study_seed)
        result = run_gossip_study(config, workers=1)
        planes = (
            ("Rounds to delivery", result.metric("rounds_to_delivery")),
            ("Delivery fraction", result.delivery_fractions()),
            ("Messages per node", result.messages_per_node()),
            ("Delivery time (s)", result.metric("delivery_time")),
        )
        for title, plane in planes:
            report.render_series_table(
                "nodes",
                list(config.node_counts),
                {p: plane[i].tolist() for i, p in enumerate(config.protocols)},
                title=title,
                precision=4,
            )
        node_rounds = result.metric("rounds_executed") @ np.asarray(
            config.node_counts, dtype=float
        )
        return (result.metrics,), float(node_rounds.sum())

    def extra_checks(self, outcome: Outcome, first_seed: int, first: Any) -> None:
        """The vectorized engine must equal the scalar one, bit for bit."""
        config = self.config(first_seed)
        fields = ("informed_round", "messages_per_round", "join_round", "leave_round")
        for protocol in config.protocols:
            spec = config.spec_for(protocol, GOSSIP_CHECK_NODES)
            fast = run_gossip(spec)
            reference = run_gossip(spec, engine="scalar")
            same = fast.rounds_executed == reference.rounds_executed and all(
                np.array_equal(getattr(fast, f), getattr(reference, f)) for f in fields
            )
            if reference.final_ttl is None or fast.final_ttl is None:
                same = same and fast.final_ttl is reference.final_ttl
            else:
                same = same and np.array_equal(fast.final_ttl, reference.final_ttl)
            outcome.check(
                same, f"gossip_churn: {protocol} vectorized engine differs from scalar"
            )


# -- the schedule service ----------------------------------------------------------------


def service_catalogue(seed: int) -> tuple[list[dict], list[tuple[int, int, str]]]:
    """Seeded topology specs and the ``(topology, size, heuristic)`` query keys."""
    rng = np.random.default_rng(seed)
    specs: list[dict] = [{"kind": "grid5000"}]
    randoms = SERVICE_TOPOLOGIES - 1
    for index in range(randoms):
        # Cluster counts span 10-50 evenly, so every seed serves grids of
        # the same sizes; the seed draws the grids themselves.
        specs.append(
            {
                "kind": "random",
                "clusters": 10 + (40 * index) // (randoms - 1),
                "seed": int(rng.integers(0, 2**31)),
            }
        )
    keys = [
        (topology, size, heuristic)
        for topology in range(len(specs))
        for size in SERVICE_SIZES
        for heuristic in PAPER_HEURISTICS
    ]
    order = rng.permutation(len(keys))
    return specs, [keys[i] for i in order]


def service_stream(seed: int, queries: int, catalogue_size: int) -> list[int]:
    """Zipf-skewed key indices: rank ``r`` is drawn with weight ``1 / r**s``."""
    weights = 1.0 / np.arange(1, catalogue_size + 1) ** SERVICE_ZIPF
    rng = np.random.default_rng([seed, 1])
    return rng.choice(catalogue_size, size=queries, p=weights / weights.sum()).tolist()


def _reply_digest(payload: dict) -> bytes:
    return hashlib.blake2b(pickle.dumps(payload, protocol=5), digest_size=16).digest()


class _ClientRecord:
    """One client thread's view of the closed loop."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.cached: list[bool] = []
        self.keys: list[int] = []
        self.digests: list[bytes] = []
        self.first_payload: dict[int, dict] = {}
        self.errors: list[str] = []


def _client_loop(
    client: ScheduleClient,
    specs: list[dict],
    keys: list[tuple[int, int, str]],
    stream: list[int],
    record: _ClientRecord,
    barrier: threading.Barrier,
) -> None:
    barrier.wait()
    for key in stream:
        topology, size, heuristic = keys[key]
        began = time.perf_counter()
        try:
            reply = client.query(specs[topology], size, heuristic)
        except (ServiceError, OSError) as exc:
            record.errors.append(f"{type(exc).__name__}: {exc}")
            continue
        record.latencies.append(time.perf_counter() - began)
        record.cached.append(reply.cached)
        record.keys.append(key)
        record.digests.append(_reply_digest(reply.payload))
        record.first_payload.setdefault(key, reply.payload)


class ServiceMix:
    """A ``service serve`` daemon driven by a closed loop of 2 client threads.

    A *round* sends the whole seeded query stream to a freshly started
    daemon (cold caches) and stops it with SIGTERM; rounds repeat until the
    time is up, and the round with the highest throughput is reported.
    """

    name = "service_mix"

    def __init__(self, seed: int, queries: int = SERVICE_ROUND_QUERIES) -> None:
        self.seed = seed
        self.specs, self.keys = service_catalogue(seed)
        self.stream = service_stream(seed, queries, len(self.keys))
        self.daemon: subprocess.Popen | None = None
        self.clients: list[ScheduleClient] = []
        #: Verification state shared by every round: inline grids and, per
        #: query key, whether the served payload matched and its digest.
        self._grids: dict[int, Any] = {}
        self._references: dict[int, tuple[bool, bytes | None]] = {}

    def setup(self, traced: bool = False) -> None:
        """Spawn the daemon, wait until it accepts, connect the clients.

        The traced mode serves from in-process daemons instead (see
        :meth:`trace`), so it spawns nothing here.
        """
        if not traced:
            self.start_daemon()

    def start_daemon(self) -> None:
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "service", "serve",
             "--bind", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.daemon.stdout.readline()
        if " listening on " not in line:
            raise RuntimeError(f"service daemon did not start: {line!r}")
        host, _, port = line.split(" listening on ")[1].split()[0].rpartition(":")
        self.clients = [
            ScheduleClient((host, int(port)), timeout=60.0).connect()
            for _ in range(SERVICE_CLIENTS)
        ]

    def stop_daemon(self) -> int | None:
        """SIGTERM the daemon and wait for it; returns its exit status."""
        for client in self.clients:
            client.close()
        self.clients = []
        if self.daemon is None:
            return None
        daemon, self.daemon = self.daemon, None
        daemon.send_signal(signal.SIGTERM)
        try:
            status = daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
            status = None
        daemon.stdout.close()
        return status

    def teardown(self) -> None:
        self.stop_daemon()

    def closed_loop(self, clients: list[ScheduleClient]) -> tuple[list[_ClientRecord], float]:
        """Send the stream, client ``i`` taking queries ``i::len(clients)``."""
        records = [_ClientRecord() for _ in clients]
        barrier = threading.Barrier(len(clients) + 1)
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(client, self.specs, self.keys, self.stream[i :: len(clients)],
                      record, barrier),
                name=f"e2ebench-client-{i}",
            )
            for i, (client, record) in enumerate(zip(clients, records))
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        return records, time.perf_counter() - start

    def verify(self, outcome: Outcome, records: list[_ClientRecord]) -> None:
        """Every reply must equal the inline schedule of its query, bit for bit."""
        for record in records:
            for error in record.errors:
                outcome.check(False, f"service_mix: {error}")
            for key, digest in zip(record.keys, record.digests):
                if key not in self._references:
                    self._references[key] = self._reference(key, records)
                ok, expected = self._references[key]
                outcome.check(
                    ok and digest == expected,
                    f"service_mix: reply to query key {key} differs from inline",
                )

    def _reference(
        self, key: int, records: list[_ClientRecord]
    ) -> tuple[bool, bytes | None]:
        """Whether the served payload equals the inline schedule, and its digest."""
        topology, size, heuristic = self.keys[key]
        spec = self.specs[topology]
        if topology not in self._grids:
            if spec["kind"] == "grid5000":
                self._grids[topology] = build_grid5000_topology()
            else:
                self._grids[topology] = RandomGridGenerator().generate(
                    spec["clusters"], RandomStream(seed=spec["seed"])
                )
        grid = self._grids[topology]
        inline = get_heuristic(heuristic).schedule(grid, float(size), root=0)
        payload = next(r.first_payload[key] for r in records if key in r.first_payload)
        served = ScheduleReply(payload=payload, cached=False).schedule()
        ok = served == inline and served.makespan == inline.makespan
        return ok, _reply_digest(payload)

    def measure(self, seconds: float) -> Outcome:
        outcome = Outcome()
        rounds: list[tuple[list[float], list[bool], float, dict[str, int]]] = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            if self.daemon is None:
                self.start_daemon()
            records, elapsed = self.closed_loop(self.clients)
            stats = self.clients[0].stats()
            status = self.stop_daemon()
            outcome.check(
                status == 0, f"service_mix: daemon exited with {status} on SIGTERM"
            )
            self.verify(outcome, records)
            rounds.append(
                (
                    [x * 1e3 for r in records for x in r.latencies],
                    [c for r in records for c in r.cached],
                    elapsed,
                    stats,
                )
            )
        queries = [len(latencies) for latencies, _, _, _ in rounds]
        walls = [elapsed for _, _, elapsed, _ in rounds]
        outcome.round_rates = [n / wall for n, wall in zip(queries, walls)]
        throughput = sum(queries) / sum(walls)
        outcome.metrics["throughput"] = (throughput, "1/s")
        outcome.metrics["peak_rss_mb"] = (peak_rss_mb(children=True), "MB")
        outcome.named["service.qps"] = (throughput, "1/s", len(rounds))
        outcome.named["service.qps.raw_best"] = (
            max(outcome.round_rates), "1/s", len(rounds)
        )
        # Latency percentiles of the round with the median throughput.
        median_round = sorted(range(len(rounds)), key=outcome.round_rates.__getitem__)[
            (len(rounds) - 1) // 2
        ]
        latencies, cached, _, stats = rounds[median_round]
        hits = [x for x, c in zip(latencies, cached) if c]
        misses = [x for x, c in zip(latencies, cached) if not c]
        for name, values, q in (
            ("service.hit_p50_ms", hits, 50),
            ("service.hit_p99_ms", hits, 99),
            ("service.miss_p50_ms", misses, 50),
            ("service.miss_p90_ms", misses, 90),
        ):
            if values:
                outcome.named[name] = (percentile(values, q), "ms", len(values))
        outcome.named["service.hits"] = (float(stats["hits"]), "count", 1)
        outcome.named["service.misses"] = (float(stats["misses"]), "count", 1)
        outcome.named["peak_rss_mb"] = outcome.metrics["peak_rss_mb"] + (1,)
        return outcome

    def _in_process_round(
        self, tracer: tracing.Tracer | None
    ) -> tuple[list[_ClientRecord], float, dict[str, int]]:
        """One round against a fresh daemon running in this process.

        The daemon serves from its own daemon thread and is never joined
        (``close()`` does not stop a blocked ``serve_forever``); its
        sockets are closed and the thread ends with the process.
        """
        patcher = tracing.Patcher(tracer) if tracer is not None else None
        if patcher is not None:
            tracing.install(patcher)
        server = ScheduleService("127.0.0.1", 0)
        try:
            address = server.bind()
            threading.Thread(
                target=server.serve_forever, name="e2ebench-service", daemon=True
            ).start()
            clients = [
                ScheduleClient(address, timeout=60.0).connect()
                for _ in range(SERVICE_CLIENTS)
            ]
            try:
                records, elapsed = self.closed_loop(clients)
                span = tracer.open("runtime.service.stats") if tracer else None
                stats = clients[0].stats()
                if span is not None:
                    tracer.close(span)
                    span.attrs.update(
                        hits=float(stats["hits"]), misses=float(stats["misses"])
                    )
            finally:
                for client in clients:
                    client.close()
        finally:
            server.close()
            if patcher is not None:
                patcher.restore()
        return records, elapsed, stats

    def trace(self, seconds: float, tracer: tracing.Tracer) -> Outcome:
        """An untraced round, then the same round traced, both in-process."""
        outcome = Outcome()
        plain, plain_s, _ = self._in_process_round(None)
        traced, traced_s, _ = self._in_process_round(tracer)
        self.verify(outcome, plain + traced)
        outcome.layers["trace.overhead_s"] = (traced_s - plain_s, "s")
        outcome.layers["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
        return outcome


STUDY_WORKLOADS = {cls.name: cls for cls in (MonteCarloSweep, MeasuredSweep, GossipChurn)}
WORKLOADS = (*STUDY_WORKLOADS, ServiceMix.name)


def make_workload(name: str, seed: int) -> Any:
    if name == ServiceMix.name:
        return ServiceMix(seed)
    return STUDY_WORKLOADS[name](seed)

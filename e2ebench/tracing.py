"""Spans recorded from outside the program, for the traced mode.

The traced mode wraps the public functions at each layer boundary of
``repro`` with a span: a name, a start, an end, the span that was open on
the same thread when it started (its parent) and a few counters.  Spans are
kept in memory and written out as Chrome trace-event JSON when the run ends
(Perfetto and ``chrome://tracing`` read it).  Nothing in ``src/`` is
changed: :class:`Patcher` swaps module and class attributes for wrappers
and puts the originals back afterwards.

A layer's *self time* is the summed duration of its spans minus the part
covered by their direct child spans, so nested layers (a grid build inside
a service cache miss, ``render_table`` inside ``render_series_table``) are
never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.registry import PAPER_HEURISTICS, get_heuristic


class Span:
    """One timed call: name, start/end (``perf_counter`` s), parent, counters."""

    __slots__ = ("index", "name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, index: int, name: str, parent: int | None, thread: int) -> None:
        self.index = index
        self.name = name
        self.parent = parent
        self.thread = thread
        self.attrs: dict[str, float] = {}
        self.start = time.perf_counter()
        self.end = self.start


class Tracer:
    """Thread-safe in-memory span recorder."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].index if stack else None
        with self._lock:
            span = Span(len(self.spans), name, parent, threading.get_ident())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def add(self, key: str, amount: float) -> None:
        """Add to a counter of the innermost open span on this thread."""
        stack = self._stack()
        if stack:
            attrs = stack[-1].attrs
            attrs[key] = attrs.get(key, 0.0) + amount

    def record(self, name: str, start: float, end: float, **attrs: float) -> Span:
        """Record an already-finished span (for code that ran before tracing)."""
        span = self.open(name)
        self.close(span)
        span.start, span.end = start, end
        span.attrs.update(attrs)
        return span

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``count``, total ``self_s`` and summed counters."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"count": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["self_s"] += (span.end - span.start) - child_time[span.index]
            for key, value in span.attrs.items():
                entry[key] = entry.get(key, 0.0) + value
        return out

    def write_chrome_trace(self, path: Path) -> None:
        """Write every span as a Chrome trace-event ``X`` (complete) event."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "ph": "X",
                "pid": 1,
                "tid": span.thread,
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "args": {"id": span.index, "parent": span.parent, **span.attrs},
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def traced(
    tracer: Tracer,
    name: str | Callable[..., str],
    fn: Callable[..., Any],
    counters: Callable[..., dict[str, float]] | None = None,
) -> Callable[..., Any]:
    """Wrap ``fn`` so every call is one span.

    ``name`` may be a callable of the call's arguments (per-heuristic and
    per-protocol spans); ``counters(args, kwargs, result)`` adds counters to
    the span once the call returned.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = tracer.open(name(*args, **kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counters is not None:
            span.attrs.update(counters(args, kwargs, result))
        return result

    return wrapper


def counted(
    tracer: Tracer, key: str, amount: Callable[..., float], fn: Callable[..., Any]
) -> Callable[..., Any]:
    """Wrap ``fn`` so every call adds ``amount(args, kwargs)`` to the open span."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.add(key, amount(args, kwargs))
        return fn(*args, **kwargs)

    return wrapper


class Patcher:
    """Swap attributes for wrappers; :meth:`restore` undoes every swap."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, target: str, make: Callable[[Callable[..., Any]], Any]) -> None:
        """Replace ``module:attr`` or ``module:Class.attr`` by ``make(original)``.

        Classmethods are unwrapped first and re-wrapped afterwards.
        """
        module_name, _, path = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


# -- the layer boundaries --------------------------------------------------------------


@functools.cache
def _heuristic_keys() -> dict[str, str]:
    """Display name -> registry key, for the per-heuristic kernel spans."""
    return {get_heuristic(key).name: key for key in PAPER_HEURISTICS}


def _kernel_name(heuristic: Any, *args: Any, **kwargs: Any) -> str:
    return f"core.batch.kernel.{_heuristic_keys().get(heuristic.name, 'other')}"


def _gossip_name(spec: Any, *args: Any, **kwargs: Any) -> str:
    return f"gossip.run.{spec.protocol}"


def _execute_counters(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    tasks = args[1]
    return {
        "tasks": float(len(tasks)),
        "messages": float(sum(task.program.total_messages() for task in tasks)),
    }


def _gossip_counters(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {
        "rounds": float(result.rounds_executed),
        "messages": float(result.total_messages),
    }


#: ``(layer, target, span name, counters)`` for every traced boundary.  A
#: function imported by name into a consumer module is wrapped where the
#: consumer looks it up.
LAYER_PATCHES: tuple[tuple[str, str, Any, Any], ...] = (
    ("topology", "repro.topology.generators:RandomGridGenerator.generate",
     "topology.generate", None),
    ("topology", "repro.runtime.service:build_topology", "topology.build", None),
    ("core.costs", "repro.core.costs:GridCostCache.for_grid",
     "core.costs.for_grid", None),
    ("core.costs", "repro.core.batch:BatchedGridCosts.__init__",
     "core.batch.stack", None),
    ("core.batch", "repro.experiments.simulation_study:batched_makespans",
     _kernel_name, None),
    ("core", "repro.core.base:SchedulingHeuristic.schedule", "core.schedule", None),
    ("mpi", "repro.experiments.practical_study:grid_aware_bcast_program",
     "mpi.program", None),
    ("mpi", "repro.experiments.practical_study:binomial_bcast_program",
     "mpi.program", None),
    ("simulator", "repro.experiments.practical_study:execute_programs",
     "simulator.execute", _execute_counters),
    ("runtime", "repro.runtime.pool:get_pool", "runtime.pool_start", None),
    ("runtime", "repro.experiments.practical_study:get_pool",
     "runtime.pool_start", None),
    ("runtime", "repro.runtime.pipeline:PipelinedExecutor.submit",
     "runtime.submit", None),
    ("runtime", "repro.runtime.pipeline:PipelinedExecutor.finish",
     "runtime.wait", None),
    ("runtime.wire", "repro.runtime.wire:encode_message", "runtime.wire.encode",
     lambda args, kwargs, frame: {"bytes": float(len(frame))}),
    ("runtime.wire", "repro.runtime.wire:decode_payload", "runtime.wire.decode",
     lambda args, kwargs, message: {"bytes": float(len(args[0]))}),
    ("gossip", "repro.experiments.gossip_study:run_gossip", _gossip_name,
     _gossip_counters),
    ("report", "repro.experiments.report:render_table", "report.render", None),
    ("report", "repro.experiments.report:render_series_table", "report.render",
     None),
)


def install(patcher: Patcher, layers: set[str] | None = None) -> None:
    """Wrap every boundary of ``layers`` (all layers when ``None``).

    Shipped bytes are a counter on the open ``runtime.submit`` span rather
    than a span of their own, so ``runtime.submit_s`` keeps covering
    construction *and* shipping.
    """
    tracer = patcher.tracer
    for layer, target, name, counters in LAYER_PATCHES:
        if layers is None or layer in layers:
            patcher.wrap(
                target,
                lambda fn, name=name, counters=counters: traced(
                    tracer, name, fn, counters
                ),
            )
    if layers is None or "runtime" in layers:
        patcher.wrap(
            "repro.runtime.transport:ArrayShipment.pack",
            lambda fn: counted(tracer, "bytes", _shipped_bytes, fn),
        )


def _shipped_bytes(args: tuple, kwargs: dict) -> float:
    arrays = args[1]
    return float(sum(np.asarray(array).nbytes for array in arrays.values()))


#: The protocols ``gossip_churn`` runs, each with its own span and metric.
GOSSIP_PROTOCOLS = ("tree", "push", "pushpull", "epto")

#: Every per-layer metric: ``(source span, summary field, unit)``.  A source
#: ending in ``*`` sums every span whose name starts with the rest.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "import.cli_s": ("import.cli", "self_s", "s"),
    "import.networkx_loaded": ("import.cli", "networkx_loaded", "bool"),
    "topology.generate_s": ("topology.generate", "self_s", "s"),
    "topology.grids": ("topology.generate", "count", "count"),
    "topology.build_s": ("topology.build", "self_s", "s"),
    "core.costs.for_grid_s": ("core.costs.for_grid", "self_s", "s"),
    "core.batch.stack_s": ("core.batch.stack", "self_s", "s"),
    "core.batch.kernel_s": ("core.batch.kernel.*", "self_s", "s"),
    **{
        f"core.batch.kernel_s.{key}": (f"core.batch.kernel.{key}", "self_s", "s")
        for key in PAPER_HEURISTICS
    },
    "core.schedule_s": ("core.schedule", "self_s", "s"),
    "mpi.program_s": ("mpi.program", "self_s", "s"),
    "simulator.execute_s": ("simulator.execute", "self_s", "s"),
    "simulator.tasks": ("simulator.execute", "tasks", "count"),
    "simulator.messages": ("simulator.execute", "messages", "count"),
    "runtime.pool_start_s": ("runtime.pool_start", "self_s", "s"),
    "runtime.submit_s": ("runtime.submit", "self_s", "s"),
    "runtime.wait_s": ("runtime.wait", "self_s", "s"),
    "runtime.shipped_bytes": ("runtime.submit", "bytes", "bytes"),
    "runtime.wire.encode_s": ("runtime.wire.encode", "self_s", "s"),
    "runtime.wire.decode_s": ("runtime.wire.decode", "self_s", "s"),
    "runtime.wire.bytes": ("runtime.wire.encode", "bytes", "bytes"),
    "runtime.service.hits": ("runtime.service.stats", "hits", "count"),
    "runtime.service.misses": ("runtime.service.stats", "misses", "count"),
    "gossip.run_s": ("gossip.run.*", "self_s", "s"),
    **{
        f"gossip.run_s.{protocol}": (f"gossip.run.{protocol}", "self_s", "s")
        for protocol in GOSSIP_PROTOCOLS
    },
    "gossip.rounds": ("gossip.run.*", "rounds", "count"),
    "gossip.messages": ("gossip.run.*", "messages", "count"),
    "report.render_s": ("report.render", "self_s", "s"),
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every :data:`LAYER_METRICS` entry from the spans (0 where none ran)."""
    summary = tracer.summary()
    out: dict[str, tuple[float, str]] = {}
    for metric, (source, field, unit) in LAYER_METRICS.items():
        if source.endswith("*"):
            names = [name for name in summary if name.startswith(source[:-1])]
        else:
            names = [source]
        value = sum(summary.get(name, {}).get(field, 0.0) for name in names)
        out[metric] = (float(value), unit)
    return out

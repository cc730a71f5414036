"""Outside-in tracing of one invocation, and the per-layer metrics it yields.

A traced invocation wraps the public calls at each layer boundary (campaign
entry points, plan building and spec hashing, the vector backend, the
lockstep engine, the scalar backends, the results store) with timing spans
recorded by this module, and activates a ``repro.telemetry`` session with a
``MemorySink`` that contributes the spans the program already emits inside
a layer: the vector backend's grouping pass, the lockstep engine's
simulate/finalize phases, and the process pool's per-job spans with queue
wait.  Wrappers are installed only for the traced region and removed after
it, so untraced invocations run the program untouched.

Spans are kept in memory and nested by interval containment.  A span's self
time is its duration minus its children's; the root span is the timed
region, and its self time is the residual no layer span covers.  Self times
plus the residual therefore sum to the traced wall-clock exactly.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.telemetry import MemorySink, TelemetrySession, activate, deactivate

#: Layers whose self time the trace reports, in call-depth order.
LAYERS = ("campaign", "plan", "vector_backend", "sim.vector", "sim.engine", "exec.pool", "store")

#: Telemetry span timestamps are rounded to 1 µs.
_ROUNDING_S = 1e-6


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - sum(child.seconds for child in self.children)


def _boundary_calls() -> list[tuple[Any, str, str, str, Callable[..., dict] | None]]:
    """(owner, attribute, span name, layer, attrs) of every wrapped public call."""
    from repro.campaigns import runner as campaign_runner
    from repro.exec.backends import ProcessPoolBackend, SerialBackend
    from repro.exec.vector_backend import VectorBackend
    from repro.experiments.plan import RunSpec
    from repro.scenarios import runner as scenario_runner
    from repro.sim.vector import VectorSimulator
    from repro.store import ResultsStore

    calls: list[tuple[Any, str, str, str, Callable[..., dict] | None]] = [
        (campaign_runner, "start_campaign", "campaign.start", "campaign", None),
        (campaign_runner, "campaign_report", "campaign.report", "campaign", None),
        (scenario_runner, "build_plan", "plan.build", "plan", None),
        (RunSpec, "cache_key", "plan.cache_key", "plan", None),
        (VectorBackend, "run", "vector_backend.run", "vector_backend", None),
        (VectorSimulator, "from_specs", "sim.vector.build", "sim.vector", None),
        (VectorSimulator, "from_spec_groups", "sim.vector.build", "sim.vector", None),
        (VectorSimulator, "run", "sim.vector.run", "sim.vector", None),
        (SerialBackend, "run", "sim.engine.serial", "sim.engine", None),
        (
            ProcessPoolBackend,
            "run",
            "exec.pool.run",
            "exec.pool",
            lambda backend, jobs: {"slots": min(backend.workers, len(jobs))},
        ),
    ]
    for method in (
        "put_run",
        "has_run",
        "get_run",
        "record_campaign_unit",
        "create_campaign",
        "get_campaign",
        "finish_campaign",
        "campaign_run_rows",
        "campaign_units",
    ):
        calls.append((ResultsStore, method, f"store.{method}", "store", None))
    return calls


def _telemetry_span(record: dict[str, Any]) -> tuple[str, str] | None:
    """Which layer span a telemetry span record becomes, if any."""
    attrs = record.get("attrs") or {}
    name, backend = record.get("name"), attrs.get("backend")
    if name in ("simulate", "finalize") and backend == "vector" and "op" not in attrs:
        return f"sim.vector.{name}", "sim.vector"
    if name == "build" and attrs.get("op") == "group":
        return "vector_backend.group", "vector_backend"
    if name == "simulate" and backend == "serial":
        return "sim.engine.simulate", "sim.engine"
    return None


@dataclass
class Trace:
    """The span tree of one traced invocation plus the pool's worker-side jobs."""

    root: Span
    spans: list[Span]
    #: (seconds, queue wait) of every process-pool job, measured in workers.
    pool_jobs: list[tuple[float, float]]

    def total(self, name: str) -> float:
        return sum(span.seconds for span in self.spans if span.name == name)

    def durations(self, name: str) -> list[float]:
        return [span.seconds for span in self.spans if span.name == name]

    def layer_self(self, layer: str) -> float:
        return sum(span.self_seconds for span in self.spans if span.layer == layer)

    def layer_total(self, layer: str) -> float:
        """Time inside a layer's outermost spans (its entry calls)."""
        return sum(
            span.seconds
            for parent in [self.root, *self.spans]
            if parent.layer != layer
            for span in parent.children
            if span.layer == layer
        )


class TracedRegion:
    """The traced timed region: wraps layer calls and collects telemetry.

    Use one instance per invocation as the workload's timed region; after
    the region exits, ``seconds`` holds its wall-clock and ``trace`` the
    span tree.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.trace: Trace | None = None
        self._open: list[Span] = []
        self._spans: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, func, name: str, layer: str, attrs: Callable[..., dict] | None):
        open_spans, spans = self._open, self._spans

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if open_spans and open_spans[-1].layer == layer:
                # A call inside the same layer is not a layer boundary.
                return func(*args, **kwargs)
            span = Span(name, layer, time.monotonic(), attrs=attrs(*args) if attrs else {})
            open_spans.append(span)
            try:
                return func(*args, **kwargs)
            finally:
                span.end = time.monotonic()
                open_spans.pop()
                spans.append(span)

        return traced

    def _install(self) -> None:
        for owner, attribute, name, layer, attrs in _boundary_calls():
            raw = vars(owner).get(attribute)
            if raw is None:
                continue  # the layer no longer has this call: its metrics read 0
            if isinstance(raw, classmethod):
                patched: Any = classmethod(self._wrap(raw.__func__, name, layer, attrs))
            else:
                patched = self._wrap(raw, name, layer, attrs)
            self._patches.append((owner, attribute, raw))
            setattr(owner, attribute, patched)

    def _uninstall(self) -> None:
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    def __enter__(self) -> "TracedRegion":
        self._install()
        self._sink = MemorySink()
        # The session's clock origin lies between these two readings; imported
        # spans are shrunk by the uncertainty at each end, so that neither it
        # nor timestamp rounding can push a span outside the wrapper span that
        # really encloses it.
        before = time.monotonic()
        session = TelemetrySession([self._sink])
        after = time.monotonic()
        self._t0 = (before + after) / 2
        self._guard = (after - before) / 2 + 2 * _ROUNDING_S
        activate(session)
        self._root = Span("invocation", "root", time.monotonic())
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._started
        self._root.end = time.monotonic()
        deactivate()
        self._uninstall()
        self.trace = self._build_trace()

    def _build_trace(self) -> Trace:
        spans = list(self._spans)
        pool_jobs = []
        for record in self._sink.records:
            if record.get("ev") != "span":
                continue
            attrs = record.get("attrs") or {}
            if "worker_pid" in attrs:
                pool_jobs.append((float(record["dur"]), float(attrs.get("queue_wait", 0.0))))
                continue
            mapped = _telemetry_span(record)
            if mapped is None:
                continue
            end = self._t0 + float(record["ts"]) - self._guard
            start = end - float(record["dur"]) + 2 * self._guard
            if start < end:
                spans.append(Span(mapped[0], mapped[1], start, end, attrs))
        stack = [self._root]
        for span in sorted(spans, key=lambda span: (span.start, -span.end)):
            while len(stack) > 1 and span.end > stack[-1].end:
                stack.pop()
            stack[-1].children.append(span)
            stack.append(span)
        return Trace(self._root, spans, pool_jobs)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


#: Per-layer metric name -> unit, in report order.
PER_LAYER_UNITS: dict[str, str] = {
    "plan.build_s": "s",
    "plan.cache_key_calls": "count",
    "plan.cache_key_s": "s",
    "vector_backend.group_s": "s",
    "vector_backend.launches": "count",
    "vector_backend.fallback_jobs": "count",
    "sim.vector.build_s": "s",
    "sim.vector.simulate_s": "s",
    "sim.vector.finalize_s": "s",
    "sim.vector.launches": "count",
    "sim.vector.lockstep_slots": "count",
    "sim.vector.cells": "count",
    "sim.vector.live_packet_slots": "count",
    "sim.vector.accesses": "count",
    "sim.vector.live_cell_ratio": "ratio",
    "sim.vector.ns_per_packet_slot": "ns/packet-slot",
    "sim.vector.ns_per_access": "ns/access",
    "sim.vector.n_div4.ns_per_packet_slot": "ns/packet-slot",
    "sim.vector.n_div4.ns_per_access": "ns/access",
    "sim.vector.n_div2.ns_per_packet_slot": "ns/packet-slot",
    "sim.vector.n_div2.ns_per_access": "ns/access",
    "sim.vector.n_div1.ns_per_packet_slot": "ns/packet-slot",
    "sim.vector.n_div1.ns_per_access": "ns/access",
    "sim.engine.simulate_s": "s",
    "sim.engine.packet_slots": "count",
    "sim.engine.ns_per_packet_slot": "ns/packet-slot",
    "exec.pool.invocations": "count",
    "exec.pool.run_s": "s",
    "exec.pool.busy_fraction": "fraction",
    "exec.pool.queue_wait_p50_s": "s",
    "exec.pool.queue_wait_p95_s": "s",
    "exec.pool.overhead_s": "s",
    "store.put_run_calls": "count",
    "store.put_run_s": "s",
    "store.put_run_p95_ms": "ms",
    "store.has_run_s": "s",
    "store.record_unit_s": "s",
    "store.get_run_s": "s",
    "store.bytes_written": "bytes",
    "store.bytes_per_run": "bytes",
    "campaign.units": "count",
    "campaign.unit_p50_s": "s",
    "campaign.unit_p95_s": "s",
    "campaign.unit_imbalance": "ratio",
    "campaign.bookkeeping_s": "s",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.residual_s": "s",
    "trace.coverage": "fraction",
    "trace.overhead_ratio": "ratio",
}


def vector_cost(trace: Trace, tally: Any) -> dict[str, float]:
    """ns per live packet-slot and per access of the lockstep engine layer."""
    seconds = trace.layer_total("sim.vector")
    counts = tally.engines.get("vector")
    return {
        "ns_per_packet_slot": _ratio(seconds, counts.live_packet_slots if counts else 0, 1e9),
        "ns_per_access": _ratio(seconds, counts.accesses if counts else 0, 1e9),
    }


def layer_metrics(trace: Trace, invocation: Any) -> dict[str, float]:
    """Every per-layer metric except the overhead ratio and scaling points."""
    tally = invocation.tally
    vector = tally.engines.get("vector")
    scalar = tally.engines.get("scalar")
    v_live = vector.live_packet_slots if vector else 0
    v_access = vector.accesses if vector else 0
    v_cells = vector.cells if vector else 0
    backend = invocation.backend or {}
    metrics: dict[str, float] = {
        "plan.build_s": trace.total("plan.build"),
        "plan.cache_key_calls": len(trace.durations("plan.cache_key")),
        "plan.cache_key_s": trace.total("plan.cache_key"),
        "vector_backend.group_s": trace.total("vector_backend.group"),
        "vector_backend.launches": backend.get("mega_batches", 0),
        "vector_backend.fallback_jobs": backend.get("fallback_jobs", 0),
        "sim.vector.build_s": trace.total("sim.vector.build"),
        "sim.vector.simulate_s": trace.total("sim.vector.simulate"),
        "sim.vector.finalize_s": trace.total("sim.vector.finalize"),
        "sim.vector.launches": len(trace.durations("sim.vector.run")),
        "sim.vector.lockstep_slots": vector.lockstep_slots if vector else 0,
        "sim.vector.cells": v_cells,
        "sim.vector.live_packet_slots": v_live,
        "sim.vector.accesses": v_access,
        "sim.vector.live_cell_ratio": _ratio(v_live, v_cells),
    }
    for name, value in vector_cost(trace, tally).items():
        metrics[f"sim.vector.{name}"] = value

    pool_busy = sum(seconds for seconds, _ in trace.pool_jobs)
    engine_seconds = pool_busy + trace.total("sim.engine.simulate")
    engine_slots = scalar.live_packet_slots if scalar else 0
    metrics.update(
        {
            "sim.engine.simulate_s": engine_seconds,
            "sim.engine.packet_slots": engine_slots,
            "sim.engine.ns_per_packet_slot": _ratio(engine_seconds, engine_slots, 1e9),
        }
    )

    pool_runs = [span for span in trace.spans if span.name == "exec.pool.run"]
    pool_seconds = sum(span.seconds for span in pool_runs)
    pool_capacity = sum(span.seconds * span.attrs["slots"] for span in pool_runs)
    waits = [wait for _, wait in trace.pool_jobs]
    mean_slots = _ratio(pool_capacity, pool_seconds)
    metrics.update(
        {
            "exec.pool.invocations": len(pool_runs),
            "exec.pool.run_s": pool_seconds,
            "exec.pool.busy_fraction": _ratio(pool_busy, pool_capacity),
            "exec.pool.queue_wait_p50_s": percentile(waits, 0.5),
            "exec.pool.queue_wait_p95_s": percentile(waits, 0.95),
            "exec.pool.overhead_s": pool_seconds - _ratio(pool_busy, mean_slots),
        }
    )

    put_runs = trace.durations("store.put_run")
    metrics.update(
        {
            "store.put_run_calls": len(put_runs),
            "store.put_run_s": sum(put_runs),
            "store.put_run_p95_ms": percentile(put_runs, 0.95) * 1e3,
            "store.has_run_s": trace.total("store.has_run"),
            "store.record_unit_s": trace.total("store.record_campaign_unit"),
            "store.get_run_s": trace.total("store.get_run"),
            "store.bytes_written": invocation.store_bytes,
            "store.bytes_per_run": _ratio(
                invocation.store_bytes, tally.attempted - tally.lost_runs
            ),
        }
    )

    units = invocation.unit_seconds
    mean_unit = _ratio(sum(units), len(units))
    metrics.update(
        {
            "campaign.units": len(units),
            "campaign.unit_p50_s": percentile(units, 0.5),
            "campaign.unit_p95_s": percentile(units, 0.95),
            "campaign.unit_imbalance": _ratio(max(units, default=0.0), mean_unit),
            "campaign.bookkeeping_s": trace.layer_self("campaign"),
        }
    )

    wall = trace.root.seconds
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = trace.layer_self(layer)
    covered = sum(trace.layer_self(layer) for layer in LAYERS if layer != "campaign")
    metrics.update(
        {
            "trace.wall_s": wall,
            "trace.residual_s": trace.root.self_seconds,
            "trace.coverage": _ratio(covered, wall),
        }
    )
    return metrics

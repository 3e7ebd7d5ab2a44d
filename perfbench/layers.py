"""Traced runs: spans around the program's public calls, and the per-layer
metrics computed from them.

:class:`Instrumentation` wraps public entry points of ``repro.trace``,
``repro.sim``, ``repro.security``, ``repro.hashgen`` and ``repro.engine``
so each call records a span on the calling thread's
:class:`repro.obs.spans.SpanTracer`; the engine runner's own phase spans
(partition, dispatch, execute, merge) come from passing the same tracer to
``EngineRunner.run_jobs(tracer=...)``.  Spans stay in memory until the run
ends.  Untraced runs never install the wrappers.

A span's *self time* is its duration minus its children's, so the self
times of one tree sum to the root's duration exactly; :func:`layer_metrics`
folds self times and span counters into the ``per_layer`` metrics.
"""

from __future__ import annotations

import statistics
import threading
from contextlib import contextmanager, nullcontext
from typing import Any, Iterable

from repro.obs.spans import SpanTracer

#: Runner phase spans (``EngineRunner.iter_records``); their self time is
#: the runner's own time.  ``job`` leaves under ``merge`` are pre-timed
#: annotations of time already spent under ``execute``, not extra time.
RUNNER_SPANS = ("partition", "dispatch", "execute", "merge")
_ANNOTATION_SPANS = ("job",)

#: Kernel class (``repro.sim.vector.kernel_status``) -> span name of a
#: single-trace replay.
_REPLAY_SPANS = {"kernel": "sim.kernel", "guarded": "sim.guarded",
                 "fallback": "sim.fallback"}

#: Per-layer metric catalogue: name -> unit.  Order is the print order.
PER_LAYER_UNITS = {
    "trace.synth_s": "s",
    "trace.synth_branches_per_s": "1/s",
    "trace.decode_s": "s",
    "trace.smt_merge_s": "s",
    "trace.cache_hits": "count",
    "trace.cache_misses": "count",
    "sim.kernel_s": "s",
    "sim.kernel_branches_per_s": "1/s",
    "sim.guarded_s": "s",
    "sim.guarded_branches_per_s": "1/s",
    "sim.fallback_s": "s",
    "sim.cpu_s": "s",
    "sim.smt_s": "s",
    "sim.smt_branches_per_s": "1/s",
    "sim.branches": "count",
    "sim.rerandomizations": "count",
    "security.attack_s": "s",
    "security.attacks_per_s": "1/s",
    "hashgen.search_s": "s",
    "hashgen.candidates": "count",
    "engine.execute_s": "s",
    "engine.serialize_s": "s",
    "engine.self_s": "s",
    "bench.self_s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "store.writes": "count",
    "store.hit_frac": "frac",
    "jobs.exec_p50_s": "s",
    "jobs.queue_wait_p50_s": "s",
    "jobs.dedup": "count",
    "jobs.refused": "count",
    "jobs.retries": "count",
    "serve.post_p50_s": "s",
    "serve.poll_p50_s": "s",
    "serve.http_requests": "count",
    "client.late_p95_s": "s",
    "client.polls_per_request": "count",
    "obs.trace_overhead_frac": "frac",
}


class Instrumentation:
    """Installs span-recording wrappers around the program's public calls.

    Each thread records into its own :class:`SpanTracer` (the tracer is
    single-threaded by design): :meth:`bind` sets the calling thread's
    tracer, and with ``auto=True`` a thread that has none gets a fresh one
    on its first traced call — the mode the traced server uses, where job
    worker threads are created by the program.
    """

    def __init__(self, auto: bool = False):
        self.auto = auto
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tracers: list[SpanTracer] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._status: dict[str, str] = {}

    # ------------------------------------------------------------ tracers

    def bind(self, tracer: SpanTracer | None) -> None:
        self._local.tracer = tracer

    def tracer(self) -> SpanTracer | None:
        tracer = getattr(self._local, "tracer", None)
        if tracer is None and self.auto:
            with self._lock:
                tracer = SpanTracer(f"thread-{len(self._tracers)}",
                                    name="thread")
                self._tracers.append(tracer)
            self._local.tracer = tracer
        return tracer

    def span(self, name: str, **attrs: Any):
        tracer = self.tracer()
        return tracer.span(name, **attrs) if tracer is not None \
            else nullcontext(None)

    def thread_payloads(self) -> list[dict[str, Any]]:
        """Span trees of the auto-created per-thread tracers."""
        with self._lock:
            tracers = list(self._tracers)
        return [tracer.payload() for tracer in tracers]

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        from repro.engine import build_model, list_models
        from repro.engine import workloads as engine_workloads
        from repro.engine.results import ResultFrame
        from repro.hashgen.generator import RemapFunctionGenerator
        from repro.security import attacks
        from repro.sim import smt as sim_smt
        from repro.sim import vector
        from repro.sim.bpu_sim import TraceSimulator
        from repro.sim.cpu import CycleApproximateCPU
        from repro.sim.smt import SMTSimulator
        from repro.trace.branch import Trace, TraceColumns

        # Kernel class per model name, resolved before any timed call so
        # the probe's cost never lands inside a span.
        for name in list_models():
            model = build_model(name, seed=0)
            self._status[model.name] = vector.kernel_status(model)

        self._patch(engine_workloads, "generate_trace", self._timed(
            engine_workloads.generate_trace, "trace.synth",
            lambda args, kwargs, result: {"branches": kwargs["branch_count"]}))
        self._patch(Trace, "columns", self._timed(Trace.columns, "trace.decode"))
        self._patch(TraceColumns, "arrays",
                    self._timed(TraceColumns.arrays, "trace.decode"))
        self._patch(sim_smt, "merge_round_robin", self._timed(
            sim_smt.merge_round_robin, "trace.smt_merge"))
        self._patch(TraceSimulator, "run", self._replay(TraceSimulator.run))
        self._patch(CycleApproximateCPU, "run", self._timed(
            CycleApproximateCPU.run, "sim.cpu", _stats_counts, nested=True))
        self._patch(SMTSimulator, "run", self._timed(
            SMTSimulator.run, "sim.smt", _smt_counts))
        for name in attacks.__all__:
            cls = getattr(attacks, name)
            if isinstance(cls, type) and "run" in vars(cls):
                self._patch(cls, "run", self._timed(
                    cls.run, "security.attack",
                    lambda args, kwargs, result: {"attacks": 1}))
        self._patch(RemapFunctionGenerator, "search", self._timed(
            RemapFunctionGenerator.search, "hashgen.search",
            lambda args, kwargs, result: {"candidates": len(result)}))
        self._patch(ResultFrame, "to_json",
                    self._timed(ResultFrame.to_json, "engine.serialize"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _timed(self, original, name: str, counts=None, nested: bool = False):
        """Wrap ``original`` in a span; ``counts`` maps the call to span
        counters; ``nested`` marks the thread so single-trace replays inside
        the call stay part of this span instead of opening their own."""
        local = self._local

        def wrapper(*args, **kwargs):
            tracer = self.tracer()
            if tracer is None:
                return original(*args, **kwargs)
            with tracer.span(name) as span:
                if nested:
                    local.nested = getattr(local, "nested", 0) + 1
                try:
                    result = original(*args, **kwargs)
                finally:
                    if nested:
                        local.nested -= 1
                if counts is not None:
                    span.attrs.update(counts(args, kwargs, result))
            return result

        return wrapper

    def _replay(self, original):
        local = self._local
        status = self._status

        def run(simulator, model, trace):
            tracer = self.tracer()
            if tracer is None or getattr(local, "nested", 0):
                return original(simulator, model, trace)
            name = _REPLAY_SPANS[status.get(model.name, "fallback")]
            with tracer.span(name) as span:
                result = original(simulator, model, trace)
                span.attrs.update(branches=result.stats.branches,
                                  rerandomizations=
                                  result.stats.st_rerandomizations)
            return result

        return run


def _stats_counts(args, kwargs, result) -> dict[str, int]:
    stats = result.stats
    return {"branches": stats.branches,
            "rerandomizations": stats.st_rerandomizations}


def _smt_counts(args, kwargs, result) -> dict[str, int]:
    return {"branches": sum(stats.branches for stats in result.thread_stats),
            "rerandomizations": int(result.protection.get(
                "rerandomizations", 0))}


@contextmanager
def bound(instrumentation: Instrumentation | None, tracer: SpanTracer):
    """Bind ``tracer`` to this thread for the block (no-op untraced)."""
    if instrumentation is None:
        yield
        return
    instrumentation.bind(tracer)
    try:
        yield
    finally:
        instrumentation.bind(None)


# ------------------------------------------------------------------ metrics

def span_totals(payloads: Iterable[dict[str, Any]],
                skip_root: bool = False) -> dict[str, dict[str, float]]:
    """Per span name: summed self seconds, inclusive seconds, call count,
    and summed numeric attributes.  ``skip_root`` drops each root's self
    time (idle time of a per-thread tracer)."""
    totals: dict[str, dict[str, float]] = {}

    def walk(node: dict[str, Any], is_root: bool) -> None:
        children = [child for child in node.get("children", ())
                    if child["name"] not in _ANNOTATION_SPANS]
        entry = totals.setdefault(node["name"], {"self": 0.0, "total": 0.0,
                                                 "calls": 0})
        if not (is_root and skip_root):
            entry["self"] += node["seconds"] - sum(c["seconds"] for c in children)
            entry["total"] += node["seconds"]
            entry["calls"] += 1
        for key, value in node.get("attrs", {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry[key] = entry.get(key, 0) + value
        for child in children:
            walk(child, False)

    for payload in payloads:
        walk(payload["root"], True)
    return totals


def layer_metrics(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """The span-derived ``per_layer`` metrics (zero where a layer is idle)."""

    def get(name: str, key: str = "self") -> float:
        return float(totals.get(name, {}).get(key, 0.0))

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    sim_spans = ("sim.kernel", "sim.guarded", "sim.fallback", "sim.cpu",
                 "sim.smt")
    metrics = {
        "trace.synth_s": get("trace.synth"),
        "trace.synth_branches_per_s": rate(get("trace.synth", "branches"),
                                           get("trace.synth")),
        "trace.decode_s": get("trace.decode"),
        "trace.smt_merge_s": get("trace.smt_merge"),
        "sim.branches": sum(get(name, "branches") for name in sim_spans),
        "sim.rerandomizations": sum(get(name, "rerandomizations")
                                    for name in sim_spans),
        "sim.cpu_s": get("sim.cpu"),
        "sim.fallback_s": get("sim.fallback"),
        "security.attack_s": get("security.attack"),
        "security.attacks_per_s": rate(get("security.attack", "attacks"),
                                       get("security.attack")),
        "hashgen.search_s": get("hashgen.search"),
        "hashgen.candidates": get("hashgen.search", "candidates"),
        "engine.execute_s": get("execute", "total"),
        "engine.serialize_s": get("engine.serialize"),
        "engine.self_s": sum(get(name) for name in RUNNER_SPANS),
        "bench.self_s": get("pass"),
    }
    for name in ("kernel", "guarded", "smt"):
        seconds = get(f"sim.{name}")
        metrics[f"sim.{name}_s"] = seconds
        metrics[f"sim.{name}_branches_per_s"] = rate(
            get(f"sim.{name}", "branches"), seconds)
    return metrics


def layer_shares(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self time of every span name as a share of all self time."""
    whole = sum(entry["self"] for entry in totals.values())
    return {name: entry["self"] / whole for name, entry in
            sorted(totals.items(), key=lambda item: -item[1]["self"])
            if whole > 0 and entry["self"] > 0}


def percentile(values: list[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    index = round(q * 100)
    if index <= 0:
        return float(min(values))
    if index >= 100:
        return float(max(values))
    return float(cuts[index - 1])

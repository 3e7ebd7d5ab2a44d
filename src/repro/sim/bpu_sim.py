"""Trace-driven BPU simulator (the paper's Intel-PT-based simulator, Section VII-B1).

The simulator replays a :class:`~repro.trace.branch.Trace` — branch records
interleaved with context switches, mode switches and interrupts — through one
or more predictor models and reports the overall-accuracy-effective (OAE)
metric per model.  OS events are forwarded to the models' hooks, which is
where flushing-based protections pay their cost and where STBPU reloads
per-process tokens.

Replaying is the repository's hot path (a paper-scale grid pushes hundreds of
millions of branch records through models), so every replay — this
simulator's and :class:`~repro.sim.smt.SMTSimulator`'s co-runs alike — goes
through :func:`replay`, which follows one rule: replay the trace's ndarray
view with the model's vector kernel (:mod:`repro.sim.vector`) when the model
has one and the kernel accepts the trace; otherwise run
:func:`replay_columnar`, one loop over the columnar view (branch runs
pre-split from OS events, direction/conditional flags pre-decoded).  A
single trace is a co-run with one thread.  The parity tests pin both paths
to byte-identical results against a per-item oracle kept with the tests.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.bpu.common import BranchPredictorModel, PredictorStats
from repro.sim.metrics import AccuracyReport
from repro.trace.branch import EventKind, PrivilegeMode, Trace, TraceEvent

#: ``thread_offset`` of a single-trace replay: no context id reaches it, so
#: every branch belongs to thread 0.
SINGLE_THREAD = sys.maxsize


@dataclass(slots=True)
class SimulationResult:
    """Stats plus the final report for one (model, trace) simulation."""

    report: AccuracyReport
    stats: PredictorStats


def dispatch_event(model: BranchPredictorModel, event: TraceEvent) -> None:
    """Forward one OS event to the matching model hook."""
    kind = event.kind
    if kind is EventKind.CONTEXT_SWITCH:
        model.on_context_switch(event.context_id)
    elif kind is EventKind.MODE_SWITCH_ENTER_KERNEL:
        model.on_mode_switch(PrivilegeMode.KERNEL, event.context_id)
    elif kind is EventKind.MODE_SWITCH_EXIT_KERNEL:
        model.on_mode_switch(PrivilegeMode.USER, event.context_id)
    elif kind is EventKind.INTERRUPT:
        model.on_interrupt(event.context_id)


def replay(model: BranchPredictorModel, trace: Trace, warmup: int,
           per_thread_stats: tuple[PredictorStats, ...],
           thread_offset: int = SINGLE_THREAD) -> None:
    """Replay ``trace`` through ``model`` into ``per_thread_stats``.

    A branch belongs to thread 1 when its context id is at least
    ``thread_offset`` and to thread 0 otherwise; each thread's first
    ``warmup`` branches train the model without being recorded.
    """
    from repro.sim import vector

    kernel = vector.kernel_for(model)
    if kernel is None or not kernel.run(trace, warmup, per_thread_stats,
                                        thread_offset):
        replay_columnar(model, trace, warmup, per_thread_stats, thread_offset)


def replay_columnar(model: BranchPredictorModel, trace: Trace, warmup: int,
                    per_thread_stats: tuple[PredictorStats, ...],
                    thread_offset: int = SINGLE_THREAD) -> None:
    """The scalar replay loop: :func:`replay` without a vector kernel."""
    columns = trace.columns()
    branches = columns.branches
    takens = columns.takens
    conditionals = columns.conditionals
    context_ids = columns.context_ids
    access = model.access_with_events
    seen = [0, 0]
    for start, stop, event in columns.segments:
        for index in range(start, stop):
            result = access(branches[index])
            thread = 0 if context_ids[index] < thread_offset else 1
            count = seen[thread] + 1
            seen[thread] = count
            if count > warmup:
                per_thread_stats[thread].record_outcome(
                    result, conditionals[index], takens[index])
        if event is not None:
            dispatch_event(model, event)


class TraceSimulator:
    """Replays traces through predictor models and collects accuracy reports."""

    def __init__(self, warmup_branches: int = 0):
        self.warmup_branches = warmup_branches

    def run(self, model: BranchPredictorModel, trace: Trace) -> SimulationResult:
        """Replay ``trace`` through ``model`` and return its accuracy report.

        The first ``warmup_branches`` branch records train the predictor but
        are excluded from the reported statistics (mirroring the paper's gem5
        warm-up phase).

        ``run`` does **not** reset the model: predictor models are stateful
        and the caller owns their lifecycle, so replaying a second trace
        through the same instance continues from the trained state.  Use
        :meth:`compare` (or call ``model.reset()`` yourself) for cold replays.
        """
        stats = PredictorStats()
        replay(model, trace, self.warmup_branches, (stats,))

        protection = model.protection_stats()
        rerandomizations = int(protection.get("rerandomizations", 0))
        flushes = int(protection.get("flushes", 0))
        stats.st_rerandomizations = rerandomizations
        stats.flushes = flushes
        report = AccuracyReport.from_stats(
            model=model.name,
            workload=trace.name,
            stats=stats,
            rerandomizations=rerandomizations,
            flushes=flushes,
        )
        return SimulationResult(report=report, stats=stats)

    def compare(
        self, models: list[BranchPredictorModel], trace: Trace
    ) -> dict[str, SimulationResult]:
        """Run several models over the same trace, each from a cold start.

        Every model is ``reset()`` before its replay so that previously
        accumulated training state (models are stateful — see
        :class:`~repro.bpu.common.BranchPredictorModel`) cannot leak into the
        comparison.
        """
        results: dict[str, SimulationResult] = {}
        for model in models:
            model.reset()
            results[model.name] = self.run(model, trace)
        return results

"""The closed-loop batch workloads: ``paper-grid`` and ``smt-corun``.

One caller, one process, a serial ``EngineRunner(workers=1)`` and no store.
A *pass* runs every part of the workload once.  ``paper-grid`` clears the
trace cache before each pass, so synthesis and decode are paid the way a
CLI user pays them; ``smt-corun`` synthesizes its traces once before the
first pass, so its passes measure the co-run path (merge, decode of the
merged trace, replay) and not synthesis.  A run makes a fixed number of
passes, set by the run's length (:func:`pass_count`).

``wall_s`` is the median time of an untraced pass on the host-speed scale
of :mod:`perfbench.hostspeed`: each pass times the reference after every
job, and its own time (without those reference runs) is multiplied by
``REFERENCE_S`` over the mean of its reference times.  The host's slower
phases, which last from a fraction of a second to minutes, slow the
pass's jobs and the reference runs between them alike.

A traced run alternates untraced and traced passes: the untraced ones give
``wall_s`` for ``obs.trace_overhead_frac``, the traced ones the per-layer
metrics.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import sys
import time
from typing import Any, Callable

from repro.engine import (
    EngineRunner,
    clear_trace_cache,
    trace_cache_stats,
    trace_for,
)
from repro.obs.spans import SpanTracer

from perfbench import hostspeed, layers, workloads

#: Seconds one pass takes on a 2-vCPU shared virtual machine; a run of
#: ``--seconds`` makes that many seconds' worth of passes.
NOMINAL_PASS_S = {"paper-grid": 7.0, "smt-corun": 6.5}


def _sha256(frame) -> str:
    return hashlib.sha256(frame.to_json().encode("utf-8")).hexdigest()


def warm_traces(parts: list[workloads.Part]) -> None:
    """Synthesize every trace the parts replay into the trace cache."""
    for part in parts:
        for job in part.jobs:
            names = job.workload if isinstance(job.workload, tuple) \
                else (job.workload,)
            for name in names:
                trace_for(name, job.branch_count, job.trace_seed)


def run_pass(parts: list[workloads.Part],
             instrumentation: layers.Instrumentation | None = None,
             cold: bool = True) -> dict:
    """Execute every part once (``cold``: from an empty trace cache);
    returns wall time, per-job seconds, hashes and trace-cache counts.
    An untraced pass also times the host-speed reference after every job
    (``reference``), a traced one does not, so no span holds it."""
    if cold:
        clear_trace_cache()
    cache_before = trace_cache_stats()
    tracer = SpanTracer("pass", name="pass") if instrumentation else None
    hashes: dict[str, str] = {}
    job_seconds: list[float] = []
    reference: list[float] = []

    def after_job(_done: int, _total: int, _record) -> None:
        reference.append(hostspeed.sample())

    progress = None if instrumentation else after_job
    started = time.perf_counter()
    with layers.bound(instrumentation, tracer):
        runner = EngineRunner(workers=1)
        for part in parts:
            frame = runner.run_jobs(part.jobs, progress=progress,
                                    tracer=tracer)
            job_seconds.extend(record.seconds for record in frame)
            hashes[part.name] = _sha256(frame) \
                if len(frame) == len(part.jobs) else "incomplete"
    wall = time.perf_counter() - started
    cache_after = trace_cache_stats()
    return {
        "wall": wall,
        "job_seconds": job_seconds,
        "reference": reference,
        "hashes": hashes,
        "payload": tracer.payload() if tracer is not None else None,
        "cache_hits": cache_after["hits"] - cache_before["hits"],
        "cache_misses": cache_after["misses"] - cache_before["misses"],
    }


def expected_hashes(parts: list[workloads.Part], seed: int) -> dict[str, str]:
    """Recorded hashes a pass must reproduce: the anchors always, and the
    seeded parts for the held-out seed."""
    expected = {part.name: part.anchor for part in parts if part.anchor}
    if seed == workloads.HELD_OUT_SEED:
        names = {part.name for part in parts}
        expected.update({name: sha for name, sha in
                         workloads.HELD_OUT_SHA256.items() if name in names})
    return expected


def pass_count(workload: str, seconds: float) -> int:
    """Passes in a run of ``seconds``: fixed by the run length alone, never
    by how fast the host is, so every run does the same work."""
    return max(2, round(seconds / NOMINAL_PASS_S[workload]))


def run(workload: str, seed: int, seconds: float, trace: bool,
        after_pass: Callable[[], None] | None = None) -> dict[str, Any]:
    """Run the workload's passes, calling ``after_pass`` after each one;
    returns the result fields for run.py."""
    parts = (workloads.paper_grid_parts(seed) if workload == "paper-grid"
             else workloads.smt_corun_parts(seed))
    cold = workload == "paper-grid"
    if not cold:
        clear_trace_cache()
        warm_traces(parts)
    instrumentation = layers.Instrumentation() if trace else None
    if instrumentation is not None:
        instrumentation.install()
    expected = expected_hashes(parts, seed)
    passes: list[dict] = []
    try:
        for index in range(pass_count(workload, seconds)):
            traced = trace and index % 2 == 1
            passes.append(run_pass(parts, instrumentation if traced else None,
                                   cold))
            passes[-1]["traced"] = traced
            if after_pass is not None:
                after_pass()
    finally:
        if instrumentation is not None:
            instrumentation.uninstall()

    # Correctness: anchors (and held-out hashes) must match their recorded
    # values; every other part must hash identically in every pass.  A
    # mismatched part fails all its jobs, and its pass.
    reference = dict(passes[0]["hashes"])
    reference.update(expected)
    attempted = failed = 0
    for entry in passes:
        entry["ok"] = True
        for part in parts:
            attempted += len(part.jobs)
            if entry["hashes"][part.name] != reference[part.name]:
                failed += len(part.jobs)
                entry["ok"] = False
                print(f"hash mismatch in {part.name}: "
                      f"{entry['hashes'][part.name]} != {reference[part.name]}",
                      file=sys.stderr)

    plain = [entry for entry in passes if not entry["traced"]]
    # Each pass against the reference runs between its own jobs.
    pass_seconds = [entry["wall"] - sum(entry["reference"]) for entry in plain]
    reference = [statistics.mean(entry["reference"]) for entry in plain]
    wall = statistics.median(hostspeed.REFERENCE_S * seconds / mean
                             for seconds, mean in zip(pass_seconds, reference))
    speed = hostspeed.REFERENCE_S / statistics.mean(reference)
    ok_frac = sum(1 for entry in plain if entry["ok"]) / len(plain)
    result: dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "hashes": passes[0]["hashes"],
        "walls": [round(entry["wall"], 4) for entry in passes],
        "speed": speed,
        "measured": {"pass_s": pass_seconds, "reference_s": reference},
        "end_to_end": {
            "wall_s": wall,
            # The closed loop's one caller waits for a whole pass, so its
            # request latency is the pass time and it completes one
            # request per pass.
            "latency_p50_s": wall,
            "latency_p95_s": wall,
            "completed_per_s": ok_frac / wall,
            "goodput_per_s": ok_frac / wall,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    if trace:
        result["per_layer"], result["shares"] = _traced_metrics(
            passes, statistics.median(entry["wall"] - sum(entry["reference"])
                                      for entry in plain))
    return result


def _traced_metrics(passes: list[dict], untraced_wall: float):
    traced = [entry for entry in passes if entry["traced"]]
    per_pass = []
    for entry in traced:
        totals = layers.span_totals([entry["payload"]])
        metrics = layers.layer_metrics(totals)
        metrics["trace.cache_hits"] = entry["cache_hits"]
        metrics["trace.cache_misses"] = entry["cache_misses"]
        per_pass.append(metrics)
    merged = {name: statistics.median(metrics[name] for metrics in per_pass)
              for name in per_pass[0]}
    traced_wall = statistics.median(entry["payload"]["root"]["seconds"]
                                    for entry in traced)
    merged["obs.trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    shares = layers.layer_shares(layers.span_totals(
        [entry["payload"] for entry in traced]))
    return merged, shares

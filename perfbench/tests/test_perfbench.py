"""The benchmark's own tests: metric names, seeded generation, exact counts.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import json
import os
import re
import sys
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import batch, layers, run, serve_load, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_names_are_valid_and_match_the_catalogue():
    spec = _benchmark_json()
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in spec[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for section in ("end_to_end", "per_layer"):
        assert all(UNIT.match(entry["unit"]) for entry in spec[section])
    assert {entry["name"]: entry["unit"] for entry in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {entry["name"]: entry["unit"] for entry in spec["per_layer"]} \
        == layers.PER_LAYER_UNITS
    assert [entry["name"] for entry in spec["workloads"]] \
        == list(workloads.WORKLOADS)


def test_batch_generators_are_seeded():
    for generate in (workloads.paper_grid_parts, workloads.smt_corun_parts):
        first, again, other = generate(3), generate(3), generate(4)
        assert first == again
        assert first != other
        # Anchored grids never depend on the seed.
        anchored = [part for part in first if part.anchor]
        assert anchored and anchored == [part for part in other if part.anchor]


def test_serve_schedule_is_seeded_and_has_the_mix():
    first = workloads.serve_schedule(3, 30.0)
    assert first == workloads.serve_schedule(3, 30.0)
    other = workloads.serve_schedule(4, 30.0)
    assert first != other
    # The shape is the same for every seed: due times and kinds.
    assert [(request.due, request.kind) for request in first] \
        == [(request.due, request.kind) for request in other]
    assert len({request.due for request in first}) \
        == round(workloads.SERVE_RATE * 30.0)
    kinds = {request.kind for request in first}
    assert kinds == {"fresh", "repeat", "dup", "attack"}
    # Every kind keeps its share of each block of 20 arrivals.
    counts = {kind: sum(1 for request in first if request.kind == kind)
              for kind in kinds}
    blocks = round(workloads.SERVE_RATE * 30.0) // 20
    assert counts == {kind: count * blocks * (2 if kind == "dup" else 1)
                      for kind, count in workloads.SERVE_MIX}
    # A repeat targets a warm-up scenario or one sent long enough before.
    warmup = workloads.serve_warmup(3)
    first_due = {}
    for request in first:
        if request.kind == "repeat":
            assert request.key in warmup or request.due \
                - first_due[request.key] >= workloads.REPEAT_MIN_AGE_S
        else:
            first_due.setdefault(request.key, request.due)
    dups = [request for request in first if request.kind == "dup"]
    assert len(dups) % 2 == 0 and all(
        a.key == b.key and a.due == b.due for a, b in zip(dups[::2], dups[1::2]))
    fresh_traces = {request.key for request in first if request.kind == "fresh"}
    assert len(fresh_traces) > 64  # more than the server's trace cache


def test_serve_latencies_are_pooled_on_the_host_speed_scale():
    def load(latencies, scale, ok=True):
        outcomes = [serve_load._Outcome(due=1.0, done=1.0 + value, ok=ok)
                    for value in latencies]
        return serve_load.LoadResult(outcomes, window=10.0, scale=scale)

    metrics = serve_load.end_to_end([load([0.1, 0.3], 0.5), load([0.2], 0.25),
                                     load([0.01], 1.0, ok=False)])
    # Scaled latencies 0.05, 0.15, 0.05 and one failed request (infinite).
    assert metrics == pytest.approx({
        "wall_s": 30.0, "latency_p50_s": 0.1, "latency_p95_s": float("inf"),
        "completed_per_s": 3 / 30.0, "goodput_per_s": 2 / 30.0})


def test_self_times_sum_to_the_root():
    payload = {"root": {"name": "pass", "seconds": 10.0, "attrs": {}, "children": [
        {"name": "execute", "seconds": 8.0, "attrs": {}, "children": [
            {"name": "sim.kernel", "seconds": 5.0, "attrs": {"branches": 100},
             "children": [{"name": "trace.decode", "seconds": 1.0,
                           "attrs": {}, "children": []}]},
        ]},
        {"name": "merge", "seconds": 0.5, "attrs": {}, "children": [
            {"name": "job", "seconds": 5.0, "attrs": {}, "children": []}]},
    ]}}
    totals = layers.span_totals([payload])
    assert sum(entry["self"] for entry in totals.values()) == 10.0
    metrics = layers.layer_metrics(totals)
    assert metrics["sim.kernel_s"] == 4.0
    assert metrics["sim.kernel_branches_per_s"] == 25.0
    assert metrics["engine.self_s"] == 3.5
    assert metrics["engine.execute_s"] == 8.0
    assert metrics["bench.self_s"] == 1.5


def _counts(entry):
    metrics = layers.layer_metrics(layers.span_totals([entry["payload"]]))
    return (metrics["sim.branches"], metrics["sim.rerandomizations"],
            entry["cache_hits"], entry["cache_misses"], entry["hashes"])


def test_batch_counts_repeat_exactly():
    # One rerandomization-heavy co-run and the attack matrix keep the test
    # short while covering both counts.
    parts = [dataclasses.replace(part, jobs=part.jobs[:1])
             if part.name == "smt.rerand" else part
             for part in workloads.smt_corun_parts(5)
             + workloads.paper_grid_parts(5)
             if part.name in ("smt.rerand", "attacks")]
    instrumentation = layers.Instrumentation()
    instrumentation.install()
    try:
        first = batch.run_pass(parts, instrumentation)
        second = batch.run_pass(parts, instrumentation)
    finally:
        instrumentation.uninstall()
    assert _counts(first) == _counts(second)
    branches, rerandomizations, _hits, misses, hashes = _counts(first)
    assert branches > 0 and rerandomizations > 0 and misses > 0
    # Tracing never changes results: an untraced pass hashes identically.
    assert batch.run_pass(parts)["hashes"] == hashes


def _serve_counts(scratch, requests, expected, warmup):
    server = serve_load.Server(ROOT, scratch)
    try:
        serve_load.warm_up(server.url, warmup)
        before = serve_load.scrape(server.url)
        load = serve_load.drive(server.url, requests, expected)
        metrics, _seconds = serve_load.server_side_metrics(
            server.url, load, requests, before)
    finally:
        server.stop()
    assert all(outcome.ok for outcome in load.outcomes)
    # A later copy of a scenario is folded into the running job (dedup) or
    # answered from the store at POST, whichever the timing gives; their
    # sum does not depend on it, nor do the jobs created and the traces
    # they synthesize.  store.writes is left out: how many job-state
    # records a job persists depends on when its state is read.
    answered_at_post = sum(1 for outcome in load.outcomes if not outcome.polled)
    return {
        "trace.cache_misses": metrics["trace.cache_misses"],
        "jobs.created": load.accepted - metrics["jobs.dedup"],
        "later_copies": metrics["jobs.dedup"] + answered_at_post,
    }


def test_serve_counts_repeat_exactly():
    requests = workloads.serve_schedule(5, 4.0)
    warmup = workloads.serve_warmup(5)
    expected = serve_load.expected_envelopes(requests)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_tmp-") as scratch:
        first = _serve_counts(scratch, requests, expected, warmup)
        second = _serve_counts(scratch, requests, expected, warmup)
    assert first == second
    # Repeats may target warm-up scenarios, which the schedule never sends
    # first; every other scenario runs exactly once.
    created = {request.key for request in requests if request.kind != "repeat"}
    assert first["jobs.created"] == len(created)
    assert first["later_copies"] == len(requests) - len(created)
    assert any(request.kind == "dup" for request in requests)

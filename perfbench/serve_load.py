"""The open-loop ``serve-open`` workload.

A seeded Poisson schedule (:func:`perfbench.workloads.serve_schedule`) is
sent against ``python -m repro serve --port 0 --workers 2 --store <dir>``
running in its own process.  The generator is one process with two
threads, each holding at most one connection: a sender that POSTs every
request at its due time whether or not earlier ones finished, and a poller
that polls the in-flight jobs and fetches their envelopes.  Before the
schedule starts the server runs the warm-up scenarios
(:func:`perfbench.workloads.serve_warmup`), untimed.

An untraced run sends the schedule ``REPEATS`` times, each time to a fresh
server with a fresh store, and pools the latencies of all repeats.  A third
thread of the generator times the host-speed reference
(:mod:`perfbench.hostspeed`) every ``SAMPLE_INTERVAL_S`` while the schedule
runs, and each repeat's latencies are put on the reference's scale:
multiplied by ``REFERENCE_S`` over the mean reference time of that
repeat.  The server runs beside the sampler, so the mean tracks the share
of the repeat the host spent in its slower phases.

Latency runs from a request's due time to the moment its envelope is in
hand, so a stalled sender charges the wait to every request behind it; how
late the sender ran is reported as ``client.late_p95_s``.  Every envelope
is compared with the one ``run_scenario`` + ``scenario_envelope`` produce
for the same scenario, computed before the server starts.  A refused (429),
failed or mismatched request counts as failed and as missing the latency
limit.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

from repro.client import ReproClient, ServeError
from repro.engine import parse_scenario, run_scenario, scenario_envelope
from repro.store.jobs import DONE, TERMINAL_STATES
from repro.store.keys import canonical_json

from perfbench import hostspeed, layers, workloads

#: Requests whose envelope arrives within this many seconds of their due
#: time, on the host-speed scale, count toward ``goodput_per_s``.  Near the
#: p95 latency, so a slower tail shows as lost goodput.
LATENCY_LIMIT_S = 0.1

SERVER_WORKERS = 2

#: Pause between polling rounds over the in-flight jobs.
POLL_INTERVAL_S = 0.02

#: Server starts timed for ``setup_s``: the sends' own and the rest started
#: and stopped at once.
SETUP_STARTS = 6

#: Times an untraced run sends the schedule, each to a fresh server.
REPEATS = 2

#: Seconds between host-speed samples taken while the schedule runs.
SAMPLE_INTERVAL_S = 0.1

#: Longest wait for in-flight requests after the last one was sent.
DRAIN_TIMEOUT_S = 60.0


_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Run in the server's child before exec: the kernel kills the server
    if the benchmark process dies first, even by SIGKILL."""
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG,
                                            signal.SIGKILL)


def expected_envelope(data: dict[str, Any]) -> str:
    """The canonical envelope ``run_scenario`` gives for one scenario."""
    return canonical_json(scenario_envelope(run_scenario(parse_scenario(data))))


def expected_envelopes(requests: list[workloads.Request]) -> dict[str, str]:
    """Canonical envelope per scenario key, computed in this process (a
    worker pool would leave its resource-tracker process behind)."""
    scenarios = workloads.distinct_scenarios(requests)
    return {key: expected_envelope(scenario)
            for key, scenario in scenarios.items()}


class Server:
    """One ``repro serve`` process on an ephemeral port with a fresh store.

    ``spans_out`` runs the server under :mod:`perfbench.traced_serve`,
    which records spans around the program's public calls and writes them
    there on shutdown.
    """

    def __init__(self, root: str, scratch: str, spans_out: str | None = None):
        self.store = tempfile.mkdtemp(prefix="store-", dir=scratch)
        argv = ["serve", "--port", "0", "--workers", str(SERVER_WORKERS),
                "--store", self.store]
        if spans_out is None:
            command = [sys.executable, "-u", "-m", "repro", *argv]
        else:
            command = [sys.executable, "-u",
                       os.path.join(root, "perfbench", "traced_serve.py"),
                       spans_out, *argv]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        # The server shuts down on SIGINT.  A shell that starts the
        # benchmark in the background sets SIGINT to ignored, and children
        # inherit that; a handler in this process is reset to the default
        # in the server instead.
        if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
            signal.signal(signal.SIGINT, signal.default_int_handler)
        self._log = open(os.path.join(scratch, "server.log"), "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._log, preexec_fn=_die_with_parent)
        try:
            line = self.process.stdout.readline().decode("utf-8", "replace")
            if "listening on " not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.url = line.split("listening on ", 1)[1].split()[0]
            self._await_healthy()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    def _await_healthy(self) -> None:
        deadline = time.monotonic() + 60.0
        while True:
            try:
                with urllib.request.urlopen(self.url + "/healthz",
                                            timeout=5) as response:
                    if response.status == 200:
                        return
            except (urllib.error.URLError, OSError):
                pass
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError("server never became healthy")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """The server process's peak resident set (``VmHWM``) so far."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


def warm_up(url: str, scenarios: dict[str, dict[str, Any]]) -> None:
    """Run each warm-up scenario to completion before timing starts."""
    client = ReproClient(url, retries=0, timeout=DRAIN_TIMEOUT_S)
    for scenario in scenarios.values():
        submitted = client.submit(scenario, wait=True,
                                  timeout=DRAIN_TIMEOUT_S)
        if not submitted.completed:
            raise RuntimeError(f"warm-up scenario {scenario['name']} failed")


class HostSampler:
    """Times the host-speed reference every ``SAMPLE_INTERVAL_S`` in a
    thread of its own while the ``with`` block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True,
                                        name="perfbench-hostspeed")

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.samples.append(hostspeed.sample())

    def __enter__(self) -> "HostSampler":
        self._thread.start()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self) -> float:
        """``REFERENCE_S`` over the mean reference time."""
        return hostspeed.REFERENCE_S / statistics.mean(self.samples)


@dataclass
class _Outcome:
    due: float
    sent: float = 0.0
    posted: float = 0.0
    done: float | None = None
    ok: bool = False
    polled: bool = False
    fingerprint: str = ""


@dataclass
class LoadResult:
    outcomes: list[_Outcome]
    post_rtts: list[float] = field(default_factory=list)
    poll_rtts: list[float] = field(default_factory=list)
    polls: int = 0
    accepted: int = 0
    refused: int = 0
    window: float = 0.0
    #: Host-speed factor applied to this load's latencies.
    scale: float = 1.0


def drive(url: str, requests: list[workloads.Request],
          expected: dict[str, str],
          instrumentation: layers.Instrumentation | None = None) -> LoadResult:
    """Send ``requests`` on schedule and collect every outcome."""
    span = instrumentation.span if instrumentation is not None \
        else (lambda name: nullcontext())
    lock = threading.Lock()
    inflight: dict[str, list[int]] = {}
    start = time.perf_counter() + 0.05
    outcomes = [_Outcome(due=start + request.due) for request in requests]
    result = LoadResult(outcomes)
    sender_done = threading.Event()
    sampler = HostSampler()

    def complete(index: int, envelope: Any, now: float) -> None:
        outcome = outcomes[index]
        outcome.done = now
        outcome.ok = (envelope is not None and canonical_json(envelope)
                      == expected[requests[index].key])

    def sender() -> None:
        client = ReproClient(url, retries=0, timeout=DRAIN_TIMEOUT_S)
        try:
            for request, outcome in zip(requests, outcomes):
                delay = outcome.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                outcome.sent = time.perf_counter()
                try:
                    with span("client.post"):
                        submitted = client.submit(request.scenario)
                except ServeError as error:
                    outcome.done = time.perf_counter()
                    if error.status == 429:
                        result.refused += 1
                    continue
                now = time.perf_counter()
                outcome.posted = now
                result.post_rtts.append(now - outcome.sent)
                outcome.fingerprint = submitted.fingerprint
                if submitted.completed:
                    complete(request.index, submitted.envelope, now)
                    continue
                result.accepted += 1
                with lock:
                    inflight.setdefault(submitted.fingerprint, []).append(
                        request.index)
        finally:
            sender_done.set()

    def poller() -> None:
        client = ReproClient(url, retries=0, timeout=DRAIN_TIMEOUT_S)
        deadline = None
        while True:
            with lock:
                pending = list(inflight)
            if not pending and sender_done.is_set():
                return
            if sender_done.is_set():
                deadline = deadline or time.monotonic() + DRAIN_TIMEOUT_S
                if time.monotonic() > deadline:
                    return
            for fingerprint in pending:
                sent = time.perf_counter()
                try:
                    with span("client.poll"):
                        state = client.job(fingerprint).get("state")
                except ServeError:
                    state = None
                result.poll_rtts.append(time.perf_counter() - sent)
                result.polls += 1
                if state not in TERMINAL_STATES:
                    continue
                envelope = None
                if state == DONE:
                    try:
                        with span("client.result"):
                            envelope, _etag = client.result(fingerprint)
                    except ServeError:
                        envelope = None
                now = time.perf_counter()
                with lock:
                    waiting = inflight.pop(fingerprint, [])
                for index in waiting:
                    outcomes[index].polled = True
                    complete(index, envelope, now)
            time.sleep(POLL_INTERVAL_S)

    # Daemons: a run stopped by SIGTERM exits once its server is stopped,
    # without waiting for the poller's drain timeout.
    threads = [threading.Thread(target=sender, name="perfbench-sender",
                                daemon=True),
               threading.Thread(target=poller, name="perfbench-poller",
                                daemon=True)]
    with sampler:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    result.scale = sampler.scale()
    finished = [outcome.done for outcome in outcomes if outcome.done is not None]
    result.window = (max(finished) if finished else time.perf_counter()) - start
    return result


def _latencies(load: LoadResult) -> list[float]:
    """Latencies on the host-speed scale; a failed request's is infinite."""
    return [(outcome.done - outcome.due) * load.scale if outcome.ok
            else float("inf") for outcome in load.outcomes]


def end_to_end(loads: list[LoadResult]) -> dict[str, float]:
    """End-to-end metrics over the pooled requests of ``loads``."""
    latencies = [value for load in loads for value in _latencies(load)]
    ok = sum(1 for load in loads for outcome in load.outcomes if outcome.ok)
    window = sum(load.window for load in loads)
    return {
        "wall_s": window,
        "latency_p50_s": layers.percentile(latencies, 0.50),
        "latency_p95_s": layers.percentile(latencies, 0.95),
        "completed_per_s": ok / window,
        "goodput_per_s": sum(1 for value in latencies
                             if value <= LATENCY_LIMIT_S) / window,
    }


def scrape(url: str) -> dict[str, float]:
    """Sum every Prometheus sample per family name (labels dropped)."""
    text = ReproClient(url).metrics()
    totals: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value = line.rpartition(" ")
        name = name_part.split("{", 1)[0]
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


def server_side_metrics(url: str, load: LoadResult,
                        requests: list[workloads.Request],
                        before: dict[str, float],
                        ) -> tuple[dict[str, float], float]:
    """Per-layer metrics read from the server's metrics and job traces, and
    the summed execution time of the jobs it ran.  Counters count from the
    ``before`` scrape, taken after the warm-up."""
    after = scrape(url)
    scraped = {name: value - before.get(name, 0.0)
               for name, value in after.items()}
    client = ReproClient(url)
    executed = {}
    for request, outcome in zip(requests, load.outcomes):
        if outcome.polled and outcome.fingerprint:
            executed.setdefault(outcome.fingerprint, []).append(outcome)
    exec_seconds, execute_total, scenario_total, waits = [], 0.0, 0.0, []
    for fingerprint, group in executed.items():
        root = client.trace(fingerprint)["root"]
        exec_seconds.append(root["seconds"])
        scenario_total += root["seconds"]
        execute_total += sum(child["seconds"] for child in root["children"]
                             if child["name"] == "execute")
        first = min(group, key=lambda outcome: outcome.posted)
        waits.append(first.done - first.posted - root["seconds"])
    hits = scraped.get("repro_store_hits_total", 0.0)
    misses = scraped.get("repro_store_misses_total", 0.0)
    polled = sum(1 for outcome in load.outcomes if outcome.polled)
    metrics = {
        "store.hits": hits,
        "store.misses": misses,
        "store.writes": scraped.get("repro_store_writes_total", 0.0),
        "store.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "trace.cache_hits": scraped.get("repro_trace_cache_hits_total", 0.0),
        "trace.cache_misses": scraped.get("repro_trace_cache_misses_total",
                                          0.0),
        "jobs.exec_p50_s": layers.percentile(exec_seconds, 0.5),
        "jobs.queue_wait_p50_s": layers.percentile(waits, 0.5),
        "jobs.dedup": load.accepted - scraped.get(
            "repro_jobs_submitted_total", 0.0),
        "jobs.refused": float(load.refused),
        "jobs.retries": scraped.get("repro_jobs_retries_total", 0.0),
        "serve.post_p50_s": layers.percentile(load.post_rtts, 0.5),
        "serve.poll_p50_s": layers.percentile(load.poll_rtts, 0.5),
        "serve.http_requests": scraped.get("repro_http_requests_total", 0.0),
        "client.late_p95_s": layers.percentile(
            [outcome.sent - outcome.due for outcome in load.outcomes], 0.95),
        "client.polls_per_request": load.polls / polled if polled else 0.0,
        "engine.execute_s": execute_total,
    }
    return metrics, scenario_total


def run(root: str, scratch: str, seed: int, seconds: float,
        trace: bool) -> dict[str, Any]:
    """Run the open loop; returns the result fields for run.py."""
    length = seconds / 2 if trace else seconds / REPEATS
    requests = workloads.serve_schedule(seed, length)
    started = time.perf_counter()
    expected = expected_envelopes(requests)
    print(f"expected envelopes: {len(expected)} in "
          f"{time.perf_counter() - started:.2f}s", file=sys.stderr)
    warmup = workloads.serve_warmup(seed)
    if trace:
        return _traced(root, scratch, requests, expected, warmup)

    ready: list[float] = []
    for _ in range(SETUP_STARTS - REPEATS):
        server = Server(root, scratch)
        ready.append(server.ready_s)
        server.stop()
    loads: list[LoadResult] = []
    peak_rss: list[float] = []
    for _ in range(REPEATS):
        server = Server(root, scratch)
        ready.append(server.ready_s)
        try:
            warm_up(server.url, warmup)
            loads.append(drive(server.url, requests, expected))
            peak_rss.append(server.peak_rss_mb())
        finally:
            server.stop()
    failed = sum(1 for load in loads for outcome in load.outcomes
                 if not outcome.ok)
    metrics = end_to_end(loads)
    metrics["peak_rss_mb"] = max(peak_rss)
    raw = [layers.percentile([value / load.scale
                              for value in _latencies(load)], 0.5)
           for load in loads]
    # Server starts on the host-speed scale of the sends, as the batch
    # workloads' set-up probes are on theirs.
    speed = statistics.mean(load.scale for load in loads)
    return {"attempted": REPEATS * len(requests), "failed": failed,
            "setup": [speed * value for value in ready],
            "end_to_end": metrics,
            "measured": {"latency_p50_s": raw,
                         "scale": [load.scale for load in loads],
                         "setup_s": statistics.median(ready)}}


def _traced(root: str, scratch: str, requests: list[workloads.Request],
            expected: dict[str, str],
            warmup: dict[str, dict[str, Any]]) -> dict[str, Any]:
    server = Server(root, scratch)
    try:
        warm_up(server.url, warmup)
        plain = drive(server.url, requests, expected)
    finally:
        server.stop()
    spans_out = os.path.join(scratch, "server-spans.json")
    instrumentation = layers.Instrumentation(auto=True)
    server = Server(root, scratch, spans_out=spans_out)
    try:
        warm_up(server.url, warmup)
        before = scrape(server.url)
        load = drive(server.url, requests, expected, instrumentation)
        server_side, scenario_total = server_side_metrics(
            server.url, load, requests, before)
    finally:
        server.stop()
    with open(spans_out, encoding="utf-8") as handle:
        server_payloads = json.load(handle)

    totals = layers.span_totals(server_payloads, skip_root=True)
    metrics = layers.layer_metrics(totals)
    metrics["bench.self_s"] = 0.0
    # Runner time outside the wrapped calls: job-trace scenario time minus
    # the worker threads' top-level spans.
    top_level = sum(child["seconds"] for payload in server_payloads
                    for child in payload["root"]["children"])
    metrics["engine.self_s"] = max(0.0, scenario_total - top_level)
    metrics.update(server_side)
    plain_p50 = layers.percentile(_latencies(plain), 0.5)
    traced_p50 = layers.percentile(_latencies(load), 0.5)
    metrics["obs.trace_overhead_frac"] = traced_p50 / plain_p50 - 1.0
    # Shares of job execution time on the server, and of the generator's
    # own time in its client calls, kept apart: they are different processes.
    server_totals = dict(totals, **{"engine.self": {
        "self": metrics["engine.self_s"]}})
    shares = {
        "server": layers.layer_shares(server_totals),
        "client": layers.layer_shares(layers.span_totals(
            instrumentation.thread_payloads(), skip_root=True)),
    }
    failed = sum(1 for outcome in plain.outcomes + load.outcomes
                 if not outcome.ok)
    return {"attempted": 2 * len(requests), "failed": failed,
            "per_layer": metrics, "shares": shares}

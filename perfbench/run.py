"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: ``paper-grid``, ``smt-corun``
(closed-loop batch, in this process) and ``serve-open`` (open loop against a
``repro serve`` child process).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  Diagnostics (frame hashes, layer shares) go to standard
error.  Exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Fresh interpreters timed per batch run for ``setup_s`` (at least).
SETUP_PROBES = 8

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "latency_p50_s": "s",
    "latency_p95_s": "s",
    "completed_per_s": "1/s",
    "goodput_per_s": "1/s",
}


def probe_setup(count: int) -> list[float]:
    """Seconds from spawning ``perfbench/ready.py`` to its ``ready`` line."""
    seconds = []
    for _ in range(count):
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "ready.py")],
            cwd=ROOT, stdout=subprocess.PIPE)
        try:
            line = process.stdout.readline()
            seconds.append(time.perf_counter() - started)
        finally:
            process.stdout.close()
            process.wait()
        if line.strip() != b"ready" or process.returncode != 0:
            raise RuntimeError("set-up probe failed")
    return seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-grid", "smt-corun", "serve-open"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: src/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import batch, layers, serve_load

    # A terminated run still stops its server and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    trace = bool(args.trace)
    try:
        if args.workload == "serve-open":
            result = serve_load.run(ROOT, run_dir, args.seed, args.seconds,
                                    trace)
        else:
            # Set-up probes are spread over the run, between its passes.
            setup: list[float] = []
            per_pass = -(-SETUP_PROBES
                         // batch.pass_count(args.workload, args.seconds))
            result = batch.run(
                args.workload, args.seed, args.seconds, trace,
                None if trace else lambda: setup.extend(probe_setup(per_pass)))
            result["setup"] = [result["speed"] * value for value in setup]
            result["measured"]["setup_s"] = statistics.median(setup) \
                if setup else 0.0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for key in ("hashes", "walls", "measured", "shares", "setup"):
        if result.get(key):
            print(f"{key}: {json.dumps(result[key])}", file=sys.stderr)
    if trace:
        values = result["per_layer"]
        units = layers.PER_LAYER_UNITS
    else:
        values = dict(result["end_to_end"])
        values["setup_s"] = statistics.median(result["setup"])
        values["ok_frac"] = 1.0 - result["failed"] / result["attempted"]
        units = END_TO_END_UNITS
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

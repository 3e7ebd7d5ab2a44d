"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/traced_serve.py SPANS_OUT serve [serve options]``.
Runs the normal CLI entry point; on shutdown (SIGINT) writes the span trees
of every thread that made a wrapped call to ``SPANS_OUT`` as JSON.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.layers import Instrumentation  # noqa: E402
from repro.cli import main  # noqa: E402


def _main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    instrumentation = Instrumentation(auto=True)
    instrumentation.install()
    try:
        return main(argv) or 0
    finally:
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump(instrumentation.thread_payloads(), handle)


if __name__ == "__main__":
    raise SystemExit(_main())

"""The per-item replay oracle that production replay is held to.

Production replay (:func:`repro.sim.bpu_sim.replay`) takes the model's vector
kernel when it has one that accepts the trace and the columnar loop
otherwise.  The oracle is the plainest loop that can be written: walk the
trace item by item, forward each OS event to the model, and record each
branch past its thread's warm-up.  It lives here, not in ``src``: tests reach
it by substitution (:func:`replay_path`), never through an option of the
program.
"""

from contextlib import contextmanager

import pytest

from repro.sim import bpu_sim, vector
from repro.sim.bpu_sim import SINGLE_THREAD, dispatch_event
from repro.trace.branch import TraceEvent

#: Replay paths a parity test can force: the program's own choice, the
#: columnar loop (the program's choice for a model without a vector kernel),
#: and the per-item oracle.
PATHS = ("production", "columnar", "oracle")


def replay_items(model, trace, warmup, per_thread_stats,
                 thread_offset=SINGLE_THREAD):
    """Per-item replay with :func:`repro.sim.bpu_sim.replay`'s signature."""
    seen = [0, 0]
    for item in trace:
        if isinstance(item, TraceEvent):
            dispatch_event(model, item)
            continue
        thread = 0 if item.context_id < thread_offset else 1
        result = model.access_with_events(item)
        seen[thread] += 1
        if seen[thread] > warmup:
            per_thread_stats[thread].record(result, item)


@contextmanager
def replay_path(path):
    """Run the block with every in-process replay forced onto ``path``.

    ``columnar`` reports every model as kernel-less; ``oracle`` also swaps
    the columnar loop for :func:`replay_items`.  Worker processes a pool
    starts afterwards do not see the substitution.
    """
    if path not in PATHS:
        raise ValueError(f"unknown replay path {path!r}")
    with pytest.MonkeyPatch.context() as patch:
        if path != "production":
            patch.setattr(vector, "kernel_for", lambda model: None)
        if path == "oracle":
            patch.setattr(bpu_sim, "replay_columnar", replay_items)
        yield

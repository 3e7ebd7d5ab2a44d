"""Set-up probe: a fresh interpreter made ready to run batch jobs.

Imports the engine, loads the experiment registry and builds every
registry model's vector kernel tables, then prints ``ready``.  The
benchmark times this process from spawn to that line.
"""

import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.engine import build_model, list_models, load_builtin_specs  # noqa: E402
from repro.sim import vector  # noqa: E402

load_builtin_specs()
for name in list_models():
    vector.kernel_for(build_model(name, seed=0))
print("ready", flush=True)

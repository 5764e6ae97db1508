"""One set-up sample: import idqsim and build one workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

Run in a fresh process by ``run.py``; prints one JSON line with
``import_s`` (importing idqsim) and ``setup_s`` (import plus building the
inputs from the seed). numpy is imported before the clock starts, like the
interpreter itself: it is a fixed cost of the runtime (about 70 ms, three
quarters of a fresh import), and its loading of shared libraries moved with
the machine's load more than idqsim's own set-up did.
"""

import time

import numpy  # noqa: F401

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
t_import = time.perf_counter()
import idqsim  # noqa: E402,F401

import_s = time.perf_counter() - t_import

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(json.dumps({"import_s": import_s, "setup_s": time.perf_counter() - t0}))

"""Set-up probe: time ``import mopkit`` plus a workload's weight-system builds.

Run in a fresh process by run.py: ``python setup_probe.py <workload> <seed>``.
Prints one JSON object with ``import_s`` and ``build_s``.
"""

import json
import sys
import time

t0 = time.perf_counter()
import mopkit  # noqa: E402,F401  (timed: the import is what set-up pays)

t1 = time.perf_counter()

import wl_ensemble  # noqa: E402
import wl_zeros  # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
t2 = time.perf_counter()
{"zeros": wl_zeros, "ensemble": wl_ensemble}[workload].setup(seed)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2}))

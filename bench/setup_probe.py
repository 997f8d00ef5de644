"""Set-up probe: a fresh interpreter imports sigma2 and builds the inputs.

    python3 bench/setup_probe.py <workload> <seed> <size> <workdir>

Prints one JSON line: the wall-clock time when ready (``time.time()``, so
the parent can measure from the moment it spawned this process), the import
time and the input-building time.
"""

import time

import importlib
import json
import pkgutil
import sys

t_start = time.time()

workload, seed, size, workdir = sys.argv[1:5]
pkg = importlib.import_module("sigma2")
for info in pkgutil.iter_modules(pkg.__path__):
    if not info.name.startswith("_"):
        importlib.import_module(f"sigma2.{info.name}")
t_import = time.time()

import workloads  # noqa: E402  (part of building the inputs)

workloads.build_inputs(workload, int(seed), size, workdir)
t_ready = time.time()
print(json.dumps({"ready": t_ready, "import_s": t_import - t_start,
                  "inputs_s": t_ready - t_import}))

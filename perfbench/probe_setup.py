"""Set-up probe: a fresh interpreter imports `grusslab.cli` and builds one
workload's inputs, then prints how long `import scipy.special` took.

    python3 perfbench/probe_setup.py <workload> <seed>

`run.py` times the whole process from outside; numpy and scipy.special are
imported first only so that their share can be told apart.  They are the
modules `grusslab.cli` would import anyway, so the total does not change.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy  # noqa: E402,F401

t0 = time.perf_counter()
import scipy.special  # noqa: E402,F401

scipy_import_s = time.perf_counter() - t0

import grusslab.cli  # noqa: E402,F401
from workloads import build_inputs  # noqa: E402

build_inputs(sys.argv[1], int(sys.argv[2]))
print(json.dumps({"scipy_import_s": scipy_import_s}))

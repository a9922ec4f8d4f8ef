"""Time one fresh interpreter's set-up: ``import patrolsim`` and building
a workload's inputs.  Prints the seconds taken.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import time

began = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import patrolsim  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3]))
print(time.perf_counter() - began)

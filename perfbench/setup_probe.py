"""Set-up probe: a fresh interpreter that imports critfact, builds one
workload's inputs and prints its monotonic clock once they are ready.

    python3 perfbench/setup_probe.py WORKLOAD SEED SCALE

``run.py`` starts it and takes the time from the start to that stamp.
"""

import sys
import time
from pathlib import Path

here = Path(__file__).resolve().parent
sys.path[:0] = [str(here.parent / "src"), str(here)]

import workloads  # noqa: E402  (imports critfact)

workloads.build_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(time.monotonic())

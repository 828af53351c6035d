"""Set-up probe: one fresh interpreter that turns a workload's inputs into program objects.

    python3 perfbench/setup_probe.py <workload> <seed> <work directory>

Imports drexel from ./src, loads the workload's configs and builds its model
(or loads its dataset and RBM weights), then prints "ready".  run.py times
the probe from spawn to that line.
"""

import os
import sys

here = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]

import workloads  # noqa: E402

name, seed, work = sys.argv[1], int(sys.argv[2]), sys.argv[3]
workloads.make_workload(name, seed, work).setup()
print("ready", flush=True)

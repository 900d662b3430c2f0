"""Cold set-up probe: import, load the checkpoint, start a workload's server.

``python3 perfbench/setup_probe.py <workload>`` prints ``ready`` once the
server can take work, then shuts it down and waits for its processes.
``run.py`` times the interval from launching this interpreter to that line.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from harness import end_child_processes  # noqa: E402
from inputs import load_model  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    try:
        server = WORKLOADS[sys.argv[1]].service(load_model())
        print("ready", flush=True)
        server.stop()
    finally:
        end_child_processes()

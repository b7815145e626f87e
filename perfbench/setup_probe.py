"""One fresh-process set-up, timed by run.py for setup_s.

    python3 setup_probe.py <qimatch src dir> <work dir>

Starts, imports qimatch, loads the workload's input files from the work dir
and prints "ready": the state in which a process can start its first op.
"""

import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])

import workloads  # noqa: E402  (imports qimatch from the path above)

workloads.load_inputs(Path(sys.argv[2]), workloads.api())
print("ready", flush=True)

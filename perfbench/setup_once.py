"""Set one workload up, say so, and exit.

``run.py`` times this script from process start to its ``ready`` line to
measure ``setup_s``: interpreter start, import, the builtin rule and template
tables, input generation and, for ``remote_loopback``, the stub's start.

Usage: python3 perfbench/setup_once.py WORKLOAD SEED
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (needs src on sys.path)

workload = workloads.setup(sys.argv[1], int(sys.argv[2]), SRC)
print("ready", flush=True)
workload.close()

"""Set-up probe: import the CLI and generate the first op, then say "ready".

``run.py`` times this script from process spawn to the "ready" line, so the
figure covers interpreter start, ``import hahn_paths.cli`` and input
generation.  Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import hahn_paths.cli  # noqa: E402,F401

from perfbench.workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].op(int(sys.argv[2]), 0)
sys.stdout.write("ready\n")
sys.stdout.flush()

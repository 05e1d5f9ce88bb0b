"""Set-up probe: import what ``repro-study`` imports, mount a universe,
print wall-clock stamps after each step, exit.

Usage: ``python3 perfbench/setup_child.py mixed:<seed>:1000`` with ``src``
on ``PYTHONPATH``.
"""

import json
import sys
import time

import repro.cli  # noqa: F401  (the module graph a CLI launch loads)
from repro.scenarios import mount_universe

import_done = time.time()
mount_universe(sys.argv[1])
universe_done = time.time()
print(json.dumps({"import_done": import_done, "universe_done": universe_done}))

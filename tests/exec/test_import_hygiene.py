"""Importing the package must not import the process pool.

``concurrent.futures.process`` drags ``multiprocessing`` in (~5 MB of
RSS, 30-50 ms cold), and ``repro.exec.runner`` is on the import path of
every CLI start and every judged run (``repro.workloads`` → explorer →
``repro.exec``) — while serial runs never build a pool.  The runner
imports the executor where it constructs one; this guards the module
level.  Run in a fresh interpreter: the test session itself has long
since imported ``multiprocessing``.
"""

import subprocess
import sys

PROBE = """
import sys
import repro.cli, repro.workloads, repro.bench
heavy = [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]
assert not heavy, f"imported at module level: {heavy}"
"""


def test_serial_entry_points_do_not_import_the_process_pool():
    done = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr

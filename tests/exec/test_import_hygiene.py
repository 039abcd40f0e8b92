"""Importing the package must not import the process pool.

``concurrent.futures.process`` drags ``multiprocessing`` in (~5 MB of
RSS, 30-50 ms cold), and ``repro.exec.runner`` is on the import path of
every CLI start and every judged run (``repro.workloads`` → explorer →
``repro.exec``) — while serial runs never build a pool.  The runner
imports the executor where it constructs one; this guards the module
level.  Run in a fresh interpreter: the test session itself has long
since imported ``multiprocessing``.

And ``import repro`` loads what a run uses: the explorer, the scripted
scenarios and the renderers are package attributes that resolve on
first use (``repro._lazy``), so a judged run — the import list of
``perf/workloads.py`` — never loads them, nor ``repro.exec`` and
``concurrent.futures`` behind the explorer.
"""

import os
import subprocess
import sys

PERF_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir, "perf"
)

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


RUN_PROBE = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
from workloads import IMPORTS
for name in IMPORTS:
    importlib.import_module(name)
unused = ("repro.workloads.explorer", "repro.workloads.scenarios", "repro.exec",
          "repro.viz", "concurrent.futures")
loaded = [m for m in unused if m in sys.modules]
assert not loaded, f"a judged run imported: {loaded}"
import repro, repro.workloads
from repro.workloads import explore, figure_3a
assert explore is repro.workloads.explorer.explore
assert repro.render_timeline is sys.modules["repro.viz"].render_timeline
for package in (repro, repro.workloads):
    missing = [n for n in package.__all__ if n not in dir(package)]
    assert not missing, f"{package.__name__}.__all__ names not in dir(): {missing}"
    assert all(hasattr(package, n) for n in package.__all__)
"""


def test_a_judged_run_imports_neither_explorer_nor_renderers():
    done = subprocess.run(
        [sys.executable, "-c", RUN_PROBE, PERF_DIR],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr

"""Production reach: the ``src/repro`` functions no production run enters.

``PYTHONPATH=src python -m tests.reach`` runs every production entry
point (:func:`_drive`) under a profile hook installed before ``repro``
is imported, follows forked pool workers, and rewrites
``tests/unreached.txt``: one ``path:qualname`` per defined function
never entered, sorted.  ``--check`` rewrites nothing and exits 1,
naming them, if a function would be added — the listing only shrinks.
A function is matched to its code object by ``(file, qualname)``.

``--lines`` traces nothing: it rewrites ``tests/lines.txt``, the code
and docstring lines of each ``src/repro`` package (:func:`line_counts`).
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
LISTING = Path(__file__).with_name("unreached.txt")
LINES = Path(__file__).with_name("lines.txt")
_entered: set = set()


def _hook(frame, event, arg):
    if event == "call":
        _entered.add(frame.f_code)


def defined() -> set[str]:
    """Every function and method defined under ``src/repro``, as
    ``path:qualname`` (the qualname Python gives its code object)."""
    names = set()

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{path}:{prefix}{child.name}")
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                inner = isinstance(child, ast.ClassDef)
                walk(child, path, f"{prefix}{child.name}." if inner else prefix)

    for file in sorted(SRC.rglob("*.py")):
        walk(ast.parse(file.read_text()), file.relative_to(ROOT).as_posix(), "")
    return names


def line_counts() -> dict[str, tuple[int, int]]:
    """``(code, docstring)`` lines per ``src/repro`` package, counted
    with ``ast``: a docstring is the first string statement of a module,
    class or function; a code line is any other line that is neither
    blank nor only a comment.  A module directly under ``src/repro``
    counts to ``src/repro`` itself."""
    counts: dict[str, list[int]] = {}
    for file in sorted(SRC.rglob("*.py")):
        text = file.read_text()
        docstring: set[int] = set()
        for node in ast.walk(ast.parse(text)):
            body = getattr(node, "body", None)
            if (
                isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                docstring.update(range(body[0].lineno, body[0].end_lineno + 1))
        package = file.parent.relative_to(ROOT).as_posix()
        tally = counts.setdefault(package, [0, 0])
        for number, line in enumerate(text.splitlines(), start=1):
            if number in docstring:
                tally[1] += 1
            elif line.strip() and not line.strip().startswith("#"):
                tally[0] += 1
    return {package: (code, doc) for package, (code, doc) in counts.items()}


def _drive(tmp: str) -> None:
    """Every production entry point: the CLI runs, the CI sweeps and
    battery, the examples and the six full-scale judged workloads."""
    from repro.cli import main
    from tests.examples.test_examples_smoke import EXAMPLES, EXAMPLES_DIR
    from tests.integration.test_smoke_sweeps import SWEEPS
    from tests.test_cli import CLI_RUNS

    # The pinned CLI runs, one more run per flag they leave unused (the
    # defer sweep takes the partition-length check), the CI sweeps and
    # the quick battery; two workers, so the pool path is traced too.
    runs = [*CLI_RUNS.values(), "simulate --timeline", "bounds --churn 0.02"]
    runs += [f"scenario {fig} --timeline --messages" for fig in ("fig3a", "fig3b", "inversion")]
    runs += [f"explore {sweep} --workers 2" for sweep in SWEEPS.values()]
    runs += [
        f"explore --budget 4 --plans partition-defer --out {tmp}/r.json --verbose --no-shrink",
        "rebalance --period 15 --threshold 1.5 --migration-budget 1 --retire 1",
        "experiments --quick --ablations --workers 2",
    ]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in runs:
            main(argv.split())
        os.environ["REPRO_EXAMPLES_QUICK"] = "1"
        for script, (extra, _) in EXAMPLES.items():
            sys.argv = [str(EXAMPLES_DIR / script), *extra]
            with contextlib.suppress(SystemExit):
                runpy.run_path(sys.argv[0], run_name="__main__")
    sys.path.insert(0, str(ROOT / "perf"))
    from judged import judged_run
    from workloads import BY_NAME

    for name in BY_NAME:
        judged_run(name, 0, 1.0, False)


def _dump(tmp: str) -> None:
    sys.setprofile(None)
    # A pool's manager thread may still be winding down with the hook
    # on and adding to the set: write a snapshot, taken in one C call.
    entered = list(_entered)
    with open(f"{tmp}/{os.getpid()}.entered", "a") as out:
        out.writelines(f"{c.co_filename}\0{c.co_qualname}\n" for c in entered)


def unreached() -> set[str]:
    """Trace :func:`_drive` (and its pool workers); what it never entered."""
    import multiprocessing.util as mp_util

    with tempfile.TemporaryDirectory() as tmp:
        exit_function = mp_util._exit_function
        # A forked pool worker inherits the hook and leaves through here.
        mp_util._exit_function = lambda *a, **k: (_dump(tmp), exit_function(*a, **k))[1]
        threading.setprofile(_hook)
        sys.setprofile(_hook)
        try:
            _drive(tmp)
            from repro.exec import runner

            # The pools' exit path, then the wait for their workers' dumps.
            workers = [w for pool in runner._POOLS.values() for w in pool._processes.values()]
            runner._discard_pools()
            for worker in workers:
                worker.join()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            mp_util._exit_function = exit_function
        _dump(tmp)
        entered = {
            f"{Path(file).resolve().relative_to(ROOT).as_posix()}:{qualname}"
            for dump in Path(tmp).glob("*.entered")
            for file, qualname in (line.split("\0") for line in dump.read_text().splitlines())
            if Path(file).resolve().is_relative_to(SRC)
        }
    return defined() - entered


def main(argv: list[str]) -> int:
    if "--lines" in argv:
        counts = line_counts()
        code, doc = (sum(column) for column in zip(*counts.values()))
        LINES.write_text(
            "# package: code lines, docstring lines (python -m tests.reach --lines)\n"
            + "".join(f"{p}: {c} code, {d} docstring\n" for p, (c, d) in counts.items())
            + f"total: {code} code, {doc} docstring\n"
        )
        print(f"{LINES.name}: {code} code and {doc} docstring lines")
        return 0
    names = unreached()
    if "--check" not in argv:
        LISTING.write_text("".join(f"{name}\n" for name in sorted(names)))
        print(f"{LISTING.name}: {len(names)} of {len(defined())} functions unreached")
        return 0
    added = sorted(names - set(LISTING.read_text().splitlines()))
    for name in added:
        print(f"added: {name} (only tests reach it: give it a production caller or delete it)")
    return 1 if added else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

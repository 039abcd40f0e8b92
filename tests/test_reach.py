"""The reach listing only shrinks honestly.

``tests/unreached.txt`` (written by ``python -m tests.reach``) names the
``src/repro`` functions no production entry point enters.  These tests
need no tracing: the listing must be sorted, hold no duplicate, and
name only functions still defined, so deleting a function forces its
line out and the file never names what is gone.  The tracer's identity
rule and the ``--check`` ratchet are checked on stand-in sets.
"""

from types import CodeType

from tests import reach
from tests.reach import LISTING, ROOT, SRC, defined


def test_the_listing_is_sorted_unique_and_names_only_defined_functions():
    names = LISTING.read_text().splitlines()
    assert names == sorted(set(names)), "unreached.txt must be sorted, without duplicates"
    gone = sorted(set(names) - defined())
    assert not gone, f"unreached.txt names functions no longer defined: {gone}"


def test_every_defined_name_is_the_qualname_of_a_compiled_code_object():
    """The tracer matches entered code objects by ``(file, co_qualname)``;
    a name ``defined`` spells differently could never be entered, and
    would stay listed for ever (a decorated function's line number
    misled a line-based match in just this way)."""
    compiled = set()
    for file in SRC.rglob("*.py"):
        path = file.relative_to(ROOT).as_posix()
        stack = [compile(file.read_text(), str(file), "exec")]
        while stack:
            code = stack.pop()
            compiled.add(f"{path}:{code.co_qualname}")
            stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    assert sorted(defined() - compiled) == []


def _stand_in(monkeypatch, tmp_path, listed, unreached):
    listing = tmp_path / "unreached.txt"
    listing.write_text(listed)
    monkeypatch.setattr(reach, "LISTING", listing)
    monkeypatch.setattr(reach, "unreached", lambda: set(unreached))
    monkeypatch.setattr(reach, "defined", lambda: {"a.py:f", "a.py:g", "b.py:h"})
    return listing


def test_check_fails_naming_an_added_function_and_rewrites_nothing(
    monkeypatch, tmp_path, capsys
):
    listing = _stand_in(monkeypatch, tmp_path, "a.py:f\n", {"a.py:f", "b.py:h"})
    assert reach.main(["--check"]) == 1
    assert capsys.readouterr().out.startswith("added: b.py:h (only tests reach it")
    assert listing.read_text() == "a.py:f\n"


def test_check_passes_a_listing_that_only_shrank(monkeypatch, tmp_path, capsys):
    _stand_in(monkeypatch, tmp_path, "a.py:f\na.py:g\n", {"a.py:f"})
    assert reach.main(["--check"]) == 0
    assert capsys.readouterr().out == ""


def test_regenerating_writes_the_sorted_listing(monkeypatch, tmp_path, capsys):
    listing = _stand_in(monkeypatch, tmp_path, "", {"b.py:h", "a.py:f"})
    assert reach.main([]) == 0
    assert listing.read_text() == "a.py:f\nb.py:h\n"
    assert capsys.readouterr().out == "unreached.txt: 2 of 3 functions unreached\n"

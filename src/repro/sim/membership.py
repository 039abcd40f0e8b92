"""Membership registry: who is in the system, and when.

The registry is the ground truth about presence used by the network
(deliveries to departed processes are dropped), by the churn controller
(victims are drawn from current members) and by the active-set tracker
that validates Lemma 2.  Protocol nodes never read it — processes in the
paper have no membership oracle beyond the known system size ``n``.
It keeps the processes themselves — every one that ever entered, and
the present ones: a process is its own presence record, and
:meth:`Membership.leave` stamps its departure.
"""

from __future__ import annotations

from operator import attrgetter
from random import Random
from typing import Iterator

from .clock import Time
from .errors import ProcessError, UnknownProcessError
from .process import ProcessMode, SimProcess

_ACTIVE = ProcessMode.ACTIVE
_pid_of = attrgetter("pid")


class Membership:
    """Tracks every process that ever entered the system.

    Identities are never reused (infinite arrival model): a process that
    leaves and wants to come back must enter with a fresh ``pid``.
    """

    def __init__(self) -> None:
        self._processes: dict[str, SimProcess] = {}
        self._present: dict[str, SimProcess] = {}
        # The active processes, in entry order: every planned read
        # without a named reader is drawn from this list, in place
        # (:meth:`draw_active`), but it changes only when presence
        # (``enter`` / ``leave``) or a process's mode does, so it is
        # cached; each of those resets it to ``None`` — the process
        # through the back-reference ``enter`` hands it.  A drawn
        # process is therefore present and active by construction.
        # ``_active_count`` is the list's length, kept exact at the same
        # four transitions so sampling ``|A(τ)|`` never rebuilds a list
        # churn invalidates every tick.
        self._active: list[SimProcess] | None = None
        self._active_count = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def enter(self, *processes: SimProcess) -> None:
        """Register processes that just entered, in one batch: a joiner
        (listening), or a population's seeds (active).

        The batch is refused whole, before anything is entered, if it
        reuses an identity — one already entered, or one twice within
        the batch (the infinite arrival model forbids reuse).  The batch
        is one transient ``pid → process`` table (no object per
        process), and the checks and the two registry merges run at C
        speed, so what a population costs here is its registry entries
        and one loop over it (the back-reference and the active count).
        """
        entered = self._processes
        batch = dict(zip(map(_pid_of, processes), processes))
        if len(batch) != len(processes) or not entered.keys().isdisjoint(batch.keys()):
            raise ProcessError(
                f"identity {self._first_reused(processes)!r} was already "
                f"used; the infinite arrival model forbids reuse"
            )
        active = 0
        for process in processes:
            process._registry = self
            if process._mode is _ACTIVE:
                active += 1
        entered.update(batch)
        self._present.update(batch)
        self._active = None
        self._active_count += active

    def _first_reused(self, processes: tuple[SimProcess, ...]) -> str | None:
        """The first pid of ``processes`` already entered, or already
        met earlier in the batch."""
        seen: set[str] = set()
        for process in processes:
            pid = process.pid
            if pid in self._processes or pid in seen:
                return pid
            seen.add(pid)
        return None

    def _mode_changed(self, pid: str, delta: int) -> None:
        """A process that entered here turned active (``+1``), departed
        while active (``-1``) or departed while listening (``0``)."""
        self._active = None
        if pid in self._present:
            self._active_count += delta

    def leave(self, pid: str, instant: Time) -> None:
        """Record that ``pid`` left the system at ``instant``."""
        process = self.process(pid)
        if process._left_at is not None:
            raise ProcessError(f"{pid} left twice")
        process._left_at = instant
        del self._present[pid]
        self._active = None
        if process._mode is _ACTIVE:
            self._active_count -= 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __contains__(self, pid: str) -> bool:
        return pid in self._processes

    def __len__(self) -> int:
        """Number of processes currently present."""
        return len(self._present)

    def process(self, pid: str) -> SimProcess:
        """The live object for ``pid`` (present or departed)."""
        process = self._processes.get(pid)
        if process is None:
            raise UnknownProcessError(f"unknown process {pid!r}")
        return process

    def processes(self) -> Iterator[SimProcess]:
        """Every process that ever entered, present or departed, in
        entry order."""
        return iter(self._processes.values())

    def is_present(self, pid: str) -> bool:
        return pid in self._present

    def present_processes(self) -> list[SimProcess]:
        """Every process currently in the system, in entry order."""
        return list(self._present.values())

    def present_pids(self) -> list[str]:
        return list(self._present)

    def _active_list(self) -> list[SimProcess]:
        active = self._active
        if active is None:
            active = self._active = [
                p for p in self._present.values() if p._mode is _ACTIVE
            ]
        return active

    def active_pids(self) -> list[str]:
        """Every identity currently in the *active* mode, in entry order
        (a fresh list: callers index and filter it)."""
        return [p.pid for p in self._active_list()]

    def draw_active(
        self, rng: Random, exclude: str | None = None
    ) -> SimProcess | None:
        """One active process drawn uniformly from the cached active
        list, in place — ``None`` if there is none.

        The draw is the one ``Random.choice`` makes
        (``_randbelow_with_getrandbits`` on CPython 3.11 and 3.12),
        inlined so a planned read enters no frame of ``random``: ``k``
        bits are drawn for a pool of ``n`` (``k = n.bit_length()``, so
        a pool of one still draws) and redrawn while they read ``n`` or
        more.  It consumes ``rng`` exactly as
        ``rng.choice(active_pids())`` does; ``exclude`` leaves that pid
        out of the pool, as ``rng.choice`` over the filtered list would
        (``tests/properties/test_membership_model.py`` holds the two to
        the same process and the same ``getstate()``).  The cached list
        is reset at every enter, leave and mode change, so the drawn
        process is present and active by construction and a driver
        calls its ``read`` without asking again.
        """
        # The cache hit is inlined: this runs once per planned read.
        active = self._active
        if active is None:
            active = self._active_list()
        if exclude is not None:
            active = [p for p in active if p.pid != exclude]
        n = len(active)
        if not n:
            return None
        getrandbits = rng.getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return active[r]

    @property
    def active_count(self) -> int:
        """``len(active_pids())`` in O(1) — ``|A(now)|``."""
        return self._active_count

    def active_count_at(self, instant: Time) -> int:
        """``|A(instant)|`` — the paper's active-set size at one instant."""
        return sum(1 for p in self._processes.values() if p.active_at(instant))

    def active_throughout_count(self, start: Time, end: Time) -> int:
        """``|A(start, end)|`` — processes active during the whole window."""
        return sum(
            1 for p in self._processes.values() if p.active_throughout(start, end)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Membership(present={len(self._present)}, "
            f"total_ever={len(self._processes)})"
        )

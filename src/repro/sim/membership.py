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

from typing import Iterator

from .clock import Time
from .errors import ProcessError, UnknownProcessError
from .process import ProcessMode, SimProcess

_ACTIVE = ProcessMode.ACTIVE


class Membership:
    """Tracks every process that ever entered the system.

    Identities are never reused (infinite arrival model): a process that
    leaves and wants to come back must enter with a fresh ``pid``.
    """

    def __init__(self) -> None:
        self._processes: dict[str, SimProcess] = {}
        self._present: dict[str, SimProcess] = {}
        # The active list is asked for on every planned operation but
        # changes only when presence (``enter`` / ``leave``) or a
        # process's mode does, so it is cached; each of those resets it
        # to ``None`` — the process through the back-reference ``enter``
        # hands it.  ``_active_count`` is the list's length, kept exact
        # at the same four transitions so sampling ``|A(τ)|`` never
        # rebuilds a list churn invalidates every tick.
        self._active: list[str] | None = None
        self._active_count = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def enter(self, process: SimProcess) -> None:
        """Register a process that just entered (listening, or active if
        it is a seed)."""
        pid = process.pid
        if pid in self._processes:
            raise ProcessError(
                f"identity {pid!r} was already used; the infinite arrival "
                f"model forbids reuse"
            )
        self._processes[pid] = process
        self._present[pid] = process
        process._registry = self
        self._active = None
        if process._mode is _ACTIVE:
            self._active_count += 1

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

    def active_pids(self) -> list[str]:
        """Every identity currently in the *active* mode, in entry order
        (a fresh list: callers index and filter it)."""
        active = self._active
        if active is None:
            active = self._active = [
                pid for pid, p in self._present.items() if p._mode is _ACTIVE
            ]
        return list(active)

    @property
    def active_count(self) -> int:
        """``len(active_pids())`` in O(1) — ``|A(now)|``."""
        return self._active_count

    def active_processes(self) -> list[SimProcess]:
        """:meth:`active_pids`, as the live objects."""
        present = self._present
        return [present[pid] for pid in self.active_pids()]

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

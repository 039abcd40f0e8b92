"""Membership registry: who is in the system, and when.

The registry is the ground truth about presence used by the network
(deliveries to departed processes are dropped), by the churn controller
(victims are drawn from current members) and by the active-set tracker
that validates Lemma 2.  Protocol nodes never read it — processes in the
paper have no membership oracle beyond the known system size ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .clock import Time
from .errors import ProcessError, UnknownProcessError
from .process import ProcessMode, SimProcess

_ACTIVE = ProcessMode.ACTIVE


@dataclass(slots=True)
class PresenceRecord:
    """The full lifecycle of one process identity."""

    pid: str
    entered_at: Time
    activated_at: Time | None = None
    left_at: Time | None = None

    @property
    def present_now(self) -> bool:
        return self.left_at is None

    def present_at(self, instant: Time) -> bool:
        """Was the process in the system (listening or active) at ``instant``?"""
        if instant < self.entered_at:
            return False
        return self.left_at is None or instant < self.left_at

    def active_at(self, instant: Time) -> bool:
        """Was the process in the *active* mode at ``instant``?  (Def. 1)"""
        if self.activated_at is None or instant < self.activated_at:
            return False
        return self.left_at is None or instant < self.left_at

    def active_throughout(self, start: Time, end: Time) -> bool:
        """Was the process active during the whole interval ``[start, end]``?

        This is membership in the paper's ``A(start, end)``.
        """
        if self.activated_at is None or self.activated_at > start:
            return False
        return self.left_at is None or self.left_at > end


class Membership:
    """Tracks every process that ever entered the system.

    Identities are never reused (infinite arrival model): a process that
    leaves and wants to come back must enter with a fresh ``pid``.
    """

    def __init__(self) -> None:
        self._records: dict[str, PresenceRecord] = {}
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
        """Register a process that just entered (listening mode)."""
        pid = process.pid
        if pid in self._records:
            raise ProcessError(
                f"identity {pid!r} was already used; the infinite arrival "
                f"model forbids reuse"
            )
        # The raw attributes, not the properties: a population build
        # comes through here once per process.
        self._records[pid] = PresenceRecord(pid, process._entered_at)
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

    def mark_active(self, pid: str, instant: Time) -> None:
        """Record that ``pid`` completed its join at ``instant``."""
        record = self._record(pid)
        if record.left_at is not None:
            raise ProcessError(f"{pid} cannot become active after leaving")
        record.activated_at = instant

    def leave(self, pid: str, instant: Time) -> None:
        """Record that ``pid`` left the system at ``instant``."""
        record = self._record(pid)
        if record.left_at is not None:
            raise ProcessError(f"{pid} left twice")
        record.left_at = instant
        process = self._present.pop(pid, None)
        self._active = None
        if process is not None and process.is_active:
            self._active_count -= 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _record(self, pid: str) -> PresenceRecord:
        record = self._records.get(pid)
        if record is None:
            raise UnknownProcessError(f"unknown process {pid!r}")
        return record

    def __contains__(self, pid: str) -> bool:
        return pid in self._records

    def __len__(self) -> int:
        """Number of processes currently present."""
        return len(self._present)

    def process(self, pid: str) -> SimProcess:
        """The live object for ``pid`` (present or departed)."""
        process = self._processes.get(pid)
        if process is None:
            raise UnknownProcessError(f"unknown process {pid!r}")
        return process

    def record(self, pid: str) -> PresenceRecord:
        """The immutable-ish presence record for ``pid``."""
        return self._record(pid)

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

    def iter_records(self) -> Iterator[PresenceRecord]:
        """All presence records ever created, in entry order."""
        return iter(self._records.values())

    def active_count_at(self, instant: Time) -> int:
        """``|A(instant)|`` — the paper's active-set size at one instant."""
        return sum(1 for r in self._records.values() if r.active_at(instant))

    def active_throughout_count(self, start: Time, end: Time) -> int:
        """``|A(start, end)|`` — processes active during the whole window."""
        return sum(
            1 for r in self._records.values() if r.active_throughout(start, end)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Membership(present={len(self._present)}, "
            f"total_ever={len(self._records)})"
        )

"""The process is its own presence record: held to the record it replaced.

Random enter / activate / leave sequences at random instants drive a
:class:`Membership` of real :class:`SimProcess` objects (the way
``DynamicSystem`` does: a departure is ``depart()`` then
``Membership.leave``) beside a reference registry of
:class:`PresenceRecord` objects — the dataclass the membership kept per
process before a process answered for its own presence, copied here
unchanged.  After every step every query the two can answer must agree,
at the step's instant and at instants on both sides of every
transition; the refused transitions (double leave, an unknown pid,
activating twice or after leaving) must be refused by both.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import EventScheduler
from repro.sim.errors import ProcessError, UnknownProcessError
from repro.sim.membership import Membership
from repro.sim.process import SimProcess

Time = float


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


class ReferenceRegistry:
    """The deleted record-keeping half of ``Membership``: one record per
    identity ever entered, in entry order."""

    def __init__(self) -> None:
        self.records: dict[str, PresenceRecord] = {}

    def enter(self, pid: str, instant: Time, active: bool) -> None:
        if pid in self.records:
            raise ProcessError(f"identity {pid!r} was already used")
        self.records[pid] = PresenceRecord(
            pid, instant, activated_at=instant if active else None
        )

    def record(self, pid: str) -> PresenceRecord:
        record = self.records.get(pid)
        if record is None:
            raise UnknownProcessError(f"unknown process {pid!r}")
        return record

    def mark_active(self, pid: str, instant: Time) -> None:
        record = self.record(pid)
        if record.left_at is not None:
            raise ProcessError(f"{pid} cannot become active after leaving")
        if record.activated_at is not None:
            raise ProcessError(f"{pid} activated twice")
        record.activated_at = instant

    def leave(self, pid: str, instant: Time) -> None:
        record = self.record(pid)
        if record.left_at is not None:
            raise ProcessError(f"{pid} left twice")
        record.left_at = instant

    def active_count_at(self, instant: Time) -> int:
        return sum(1 for r in self.records.values() if r.active_at(instant))

    def active_throughout_count(self, start: Time, end: Time) -> int:
        return sum(
            1 for r in self.records.values() if r.active_throughout(start, end)
        )


#: Clock advances, coarse on purpose: ties between transitions (several
#: at one instant) are the interesting case for half-open intervals.
advances = st.sampled_from((0.0, 0.0, 0.5, 1.0, 2.5))

steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("enter", "enter-seed")), advances),
        st.tuples(
            st.sampled_from(("activate", "leave")),
            advances,
            st.integers(min_value=0, max_value=40),
        ),
        st.tuples(st.just("ghost"), advances),
    ),
    max_size=50,
)


def refused_alike(action, reference_action) -> None:
    """Run the same transition on both sides: both succeed, or both
    raise the same error type."""
    try:
        reference_action()
    except (ProcessError, UnknownProcessError) as expected:
        with pytest.raises(type(expected)):
            action()
    else:
        action()


def probe_instants(reference: ReferenceRegistry, now: Time) -> list[Time]:
    """Every transition instant, and either side of it, up to ``now``."""
    instants = {0.0, now, now + 1.0}
    for record in reference.records.values():
        for instant in (record.entered_at, record.activated_at, record.left_at):
            if instant is not None:
                instants.update((instant - 0.25, instant, instant + 0.25))
    return sorted(instants)


def assert_agree(membership: Membership, reference: ReferenceRegistry, now: Time):
    records = reference.records
    processes = list(membership.processes())
    assert [p.pid for p in processes] == list(records)
    present = [r for r in records.values() if r.present_now]
    assert len(membership) == len(present)
    assert membership.present_pids() == [r.pid for r in present]
    active = [r.pid for r in present if r.activated_at is not None]
    assert membership.active_pids() == active
    assert membership.active_count == len(active)
    instants = probe_instants(reference, now)
    for process in processes:
        record = records[process.pid]
        assert process.entered_at == record.entered_at
        assert process.activated_at == record.activated_at
        assert process.left_at == record.left_at
        for instant in instants:
            assert process.present_at(instant) == record.present_at(instant)
            assert process.active_at(instant) == record.active_at(instant)
    for instant in instants:
        assert membership.active_count_at(instant) == reference.active_count_at(instant)
    for start in instants:
        for end in instants:
            if start <= end:
                assert membership.active_throughout_count(
                    start, end
                ) == reference.active_throughout_count(start, end)


class TestProcessIsItsPresenceRecord:
    @given(steps=steps)
    @settings(max_examples=200, deadline=None)
    def test_every_query_agrees_with_the_record_model(self, steps):
        engine = EventScheduler()
        membership = Membership()
        reference = ReferenceRegistry()
        entered: list[SimProcess] = []
        for step in steps:
            kind, advance = step[0], step[1]
            engine.run_until(engine.now + advance)
            now = engine.now
            if kind in ("enter", "enter-seed"):
                seed = kind == "enter-seed"
                process = SimProcess(f"p{len(entered):03d}", engine, active=seed)
                membership.enter(process)
                reference.enter(process.pid, now, seed)
                entered.append(process)
            elif kind == "ghost":
                with pytest.raises(UnknownProcessError):
                    membership.leave("ghost", now)
                with pytest.raises(UnknownProcessError):
                    membership.process("ghost")
                assert "ghost" not in membership
            elif entered:
                process = entered[step[2] % len(entered)]
                if kind == "activate":
                    refused_alike(
                        process.mark_active,
                        lambda: reference.mark_active(process.pid, now),
                    )
                else:

                    def leave(process=process):
                        process.depart()
                        membership.leave(process.pid, now)

                    refused_alike(leave, lambda: reference.leave(process.pid, now))
            assert_agree(membership, reference, now)

    def test_identity_reuse_is_refused_by_both(self):
        engine = EventScheduler()
        membership, reference = Membership(), ReferenceRegistry()
        membership.enter(SimProcess("p", engine))
        reference.enter("p", 0.0, False)
        with pytest.raises(ProcessError):
            membership.enter(SimProcess("p", engine))
        with pytest.raises(ProcessError):
            reference.enter("p", 0.0, False)

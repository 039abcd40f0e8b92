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

A step may also enter a batch of processes through one bulk
:meth:`Membership.enter` (the way ``DynamicSystem`` enters its seeds).
A batch that reuses an identity — twice within itself, or one already
entered — is refused by name and leaves nothing of it entered: not a
registry entry, not a back-reference, not the cached active list.

The same sequences hold the in-place reader draw
(:meth:`Membership.draw_active`) to the draw it replaced,
``rng.choice(active_pids())`` over a fresh copy — with and without one
pid excluded — pid for pid and RNG state for RNG state.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import EventScheduler
from repro.sim.errors import ProcessError, UnknownProcessError
from repro.sim.membership import Membership
from repro.sim.process import ProcessMode, SimProcess

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

#: A bulk entry: one flag per process (a seed, or a joiner), how the
#: batch reuses an identity (not at all, twice within itself, or one
#: already entered) and where.
batches = st.tuples(
    st.just("batch"),
    advances,
    st.lists(st.booleans(), max_size=5),
    st.sampled_from((None, "inside", "entered")),
    st.integers(min_value=0, max_value=40),
)

steps = st.lists(
    st.one_of(
        batches,
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


def bulk_entry(
    engine: EventScheduler, entered: list[SimProcess], step: tuple
) -> tuple[list[SimProcess], str | None]:
    """The batch a ``batches`` step describes, and the identity it
    reuses (``None``: a batch of fresh identities)."""
    _, _, seeds, reuse, at = step
    batch = [
        SimProcess(f"p{len(entered) + i:03d}", engine, active=seed)
        for i, seed in enumerate(seeds)
    ]
    reused = None
    if reuse == "inside" and batch:
        reused = batch[at % len(batch)].pid
    elif reuse == "entered" and entered:
        reused = entered[at % len(entered)].pid
    if reused is not None:
        batch.insert(at % (len(batch) + 1), SimProcess(reused, engine))
    return batch, reused


def old_draw(membership: Membership, rng: random.Random, exclude: str | None):
    """The drivers' reader draw before it moved into the membership."""
    candidates = membership.active_pids()
    if exclude is not None:
        candidates = [pid for pid in candidates if pid != exclude]
    if not candidates:
        return None
    return rng.choice(candidates)


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
        assert process._entered_at == record.entered_at
        assert process._activated_at == record.activated_at
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
            elif kind == "batch":
                batch, reused = bulk_entry(engine, entered, step)
                if reused is None:
                    membership.enter(*batch)
                    for process in batch:
                        reference.enter(process.pid, now, process.is_active)
                    entered.extend(batch)
                else:
                    cached = membership._active_list()
                    with pytest.raises(ProcessError, match=re.escape(repr(reused))):
                        membership.enter(*batch)
                    # Refused before anything was mutated.
                    assert all(process._registry is None for process in batch)
                    assert membership._active is cached
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

    @given(
        steps=steps,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        excluded=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_the_in_place_draw_is_the_old_draw(self, steps, seed, excluded):
        engine = EventScheduler()
        membership = Membership()
        entered: list[SimProcess] = []
        new_rng, old_rng = random.Random(seed), random.Random(seed)
        for step in steps:
            kind, advance = step[0], step[1]
            engine.run_until(engine.now + advance)
            if kind in ("enter", "enter-seed"):
                process = SimProcess(
                    f"p{len(entered):03d}", engine, active=kind == "enter-seed"
                )
                membership.enter(process)
                entered.append(process)
            elif kind == "batch":
                batch, reused = bulk_entry(engine, entered, step)
                if reused is None:
                    membership.enter(*batch)
                    entered.extend(batch)
            elif kind != "ghost" and entered:
                process = entered[step[2] % len(entered)]
                if kind == "activate":
                    if process._mode is ProcessMode.LISTENING:
                        process.mark_active()
                elif process.left_at is None:
                    process.depart()
                    membership.leave(process.pid, engine.now)
            exclude = entered[excluded % len(entered)].pid if entered else None
            for left_out in (None, exclude):
                drawn = membership.draw_active(new_rng, left_out)
                assert (drawn.pid if drawn else None) == old_draw(
                    membership, old_rng, left_out
                )
                assert drawn is None or drawn is membership.process(drawn.pid)
                assert new_rng.getstate() == old_rng.getstate()
            # ``active_pids`` still hands out a fresh list to mutate.
            pids = membership.active_pids()
            pids.append("mutated")
            assert "mutated" not in membership.active_pids()
            assert membership.active_pids() is not membership.active_pids()

    def test_identity_reuse_is_refused_by_both(self):
        engine = EventScheduler()
        membership, reference = Membership(), ReferenceRegistry()
        membership.enter(SimProcess("p", engine))
        reference.enter("p", 0.0, False)
        with pytest.raises(ProcessError):
            membership.enter(SimProcess("p", engine))
        with pytest.raises(ProcessError):
            reference.enter("p", 0.0, False)

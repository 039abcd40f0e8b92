"""Unit tests for the discrete-event scheduler.

Besides the scheduler's public contract this file pins the calendar
queue's own corners — bucket-boundary instants, the overflow heap,
cancel-storm compaction, drain-time re-scheduling — and checks random
schedule/cancel/run scripts against a flat sorted list, the executable
specification of the ``(time, priority, sequence)`` order.
"""

import math
import random
import time

import pytest

from repro.sim.engine import EventScheduler
from repro.sim.errors import SchedulerError
from repro.sim.events import Priority, SlabEntry
from tests.conftest import pending_entries


class TestScheduling:
    def test_events_fire_in_time_order(self, engine):
        fired = []
        engine.schedule(5.0, fired.append, "late")
        engine.schedule(1.0, fired.append, "early")
        engine.schedule(3.0, fired.append, "middle")
        engine.run()
        assert fired == ["early", "middle", "late"]

    def test_clock_tracks_fired_event(self, engine):
        times = []
        engine.schedule(2.0, lambda: times.append(engine.now))
        engine.schedule(4.0, lambda: times.append(engine.now))
        engine.run()
        assert times == [2.0, 4.0]
        assert engine.now == 4.0

    def test_schedule_at_absolute_time(self, engine):
        fired = []
        engine.schedule_at(7.0, fired.append, "x")
        engine.run()
        assert fired == ["x"]
        assert engine.now == 7.0

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SchedulerError):
            engine.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self, engine):
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SchedulerError):
            engine.schedule_at(4.0, lambda: None)

    def test_a_zero_delay_fires_at_current_time(self, engine):
        fired = []
        engine.schedule(3.0, lambda: engine.schedule(0.0, fired.append, engine.now))
        engine.run()
        assert fired == [3.0]


class TestSimultaneousEvents:
    def test_priority_orders_simultaneous_events(self, engine):
        fired = []
        engine.schedule(1.0, fired.append, "churn", priority=Priority.CHURN)
        engine.schedule(1.0, fired.append, "delivery", priority=Priority.DELIVERY)
        engine.schedule(1.0, fired.append, "timer", priority=Priority.TIMER)
        engine.run()
        assert fired == ["delivery", "timer", "churn"]

    def test_sequence_breaks_remaining_ties(self, engine):
        fired = []
        for i in range(10):
            engine.schedule(1.0, fired.append, i, priority=Priority.TIMER)
        engine.run()
        assert fired == list(range(10))


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, engine):
        fired = []
        handle = engine.schedule(1.0, fired.append, "nope")
        handle.cancel()
        engine.run()
        assert fired == []

    def test_cancel_is_idempotent(self, engine):
        handle = engine.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        engine.run()

    def test_pending_count_excludes_cancelled(self, engine):
        keep = engine.schedule(1.0, lambda: None)
        drop = engine.schedule(2.0, lambda: None)
        drop.cancel()
        assert engine.pending_count == 1
        assert len(pending_entries(engine)) == 1
        keep.cancel()
        assert engine.pending_count == 0


class TestRunUntil:
    def test_run_until_stops_at_horizon(self, engine):
        fired = []
        engine.schedule(1.0, fired.append, "in")
        engine.schedule(10.0, fired.append, "out")
        engine.run_until(5.0)
        assert fired == ["in"]
        assert engine.now == 5.0
        assert engine.pending_count == 1

    def test_run_until_includes_events_at_horizon(self, engine):
        fired = []
        engine.schedule(5.0, fired.append, "edge")
        engine.run_until(5.0)
        assert fired == ["edge"]

    def test_run_until_can_resume(self, engine):
        fired = []
        engine.schedule(1.0, fired.append, "a")
        engine.schedule(8.0, fired.append, "b")
        engine.run_until(5.0)
        engine.run_until(10.0)
        assert fired == ["a", "b"]

    def test_run_until_past_horizon_rejected(self, engine):
        engine.run_until(5.0)
        with pytest.raises(SchedulerError):
            engine.run_until(4.0)

    def test_max_events_limits_execution(self, engine):
        fired = []
        for i in range(5):
            engine.schedule(float(i + 1), fired.append, i)
        executed = engine.run(max_events=3)
        assert executed == 3
        assert fired == [0, 1, 2]


class TestHandlersSchedulingMore:
    def test_handler_can_schedule_followups(self, engine):
        fired = []

        def chain(depth: int) -> None:
            fired.append(depth)
            if depth < 3:
                engine.schedule(1.0, chain, depth + 1)

        engine.schedule(1.0, chain, 0)
        engine.run()
        assert fired == [0, 1, 2, 3]
        assert engine.now == 4.0

    def test_fired_count_accumulates(self, engine):
        for i in range(4):
            engine.schedule(float(i), lambda: None)
        engine.run()
        assert engine.fired_count == 4

    def test_step_fires_exactly_one(self, engine):
        fired = []
        engine.schedule(1.0, fired.append, "a")
        engine.schedule(2.0, fired.append, "b")
        assert engine.step() is True
        assert fired == ["a"]
        assert engine.step() is True
        assert engine.step() is False

    def test_pending_entries_in_firing_order(self, engine):
        engine.schedule(3.0, lambda: None, label="c")
        engine.schedule(1.0, lambda: None, label="a")
        engine.schedule(2.0, lambda: None, label="b")
        labels = [entry[3].label for entry in pending_entries(engine)]
        assert labels == ["a", "b", "c"]


class TestNonFiniteInstants:
    """NaN/inf instants must raise instead of corrupting queue order.

    A NaN compares false against everything, silently breaking every
    sort and heap invariant; +inf would park an event that can never
    fire.  Both are rejected at schedule time.
    """

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_schedule_rejects_non_finite_delay(self, engine, bad):
        with pytest.raises(SchedulerError):
            engine.schedule(bad, lambda: None)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_schedule_at_rejects_non_finite_instant(self, engine, bad):
        with pytest.raises(SchedulerError):
            engine.schedule_at(bad, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_schedule_slab_rejects_non_finite_instant(self, engine, bad):
        entry = _CountingSlab()
        with pytest.raises(SchedulerError):
            engine.schedule_slab(bad, Priority.DELIVERY, entry)
        assert engine.pending_count == 0

    def test_rejection_leaves_queue_usable(self, engine):
        fired = []
        engine.schedule(1.0, fired.append, "ok")
        with pytest.raises(SchedulerError):
            engine.schedule(float("nan"), fired.append, "bad")
        engine.run()
        assert fired == ["ok"]

    def test_run_until_rejects_non_finite_horizon(self, engine):
        with pytest.raises(SchedulerError):
            engine.run_until(float("nan"))
        with pytest.raises(SchedulerError):
            engine.run_until(float("inf"))


class _CountingSlab(SlabEntry):
    __slots__ = ("fired",)

    def __init__(self) -> None:
        self.fired = 0

    def fire(self) -> None:
        self.fired += 1


class TestConstruction:
    @pytest.mark.parametrize("width", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_bucket_width(self, width):
        with pytest.raises(SchedulerError):
            EventScheduler(bucket_width=width)

    @pytest.mark.parametrize("width", [0.2, 1.0, 7.5])
    def test_width_never_changes_the_order(self, width):
        engine = EventScheduler(bucket_width=width)
        fired = []
        for i, t in enumerate([3.0, 0.1, 7.5, 0.1, 15.0, 2.9]):
            engine.schedule_at(t, fired.append, (t, i))
        engine.run()
        assert fired == sorted(fired)


class TestBucketBoundaries:
    """Instants on exact epoch boundaries (default width 1.0)."""

    def test_boundary_instants_fire_in_tuple_order(self, engine):
        fired = []
        # Exact multiples of the width land on bucket boundaries;
        # epsilon-neighbours straddle them.
        instants = [2.0, 1.0, 1.0 - 1e-12, 1.0 + 1e-12, 3.0, 0.0, 2.0]
        for i, t in enumerate(instants):
            engine.schedule_at(t, fired.append, (t, i))
        assert engine.run() == len(instants)
        assert fired == sorted(fired)

    def test_negative_zero_and_tiny_instants(self, engine):
        order = []
        for t in (0.0, -0.0, 5e-324, 1e-300):
            engine.schedule_at(t, order.append, t)
        engine.run()
        # 0.0 == -0.0, so the sequence number decides between them.
        assert [repr(t) for t in order] == ["0.0", "-0.0", "5e-324", "1e-300"]


class TestCompaction:
    """Lazy deletion must not let dead entries dominate the queue."""

    def test_cancel_storm_keeps_dead_bounded_by_live(self, engine):
        live = [engine.schedule(float(i + 1), lambda: None) for i in range(8)]
        doomed = [
            engine.schedule(float(i + 100), lambda: None) for i in range(1000)
        ]
        for handle in doomed:
            handle.cancel()
        # The invariant _note_cancelled maintains: dead queue slots never
        # outnumber live ones, so the queue stays O(live).
        assert engine._dead <= engine._occupied_slots() - engine._dead
        assert engine._occupied_slots() <= 2 * len(live)
        assert engine.pending_count == len(live)
        assert engine.run() == len(live)

    def test_interleaved_cancel_storms_stay_bounded(self, engine):
        keeper = engine.schedule(1e6, lambda: None)
        for _ in range(20):
            batch = [
                engine.schedule(float(i + 10), lambda: None) for i in range(50)
            ]
            for handle in batch:
                handle.cancel()
            assert engine._dead <= engine._occupied_slots() - engine._dead
        assert engine.pending_count == 1
        assert not keeper.cancelled

    def test_compaction_preserves_firing_order(self, engine):
        fired = []
        for i in range(6):
            engine.schedule(float(i + 1), fired.append, i)
        doomed = [
            engine.schedule(float(i + 50), fired.append, "no") for i in range(200)
        ]
        for handle in doomed:
            handle.cancel()
        engine.run()
        assert fired == list(range(6))

    def test_scattered_cancels_across_many_buckets(self, engine):
        fired = []
        events = [
            engine.schedule_at(float(i % 17) + 0.25, fired.append, i)
            for i in range(400)
        ]
        # Most of the queue, in a scattered pattern: the dead/live ratio
        # crosses the compaction threshold many times over.
        for i, event in enumerate(events):
            if i % 5 != 0:
                event.cancel()
        assert engine.pending_count == 80
        assert engine.run() == 80
        assert fired == sorted(range(0, 400, 5), key=lambda i: (i % 17, i))

    def test_cancel_across_all_three_regions(self, engine):
        """Overflow, active bucket, and future buckets all compact."""
        survivors = []
        far = [engine.schedule_at(3.5, survivors.append, "far") for _ in range(6)]
        # Drive the clock into epoch 1, parking mid-bucket, so later
        # same-epoch pushes land in the overflow heap.
        engine.schedule_at(1.25, survivors.append, "early")
        engine.run_until(1.3)
        near = [
            engine.schedule_at(1.5, survivors.append, "near") for _ in range(6)
        ]
        for event in far[1:] + near[1:]:
            event.cancel()
        engine.run()
        assert survivors == ["early", "near", "far"]
        assert engine.pending_count == 0
        assert engine._occupied_slots() == 0

    def test_cancel_in_a_bucket_not_yet_sorted(self, engine):
        fired = []
        keep = engine.schedule_at(2.5, fired.append, "keep")
        drop = engine.schedule_at(2.5, fired.append, "drop")
        drop.cancel()
        engine.run()
        assert fired == ["keep"]
        assert not keep.cancelled and drop.cancelled

    def test_cancel_cost_does_not_grow_with_bucket_count(self, engine):
        """Regression: occupancy used to be recounted over every bucket
        on every cancel, so this storm took 15-24 s."""
        keepers = 50
        for i in range(keepers):
            engine.schedule_at(float(i) + 0.75, lambda: None)
        doomed = [
            engine.schedule_at(float(i) + 0.5, lambda: None)
            for i in range(20_000)
        ]
        assert len(engine._buckets) >= 4_000
        start = time.perf_counter()
        for handle in doomed:
            handle.cancel()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"20 000 cancels took {elapsed:.2f} s"
        assert engine._dead <= engine._occupied_slots() - engine._dead
        assert engine._occupied_slots() <= 2 * keepers
        assert engine.run() == keepers


class TestDrainReentry:
    def test_a_zero_delay_from_a_handler_interleaves_by_priority(self, engine):
        """A zero-delay ``schedule`` from a firing handler lands in the
        overflow heap and fires within the same drain — after the
        same-instant TIMER peer, because OPERATION ranks below TIMER."""
        fired = []

        def chain():
            fired.append("first")
            engine.schedule(0.0, fired.append, "soon", priority=Priority.OPERATION)

        engine.schedule_at(1.0, chain)
        engine.schedule_at(1.0, fired.append, "peer")
        engine.schedule_at(1.5, fired.append, "later")
        engine.run()
        assert fired == ["first", "peer", "soon", "later"]

    def test_handler_schedules_into_the_active_epoch(self, engine):
        """A push into the active epoch (but a later instant) must
        interleave correctly with the already-sorted bucket."""
        fired = []

        def spawn():
            fired.append("a")
            # 0.45 and 0.75 sit inside the active epoch-0 bucket;
            # 0.5 is already queued between them.
            engine.schedule_at(0.45, fired.append, "b")
            engine.schedule_at(0.75, fired.append, "d")

        engine.schedule_at(0.25, spawn)
        engine.schedule_at(0.5, fired.append, "c")
        engine.run()
        assert fired == ["a", "b", "c", "d"]

    def test_run_until_parks_and_resumes_across_epochs(self, engine):
        fired = []
        for t in (0.5, 1.5, 2.5, 3.5):
            engine.schedule_at(t, fired.append, t)
        assert engine.run_until(2.0) == 2
        assert engine.now == 2.0
        assert fired == [0.5, 1.5]
        assert engine.pending_count == 2
        assert engine.next_event_time() == 2.5
        assert engine.run_until(10.0) == 2
        assert engine.now == 10.0
        assert fired == [0.5, 1.5, 2.5, 3.5]
        assert engine.next_event_time() is None

    def test_not_reentrant(self, engine):
        def reenter():
            with pytest.raises(SchedulerError):
                engine.run()

        engine.schedule_at(1.0, reenter)
        assert engine.run() == 1


class TestAgainstSortedListReference:
    """Randomized schedule/cancel/run scripts.  The oracle is a flat
    list of ``(time, priority, sequence, step)`` rows sorted on demand —
    the specification the calendar's three regions must reproduce."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_script(self, seed):
        rng = random.Random(seed)
        engine = EventScheduler()
        fired = []
        expected = []
        rows = []  # the reference queue
        handles = []  # parallel to ``rows``
        for step in range(200):
            roll = rng.random()
            if roll < 0.55:
                # Occasionally land exactly on a bucket boundary.
                if rng.random() < 0.2:
                    instant = engine.now + float(rng.randrange(1, 5))
                else:
                    instant = engine.now + rng.random() * 4.0
                priority = rng.choice(
                    [Priority.DELIVERY, Priority.TIMER, Priority.PROBE]
                )
                handles.append(
                    engine.schedule_at(
                        instant, fired.append, step, priority=priority
                    )
                )
                rows.append((instant, int(priority), step, step))
            elif roll < 0.75 and rows:
                index = rng.randrange(len(rows))
                handles.pop(index).cancel()
                rows.pop(index)
            else:
                horizon = engine.now + rng.random() * 3.0
                due = sorted(row for row in rows if row[0] <= horizon)
                assert engine.run_until(horizon) == len(due)
                expected.extend(row[3] for row in due)
                keep = [i for i, row in enumerate(rows) if row[0] > horizon]
                rows = [rows[i] for i in keep]
                handles = [handles[i] for i in keep]
                assert fired == expected
                assert engine.pending_count == len(rows)
        expected.extend(row[3] for row in sorted(rows))
        assert engine.run() == len(rows)
        assert fired == expected
        assert engine.pending_count == 0

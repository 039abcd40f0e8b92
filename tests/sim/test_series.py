"""``schedule_series`` is per-item ``schedule_at``, built an epoch at a time.

The plan install rests on this: a series over the stably sorted plan
must be indistinguishable — firing order, ``pending_count`` /
``fired_count`` / ``next_event_time()`` after every step, the sequence
number handed to whatever is scheduled next — from scheduling each item
with ``schedule_at`` in list order, whatever else shares its instants.
CI runs this file as its own step ("plan series ≡ per-op scheduling").
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import EventScheduler
from repro.sim.errors import SchedulerError
from repro.sim.events import Priority
from tests.conftest import pending_entries

#: Few distinct instants, so plans tie with each other and with timers.
instants = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 2.5, 3.0, 7.25, 9.0])
priorities = st.sampled_from(
    [Priority.TIMER, Priority.OPERATION, Priority.OPERATION, Priority.CHURN]
)
timers = st.lists(st.tuples(instants, priorities), max_size=12)


class World:
    """One engine and everything observed of it."""

    def __init__(self, width: float, spawning: frozenset[int]) -> None:
        self.engine = EventScheduler(bucket_width=width)
        self.spawning = spawning
        self.log: list[tuple] = []
        self.observed: list[tuple] = []

    def timer(self, instant: float, priority: int, tag: tuple):
        return self.engine.schedule_at(
            instant, self.log.append, tag, priority=priority
        )

    def fire(self, item: int) -> None:
        engine = self.engine
        self.log.append(("op", item, engine.now))
        if item in self.spawning:
            # At the current instant and the series' own priority: must
            # land after every planned op already tied here.
            engine.schedule(0.0, self.log.append, ("soon", item), priority=Priority.OPERATION)
            engine.schedule(0.5, self.log.append, ("later", item))

    def install(self, plan: list[float], series: bool) -> None:
        if series:
            order = sorted(range(len(plan)), key=plan.__getitem__)
            self.engine.schedule_series(
                [plan[item] for item in order],
                self.fire,
                order,
                priority=Priority.OPERATION,
            )
        else:
            for item, instant in enumerate(plan):
                self.engine.schedule_at(
                    instant, self.fire, item, priority=Priority.OPERATION
                )

    def observe(self) -> None:
        engine = self.engine
        self.observed.append(
            (
                engine.now,
                engine.pending_count,
                engine.fired_count,
                engine.next_event_time(),
                len(self.log),
            )
        )


def both_worlds(width, spawning, before, plan, cancelled, after):
    worlds = []
    for series in (False, True):
        world = World(width, frozenset(spawning))
        handles = [
            world.timer(instant, priority, ("before", index))
            for index, (instant, priority) in enumerate(before)
        ]
        world.install(plan, series)
        # The block of sequence numbers was reserved whole.
        probe = world.timer(9.5, Priority.OPERATION, ("probe",))
        assert probe.sequence == len(before) + len(plan)
        for index in cancelled:  # may trigger a compaction around the series
            if index < len(handles):
                handles[index].cancel()
        for index, (instant, priority) in enumerate(after):
            world.timer(instant, priority, ("after", index))
        world.observe()
        worlds.append(world)
    return worlds


@given(
    width=st.sampled_from([0.2, 1.0, 50.0]),
    before=timers,
    plan=st.lists(instants, max_size=25),
    after=timers,
    cancelled=st.sets(st.integers(min_value=0, max_value=11)),
    spawning=st.sets(st.integers(min_value=0, max_value=24), max_size=6),
    horizons=st.lists(
        st.floats(min_value=0.0, max_value=11.0), max_size=5
    ).map(sorted),
)
@settings(max_examples=300, deadline=None)
def test_series_is_per_item_scheduling_under_stepped_horizons(
    width, before, plan, after, cancelled, spawning, horizons
):
    reference, series = both_worlds(width, spawning, before, plan, cancelled, after)
    for world in (reference, series):
        for horizon in horizons:
            world.engine.run_until(horizon)
            world.observe()
        world.engine.run()
        world.observe()
    assert series.log == reference.log
    assert series.observed == reference.observed
    assert series.engine.pending_count == 0
    planned = [entry[1] for entry in series.log if entry[0] == "op"]
    assert sorted(planned) == list(range(len(plan)))


@given(
    width=st.sampled_from([0.2, 1.0, 50.0]),
    before=timers,
    plan=st.lists(instants, max_size=25),
    after=timers,
    spawning=st.sets(st.integers(min_value=0, max_value=24), max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_series_is_per_item_scheduling_one_step_at_a_time(
    width, before, plan, after, spawning
):
    reference, series = both_worlds(width, spawning, before, plan, (), after)
    while True:
        stepped = [world.engine.step() for world in (reference, series)]
        assert stepped[0] == stepped[1]
        if not stepped[0]:
            break
        reference.observe()
        series.observe()
        assert series.observed[-1] == reference.observed[-1]
    assert series.log == reference.log


def test_a_series_holds_no_queue_slot_before_its_epoch():
    """A series is one vector: an item's entry is built only once the
    clock reaches its epoch (four items an epoch here)."""
    engine = EventScheduler()
    fired = []
    engine.schedule_series(
        [0.25 * k for k in range(4, 4004)], fired.append, range(4000)
    )
    assert engine._occupied_slots() == 0
    assert engine.pending_count == 4000
    assert [type(entry[3]).__name__ for entry in pending_entries(engine)] == [
        "_Series"
    ] * 4000
    assert engine.run_until(500.0) == 1997
    # The rest of epoch 500 — 500.25, 500.5, 500.75 — and nothing else.
    assert engine._occupied_slots() == 3 and engine.pending_count == 2003
    assert engine.run() == 2003
    assert fired == list(range(4000))
    assert engine._occupied_slots() == 0 and engine.fired_count == 4000


def test_a_series_installed_from_a_running_handler():
    worlds = []
    for series in (False, True):
        world = World(1.0, frozenset({1}))
        world.engine.schedule_at(
            2.0, world.install, [2.0, 5.0, 2.0, 3.5], series, priority=Priority.CHURN
        )
        world.timer(2.0, Priority.OPERATION, ("early",))
        world.engine.run()
        worlds.append(world)
    assert worlds[0].log == worlds[1].log
    assert worlds[1].log == [
        ("early",),
        ("op", 0, 2.0),
        ("op", 2, 2.0),
        ("op", 3, 3.5),
        ("op", 1, 5.0),
        ("soon", 1),
        ("later", 1),
    ]


def test_integer_instants_fire_at_float_times():
    engine = EventScheduler()
    seen = []
    engine.schedule_series([1, 2], lambda _: seen.append(engine.now), "ab")
    engine.run()
    assert seen == [1.0, 2.0] and all(type(t) is float for t in seen)


def test_an_empty_series_is_nothing():
    engine = EventScheduler()
    engine.schedule_series([], print, [])
    assert engine.pending_count == 0 and engine._occupied_slots() == 0
    assert engine.schedule_at(1.0, print).sequence == 0


@pytest.mark.parametrize(
    "bad, match",
    [
        ([6.0, float("nan")], "position 1 at nan"),
        ([6.0, float("inf")], "position 1 at inf"),
        ([float("-inf"), 6.0], "position 0 at -inf"),
        ([2.0, 6.0], "position 0 at 2.0.* 5.0 comes before"),
        ([6.0, 8.0, 7.0], "position 2 at 7.0.* 8.0 comes before"),
    ],
)
def test_a_bad_series_is_refused_whole(bad, match):
    engine = EventScheduler()
    engine.run_until(5.0)
    with pytest.raises(SchedulerError, match=match):
        engine.schedule_series(bad, print, range(len(bad)))
    assert engine.pending_count == 0 and engine._occupied_slots() == 0
    assert engine.schedule_at(6.0, print).sequence == 0


def test_a_series_needs_one_instant_per_item():
    with pytest.raises(SchedulerError, match="2 instants for 1 items"):
        EventScheduler().schedule_series([1.0, 2.0], print, ["only"])

"""Same victims, same stream.

``ChurnController._choose_victims`` no longer walks the population
through the ``entered_at`` property: with ``min_stay == 0`` it copies
the present pids and removes the protected few.  The walk it replaced
lives on below as the reference; over random memberships the new body
must return exactly the reference's victims, in its order, and leave
the ``churn.victims`` stream in the same state.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn.controller import ChurnController
from repro.churn.model import ConstantChurn
from repro.sim.engine import EventScheduler
from repro.sim.membership import Membership
from repro.sim.process import SimProcess
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog


def reference_victims(controller, rng, quota, now):
    """The full-population filter → sort / ``sample`` this PR replaced."""
    if quota <= 0:
        return []
    eligible = [
        process
        for process in controller.membership.present_processes()
        if process.pid not in controller._protected
        and now - process.entered_at >= controller.min_stay
    ]
    if len(eligible) <= quota:
        return [process.pid for process in eligible]
    if controller.victim_policy == "oldest_first":
        eligible.sort(key=lambda process: (process.entered_at, process.pid))
        return [process.pid for process in eligible[:quota]]
    return rng.sample([process.pid for process in eligible], quota)


@st.composite
def scenarios(draw):
    count = draw(st.integers(min_value=1, max_value=30))
    # Gaps of 0 make entry instants tie; a base of 9990 makes the pids
    # straddle the p9999 / p10000 width change (string order flips).
    gaps = draw(
        st.lists(
            st.sampled_from((0.0, 0.0, 0.5, 1.0, 2.5)),
            min_size=count, max_size=count,
        )
    )
    base = draw(st.sampled_from((1, 9990)))
    indices = st.integers(min_value=0, max_value=count - 1)
    return {
        "pids": [f"p{base + i:04d}" for i in range(count)],
        "gaps": gaps,
        "departed": draw(st.sets(indices, max_size=count // 2)),
        # Protected identities: present ones, departed ones, and one
        # that never entered at all.
        "protected": draw(st.sets(indices, max_size=count)),
        "ghost": draw(st.booleans()),
        "quota": draw(st.integers(min_value=0, max_value=count + 2)),
        "after": draw(st.sampled_from((0.0, 1.0, 3.0))),
        "policy": draw(st.sampled_from(("uniform", "oldest_first"))),
        "min_stay": draw(st.sampled_from((0.0, 2.5))),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
    }


def build(scenario) -> ChurnController:
    engine, membership = EventScheduler(), Membership()
    instant = 0.0
    for pid, gap in zip(scenario["pids"], scenario["gaps"]):
        instant += gap
        engine.run_until(instant)
        membership.enter(SimProcess(pid, engine))
    for index in sorted(scenario["departed"]):
        pid = scenario["pids"][index]
        membership.process(pid).depart()
        membership.leave(pid, engine.now)
    engine.run_until(instant + scenario["after"])
    protected = {scenario["pids"][index] for index in scenario["protected"]}
    if scenario["ghost"]:
        protected.add("p0000")
    return ChurnController(
        engine=engine,
        membership=membership,
        trace=TraceLog(enabled=False),
        rng=RngRegistry(seed=scenario["seed"]),
        churn=ConstantChurn(rate=0.1, n=len(scenario["pids"])),
        spawn=lambda: "unused",
        depart=lambda pid: None,
        protected=protected,
        min_stay=scenario["min_stay"],
        victim_policy=scenario["policy"],
    )


@given(scenario=scenarios())
@settings(max_examples=250, deadline=None)
def test_same_victims_and_same_rng_state_as_the_full_scan(scenario):
    controller = build(scenario)
    now, quota = controller.engine.now, scenario["quota"]
    shadow = random.Random()
    shadow.setstate(controller._rng.getstate())
    expected = reference_victims(controller, shadow, quota, now)
    present_before = controller.membership.present_pids()
    assert controller._choose_victims(quota, now) == expected
    assert controller._rng.getstate() == shadow.getstate()
    # Choosing is a pure query: the registry it read is untouched.
    assert controller.membership.present_pids() == present_before


def test_the_width_change_orders_ties_by_string_not_by_number():
    controller = build({
        "pids": ["p9999", "p10000", "p10001"], "gaps": [0.0, 0.0, 0.0],
        "departed": set(), "protected": set(), "ghost": False, "quota": 2,
        "after": 1.0, "policy": "oldest_first", "min_stay": 0.0, "seed": 0,
    })
    assert controller._choose_victims(2, controller.engine.now) == [
        "p10000", "p10001",
    ]

"""Property tests for the fault subsystem.

Three families of claims:

* **In-model robustness** — with faults confined to the model's
  assumptions (loss at or below the broadcast-cover threshold,
  defer-partitions shorter than the synchronous bound, crash-style
  departures), regularity still holds across all three protocols.
  Violating one of these cases would be a genuine protocol bug, not an
  expected breakage.
* **Fault-schedule determinism** — the same seed replays the exact
  same fault schedule: byte-identical history digests across repeated
  runs, for every library plan.
* **Gate transparency** — a run with no fault plan is byte-identical
  to the pre-faults kernel (the pinned PR 1 digest), and installing an
  *empty* plan draws no randomness, so it is byte-identical too.
* **The window index is the full scan** — the injector's indexed
  ``on_transmit`` against a copy of the plan scan it replaced, over
  random plans and random, non-monotone instants.
* **The loss gate is the full scan** — an injector whose gated classes
  have their losses drawn outside it, on its own gate table (what the
  network's transmit sites do), against one called for every message;
  each gate against the plan; two mutant gates caught; then those sites
  themselves in whole runs.  CI runs this family and the exact-count
  ratchet as their own step ("a quorum message is one probe").
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import operation_digest
from repro.faults import (
    CrashFault,
    DelaySpikeFault,
    FaultInjector,
    FaultPlan,
    LossFault,
    PartitionFault,
)
from repro.faults.injector import REASON_LOSS, REASON_PARTITION
from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem
from repro.workloads.explorer import ScenarioSpec, build_plan, run_scenario
from tests.digests import history_digest
from tests.golden import expected

DELTA = 5.0

#: The fixed-seed determinism digest, recorded before the fault
#: subsystem existed.  A no-fault-plan run must keep reproducing it
#: byte for byte; only a change that *intentionally* moves scheduling,
#: RNG draws or churn accounting may update it (by regenerating the
#: golden store, and saying so).
PRE_FAULTS_DIGEST = expected("digest/digest")


def in_model_plan(n: int) -> FaultPlan:
    """Loss below the cover threshold, a defer partition shorter than
    delta, and a crash — all inside the paper's assumptions."""
    return FaultPlan.of(
        LossFault(probability=0.05, payload_types=frozenset({"Reply"})),
        PartitionFault(
            start=40.0,
            end=40.0 + 0.8 * DELTA,
            group_a=frozenset(f"p{i:04d}" for i in range(2, 2 + max(1, n // 3))),
            mode="defer",
        ),
        CrashFault(phase="WriteMsg", victim="dest", pid=f"p{n:04d}", occurrence=2),
        name="in-model-mix",
    )


def run_faulted(protocol: str, n: int, seed: int, plan: FaultPlan | None):
    """A churny read-heavy run with ``plan`` installed; returns the system."""
    system = DynamicSystem(
        SystemConfig(
            n=n, delta=DELTA, protocol=protocol, seed=seed, trace=False, faults=plan
        )
    )
    # ABD assumes a static universe, so only the dynamic protocols churn.
    if protocol != "abd":
        system.attach_churn(rate=0.02, min_stay=3.0 * DELTA)
    pending_write = None
    for _ in range(8):
        # Serialize writes like the workload driver does: quorum writes
        # can outlive the round under faults, and the checkers require
        # non-overlapping write intervals.
        if (
            pending_write is None or not pending_write.pending
        ) and system.membership.is_present(system.writer_pid):
            pending_write = system.write()
        system.run_for(8.0)
        for pid in system.active_pids()[:4]:
            system.read(pid)
        system.run_for(4.0)
    system.close()
    return system


class TestInModelFaultsPreserveRegularity:
    """Verified over pinned seeds: the plan's classification says
    in-model, and the checkers agree the history stays regular."""

    @pytest.mark.parametrize("protocol,n", [("sync", 15), ("es", 15), ("abd", 15)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_regularity_holds_under_in_model_faults(self, protocol, n, seed):
        plan = in_model_plan(n)
        assert plan.classify(DELTA, known_bound=DELTA).in_model
        system = run_faulted(protocol, n, seed, plan)
        assert system.faults is not None
        report = system.check_safety()
        assert report.is_safe, (
            f"in-model faults broke regularity on {protocol} seed {seed}: "
            f"{report.violations[0].explanation}"
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_in_model_faults_actually_fired(self, seed):
        # Guard against the property passing vacuously.
        system = run_faulted("sync", 15, seed, in_model_plan(15))
        counters = system.faults.counters()
        assert counters["lost"] + counters["deferred"] + counters["crashes_fired"] > 0

    def test_explorer_agrees_for_the_in_model_library_plans(self):
        for name in ("light-loss", "partition-defer", "writer-crash"):
            spec = ScenarioSpec(
                protocol="sync",
                delay="sync",
                churn_rate=0.02,
                plan=build_plan(name, DELTA, 120.0, 10),
                seed=0,
            )
            outcome = run_scenario(spec)
            assert outcome.classification.in_model
            assert outcome.safe, f"plan {name} violated regularity"


class TestFaultScheduleDeterminism:
    @pytest.mark.parametrize(
        "plan_name",
        ["light-loss", "heavy-loss", "partition-drop", "delay-spike", "writer-crash"],
    )
    def test_same_seed_same_history_digest(self, plan_name):
        plan = build_plan(plan_name, DELTA, 120.0, 15)
        digests = {
            operation_digest(run_faulted("sync", 15, 9, plan).history)
            for _ in range(2)
        }
        assert len(digests) == 1

    def test_different_seeds_draw_different_schedules(self):
        plan = build_plan("heavy-loss", DELTA, 120.0, 15)
        a = operation_digest(run_faulted("sync", 15, 9, plan).history)
        b = operation_digest(run_faulted("sync", 15, 10, plan).history)
        assert a != b

    def test_faulted_counters_are_reproducible(self):
        plan = build_plan("heavy-loss", DELTA, 120.0, 15)
        first = run_faulted("sync", 15, 9, plan)
        second = run_faulted("sync", 15, 9, plan)
        assert first.faults.counters() == second.faults.counters()
        assert first.network.faulted_count == second.network.faulted_count


class TestGateTransparency:
    def test_no_plan_reproduces_the_pre_faults_digest(self):
        assert history_digest() == PRE_FAULTS_DIGEST

    def test_empty_plan_is_byte_identical_to_no_plan(self):
        assert history_digest(faults=FaultPlan(name="empty")) == PRE_FAULTS_DIGEST

    def test_idle_plan_is_byte_identical_to_no_plan(self):
        # A plan whose only fault can never match (window beyond the
        # horizon) draws no randomness and must not perturb the run.
        idle = FaultPlan.of(
            PartitionFault(start=1e9, end=2e9, group_a=frozenset({"p0001"})),
            name="idle",
        )
        assert history_digest(faults=idle) == PRE_FAULTS_DIGEST

    def test_active_plan_changes_the_digest(self):
        # Sanity check that the digest is actually sensitive to faults.
        plan = build_plan("heavy-loss", DELTA, 120.0, 15)
        assert history_digest(faults=plan) != PRE_FAULTS_DIGEST


# ----------------------------------------------------------------------
# The window index against the full scan
# ----------------------------------------------------------------------


class FullScanInjector(FaultInjector):
    """``on_transmit`` as it was before the window index: every call
    walks the whole plan through the faults' own ``matches`` /
    ``severs`` predicates."""

    def on_transmit(self, sender, dest, payload, now, deliver_at, payload_type=None):
        if payload_type is None:
            payload_type = type(payload).__name__
        plan = self.plan
        for spike in plan.spikes:
            if spike.matches(sender, dest, payload_type, now):
                deliver_at = now + spike.apply(deliver_at - now)
                self.spiked_count += 1
        for partition in plan.partitions:
            if partition.severs(sender, dest, now):
                if partition.mode == "drop":
                    self.partition_dropped_count += 1
                    return deliver_at, REASON_PARTITION
                if partition.end > deliver_at:
                    deliver_at = partition.end
                    self.deferred_count += 1
        for loss in plan.losses:
            if loss.matches(sender, dest, payload_type, now):
                if self._rng.random() < loss.probability:
                    self.lost_count += 1
                    return deliver_at, REASON_LOSS
        return deliver_at, None


PIDS = ("a", "b", "c", "d")
PAYLOADS = {name: type(name, (), {})() for name in ("Ping", "Pong", "Data")}

#: Window bounds and call instants share one coarse grid, so calls land
#: exactly on ``start`` / ``end`` edges as often as strictly inside.
instants = st.integers(min_value=0, max_value=24).map(lambda tick: tick / 2.0)
pid_filter = st.none() | st.sampled_from(PIDS)
type_filter = st.none() | st.sets(st.sampled_from(sorted(PAYLOADS)), min_size=1)


@st.composite
def windows(draw, open_ended=True):
    start = draw(instants)
    length = draw(st.integers(min_value=1, max_value=16)) / 2.0
    if open_ended and draw(st.integers(min_value=0, max_value=3)) == 0:
        return start, None
    return start, start + length


@st.composite
def losses(draw):
    start, end = draw(windows())
    return LossFault(
        probability=draw(st.sampled_from([0.2, 0.5, 1.0])),
        start=start,
        end=end,
        payload_types=draw(type_filter),
        sender=draw(pid_filter),
        dest=draw(pid_filter),
    )


@st.composite
def spikes(draw):
    start, end = draw(windows())
    return DelaySpikeFault(
        start=start,
        end=end,
        factor=draw(st.sampled_from([0.5, 2.0, 4.0])),
        extra=draw(st.sampled_from([0.0, 1.5])),
        payload_types=draw(type_filter),
        sender=draw(pid_filter),
        dest=draw(pid_filter),
    )


@st.composite
def partitions(draw):
    start, end = draw(windows(open_ended=False))
    group_a = draw(st.sets(st.sampled_from(PIDS), min_size=1, max_size=3))
    rest = sorted(set(PIDS) - group_a)
    group_b = draw(st.none() | st.sets(st.sampled_from(rest), min_size=1))
    return PartitionFault(
        start=start,
        end=end,
        group_a=frozenset(group_a),
        group_b=None if group_b is None else frozenset(group_b),
        mode=draw(st.sampled_from(["drop", "defer"])),
    )


fault_plans = st.builds(
    lambda *kinds: FaultPlan.of(*(fault for kind in kinds for fault in kind)),
    st.lists(losses(), max_size=4),
    st.lists(spikes(), max_size=3),
    st.lists(partitions(), max_size=3),
)

#: ``(sender, dest, payload name, now, latency, pass the type name?)`` —
#: ``now`` is drawn independently per call, so the sequence jumps
#: backwards as freely as forwards, on and off the window grid.
transmissions = st.lists(
    st.tuples(
        st.sampled_from(PIDS),
        st.sampled_from(PIDS),
        st.sampled_from(sorted(PAYLOADS)),
        instants | st.floats(min_value=-1.0, max_value=14.0, allow_nan=False),
        st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


class TestWindowIndexIsTheFullScan:
    @given(plan=fault_plans, calls=transmissions, seed=st.integers(0, 2**16))
    @settings(max_examples=300, deadline=None)
    def test_same_verdicts_counters_and_rng_after_every_call(self, plan, calls, seed):
        indexed = FaultInjector(plan, random.Random(seed))
        scan = FullScanInjector(plan, random.Random(seed))
        for sender, dest, name, now, latency, named in calls:
            args = (sender, dest, PAYLOADS[name], now, now + latency)
            if named:
                args += (name,)
            assert indexed.on_transmit(*args) == scan.on_transmit(*args)
            assert indexed.counters() == scan.counters()
            assert indexed._rng.getstate() == scan._rng.getstate()

    def test_the_index_holds_only_the_live_faults_in_plan_order(self):
        early = LossFault(probability=0.5, start=0.0, end=4.0)
        typed = LossFault(probability=0.5, payload_types={"Pong"})
        late = LossFault(probability=0.5, start=3.0, end=9.0)
        spike = DelaySpikeFault(start=2.0, end=3.0, factor=2.0)
        injector = FaultInjector(
            FaultPlan.of(early, typed, late, spike), random.Random(1)
        )
        injector.on_transmit("a", "b", PAYLOADS["Ping"], 3.5, 4.0)
        assert (injector._from, injector._until) == (3.0, 4.0)
        assert injector._losses == (early, typed, late)
        assert injector._typed_losses == {"Ping": (early, late)}
        assert injector._spikes == ()
        injector.on_transmit("a", "b", PAYLOADS["Pong"], 2.0, 2.5)  # backwards
        assert (injector._from, injector._until) == (2.0, 3.0)
        assert injector._losses == (early, typed)
        assert injector._spikes == (spike,)
        injector.on_transmit("a", "b", PAYLOADS["Pong"], 50.0, 50.5)
        assert (injector._from, injector._until) == (9.0, float("inf"))
        assert injector._typed_losses == {"Pong": (typed,)}

    @pytest.mark.parametrize(
        "plan,gates",
        [
            (FaultPlan(), False),
            (FaultPlan.of(LossFault(probability=0.5)), False),
            (FaultPlan.of(DelaySpikeFault(factor=2.0)), False),
            (
                FaultPlan.of(
                    PartitionFault(start=1.0, end=2.0, group_a={"a"}, mode="defer")
                ),
                False,
            ),
            (FaultPlan.of(PartitionFault(start=1.0, end=2.0, group_a={"a"})), True),
            (FaultPlan.of(CrashFault(phase="Ping")), True),
        ],
    )
    def test_gates_delivery(self, plan, gates):
        assert FaultInjector(plan, random.Random(0)).gates_delivery is gates


# ----------------------------------------------------------------------
# The loss gate against the call it replaces
# ----------------------------------------------------------------------


def gate_at(injector, payload_class, now):
    """The loss gate the network's two transmit sites read: the
    injector's table, under the test ``on_transmit`` opens with."""
    if injector._from <= now < injector._until:
        return injector._gates.get(payload_class)
    return None


def through_the_gate(injector, sender, dest, payload, now, deliver_at):
    """The transmit gate as ``Network.send_payload`` and the fan-out arm
    apply it: a class gated at ``now`` has its losses drawn right here,
    in order, from the injector's own stream; any other message goes
    through ``on_transmit``."""
    gate = gate_at(injector, payload.__class__, now)
    if gate is None:
        return injector.on_transmit(sender, dest, payload, now, deliver_at)
    for probability in gate:
        if injector._rng.random() < probability:
            injector.lost_count += 1
            return deliver_at, REASON_LOSS
    return deliver_at, None


def first_divergence(gated, scan, calls):
    """The index of the first call after which ``gated``, called through
    the gate, and ``scan``, called for every message, disagree on the
    verdict, a counter or the RNG state; ``None`` if they never do."""
    for index, (sender, dest, name, now, latency, _) in enumerate(calls):
        args = (sender, dest, PAYLOADS[name], now, now + latency)
        if (
            through_the_gate(gated, *args) != scan.on_transmit(*args)
            or gated.counters() != scan.counters()
            or gated._rng.getstate() != scan._rng.getstate()
        ):
            return index
    return None


def live(fault, now):
    """Is ``fault``'s window open at ``now``, by the plan itself?"""
    return fault.start <= now and (fault.end is None or now < fault.end)


class Forgetful(dict):
    """A gate table that keeps nothing: every gate lookup misses."""

    def __setitem__(self, key, value):
        pass


class IgnoresLinkFilter(FaultInjector):
    """Mutant: gates a class whatever link its live losses are
    confined to."""

    def on_transmit(self, sender, dest, payload, now, deliver_at, payload_type=None):
        verdict = super().on_transmit(
            sender, dest, payload, now, deliver_at, payload_type
        )
        if not (self._spikes or self._partitions):
            self._gates[payload.__class__] = tuple(
                loss.probability
                for loss in self._typed_losses[payload_type or type(payload).__name__]
            )
        return verdict


class SkipsADraw(FaultInjector):
    """Mutant: a gate that draws only the first of its class's losses."""

    def on_transmit(self, sender, dest, payload, now, deliver_at, payload_type=None):
        verdict = super().on_transmit(
            sender, dest, payload, now, deliver_at, payload_type
        )
        gate = self._gates.get(payload.__class__)
        if gate:
            self._gates[payload.__class__] = gate[:1]
        return verdict


link_filtered_losses = st.builds(
    LossFault,
    probability=st.sampled_from([0.2, 1.0]),
    start=instants,
    payload_types=type_filter,
    sender=pid_filter,
    dest=st.sampled_from(PIDS),
) | st.builds(
    LossFault,
    probability=st.sampled_from([0.2, 1.0]),
    start=instants,
    payload_types=type_filter,
    sender=st.sampled_from(PIDS),
    dest=pid_filter,
)


class TestLossGateIsTheFullScan:
    @given(plan=fault_plans, calls=transmissions, seed=st.integers(0, 2**16))
    @settings(max_examples=300, deadline=None)
    def test_same_arrivals_counters_and_rng_after_every_message(
        self, plan, calls, seed
    ):
        """Windows open and close between sends and ``now`` jumps
        backwards as freely as forwards (``transmissions``)."""
        gated = FaultInjector(plan, random.Random(seed))
        scan = FullScanInjector(plan, random.Random(seed))
        assert first_divergence(gated, scan, calls) is None

    @given(plan=fault_plans, calls=transmissions)
    @settings(max_examples=200, deadline=None)
    def test_every_gate_is_its_live_unrestricted_losses_in_plan_order(
        self, plan, calls
    ):
        """After every message, each gate held is what the plan itself
        says at that instant: no spike or partition live, and exactly
        the probabilities of the live losses naming the class, every
        one of them on every link."""
        injector = FaultInjector(plan, random.Random(5))
        for sender, dest, name, now, latency, _ in calls:
            through_the_gate(injector, sender, dest, PAYLOADS[name], now, now + latency)
            for payload_class, gate in injector._gates.items():
                assert gate_at(injector, payload_class, now) == gate
                assert not any(live(f, now) for f in (*plan.spikes, *plan.partitions))
                naming = [
                    loss for loss in plan.losses
                    if live(loss, now) and (
                        loss.payload_types is None
                        or payload_class.__name__ in loss.payload_types
                    )
                ]
                assert all(loss.sender is None and loss.dest is None for loss in naming)
                assert gate == tuple(loss.probability for loss in naming)

    @given(
        untargeted=st.lists(
            st.builds(LossFault, probability=st.sampled_from([0.2, 1.0]),
                      sender=pid_filter, dest=pid_filter)
            | st.builds(DelaySpikeFault, factor=st.just(2.0), sender=pid_filter),
            min_size=1, max_size=3,
        ),
        others=fault_plans,
        calls=transmissions,
    )
    @settings(max_examples=100, deadline=None)
    def test_an_untargeted_live_fault_leaves_no_class_untouched(
        self, untargeted, others, calls
    ):
        """While a fault that names no payload type is live — here from
        0 on, whatever link it is confined to — no class's gate is
        ``()``."""
        plan = FaultPlan.of(
            *untargeted, *others.losses, *others.spikes, *others.partitions
        )
        injector = FaultInjector(plan, random.Random(3))
        for sender, dest, name, now, latency, _ in calls:
            through_the_gate(injector, sender, dest, PAYLOADS[name], now, now + latency)
            if now >= 0.0:  # an unwindowed fault is live on [0, inf)
                assert () not in injector._gates.values()

    @given(filtered=link_filtered_losses, others=fault_plans, calls=transmissions)
    @settings(max_examples=100, deadline=None)
    def test_a_link_filtered_loss_never_gets_a_gate(self, filtered, others, calls):
        """While a loss confined to a sender or a destination is live,
        no class it names is gated: ``on_transmit`` alone can tell
        which links it cuts."""
        plan = FaultPlan.of(
            filtered, *others.losses, *others.spikes, *others.partitions
        )
        injector = FaultInjector(plan, random.Random(4))
        for sender, dest, name, now, latency, _ in calls:
            through_the_gate(injector, sender, dest, PAYLOADS[name], now, now + latency)
            if live(filtered, now):
                assert not [
                    payload_class for payload_class in injector._gates
                    if filtered.payload_types is None
                    or payload_class.__name__ in filtered.payload_types
                ]

    @given(
        voiding=st.lists(spikes() | partitions(), min_size=1, max_size=2),
        others=fault_plans,
        calls=transmissions,
    )
    @settings(max_examples=100, deadline=None)
    def test_any_live_spike_or_partition_voids_every_gate(
        self, voiding, others, calls
    ):
        """Whatever payload types or links it names."""
        plan = FaultPlan.of(
            *voiding, *others.losses, *others.spikes, *others.partitions
        )
        injector = FaultInjector(plan, random.Random(6))
        for sender, dest, name, now, latency, _ in calls:
            through_the_gate(injector, sender, dest, PAYLOADS[name], now, now + latency)
            if any(live(fault, now) for fault in voiding):
                assert injector._gates == {}

    def test_a_gate_lasts_from_its_first_clean_pass_to_the_stretch_end(self):
        class Counting(FaultInjector):
            def on_transmit(self, sender, dest, payload, now, deliver_at):
                self.entered.append((type(payload).__name__, now))
                return super().on_transmit(sender, dest, payload, now, deliver_at)

        typed = LossFault(probability=1.0, payload_types={"Pong"})
        spike = DelaySpikeFault(start=4.0, end=6.0, factor=2.0, payload_types={"Data"})
        injector = Counting(FaultPlan.of(typed, spike), random.Random(1))
        injector.entered = []
        ping, pong = PAYLOADS["Ping"], PAYLOADS["Pong"]
        Ping, Pong = type(ping), type(pong)
        assert injector._gates == {}  # nothing is proven before a message
        assert through_the_gate(injector, "a", "b", pong, 1.0, 2.0) == (2.0, REASON_LOSS)
        assert through_the_gate(injector, "a", "b", ping, 1.0, 2.0) == (2.0, None)
        assert (injector._from, injector._until) == (0.0, 4.0)
        assert injector._gates == {Ping: (), Pong: (1.0,)}
        # Outside its stretch, either way, a gate says nothing.
        for outside in (-0.5, 4.0, 7.0):
            assert gate_at(injector, Ping, outside) is None
            assert gate_at(injector, Pong, outside) is None
        del injector.entered[:]
        through_the_gate(injector, "a", "b", ping, 3.5, 4.0)  # same stretch: gated
        assert through_the_gate(injector, "a", "b", pong, 3.5, 4.0) == (4.0, REASON_LOSS)
        assert injector.lost_count == 2  # the gated Pong drew, and lost
        through_the_gate(injector, "a", "b", ping, 4.0, 4.5)  # the spike opened
        assert injector._gates == {}  # a live spike, whatever it names
        through_the_gate(injector, "a", "b", ping, 3.5, 4.0)  # back: proven anew
        through_the_gate(injector, "a", "b", ping, 3.9, 4.0)
        through_the_gate(injector, "a", "b", pong, -1.0, 0.0)  # before the loss
        assert injector._gates == {Pong: ()}
        through_the_gate(injector, "a", "b", pong, -0.5, 0.0)
        assert injector.entered == [
            ("Ping", 4.0), ("Ping", 3.5), ("Pong", -1.0),
        ]

    @pytest.mark.parametrize(
        "mutant, plan",
        [
            (IgnoresLinkFilter, FaultPlan.of(LossFault(probability=1.0, sender="a"))),
            (
                SkipsADraw,
                FaultPlan.of(LossFault(probability=0.5), LossFault(probability=0.5)),
            ),
        ],
    )
    def test_a_mutant_gate_is_caught(self, mutant, plan):
        """The comparison above is not vacuous: a gate that ignores a
        link filter, or draws fewer losses than it names, diverges
        from the full scan on a few messages of one class."""
        calls = [("b", "c", "Ping", 1.0, 1.0, False)] * 12
        for injector, caught in ((FaultInjector, False), (mutant, True)):
            divergence = first_divergence(
                injector(plan, random.Random(8)),
                FullScanInjector(plan, random.Random(8)),
                calls,
            )
            assert (divergence is not None) is caught

    @pytest.mark.parametrize("protocol", ["es", "abd"])
    def test_the_network_sites_draw_what_the_full_gate_would(
        self, protocol, monkeypatch
    ):
        """``send_payload`` and the fan-out arm themselves: a run whose
        gate always misses is the same run with more ``on_transmit``
        entries — and the gated run drew some of its losses inline."""
        plan = FaultPlan.of(
            LossFault(probability=0.2, end=50.0, payload_types={"EsAck", "AbdAck"}),
            DelaySpikeFault(start=30.0, end=40.0, factor=1.5, payload_types={"EsRead"}),
            LossFault(probability=0.1, start=60.0, end=70.0),
        )
        gate, resolve = FaultInjector.on_transmit, FaultInjector._resolve
        entered, lost_inside, runs = [], [], []

        def counted(self, *args):
            entered[-1] += 1
            verdict = gate(self, *args)
            lost_inside[-1] += verdict[1] == REASON_LOSS
            return verdict

        def never_gated(self, now):
            resolve(self, now)
            self._gates = Forgetful()

        monkeypatch.setattr(FaultInjector, "on_transmit", counted)
        for always_miss in (False, True):
            if always_miss:
                monkeypatch.setattr(FaultInjector, "_resolve", never_gated)
            entered.append(0)
            lost_inside.append(0)
            system = run_faulted(protocol, 15, 4, plan)
            runs.append((
                operation_digest(system.history),
                system.faults.counters(),
                system.network.sent_count,
                system.network.delivered_count,
                system.faults._rng.getstate(),
            ))
        assert runs[0] == runs[1] and runs[0][1]["lost"] > 0
        assert 0 < entered[0] < entered[1]
        lost = runs[0][1]["lost"]
        assert lost_inside[0] < lost == lost_inside[1]

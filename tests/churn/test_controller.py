"""Unit tests for the churn controller, driven against a real system."""

import functools

import pytest

from repro.cluster import ClusterConfig, ClusterSystem
from repro.sim.errors import ChurnError
from tests.conftest import make_system


class TestTicks:
    def test_population_stays_constant(self):
        system = make_system(n=20)
        system.attach_churn(rate=0.1)
        system.run_until(50.0)
        assert len(system.membership) == 20

    def test_refresh_totals_match_rate(self):
        system = make_system(n=20)
        controller = system.attach_churn(rate=0.1)  # 2 per tick
        system.run_until(30.0)
        assert controller.ticks_executed == 30
        assert controller.leaves_executed == 60
        assert controller.joins_executed == 60

    def test_fractional_rate_long_run_average(self):
        system = make_system(n=10)
        controller = system.attach_churn(rate=0.05)  # 0.5 per tick
        system.run_until(40.0)
        assert controller.leaves_executed == 20

    def test_stop_at_halts_churn(self):
        system = make_system(n=20)
        controller = system.attach_churn(rate=0.1, stop_at=10.0)
        system.run_until(50.0)
        assert controller.leaves_executed == 20  # only the first 10 ticks

    def test_start_delays_first_tick(self):
        system = make_system(n=20)
        controller = system.attach_churn(rate=0.1, start=25.0)
        system.run_until(24.0)
        assert controller.ticks_executed == 0
        system.run_until(30.0)
        assert controller.ticks_executed == 6


class TestVictimSelection:
    def test_writer_protection(self):
        system = make_system(n=10)
        system.attach_churn(rate=0.2, protect_writer=True)
        system.run_until(60.0)
        assert system.membership.is_present(system.writer_pid)

    def test_explicit_protection(self):
        system = make_system(n=10)
        vip = system.seed_pids[3]
        system.attach_churn(rate=0.2, protected=(vip,))
        system.run_until(60.0)
        assert system.membership.is_present(vip)

    def test_protect_after_attach(self):
        system = make_system(n=10)
        controller = system.attach_churn(rate=0.2)
        vip = system.seed_pids[5]
        if system.membership.is_present(vip):
            controller.protect(vip)
            system.run_until(60.0)
            if vip in controller._protected:
                assert system.membership.is_present(vip)

    def test_min_stay_spares_newcomers(self):
        system = make_system(n=10)
        system.attach_churn(rate=0.1, min_stay=5.0)
        system.run_until(40.0)
        for process in system.membership.processes():
            if process.left_at is not None and process._entered_at > 0:
                assert process.left_at - process._entered_at >= 5.0

    def test_oldest_first_evicts_in_entry_order(self):
        system = make_system(n=10)
        system.attach_churn(rate=0.1, protect_writer=False,
                            victim_policy="oldest_first")
        system.run_until(5.0)
        # After 5 ticks of 1 eviction each, the five oldest seeds are gone.
        departed = [
            p.pid for p in system.membership.processes() if p.left_at is not None
        ]
        assert departed == [f"p{i:04d}" for i in range(1, 6)]

    def test_invalid_policy_rejected(self):
        system = make_system(n=10)
        with pytest.raises(ChurnError):
            system.attach_churn(rate=0.1, victim_policy="youngest")

    def test_shortfall_recorded_when_everyone_protected(self):
        system = make_system(n=3)
        controller = system.attach_churn(
            rate=0.9, protected=tuple(system.seed_pids), min_stay=1e9
        )
        system.run_until(10.0)
        assert controller.shortfall > 0
        assert controller.leaves_executed == 0


NAN, INF = float("nan"), float("inf")

#: Two ways to attach the exact controller at two evictions a tick per
#: population: one system of n = 20, and a two-shard cluster of 20 a
#: shard, whose ``attach_churn`` hands the same knobs to every shard.
CHURNED = {
    "system": lambda: make_system(n=20),
    "cluster": lambda: ClusterSystem(ClusterConfig(shards=2, keys=2, n=40, seed=5)),
}


@pytest.fixture(params=sorted(CHURNED))
def churned(request):
    """``(system, attach, shards)``: ``attach(**overrides)`` is the
    system's ``attach_churn`` at two evictions a tick per population;
    ``shards`` are the populations it drives."""
    system = CHURNED[request.param]()
    shards = getattr(system, "shards", (system,))
    return system, functools.partial(system.attach_churn, rate=0.1), shards


class TestParametersAreCheckedAtConstruction:
    """Each bad value is refused where it is given, by a ``ChurnError``
    that names the parameter — not three layers down as a scheduler
    error, and never by silently switching churn off."""

    @pytest.mark.parametrize("min_stay", [NAN, -1.0, -INF])
    def test_min_stay(self, churned, min_stay):
        _, attach, shards = churned
        with pytest.raises(ChurnError, match="min_stay = "):
            attach(min_stay=min_stay)
        assert all(shard.churn is None for shard in shards)

    def test_an_infinite_min_stay_is_legal_and_never_evicts(self, churned):
        system, attach, shards = churned
        attach(min_stay=INF)
        system.run_until(20.0)
        for shard in shards:
            assert shard.churn.leaves_executed == 0
            assert shard.churn.shortfall == 40  # every quota, accounted for

    @pytest.mark.parametrize("stop_at", [NAN])
    def test_stop_at(self, churned, stop_at):
        _, attach, shards = churned
        with pytest.raises(ChurnError, match="stop_at = nan"):
            attach(stop_at=stop_at)
        assert all(shard.churn is None for shard in shards)

    @pytest.mark.parametrize("stop_at", [INF, -INF])
    def test_an_infinite_stop_at_is_an_instant(self, churned, stop_at):
        system, attach, shards = churned
        attach(stop_at=stop_at)
        system.run_until(5.0)
        for shard in shards:
            assert shard.churn.leaves_executed == (10 if stop_at > 0 else 0)

    @pytest.mark.parametrize("period", [NAN, INF, 0.0, -1.0, -INF])
    def test_period(self, churned, period):
        with pytest.raises(ChurnError, match="period = "):
            churned[1](period=period)

    @pytest.mark.parametrize("start", [NAN, INF, -INF])
    def test_start(self, churned, start):
        with pytest.raises(ChurnError, match="start = "):
            churned[1](start=start)

    @pytest.mark.parametrize("rate", [NAN, INF, -0.1, 1.0])
    def test_rate(self, churned, rate):
        with pytest.raises(ChurnError, match="churn rate"):
            churned[1](rate=rate)


class TestLifecycleRules:
    def test_double_attach_rejected(self):
        system = make_system(n=10)
        system.attach_churn(rate=0.1)
        from repro.sim.errors import ConfigError

        with pytest.raises(ConfigError):
            system.attach_churn(rate=0.1)

    def test_joiners_start_join_immediately(self):
        system = make_system(n=10)
        system.attach_churn(rate=0.1)
        system.run_until(2.0)
        joins = system.history.joins()
        assert joins, "churn should have spawned joiners"
        assert all(j.invoke_time >= 1.0 for j in joins)

    def test_departures_recorded_in_history(self):
        system = make_system(n=10)
        system.attach_churn(rate=0.1, protect_writer=False)
        system.run_until(10.0)
        departed = [
            p.pid for p in system.membership.processes() if p.left_at is not None
        ]
        assert departed
        for pid in departed:
            assert system.history._departures.get(pid) is not None

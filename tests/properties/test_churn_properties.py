"""Property-based tests for churn accounting and population invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn.model import ConstantChurn
from tests.conftest import make_system


class TestQuotaAccounting:
    @given(
        rate=st.floats(min_value=0.0, max_value=0.5),
        n=st.integers(min_value=1, max_value=100),
        ticks=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_long_run_average_is_exact(self, rate, n, ticks):
        churn = ConstantChurn(rate=rate, n=n)
        total = sum(churn.refreshes_for_next_tick() for _ in range(ticks))
        exact = rate * n * ticks
        assert abs(total - exact) < 1.0  # the carry never drifts

    @given(
        rate=st.floats(min_value=0.0, max_value=0.5),
        n=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_tick_quota_never_negative(self, rate, n):
        churn = ConstantChurn(rate=rate, n=n)
        for _ in range(50):
            assert churn.refreshes_for_next_tick() >= 0


class TestPopulationInvariants:
    @given(
        rate=st.floats(min_value=0.0, max_value=0.3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_population_constant_under_churn(self, rate, seed):
        system = make_system(n=12, seed=seed, trace=False)
        system.attach_churn(rate=rate)
        system.run_until(30.0)
        assert len(system.membership) == 12

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_identities_never_reused(self, seed):
        system = make_system(n=8, seed=seed, trace=False)
        system.attach_churn(rate=0.2)
        system.run_until(25.0)
        pids = [process.pid for process in system.membership.processes()]
        assert len(pids) == len(set(pids))

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_departed_never_return(self, seed):
        system = make_system(n=8, seed=seed, trace=False)
        system.attach_churn(rate=0.2)
        system.run_until(25.0)
        for process in system.membership.processes():
            if process.left_at is not None:
                assert not system.membership.is_present(process.pid)
                assert system.membership.process(process.pid) is process
                assert not process.present

"""Unit tests for the active-set tracker."""

import pytest

from repro.churn.active_set import ActiveSetTracker
from repro.sim.errors import ChurnError
from tests.conftest import make_system


class TestSampling:
    def test_samples_accumulate_per_period(self):
        system = make_system(n=10)
        system.run_until(10.0)
        # Installed at t=0: samples at 0, 1, ..., 10.
        assert len(system.tracker.samples) == 11

    def test_initial_sample_sees_all_seeds_active(self):
        system = make_system(n=10)
        sample = system.tracker.samples[0]
        assert sample.time == 0.0
        assert sample.present == 10
        assert sample.active == 10
        assert sample.listening == 0

    def test_listening_counts_joiners(self):
        system = make_system(n=10)
        system.run_until(3.0)
        system.spawn_joiner()
        system.run_until(4.0)
        sample = system.tracker.samples[-1]
        assert sample.present == 11
        assert sample.listening == 1

    def test_min_active(self):
        system = make_system(n=10)
        system.attach_churn(rate=0.1, protect_writer=False)
        system.run_until(30.0)
        samples = system.tracker.samples
        assert system.tracker.min_active() == min(s.active for s in samples)
        assert 0 <= system.tracker.min_active() <= 10
        assert min(s.present for s in samples) >= 9  # population is constant-ish

    def test_double_install_rejected(self):
        system = make_system(n=5)
        with pytest.raises(ChurnError):
            system.tracker.install()

    def test_empty_tracker_raises(self, engine, membership):
        tracker = ActiveSetTracker(engine, membership)
        with pytest.raises(ChurnError):
            tracker.min_active()


class TestWindowStatistics:
    def test_no_churn_full_survival(self):
        system = make_system(n=10)
        system.run_until(30.0)
        stats = system.tracker.window_survivors(width=15.0, start=0.0, end=15.0)
        assert all(stat.survivors == 10 for stat in stats)

    def test_churn_erodes_windows(self):
        system = make_system(n=10)
        system.attach_churn(rate=0.1, protect_writer=False)
        system.run_until(40.0)
        first = system.tracker.window_survivors(width=15.0, start=0.0, end=0.0)[0]
        # 1 refresh per tick for 15 ticks out of 10 members: everyone
        # originally present could be gone, but the count is >= 0 and
        # strictly less than n.
        assert 0 <= first.survivors < 10

    def test_min_window_survivors(self):
        system = make_system(n=10)
        system.run_until(20.0)
        assert system.tracker.min_window_survivors(width=5.0) == 10

    def test_window_validation(self):
        system = make_system(n=5)
        system.run_until(5.0)
        with pytest.raises(ChurnError):
            system.tracker.window_survivors(width=0.0)
        with pytest.raises(ChurnError):
            system.tracker.window_survivors(width=1.0, step=0.0)

    def test_window_grid_bounds(self):
        system = make_system(n=5)
        system.run_until(20.0)
        stats = system.tracker.window_survivors(width=5.0, start=2.0, end=6.0, step=2.0)
        assert [stat.start for stat in stats] == [2.0, 4.0, 6.0]
        assert all(stat.width == 5.0 for stat in stats)

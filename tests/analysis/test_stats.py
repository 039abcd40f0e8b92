"""Unit tests for the statistics helpers."""

import pytest

from repro.analysis.stats import percentile, summarize
from repro.core.checker import _ZERO, LatencySamples
from repro.sim.errors import ExperimentError
from tests.conftest import make_system


class TestSummarize:
    def test_basic_moments(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.stdev == pytest.approx(1.2909944, rel=1e-6)

    def test_single_sample(self):
        summary = summarize([5.0])
        assert summary.count == 1
        assert summary.stdev == 0.0
        assert summary.mean == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            summarize([])

    def test_format(self):
        text = summarize([1.0, 3.0]).format(precision=1)
        assert "2.0" in text and "k=2" in text


class TestPercentile:
    def test_median(self):
        assert percentile([1.0, 2.0, 3.0], 50.0) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 25.0) == 2.5

    def test_extremes(self):
        data = [3.0, 1.0, 2.0]
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 100.0) == 3.0

    def test_single_value(self):
        assert percentile([7.0], 95.0) == 7.0

    def test_validation(self):
        with pytest.raises(ExperimentError):
            percentile([], 50.0)
        with pytest.raises(ExperimentError):
            percentile([1.0], 150.0)

    @pytest.mark.parametrize("kind", [list, LatencySamples])
    def test_refusals_are_named_for_a_list_and_for_samples(self, kind):
        with pytest.raises(
            ExperimentError, match="cannot take a percentile of an empty sample"
        ):
            percentile(kind([]), 50.0)
        for q in (150.0, -0.5, float("nan")):
            with pytest.raises(
                ExperimentError, match=r"percentile must be in \[0, 100\], got"
            ):
                percentile(kind([_ZERO, 1.0]), q)


class TestHistoryEdgeCases:
    """The helpers against the degenerate histories experiments can
    produce: no operations at all, a single operation, every operation
    abandoned by a departing process."""

    def test_empty_history_yields_no_latency_samples(self):
        system = make_system(n=2)
        system.run_until(10.0)
        report = system.check_liveness()
        assert report.latencies.get("read", []) == []
        with pytest.raises(ExperimentError):
            summarize(report.latencies.get("read", []))

    def test_single_op_history_summarizes_with_zero_spread(self):
        system = make_system(n=2)
        system.write("v1")
        system.run_until(20.0)
        report = system.check_liveness()
        summary = summarize(report.latencies["write"])
        assert summary.count == 1
        assert summary.stdev == 0.0
        assert summary.minimum == summary.maximum == summary.mean

    def test_all_ops_abandoned_produce_no_latencies(self):
        # A write and a join, both abandoned mid-flight by a leave (the
        # two non-instantaneous operation kinds).
        system = make_system(n=3)
        system.write("doomed")
        joiner = system.spawn_joiner()
        system.run_until(1.0)
        system.leave(system.writer_pid)
        system.leave(joiner)
        system.run_until(20.0)
        report = system.check_liveness()
        assert report.is_live  # abandoned operations are excused...
        assert report.excused == 2
        assert report.latencies.get("write", []) == []  # ...not measured
        assert report.completed == 0


class TestNumericEdgeCases:
    def test_summarize_identical_samples_has_zero_stdev(self):
        summary = summarize([4.0, 4.0, 4.0])
        assert summary.stdev == 0.0
        assert summary.mean == 4.0

    def test_percentile_with_duplicates(self):
        assert percentile([1.0, 1.0, 1.0, 9.0], 50.0) == 1.0

"""Unit tests for the regularity, atomicity and liveness checkers.

Each test encodes one clause of the Section 2.2 specification (or of
the introduction's regular-vs-atomic distinction) against a hand-built
history with exact timestamps.
"""

import time
from array import array

import pytest

from repro.cluster import ClusterConfig, ClusterSystem
from repro.core.checker import (
    Inversion,
    LivenessChecker,
    RegularityChecker,
    SafetyReport,
    _sweep,
    find_new_old_inversions,
)
from repro.core.history import History
from repro.core.register import OP_READ
from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem
from repro.sim.errors import CheckerError
from tests.core.helpers import join, read, write


class TestRegularityNoConcurrency:
    def test_read_of_initial_value_before_any_write(self):
        history = History("v0")
        read(history, "v0", 1.0, 1.0)
        assert RegularityChecker(history).check().is_safe

    def test_read_of_last_completed_write(self):
        history = History("v0")
        write(history, "v1", 1.0, 2.0)
        read(history, "v1", 3.0, 3.0)
        assert RegularityChecker(history).check().is_safe

    def test_stale_read_is_a_violation(self):
        history = History("v0")
        write(history, "v1", 1.0, 2.0)
        read(history, "v0", 3.0, 3.0)
        report = RegularityChecker(history).check()
        assert not report.is_safe
        assert report.violation_count == 1
        assert "last write completed" in report.violations[0].explanation

    def test_skipping_a_write_is_a_violation(self):
        history = History("v0")
        write(history, "v1", 1.0, 2.0)
        write(history, "v2", 3.0, 4.0)
        read(history, "v1", 5.0, 5.0)  # v2 is the last completed write
        assert not RegularityChecker(history).check().is_safe

    def test_unwritten_value_is_a_violation(self):
        history = History("v0")
        read(history, "garbage", 1.0, 1.0)
        assert not RegularityChecker(history).check().is_safe

    def test_bottom_read_is_a_violation(self):
        history = History("v0")
        read(history, None, 1.0, 1.0)  # ⊥ was never written
        assert not RegularityChecker(history).check().is_safe


class TestRegularityWithConcurrency:
    def test_concurrent_read_may_return_old_value(self):
        history = History("v0")
        write(history, "v1", 10.0, 20.0)
        read(history, "v0", 12.0, 13.0)
        assert RegularityChecker(history).check().is_safe

    def test_concurrent_read_may_return_new_value(self):
        history = History("v0")
        write(history, "v1", 10.0, 20.0)
        read(history, "v1", 12.0, 13.0)
        assert RegularityChecker(history).check().is_safe

    def test_concurrent_read_cannot_return_older_than_last_completed(self):
        history = History("v0")
        write(history, "v1", 1.0, 2.0)
        write(history, "v2", 10.0, 20.0)
        read(history, "v0", 12.0, 13.0)  # v0 predates completed v1
        assert not RegularityChecker(history).check().is_safe

    def test_read_overlapping_two_writes_may_return_either(self):
        history = History("v0")
        write(history, "v1", 10.0, 20.0)
        write(history, "v2", 25.0, 35.0)
        # Read spans the gap: concurrent with both writes.
        for value in ("v1", "v2"):
            h = History("v0")
            write(h, "v1", 10.0, 20.0)
            write(h, "v2", 25.0, 35.0)
            read(h, value, 15.0, 30.0)
            assert RegularityChecker(h).check().is_safe, value

    def test_read_overlapping_pending_write(self):
        history = History("v0")
        write(history, "v1", 10.0, None)  # never completes
        read(history, "v1", 50.0, 51.0)
        assert RegularityChecker(history).check().is_safe

    def test_read_after_abandoned_write_may_return_old(self):
        history = History("v0")
        write(history, "v1", 10.0, 12.0, abandoned=True)
        read(history, "v0", 50.0, 51.0)
        assert RegularityChecker(history).check().is_safe

    def test_boundary_write_completing_at_read_invocation(self):
        """A write completing exactly at the read's invocation counts as
        completed-before (closed interval semantics)."""
        history = History("v0")
        write(history, "v1", 1.0, 5.0)
        read(history, "v0", 5.0, 5.0)
        assert not RegularityChecker(history).check().is_safe


class TestJoinChecking:
    def test_join_adopting_last_value(self):
        history = History("v0")
        write(history, "v1", 1.0, 2.0)
        join(history, "v1", 1, 5.0, 8.0)
        assert RegularityChecker(history).check().is_safe

    def test_join_adopting_stale_value_is_flagged(self):
        history = History("v0")
        write(history, "v1", 1.0, 2.0)
        join(history, "v0", 0, 5.0, 8.0)
        report = RegularityChecker(history).check()
        assert not report.is_safe
        assert report.violations[0].is_join

    def test_join_concurrent_with_write_may_adopt_old(self):
        history = History("v0")
        write(history, "v1", 5.0, 9.0)
        join(history, "v0", 0, 6.0, 8.0)
        assert RegularityChecker(history).check().is_safe

    def test_join_checking_can_be_disabled(self):
        history = History("v0")
        write(history, "v1", 1.0, 2.0)
        join(history, "v0", 0, 5.0, 8.0)
        report = RegularityChecker(history, check_joins=False).check()
        assert report.is_safe
        assert report.checked_count == 0

    def test_plain_ok_joins_are_skipped(self):
        """Joins that do not expose an adopted value are not judged."""
        from repro.core.register import OP_JOIN
        from repro.sim.operations import OperationHandle

        history = History("v0")
        handle = OperationHandle(OP_JOIN, "p", invoke_time=1.0)
        handle._complete("ok", time=2.0)
        history.record_operation(handle)
        report = RegularityChecker(history).check()
        assert report.checked_count == 0


def _pairs(inversions):
    """Inversions by their reads' op ids: a witness is a view of a row."""
    return [
        (i.earlier.op_id, i.later.op_id, i.earlier_write_index, i.later_write_index)
        for i in inversions
    ]


class TestNewOldInversions:
    def test_inversion_detected(self):
        history = History("v0")
        write(history, "v1", 10.0, 20.0)
        read(history, "v1", 11.0, 12.0)  # earlier read, new value
        read(history, "v0", 13.0, 14.0)  # later read, old value
        report = find_new_old_inversions(history)
        assert report.safety.is_safe
        assert len(report.inversions) == 1
        assert report.is_regular_but_not_atomic
        inversion = report.inversions[0]
        assert inversion.earlier_write_index == 1
        assert inversion.later_write_index == 0

    def test_monotone_reads_are_atomic(self):
        history = History("v0")
        write(history, "v1", 10.0, 20.0)
        read(history, "v0", 11.0, 12.0)
        read(history, "v1", 13.0, 14.0)
        report = find_new_old_inversions(history)
        assert report.is_atomic

    def test_overlapping_reads_cannot_invert(self):
        history = History("v0")
        write(history, "v1", 10.0, 20.0)
        read(history, "v1", 11.0, 15.0)
        read(history, "v0", 12.0, 16.0)  # overlaps the first read
        report = find_new_old_inversions(history)
        assert report.is_atomic  # no order between the reads

    def test_reads_recorded_out_of_invocation_order_are_sorted_first(self):
        history = History("v0")
        write(history, "v1", 10.0, 20.0)
        write(history, "v2", 21.0, 40.0)
        # Recorded out of invocation order; each inverted read has one
        # inverted pair, so the fast witnesses are the oracle's pairs.
        later = read(history, "v1", 33.0, 34.0)
        first = read(history, "v1", 11.0, 12.0)
        earlier = read(history, "v2", 31.0, 32.0)
        middle = read(history, "v0", 15.0, 16.0)
        written = history.value_to_write().get
        entries = history.read_entries()
        assert _sweep(entries, written, array("q"), array("q")) is None
        report = find_new_old_inversions(history)
        assert report.is_regular_but_not_atomic
        assert _pairs(report.inversions) == _pairs(
            find_new_old_inversions(history, paranoid=True).inversions
        )
        assert _pairs(report.inversions) == _pairs([
            Inversion(first, middle, 1, 0),
            Inversion(earlier, later, 2, 1),
        ])

    def test_rows_recorded_out_of_invocation_order_are_sorted_first(self):
        history = History("v0")
        write(history, "v1", 10.0, 20.0)
        write(history, "v2", 21.0, 40.0)
        history.record_read(33.0, "p1", None, "v1")
        history.record_read(11.0, "p2", None, "v1")
        history.record_read(31.0, "p3", None, "v2")
        history.record_read(15.0, "p4", None, "v0")
        report = find_new_old_inversions(history)
        assert report.is_regular_but_not_atomic
        pairs = [
            (inv.earlier.process_id, inv.later.process_id, inv.earlier_write_index,
             inv.later_write_index)
            for inv in report.inversions
        ]
        assert pairs == [("p2", "p4", 1, 0), ("p3", "p1", 2, 1)]

    def test_a_read_ending_as_another_begins_precedes_nothing(self):
        history = History("v0")
        write(history, "v1", 10.0, 20.0)
        read(history, "v1", 11.0, 12.0)
        read(history, "v0", 12.0, 13.0)  # invoked at the response instant
        assert find_new_old_inversions(history).is_atomic
        assert find_new_old_inversions(history, paranoid=True).is_atomic

    def test_the_witness_is_the_first_finished_read_of_the_newest_write(self):
        history = History("v0")
        write(history, "v1", 10.0, 20.0)
        write(history, "v2", 21.0, 30.0)
        witness = read(history, "v2", 22.0, 23.0)
        read(history, "v2", 24.0, 25.0)  # as new, finished later
        later = read(history, "v1", 26.0, 27.0)
        assert _pairs(find_new_old_inversions(history).inversions) == _pairs(
            [Inversion(witness, later, 2, 1)]
        )

    def test_violating_reads_excluded_from_inversion_scan(self):
        history = History("v0")
        write(history, "v1", 1.0, 2.0)
        read(history, "junk", 3.0, 4.0)  # violation, unknown value
        read(history, "v1", 5.0, 6.0)
        report = find_new_old_inversions(history)
        assert not report.safety.is_safe
        assert list(report.inversions) == []
        assert not report.is_atomic
        assert "NOT EVEN REGULAR" in report.summary()


class TestSharedReadJudgements:
    """Atomicity re-judges exactly the reads regularity just judged; on
    a closed history the two share one regularity pass."""

    def history(self):
        history = History("v0")
        write(history, "v1", 10.0, 20.0)
        read(history, "v1", 11.0, 12.0)
        read(history, "v0", 13.0, 14.0)  # inverted against the read above
        read(history, "junk", 15.0, 16.0)  # a violation
        read(history, "v1", 25.0, None)  # pending: nobody judges it
        join(history, "v1", 1, 21.0, 24.0)
        write(history, "v2", 30.0, None)
        return history

    #: ``_fields`` of the judgements a check of :meth:`history` passes,
    #: written out: three reads in recording order, then the join.
    JUDGED = [
        (1, "v1", ("v0", "v1"), True, 0, "returned an allowed value"),
        (2, "v0", ("v0", "v1"), True, 0, "returned an allowed value"),
        (
            3,
            "junk",
            ("v0", "v1"),
            False,
            0,
            "returned 'junk' but the last write completed before invocation "
            "was #0 ('v0') and the concurrent writes were [(1, 'v1')]",
        ),
        (5, "v1", ("v1",), True, 1, "returned an allowed value"),
    ]

    def reports(self, history, paranoid):
        return (
            RegularityChecker(history, paranoid=paranoid).check(),
            find_new_old_inversions(history, paranoid=paranoid),
        )

    def passes(self, monkeypatch):
        """The regularity passes run from now on, as the histories they
        judged."""
        passes = []
        original = RegularityChecker._judge_reads

        def counting(checker):
            passes.append(checker.history)
            return original(checker)

        monkeypatch.setattr(RegularityChecker, "_judge_reads", counting)
        return passes

    @pytest.mark.parametrize("paranoid", [False, True])
    def test_a_closed_history_judges_its_reads_once(self, paranoid, monkeypatch):
        history = self.history()
        ref_safety, ref_atomicity = self.reports(history, paranoid)  # open
        history.close(40.0)
        passes = self.passes(monkeypatch)
        safety, atomicity = self.reports(history, paranoid)
        assert passes == [history]
        assert _fields(safety.judgements) == _fields(ref_safety.judgements)
        assert _fields(atomicity.safety.judgements) == _fields(
            ref_atomicity.safety.judgements
        )
        assert _pairs(atomicity.inversions) == _pairs(ref_atomicity.inversions) != []
        assert safety.checked_count == 4 and atomicity.safety.checked_count == 3
        assert _fields(safety.violations) == _fields(atomicity.safety.violations)
        assert safety.violation_count == 1

    def test_an_open_history_recomputes(self, monkeypatch):
        history = self.history()
        passes = self.passes(monkeypatch)
        self.reports(history, paranoid=False)
        assert passes == [history, history]

    def test_paranoid_and_fast_do_not_share(self, monkeypatch):
        history = self.history()
        history.close(40.0)
        passes = self.passes(monkeypatch)
        fast = RegularityChecker(history).check()
        paranoid = RegularityChecker(history, paranoid=True).check()
        assert len(passes) == 2
        assert _fields(fast.judgements) == _fields(paranoid.judgements)
        assert _fields(fast.violations) == _fields(paranoid.violations)

    def test_reports_own_their_lists(self):
        history = self.history()
        history.close(40.0)
        first = find_new_old_inversions(history)
        first.safety.violations.clear()
        second = find_new_old_inversions(history)
        assert second.safety.violation_count == 1 and len(second.inversions) == 1
        assert second.inversions is not first.inversions
        assert RegularityChecker(history).check().violation_count == 1

    @pytest.mark.parametrize("paranoid", [False, True])
    @pytest.mark.parametrize("closed", [False, True])
    def test_judgements_are_those_of_check_time(self, closed, paranoid):
        history = self.history()
        first = history.writes()[0].op_id
        if closed:
            history.close(40.0)
        report = RegularityChecker(history, paranoid=paranoid).check()
        expected = [(first + op, *rest) for op, *rest in self.JUDGED]
        assert _fields(report.judgements) == expected
        assert report.checked_count == len(expected)
        assert _fields(report.violations) == [expected[2]]
        # The run goes on: the pending read and write complete, a read
        # is recorded.  A fresh check sees them; the report does not.
        history.reads()[-1]._complete("v2", time=41.0)
        history.writes()[-1]._complete("ok", time=42.0)
        read(history, "v2", 43.0, 44.0)
        if closed:
            history.close(45.0)
        assert _fields(report.judgements) == expected
        assert RegularityChecker(history, paranoid=paranoid).check().checked_count == 6

    def test_merged_reports_keep_their_judgements_in_order(self):
        history = self.history()
        merged = SafetyReport()
        parts = [RegularityChecker(history).check() for _ in range(2)]
        for part in parts:
            merged.merge(part)
        assert merged.checked_count == 8 and merged.violation_count == 2
        assert _fields(merged.judgements) == 2 * _fields(parts[0].judgements)

    def test_recording_one_more_operation_invalidates(self):
        history = self.history()
        history.close(40.0)
        before = RegularityChecker(history).check()
        read(history, "v1", 26.0, 27.0)
        after = RegularityChecker(history).check()
        assert after.checked_count == before.checked_count + 1
        assert find_new_old_inversions(history).safety.checked_count == 4

    def test_closing_at_another_horizon_invalidates(self):
        history = self.history()
        history.close(40.0)
        stale = RegularityChecker(history).check()
        assert history.write_records()[2].response_time is None
        # The run resumes: the pending read and write complete without
        # any new append, then the history is closed again.
        pending_read = history.reads()[-1]
        pending_read._complete("v1", time=41.0)
        history.writes()[-1]._complete("ok", time=42.0)
        history.close(40.0)  # same horizon: the views are kept
        assert RegularityChecker(history).check().checked_count == stale.checked_count
        history.close(45.0)
        assert RegularityChecker(history).check().checked_count == stale.checked_count + 1
        assert history.write_records()[2].response_time == 42.0
        assert history.value_to_write()["v2"].response_time == 42.0


def _fields(judgements):
    return [
        (
            j.operation.op_id,
            j.returned,
            j.allowed,
            j.valid,
            j.last_completed_index,
            j.explanation,
        )
        for j in judgements
    ]


class TestLiveness:
    def test_all_completed_is_live(self):
        history = History("v0")
        write(history, "v1", 1.0, 2.0)
        read(history, "v1", 3.0, 3.0)
        history.close(10.0)
        report = LivenessChecker(history, grace=5.0).check()
        assert report.is_live
        assert report.completed == 2

    def test_abandoned_operations_are_excused(self):
        history = History("v0")
        write(history, "v1", 1.0, 2.0, abandoned=True)
        history.close(100.0)
        report = LivenessChecker(history, grace=5.0).check()
        assert report.is_live
        assert report.excused == 1

    def test_young_pending_operation_is_in_grace(self):
        history = History("v0")
        read(history, None, 98.0, None)
        history.close(100.0)
        report = LivenessChecker(history, grace=5.0).check()
        assert report.is_live
        assert report.in_grace == 1

    def test_old_pending_operation_is_stuck(self):
        history = History("v0")
        read(history, None, 10.0, None)
        history.close(100.0)
        report = LivenessChecker(history, grace=5.0).check()
        assert not report.is_live
        assert report.stuck[0].age == 90.0

    def test_latency_statistics(self):
        history = History("v0")
        write(history, "v1", 0.0, 4.0)
        write(history, "v2", 10.0, 12.0)
        history.close(20.0)
        report = LivenessChecker(history, grace=5.0).check()
        assert sorted(report.latencies["write"]) == [2.0, 4.0]
        assert "read" not in report.latencies

    def test_born_complete_reads_share_one_zero_sample(self):
        """A local read's response IS its invocation's float; its
        sample is one shared +0.0, bit for bit what ``x - x`` gives."""
        system = DynamicSystem(SystemConfig(n=5, seed=3, trace=False))
        system.run_for(1.5)
        reads = [system.read(pid) for pid in system.seed_pids[:3]]
        assert all(op.response_time is op.invoke_time for op in reads)
        system.close()
        samples = LivenessChecker(system.history, grace=5.0).check().latencies["read"]
        assert len(samples) == 3 and len({id(sample) for sample in samples}) == 1
        assert samples[0].hex() == (1.5 - 1.5).hex() == "0x0.0p+0"

    def test_unclosed_history_rejected(self):
        history = History("v0")
        with pytest.raises(CheckerError, match="history is not closed"):
            LivenessChecker(history, grace=5.0).check()

    def test_negative_grace_rejected(self):
        history = History("v0")
        history.close(1.0)
        with pytest.raises(CheckerError, match="grace must be a non-negative number"):
            LivenessChecker(history, grace=-1.0)

    def test_nan_grace_rejected(self):
        # ``nan < 0`` is false, and ``age <= nan`` would have judged
        # every pending operation stuck.
        system = DynamicSystem(SystemConfig(n=4, seed=1, trace=False))
        system.read(system.seed_pids[0])
        system.run_for(1.0)
        with pytest.raises(CheckerError, match="grace"):
            system.check_liveness(grace=float("nan"))
        cluster = ClusterSystem(ClusterConfig(shards=2, keys=2, n=4, seed=1))
        cluster.run_for(1.0)
        with pytest.raises(CheckerError, match="grace"):
            cluster.check_liveness(grace=float("nan"))


class TestReportSummaries:
    def test_safety_summary_mentions_counts(self):
        history = History("v0")
        write(history, "v1", 1.0, 2.0)
        read(history, "v0", 3.0, 3.0)
        summary = RegularityChecker(history).check().summary()
        assert "VIOLATED" in summary

    def test_violation_rate(self):
        history = History("v0")
        write(history, "v1", 1.0, 2.0)
        read(history, "v0", 3.0, 3.0)
        read(history, "v1", 4.0, 4.0)
        report = RegularityChecker(history, check_joins=False).check()
        assert report.violation_rate == 0.5

    def test_empty_history_is_safe_and_live(self):
        history = History("v0")
        history.close(1.0)
        assert RegularityChecker(history).check().is_safe
        assert LivenessChecker(history, grace=0.0).check().is_live


def test_checker_fast_beats_naive_by_3x():
    """Perf guard: inversion detection by the O(R log R) sweep must be
    at least 3x faster than the retained O(R^2) oracle on a ~2k-op
    history (it reads ~12x).  That the two agree is
    ``tests/properties/test_checker_equivalence.py``'s job; this is why
    the fast one exists."""
    system = DynamicSystem(SystemConfig(n=20, delta=5.0, seed=1, trace=False))
    for _ in range(20):
        system.write()
        system.run_for(12.0)
        for pid in system.active_pids():
            for _ in range(5):
                system.read(pid)
    history = system.close()
    assert len(history) == 2020

    def best_of_3(**knobs) -> float:
        best = float("inf")
        for _ in range(3):
            # A closed history shares its read verdicts between
            # checkers, so each repeat judges an unjudged copy.
            unjudged = History(history.initial_value)
            for op in history:
                unjudged.record_operation(op)
            unjudged.close(history.horizon)
            start = time.perf_counter()
            assert find_new_old_inversions(unjudged, **knobs).is_atomic
            best = min(best, time.perf_counter() - start)
        return best

    fast, naive = best_of_3(), best_of_3(paranoid=True)
    assert naive >= 3.0 * fast, f"fast {fast * 1e3:.2f} ms, naive {naive * 1e3:.2f} ms"

"""Unit tests for the structured trace log."""

from repro.sim.trace import TraceKind, TraceLog


class TestRecording:
    def test_records_accumulate(self):
        log = TraceLog()
        log.record(1.0, TraceKind.ENTER, "p1")
        log.record(2.0, TraceKind.LEAVE, "p1")
        assert len(log) == 2
        assert log[0].kind is TraceKind.ENTER
        assert log[1].time == 2.0

    def test_details_are_kept(self):
        log = TraceLog()
        log.record(1.0, TraceKind.SEND, "p1", dest="p2", type="Inquiry")
        assert log[0].details == {"dest": "p2", "type": "Inquiry"}

    def test_disabled_log_records_nothing(self):
        log = TraceLog(enabled=False)
        log.record(1.0, TraceKind.ENTER, "p1")
        assert len(log) == 0
        assert not log.enabled

    def test_capacity_bound_drops_overflow(self):
        log = TraceLog(capacity=2)
        for i in range(5):
            log.record(float(i), TraceKind.NOTE)
        assert len(log) == 2
        assert log.dropped == 3

    def test_a_truncated_log_says_so_wherever_it_is_read_whole(self):
        log = TraceLog(capacity=2)
        for i in range(5):
            log.record(float(i), TraceKind.NOTE)
        notice = "trace truncated: 3 records dropped (trace_capacity=2)"
        assert log.truncation == notice
        assert log.describe().splitlines()[2:] == [notice]
        assert log.describe(limit=1).endswith("... 1 more records\n" + notice)
        assert repr(log).endswith(f"enabled=True, {notice})")

    def test_a_complete_log_says_nothing_of_truncation(self):
        log = TraceLog(capacity=5)
        for i in range(5):
            log.record(float(i), TraceKind.NOTE)
        assert log.dropped == 0
        assert "truncated" not in log.describe() and "truncated" not in repr(log)


class TestQueries:
    def _populated(self) -> TraceLog:
        log = TraceLog()
        log.record(1.0, TraceKind.ENTER, "p1")
        log.record(2.0, TraceKind.ENTER, "p2")
        log.record(3.0, TraceKind.LEAVE, "p1")
        log.record(4.0, TraceKind.SEND, "p2", dest="p1")
        return log

    def test_filter_by_kind(self):
        log = self._populated()
        enters = log.filter(kind=TraceKind.ENTER)
        assert [r.process for r in enters] == ["p1", "p2"]

    def test_filter_by_process(self):
        log = self._populated()
        assert len(log.filter(process="p1")) == 2

    def test_filter_by_predicate(self):
        log = self._populated()
        late = log.filter(predicate=lambda r: r.time >= 3.0)
        assert len(late) == 2

    def test_combined_filters(self):
        log = self._populated()
        assert len(log.filter(kind=TraceKind.ENTER, process="p2")) == 1

    def test_count(self):
        log = self._populated()
        assert log.count(TraceKind.ENTER) == 2
        assert log.count(TraceKind.DROP) == 0

    def test_describe_truncates(self):
        log = self._populated()
        text = log.describe(limit=2)
        assert "2 more records" in text

    def test_record_describe_is_one_line(self):
        log = self._populated()
        assert "\n" not in log[0].describe()

    def test_iteration(self):
        log = self._populated()
        assert len(list(log)) == 4

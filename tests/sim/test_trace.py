"""Unit tests for the structured trace log."""

from repro.sim.trace import TraceKind, TraceLog


class TestRecording:
    def test_records_accumulate(self):
        log = TraceLog()
        log.record(1.0, TraceKind.ENTER, "p1")
        log.record(2.0, TraceKind.LEAVE, "p1")
        records = list(log)
        assert len(records) == 2
        assert records[0].kind is TraceKind.ENTER
        assert records[1].time == 2.0

    def test_details_are_kept(self):
        log = TraceLog()
        log.record(1.0, TraceKind.SEND, "p1", dest="p2", type="Inquiry")
        (record,) = log
        assert record.details == {"dest": "p2", "type": "Inquiry"}

    def test_disabled_log_records_nothing(self):
        log = TraceLog(enabled=False)
        log.record(1.0, TraceKind.ENTER, "p1")
        assert list(log) == []
        assert not log.enabled

    def test_a_log_keeps_every_record(self):
        log = TraceLog()
        for i in range(5):
            log.record(float(i), TraceKind.NOTE)
        assert [record.time for record in log] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert repr(log) == "TraceLog(records=5, enabled=True)"


class TestQueries:
    def test_iteration(self):
        log = TraceLog()
        log.record(1.0, TraceKind.ENTER, "p1")
        log.record(2.0, TraceKind.ENTER, "p2")
        log.record(3.0, TraceKind.LEAVE, "p1")
        log.record(4.0, TraceKind.SEND, "p2", dest="p1")
        assert [(r.kind, r.process) for r in log] == [
            (TraceKind.ENTER, "p1"),
            (TraceKind.ENTER, "p2"),
            (TraceKind.LEAVE, "p1"),
            (TraceKind.SEND, "p2"),
        ]

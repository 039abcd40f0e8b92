"""Unit tests for operation handles and effects."""

import pytest

from repro.sim.errors import (
    OperationAbandonedError,
    OperationError,
    OperationPendingError,
)
from repro.sim.operations import (
    OperationHandle,
    Wait,
    WaitUntil,
)


class TestEffects:
    def test_wait_stores_duration(self):
        assert Wait(3.0).duration == 3.0

    def test_wait_rejects_negative(self):
        with pytest.raises(OperationError, match="cannot wait a negative duration"):
            Wait(-1.0)

    def test_wait_zero_is_legal(self):
        assert Wait(0.0).duration == 0.0

    def test_wait_until_holds_predicate(self):
        effect = WaitUntil(lambda: True, label="test")
        assert effect.predicate() is True
        assert effect.label == "test"


class TestOperationHandle:
    def test_initial_state_is_pending(self):
        handle = OperationHandle("read", "p1", invoke_time=2.0)
        assert handle.pending
        assert not handle.done
        assert not handle.abandoned

    def test_result_raises_while_pending(self):
        handle = OperationHandle("read", "p1", invoke_time=2.0)
        with pytest.raises(OperationPendingError, match="has not completed"):
            handle.result

    def test_latency_raises_while_pending(self):
        handle = OperationHandle("read", "p1", invoke_time=2.0)
        with pytest.raises(OperationPendingError, match="has no response yet"):
            handle.latency

    def test_completion(self):
        handle = OperationHandle("write", "p1", invoke_time=2.0, argument="v")
        handle._complete("ok", time=7.0)
        assert handle.done
        assert handle.result == "ok"
        assert handle.response_time == 7.0
        assert handle.latency == 5.0
        assert handle.argument == "v"

    def test_double_completion_rejected(self):
        handle = OperationHandle("write", "p1", invoke_time=0.0)
        handle._complete("ok", time=1.0)
        with pytest.raises(OperationError, match="completed twice"):
            handle._complete("again", time=2.0)

    def test_abandonment(self):
        handle = OperationHandle("join", "p1", invoke_time=0.0)
        handle._abandon(time=3.0)
        assert handle.abandoned
        assert handle.response_time is None
        with pytest.raises(OperationAbandonedError):
            handle.result

    def test_abandon_after_completion_is_noop(self):
        handle = OperationHandle("join", "p1", invoke_time=0.0)
        handle._complete("ok", time=1.0)
        handle._abandon(time=2.0)
        assert handle.done

    def test_op_ids_are_unique(self):
        a = OperationHandle("read", "p1", invoke_time=0.0)
        b = OperationHandle("read", "p1", invoke_time=0.0)
        assert a.op_id != b.op_id


class TestDoneCallbacks:
    def test_callback_fires_on_completion(self):
        handle = OperationHandle("read", "p1", invoke_time=0.0)
        seen = []
        handle.add_done_callback(seen.append)
        handle._complete("v", time=1.0)
        assert seen == [handle]

    def test_callback_fires_on_abandonment(self):
        handle = OperationHandle("read", "p1", invoke_time=0.0)
        seen = []
        handle.add_done_callback(seen.append)
        handle._abandon(time=1.0)
        assert seen == [handle]

    def test_late_registration_fires_immediately(self):
        handle = OperationHandle("read", "p1", invoke_time=0.0)
        handle._complete("v", time=1.0)
        seen = []
        handle.add_done_callback(seen.append)
        assert seen == [handle]

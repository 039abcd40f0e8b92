"""Unit tests for the process framework and the operation runner."""

from dataclasses import dataclass

import pytest

from repro.sim.engine import EventScheduler
from repro.sim.errors import ProcessDepartedError, ProcessError
from repro.sim.operations import Wait, WaitUntil
from repro.sim.process import ProcessMode, SimProcess


@dataclass(frozen=True)
class Ping:
    payload: str = "ping"


class EchoProcess(SimProcess):
    """A process that records delivered pings."""

    def __init__(self, pid: str, engine: EventScheduler) -> None:
        super().__init__(pid, engine)
        self.received: list[str] = []

    def on_ping(self, sender: str, msg: Ping) -> None:
        self.received.append(f"{sender}:{msg.payload}")


class TestLifecycle:
    def test_starts_listening(self, engine):
        process = EchoProcess("p1", engine)
        assert process.mode is ProcessMode.LISTENING
        assert process.present
        assert not process.is_active

    def test_mark_active(self, engine):
        process = EchoProcess("p1", engine)
        engine.run_until(4.0)
        process.mark_active()
        assert process.is_active
        assert process.activated_at == 4.0

    def test_double_activation_rejected(self, engine):
        process = EchoProcess("p1", engine)
        process.mark_active()
        with pytest.raises(ProcessError):
            process.mark_active()

    def test_departure_is_final(self, engine):
        process = EchoProcess("p1", engine)
        process.depart()
        assert not process.present
        assert process.mode is ProcessMode.DEPARTED
        with pytest.raises(ProcessDepartedError):
            process.mark_active()

    def test_departure_is_idempotent(self, engine):
        process = EchoProcess("p1", engine)
        process.depart()
        process.depart()

    def test_departed_process_ignores_messages(self, engine):
        process = EchoProcess("p1", engine)
        process.depart()
        process.deliver_payload("p2", Ping())
        assert process.received == []


class TestDispatch:
    def test_message_routed_by_payload_type(self, engine):
        process = EchoProcess("p1", engine)
        process.deliver_payload("p2", Ping("hello"))
        assert process.received == ["p2:hello"]

    def test_unknown_payload_raises(self, engine):
        @dataclass(frozen=True)
        class Mystery:
            pass

        process = EchoProcess("p1", engine)
        with pytest.raises(ProcessError):
            process.deliver_payload("p2", Mystery())

    def test_handler_lookup_is_cached_per_class(self, engine):
        process = EchoProcess("pa", engine)
        process.deliver_payload("p2", Ping("one"))
        cache = EchoProcess.__dict__["_dispatch_cache"]
        assert cache[Ping] is EchoProcess.on_ping
        # A second delivery (and a second instance) reuses the entry.
        other = EchoProcess("pb", engine)
        other.deliver_payload("p3", Ping("two"))
        assert EchoProcess.__dict__["_dispatch_cache"] is cache
        assert other.received == ["p3:two"]

    def test_subclass_override_gets_its_own_cache_entry(self, engine):
        class LoudEcho(EchoProcess):
            def on_ping(self, sender: str, msg: Ping) -> None:
                self.received.append(f"{sender}:{msg.payload.upper()}")

        base = EchoProcess("p1", engine)
        loud = LoudEcho("p2", engine)
        base.deliver_payload("x", Ping("soft"))
        loud.deliver_payload("x", Ping("soft"))
        assert base.received == ["x:soft"]
        assert loud.received == ["x:SOFT"]
        # The caches live on each class, never shared through MRO.
        assert LoudEcho.__dict__["_dispatch_cache"][Ping] is LoudEcho.on_ping
        assert EchoProcess.__dict__["_dispatch_cache"][Ping] is EchoProcess.on_ping


class TestOperationRunner:
    def test_wait_suspends_for_duration(self, engine):
        process = EchoProcess("p1", engine)

        def body():
            yield Wait(3.0)
            return "done"

        handle = process.run_operation("op", body())
        assert handle.pending
        engine.run()
        assert handle.done
        assert handle.result == "done"
        assert handle.latency == 3.0

    def test_immediate_body_completes_synchronously(self, engine):
        process = EchoProcess("p1", engine)

        def body():
            return 42
            yield  # pragma: no cover

        handle = process.run_operation("op", body())
        assert handle.done
        assert handle.result == 42
        assert handle.latency == 0.0

    def test_a_body_that_never_blocks_takes_no_runner(self, engine):
        process, other = EchoProcess("p1", engine), EchoProcess("p2", engine)

        def body():
            return engine.now
            yield  # pragma: no cover

        engine.run_until(2.0)
        handle = process.run_operation("op", body())
        assert handle.done and handle.result == 2.0
        assert handle.invoke_time == handle.response_time == 2.0
        # Nothing was built for it: still the one shared empty tuple.
        assert process._runners is other._runners and process._runners == ()
        assert engine.pending_count == 0
        # A callback added after the fact runs at once, exactly once.
        seen = []
        handle.add_done_callback(seen.append)
        assert seen == [handle]
        assert len(handle._callbacks) == 0

    def test_done_callbacks_added_while_pending_fire_once_in_order(self, engine):
        process = EchoProcess("p1", engine)

        def body():
            yield Wait(1.0)
            return "done"

        handle = process.run_operation("op", body())
        seen = []
        handle.add_done_callback(lambda h: seen.append(("first", h.result)))
        handle.add_done_callback(lambda h: seen.append(("second", h.result)))
        assert seen == []
        engine.run()
        assert seen == [("first", "done"), ("second", "done")]
        assert len(handle._callbacks) == 0

    def test_only_an_operation_that_blocks_holds_a_runner(self, engine):
        process = EchoProcess("p1", engine)

        def body():
            yield WaitUntil(lambda: True)  # satisfied: keeps running
            yield Wait(2.0)
            return "late"

        handle = process.run_operation("op", body())
        assert handle.pending and len(process._runners) == 1
        assert not hasattr(process._runners[0], "__dict__")
        engine.run()
        assert handle.done and handle.latency == 2.0
        assert process._runners == []

    def test_wait_until_wakes_on_message(self, engine):
        class Collector(EchoProcess):
            def op_body(self):
                yield WaitUntil(lambda: len(self.received) >= 2)
                return list(self.received)

        process = Collector("p1", engine)
        handle = process.run_operation("collect", process.op_body())
        assert handle.pending
        process.deliver_payload("a", Ping())
        assert handle.pending
        process.deliver_payload("b", Ping())
        assert handle.done
        assert len(handle.result) == 2

    def test_wait_until_already_true_continues(self, engine):
        process = EchoProcess("p1", engine)

        def body():
            yield WaitUntil(lambda: True)
            return "fast"

        handle = process.run_operation("op", body())
        assert handle.done

    def test_notify_re_evaluates_conditions(self, engine):
        process = EchoProcess("p1", engine)
        flag = {"ready": False}

        def body():
            yield WaitUntil(lambda: flag["ready"])
            return "woken"

        handle = process.run_operation("op", body())
        assert handle.pending
        flag["ready"] = True
        process.notify()
        assert handle.done

    def test_mixed_effects(self, engine):
        process = EchoProcess("p1", engine)

        def body():
            yield Wait(2.0)
            yield WaitUntil(lambda: len(process.received) >= 1)
            yield Wait(1.0)
            return engine.now

        handle = process.run_operation("op", body())
        engine.run()  # the Wait(2.0) elapses; condition still false
        assert handle.pending
        process.deliver_payload("x", Ping())
        engine.run()  # the final Wait(1.0)
        assert handle.done
        assert handle.result == 3.0

    def test_departure_abandons_running_operation(self, engine):
        process = EchoProcess("p1", engine)

        def body():
            yield Wait(10.0)
            return "never"

        handle = process.run_operation("op", body())
        engine.run_until(1.0)
        process.depart()
        engine.run()
        assert handle.abandoned

    def test_departure_abandons_whatever_the_operation_blocked_on(self, engine):
        process = EchoProcess("p1", engine)

        def timed():
            yield Wait(10.0)

        def conditional():
            yield WaitUntil(lambda: False)

        def second_step():
            yield WaitUntil(lambda: True)
            yield Wait(10.0)

        handles = [
            process.run_operation("op", body())
            for body in (timed, conditional, second_step)
        ]
        seen = []
        for handle in handles:
            handle.add_done_callback(seen.append)
        assert engine.pending_count == 2 and len(process._watchers) == 1
        engine.run_until(1.0)
        process.depart()
        assert all(handle.abandoned for handle in handles)
        assert all(handle.response_time is None for handle in handles)
        assert seen == handles
        # Timers cancelled, watcher dropped, both lists handed back.
        assert engine.pending_count == 0
        assert process._runners == () and process._watchers == ()
        engine.run()
        assert engine.fired_count == 0

    def test_departed_process_cannot_invoke(self, engine):
        process = EchoProcess("p1", engine)
        process.depart()

        def body():
            yield Wait(1.0)

        with pytest.raises(ProcessDepartedError):
            process.run_operation("op", body())

    def test_bad_yield_value_raises(self, engine):
        process = EchoProcess("p1", engine)

        def body():
            yield "not an effect"

        with pytest.raises(ProcessError):
            process.run_operation("op", body())

    def test_concurrent_operations_on_one_process(self, engine):
        process = EchoProcess("p1", engine)

        def body(duration):
            yield Wait(duration)
            return duration

        slow = process.run_operation("slow", body(5.0))
        fast = process.run_operation("fast", body(1.0))
        engine.run()
        assert fast.done and slow.done
        assert fast.response_time == 1.0
        assert slow.response_time == 5.0

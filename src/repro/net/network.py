"""Reliable point-to-point network (Section 3.2).

Guarantees implemented here, mirroring the paper:

* **Reliability** — the network does not lose, create or modify
  messages; every send results in exactly one delivery attempt whose
  latency comes from the configured :class:`~repro.net.delay.DelayModel`.
* **Presence-gated delivery** — a message reaching a process that has
  left the system is dropped (a departed process "does not send or
  receive messages", Section 2.1).  Listening processes *do* receive:
  a joiner is in listening mode from the instant its join begins.
* **Send rights** — any present process may send to any process whose
  identity it knows; identity knowledge is the protocols' concern, the
  network only refuses sends *from* departed processes.

Fault injection (:mod:`repro.faults`) deliberately suspends the
reliability guarantee: an installed :class:`FaultInjector` may veto or
delay deliveries (loss, partitions, spikes) and crash processes at
targeted phases.  Fault-induced drops are accounted in
``faulted_count``, separately from ``dropped_count`` (departed
destination), and stamped with a ``reason`` in the trace.  With no
injector installed the paths are unchanged.

Delivery hot path
-----------------

A message costs what it carries: every scheduled delivery is a queue
tuple of the scheduler's slab plane — no ``Event``, no object per
message, no free list — fired through one of two slab items:

* a single-destination delivery *is* its queue entry, ``(instant,
  DELIVERY, sequence, item, dest, sender, payload, broadcast_id)``,
  ``item`` being the network's one :class:`_Delivery`: every
  point-to-point send (all protocol, baseline and migration traffic;
  ``broadcast_id`` is ``None``), the per-recipient pushes of a fan-out
  that can tie instants or that passes the fault gate (in recipient
  order, with consecutive sequence numbers), and the broadcast
  service's entrant offers (:meth:`Network.deliver_scheduled`);
* a fault-free broadcast under a continuous delay model pushes ONE
  self-re-arming :class:`_FanoutSweep` walking its sorted arrival
  vector — an ``array('d')`` of instants beside the recipient list,
  16 B per arrival in flight — one queue slot per in-flight broadcast,
  not n.

These two are the only :class:`~repro.sim.events.SlabEntry` kinds in
``repro.net``, and nothing is pooled: no per-recipient envelope,
``Event``, label string or entry object exists on the delivery path,
and a popped tuple or a finished sweep dies by refcount — nothing is
retained once a message lands.

A send is a reply or a round
----------------------------

Every message the paper's figures send answers the message just
received, or carries one payload to a known set.  A handler *returns*
its answer to the delivery's sender and the site that fired the
delivery sends it — after the handler, before the watcher poll, where
the handler's own send would stand; a round is one
:meth:`Network.send_round`.  Four places may draw a point-to-point
delay: :meth:`Network.send_payload`, ``send_round`` and the reply arms
of the two ``fire`` methods — the last three only while
``_p2p_uniform`` is set (a clean, untraced link), where they push the
queue tuple themselves and skip what they already hold: the replying
process was just fetched from ``_present``, the sender it answers has a
record, nothing gates or traces the link.  With ``_p2p_uniform``
``None`` — tracing, an installed plan — they call ``send_payload``, as
does the checked path, so it stays the single slow path and the only
place a gate, a SEND record or a fault decision lives.  (The inline
pushes skip its finite-instant test too: the declared ``(lo, span)`` are
finite, and ``_push`` cannot take a non-finite instant — ``int()`` of it
raises.)

Each payload type has one handler body, the recipient's ``on_<type>``
method, and every delivery ends in it.  A fault plan acts at the
*transmit* gate (``on_transmit``, in ``send_payload``,
``deliver_scheduled`` and the fan-out loop) and otherwise leaves the
fire sites alone.  The first and last read the injector's loss gate
before the call: a class with a gate on the current stretch — no spike
or partition live, only losses that restrict no link naming it — has
those losses drawn right there, from the injector's stream in plan
order, counted in its ``lost_count`` and dropped through ``_drop`` like
any veto; ``on_transmit`` decides the rest.  At the fire sites, with
``Network._fast`` — tracing off, and no installed plan that can act
when a delivery *fires* (a drop-mode partition, a crash:
``FaultInjector.gates_delivery``) — both ``fire`` methods count the
delivery and dispatch inline (the per-class ``_dispatch`` cache, the
handler, its reply, the watcher poll).  Tracing and delivery-gating
plans take :meth:`Network._fire_checked`, which wraps that same
dispatch in the delivery-time gates and the trace record.  On a clean
link the delay model's declared uniform parameters (checked at
construction) let every send and the sweep draw ``lo + span *
random()`` inline —
``sample`` written out; any installed plan withdraws both pairs and
tracing the point-to-point one, so traced ≡ untraced parity is also the
oracle for "inline draw ≡ ``sample``".  Every path reproduces the
one-message-per-recipient ``(time, priority, sequence)`` order
byte-for-byte (the golden store's ``digest/``, ``kernel/`` and
``trace/`` entries, ``tests/golden.json``, pin this).
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import TYPE_CHECKING, Any, Sequence

from ..faults.injector import REASON_DEPARTED, REASON_LOSS
from ..sim.clock import Time
from ..sim.engine import EventScheduler
from ..sim.errors import ConfigError, NetworkError, UnknownProcessError
from ..sim.events import Priority, SlabEntry
from ..sim.membership import Membership
from ..sim.rng import RngRegistry
from ..sim.trace import TraceKind, TraceLog
from .delay import DelayModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> sim only)
    from ..faults.injector import FaultInjector

_DELIVERY = int(Priority.DELIVERY)
_INF = float("inf")


class _Delivery(SlabEntry):
    """The queue item of every single-destination delivery — one per
    network, none per message: the delivery is the entry naming it,
    ``(instant, DELIVERY, sequence, self, dest, sender, payload,
    broadcast_id)``.  ``broadcast_id`` tells a fan-out delivery (DELIVER
    trace kind) from a point-to-point receive (``None``).
    """

    __slots__ = ("network",)

    def __init__(self, network: "Network") -> None:
        self.network = network

    def fire(self, entry: tuple) -> None:
        network = self.network
        if network._fast:
            process = network._present.get(entry[4])
            if process is None:
                network.dropped_count += 1
                return
            network.delivered_count += 1
            payload = entry[6]
            # ``deliver_payload`` inlined (the frame is measurable on
            # every workload): cached handler, then the watcher poll.
            handler = process._dispatch.get(payload.__class__)
            if handler is None:
                handler = process._handler_for(payload.__class__)
            reply = handler(process, entry[5], payload)
            if reply is not None:
                # The handler's answer to the sender, queued where its
                # own send would have been: after the handler, before
                # the poll.  On a clean link this is ``send_payload``
                # written out, minus what this site already holds — a
                # present process, a sender that has a record.
                p2p = network._p2p_uniform
                if p2p is None:
                    network.send_payload(entry[4], entry[5], reply)
                else:
                    engine = network.engine
                    engine._push((
                        engine._now + (p2p[0] + p2p[1] * network._rng.random()),
                        _DELIVERY, engine._sequence, self,
                        entry[5], entry[4], reply, None,
                    ))
                    engine._sequence += 1
                    engine._live += 1
                    network.sent_count += 1
            watchers = process._watchers
            if watchers:
                # One watcher (a joiner waits on exactly one condition)
                # polls without the snapshot copy — ``poll`` may remove
                # it, but the reference is already taken.
                if len(watchers) == 1:
                    watchers[0].poll()
                else:
                    for watcher in list(watchers):
                        watcher.poll()
            return
        network._fire_checked(entry[5], entry[4], entry[6], entry[7])


class _FanoutSweep(SlabEntry):
    """One queue slot carrying an *entire* broadcast fan-out.

    The fan-out's arrivals are drawn up front (in recipient order, so
    the RNG stream is untouched), sorted by instant, and then swept:
    the sweep sits in the queue at the next arrival's instant, delivers
    that one recipient when it fires, and re-pushes itself at the
    following instant — one queue slot per in-flight broadcast, not one
    per in-flight delivery.  A pending arrival costs 16 B and no object:
    its instant, 8 B in the ``array('d')`` ``times``, and its recipient's
    slot in the list ``dests`` (the pid strings are the membership's).
    Built per broadcast (a few hundred a run: no free list), dropped
    with its last arrival.

    Ordering: arrivals are sorted by ``(instant, recipient index)``, so
    same-instant recipients deliver in recipient order, exactly like
    consecutive per-recipient sequence numbers.  Relative to *other*
    events the re-push draws a fresh (later) sequence number, which can
    only reorder exact ``(time, priority)`` ties — impossible under the
    continuous delay models this fast path serves (the determinism
    digests and the kernel-parity suite pin this).  ``size`` stays the
    inherited 1: each fire performs exactly one logical delivery, so
    the scheduler's counters see the same totals as per-recipient
    entries.
    """

    __slots__ = ("network", "sender", "payload", "broadcast_id",
                 "times", "dests", "index")

    def __init__(
        self,
        network: "Network",
        sender: str,
        payload: Any,
        broadcast_id: int,
        times: array,
        dests: list[str],
    ) -> None:
        self.network = network
        self.sender = sender
        self.payload = payload
        self.broadcast_id = broadcast_id
        self.times = times
        self.dests = dests
        self.index = 0

    def fire(self, entry: tuple) -> None:
        network = self.network
        index = self.index
        dest = self.dests[index]
        index += 1
        times = self.times
        if index < len(times):
            # Re-arm at the next arrival before delivering: the sorted
            # vector guarantees monotone instants, and a handler that
            # raises leaves the remaining arrivals queued — exactly
            # like pre-pushed per-recipient entries.
            self.index = index
            engine = network.engine
            engine._push((times[index], _DELIVERY, engine._sequence, self))
            engine._sequence += 1
        if network._fast:
            payload = self.payload
            process = network._present.get(dest)
            if process is None:
                network.dropped_count += 1
                return
            network.delivered_count += 1
            # Same inlined dispatch as :meth:`_Delivery.fire`.
            handler = process._dispatch.get(payload.__class__)
            if handler is None:
                handler = process._handler_for(payload.__class__)
            reply = handler(process, self.sender, payload)
            if reply is not None:
                # Same reply arm as :meth:`_Delivery.fire`.
                p2p = network._p2p_uniform
                if p2p is None:
                    network.send_payload(dest, self.sender, reply)
                else:
                    engine = network.engine
                    engine._push((
                        engine._now + (p2p[0] + p2p[1] * network._rng.random()),
                        _DELIVERY, engine._sequence, network._delivery,
                        self.sender, dest, reply, None,
                    ))
                    engine._sequence += 1
                    engine._live += 1
                    network.sent_count += 1
            watchers = process._watchers
            if watchers:
                if len(watchers) == 1:
                    watchers[0].poll()
                else:
                    for watcher in list(watchers):
                        watcher.poll()
            return
        network._fire_checked(
            self.sender, dest, self.payload, self.broadcast_id
        )


class Network:
    """Point-to-point transport with pluggable delay model."""

    def __init__(
        self,
        engine: EventScheduler,
        membership: Membership,
        delay_model: DelayModel,
        trace: TraceLog,
        rng: RngRegistry,
    ) -> None:
        self.engine = engine
        self.membership = membership
        self.delay_model = delay_model
        self.trace = trace
        self._rng = rng.stream("net.point_to_point")
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0  # destination had departed
        self.faulted_count = 0  # injected loss / partition drops
        # Fault gate: ``None`` means the un-faulted fast path — no extra
        # work per message beyond this attribute test.
        self.faults: FaultInjector | None = None
        # The fire sites' one flag: tracing off (fixed at construction)
        # AND no installed plan that gates deliveries.
        self._fast = not trace._enabled
        # Hot-path aliases: the membership dicts are bound once (only
        # ever mutated in place) and the delay model is fixed, so the
        # per-delivery attribute chains collapse to one load each.
        self._present = membership._present
        self._known = membership._processes
        self._sample = delay_model.sample
        # The model's declared uniform draw parameters, which the
        # inline draws of ``send_payload`` and the sweep run on.
        # ``None`` — no declaration, a fault plan (``install_faults``)
        # or, point-to-point, tracing — means ``sample`` is called.
        p2p = _declared_uniform(delay_model, "p2p_uniform")
        self._p2p_uniform = None if trace._enabled else p2p
        self._bcast_uniform = _declared_uniform(delay_model, "broadcast_uniform")
        # The item of every single-destination queue entry.
        self._delivery = _Delivery(self)

    def install_faults(self, injector: FaultInjector) -> None:
        """Install a fault injector (at most one per network)."""
        if self.faults is not None:
            raise NetworkError("a fault injector is already installed")
        self.faults = injector
        # Deliveries take the checked path only if the plan can act when
        # one fires; and the declared uniform parameters — they describe
        # a clean link — are withdrawn, so that every send samples the
        # model and every fan-out takes the per-recipient arm.
        self._fast = not self.trace._enabled and not injector.gates_delivery
        self._p2p_uniform = self._bcast_uniform = None

    def send_payload(self, sender: str, dest: str, payload: Any) -> Time:
        """Send ``payload`` from ``sender`` to ``dest``; returns the
        arrival instant.

        The delivery is scheduled immediately with a latency drawn from
        the delay model; whether it lands depends on the receiver still
        being present at that instant.  The delivery is its queue tuple
        — a message allocates nothing else.
        """
        # The gates as direct dict probes (``is_present`` and
        # ``__contains__`` are these very lookups behind a call).
        if sender not in self._present:
            raise NetworkError(f"departed process {sender!r} cannot send")
        if dest not in self._known:
            raise UnknownProcessError(f"destination {dest!r} was never in the system")
        engine = self.engine
        now = engine._now
        p2p = self._p2p_uniform
        if p2p is not None:
            # A clean link: ``sample`` written out (``now + (lo + span *
            # r)`` keeps the delay a single float, so the sum rounds
            # exactly like ``now + delay``); positive by construction.
            deliver_at = now + (p2p[0] + p2p[1] * self._rng.random())
        else:
            delay = self._sample(sender, dest, payload, now, self._rng)
            if delay <= 0:
                raise NetworkError(
                    f"delay model produced non-positive delay {delay!r}"
                )
            deliver_at = now + delay
        fault_reason = None
        faults = self.faults
        if faults is not None:
            # The class's loss gate, read under the test ``on_transmit``
            # opens with (``repro.faults.injector``): its losses are
            # drawn here, as ``on_transmit`` would draw them; a class
            # with none on this stretch gets the call.
            gate = (
                faults._gates.get(payload.__class__)
                if faults._from <= now < faults._until
                else None
            )
            if gate is None:
                deliver_at, fault_reason = faults.on_transmit(
                    sender, dest, payload, now, deliver_at
                )
            else:
                for probability in gate:
                    if faults._rng.random() < probability:
                        faults.lost_count += 1
                        fault_reason = REASON_LOSS
                        break
        self.sent_count += 1
        if self.trace._enabled:
            self.trace.record(
                now,
                TraceKind.SEND,
                sender,
                dest=dest,
                type=type(payload).__name__,
                arrives=deliver_at,
            )
        if fault_reason is not None:
            # The message *was* sent (it counts, and traces a SEND) — it
            # just never gets a delivery event, so the trace reads SEND
            # then DROP exactly like a delivery-time loss.
            self._drop(now, sender, dest, type(payload).__name__, fault_reason)
            return deliver_at
        # schedule_slab inlined (same validation, one size-1 entry) —
        # see the scheduler's design notes on who may.
        if not (now <= deliver_at < _INF):
            engine._reject_instant(deliver_at)
        engine._push((
            deliver_at, _DELIVERY, engine._sequence, self._delivery,
            dest, sender, payload, None,
        ))
        engine._sequence += 1
        engine._live += 1
        return deliver_at

    def send_round(self, sender: str, dests: Sequence[str], payload: Any) -> None:
        """Send one ``payload`` from ``sender`` to each of ``dests`` — a
        quorum round, a flush of parked inquirers: the per-destination
        :meth:`send_payload` loop as one call.

        Same draws in list order, same consecutive sequence numbers,
        same counters, and the same error after the same prefix has
        been queued and counted; off a clean link it *is* that loop.
        """
        p2p = self._p2p_uniform
        if p2p is None or not dests:
            for dest in dests:
                self.send_payload(sender, dest, payload)
            return
        if sender not in self._present:
            raise NetworkError(f"departed process {sender!r} cannot send")
        lo, span = p2p
        engine = self.engine
        now = engine._now
        push = engine._push
        random = self._rng.random
        known = self._known
        item = self._delivery
        sequence = first = engine._sequence
        try:
            for dest in dests:
                if dest not in known:
                    raise UnknownProcessError(
                        f"destination {dest!r} was never in the system"
                    )
                push((
                    now + (lo + span * random()), _DELIVERY, sequence, item,
                    dest, sender, payload, None,
                ))
                sequence += 1
        finally:
            engine._sequence = sequence
            engine._live += sequence - first
            self.sent_count += sequence - first

    def _drop(
        self, now: Time, sender: str, dest: str, payload_type: str, reason: str
    ) -> None:
        """Count and trace one delivery that will not happen: the
        destination has left, or the injector vetoed it (``reason``)."""
        if reason == REASON_DEPARTED:
            self.dropped_count += 1
        else:
            self.faulted_count += 1
        if self.trace._enabled:
            self.trace.record(
                now,
                TraceKind.DROP,
                dest,
                sender=sender,
                type=payload_type,
                reason=reason,
            )

    def deliver_scheduled(
        self,
        sender: str,
        dest: str,
        payload: Any,
        deliver_at: Time,
        broadcast_id: int,
    ) -> None:
        """Schedule one delivery whose instant the caller drew (the
        broadcast service's offers of in-flight broadcasts to entrants).

        Not a send — no delay draw, no ``sent_count``, no SEND record —
        but it passes the fault gate like any transmission, and lands
        as a DELIVER of ``broadcast_id``.
        """
        if self.faults is not None:
            now = self.engine.now
            deliver_at, fault_reason = self.faults.on_transmit(
                sender, dest, payload, now, deliver_at
            )
            if fault_reason is not None:
                self._drop(now, sender, dest, type(payload).__name__, fault_reason)
                return
        self.engine.schedule_slab(
            deliver_at, _DELIVERY, self._delivery,
            dest, sender, payload, broadcast_id,
        )

    # ------------------------------------------------------------------
    # Broadcast fan-out
    # ------------------------------------------------------------------

    def deliver_fanout(
        self,
        sender: str,
        dests: list[str],
        payload: Any,
        now: Time,
        broadcast_id: int,
        rng: Any,
    ) -> None:
        """Schedule one broadcast's whole fan-out.

        Delays are drawn here, from ``rng`` (the broadcast service's
        stream), one per recipient in recipient order — so the fault
        gate sees every delivery at the same point of the RNG stream as
        a one-send-per-recipient loop would.
        """
        count = len(dests)
        if count == 0:
            return
        engine = self.engine
        push = engine._push
        params = self._bcast_uniform
        if params is not None and params[1] > 0.0:
            # Sweep arm (never under an injector: its install withdrew
            # the parameters), reserved for *continuous* draws — see
            # :class:`_FanoutSweep`.  Every arrival is drawn inline, in
            # recipient order: ``sample_broadcast_many``'s stream
            # exactly, ``now + (lo + span * r)`` keeping the delay one
            # float so the sum rounds like ``now + delay``, positive by
            # construction.  A stable sort of the recipients keyed on
            # their instants *is* the ``(instant, recipient index)``
            # order, with no pair and no index built per recipient.
            lo, span = params
            rng_random = rng.random
            times = [now + (lo + span * rng_random()) for _ in range(count)]
            if not (times[-1] < _INF):
                engine._reject_instant(times[-1])
            # The key function walks ``times`` in step with ``dests``
            # (``sorted`` computes its keys in list order), so the
            # recipients come out stably sorted on their instants; the
            # instants then sort alone — ties are equal floats.
            ordered = sorted(dests, key=partial(next, iter(times)))
            times.sort()
            sweep = _FanoutSweep(
                self, sender, payload, broadcast_id, array("d", times), ordered
            )
            push((times[0], _DELIVERY, engine._sequence, sweep))
            engine._sequence += 1
            engine._live += count
            return
        # Per-recipient arm: arrivals CAN tie here — the eventually-
        # synchronous GST flush clamps every straggler to exactly
        # ``gst + delta``, a degenerate ``span == 0`` makes every draw
        # equal, a defer partition parks every recipient it cuts off on
        # its ``end`` — and tied deliveries must keep their consecutive-
        # sequence interleaving, so each recipient the fault gate lets
        # through gets its own queue tuple, pushed in recipient order.
        # ``DELIVERY`` is the lowest priority value: nothing a handler
        # schedules at a tied instant overtakes a later recipient.
        delays = self.delay_model.sample_broadcast_many(
            sender, dests, payload, now, rng
        )
        faults = self.faults
        gate = None
        if faults is not None and faults._from <= now < faults._until:
            # ``send_payload``'s gate, read once a fan-out.
            gate = faults._gates.get(payload.__class__)
            if gate == ():
                faults = None  # untouched: no test per recipient
        payload_type = type(payload).__name__
        item = self._delivery
        sequence = first = engine._sequence
        for dest, delay in zip(dests, delays):
            if delay <= 0:
                raise NetworkError(
                    f"delay model produced non-positive delay {delay!r}"
                )
            deliver_at = now + delay
            if faults is not None:
                if gate is None:
                    deliver_at, fault_reason = faults.on_transmit(
                        sender, dest, payload, now, deliver_at, payload_type
                    )
                else:
                    fault_reason = None
                    for probability in gate:
                        if faults._rng.random() < probability:
                            faults.lost_count += 1
                            fault_reason = REASON_LOSS
                            break
                if fault_reason is not None:
                    self._drop(now, sender, dest, payload_type, fault_reason)
                    continue
            if not (deliver_at < _INF):
                engine._reject_instant(deliver_at)
            push((
                deliver_at, _DELIVERY, sequence, item,
                dest, sender, payload, broadcast_id,
            ))
            sequence += 1
        engine._sequence = sequence
        engine._live += sequence - first

    def _fire_checked(
        self, sender: str, dest: str, payload: Any, broadcast_id: int | None
    ) -> None:
        """One traced / delivery-gated delivery: what :meth:`_Delivery.fire`
        and :meth:`_FanoutSweep.fire` do whenever ``_fast`` is off.

        It wraps the dispatch the fast arms inline, adding only what
        they may skip — in this order: fault drop, presence, crash,
        presence again, then count, trace and ``deliver_payload`` (the
        same ``on_<type>`` handler, the same watcher poll).
        """
        trace = self.trace
        faults = self.faults
        now = self.engine.now
        payload_type = type(payload).__name__
        is_present = self.membership.is_present
        if faults is not None:
            fault_reason = faults.drop_at_deliver(sender, dest, now)
            if fault_reason is not None:
                self._drop(now, sender, dest, payload_type, fault_reason)
                return
        if not is_present(dest):
            self._drop(now, sender, dest, payload_type, REASON_DEPARTED)
            return
        if faults is not None:
            # Crash faults count only genuinely deliverable messages; a
            # crash of the destination then drops this very delivery at
            # the re-checked presence gate, like any departure.
            faults.crash_at_deliver(sender, dest, payload_type)
            if not is_present(dest):
                self._drop(now, sender, dest, payload_type, REASON_DEPARTED)
                return
        self.delivered_count += 1
        if trace._enabled:
            trace.record(
                now,
                TraceKind.DELIVER if broadcast_id is not None else TraceKind.RECEIVE,
                dest,
                sender=sender,
                type=payload_type,
            )
        self.membership.process(dest).deliver_payload(
            sender, payload, self.send_payload
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(sent={self.sent_count}, delivered={self.delivered_count}, "
            f"dropped={self.dropped_count}, faulted={self.faulted_count})"
        )


def _declared_uniform(model: DelayModel, method: str) -> tuple[Time, Time] | None:
    """``model.<method>()`` — the ``(lo, span)`` of a uniform draw, or
    ``None`` — refused unless ``lo + span * random()`` is positive and
    finite whatever ``random()`` returns: on that strength the inline
    draws skip the per-message ``delay <= 0`` test."""
    params = getattr(model, method)()
    if params is not None:
        lo, span = params
        if not (0 < lo < _INF and 0 <= span < _INF):  # NaN fails both
            raise ConfigError(
                f"{type(model).__name__}.{method}() declares (lo, span) = "
                f"({lo!r}, {span!r}): lo must be finite and positive, "
                f"span finite and non-negative"
            )
    return params

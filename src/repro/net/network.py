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

Every scheduled delivery rides the scheduler's slab queue — no full
``Event``, no per-recipient envelope, no label f-string — on one of
two slab entries:

* every single-destination delivery is one pooled :class:`_Unicast`:
  :meth:`Network.send_payload` (all protocol, baseline and migration
  traffic), the reply sends the sync protocol fuses on a clean link,
  the per-recipient pushes of a fan-out that can tie instants or that
  passes the fault gate, and the broadcast service's entrant offers
  (:meth:`Network.deliver_scheduled`, which carry their
  ``broadcast_id``);
* a fault-free broadcast under a continuous delay model pushes ONE
  self-re-arming :class:`_FanoutSweep` walking its sorted arrival
  vector.

Each payload type has one handler body, the recipient's ``on_<type>``
method, and every delivery ends in it.  A fault plan acts at the
*transmit* gate (``on_transmit``, in ``send_payload``,
``deliver_scheduled`` and the fan-out loop) and otherwise leaves the
fire sites alone: with ``Network._fast`` — tracing off, and no installed
plan that can act when a delivery *fires* (a drop-mode partition, a
crash: ``FaultInjector.gates_delivery``) — :meth:`_Unicast.fire` and
:meth:`_FanoutSweep.fire` count the delivery and dispatch inline
(the per-class ``_dispatch`` cache, the handler, the watcher poll).
Tracing and delivery-gating plans take :meth:`Network._fire_checked`,
which wraps that same dispatch — it adds the delivery-time gates and
the trace record, then calls ``deliver_payload``.  Only a clean,
untraced link keeps the delay model's declared point-to-point draw
parameters (``_p2p_uniform``): tracing withdraws them, and any installed
plan withdraws them together with the broadcast pair, so a handler that
fuses its send on ``_p2p_uniform`` skips neither a SEND record nor the
transmit gate.  Every path reproduces the
one-message-per-recipient ``(time, priority, sequence)`` order
byte-for-byte (the determinism digests and
``tests/properties/kernel_golden.json`` pin this).

Slab entries are recycled through per-network free lists, so steady
state churn storms allocate nothing per delivery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from ..faults.injector import REASON_DEPARTED
from ..sim.clock import Time
from ..sim.engine import EventScheduler
from ..sim.errors import NetworkError, UnknownProcessError
from ..sim.events import Priority, SlabEntry
from ..sim.membership import Membership
from ..sim.rng import RngRegistry
from ..sim.trace import TraceKind, TraceLog
from .delay import DelayModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> sim only)
    from ..faults.injector import FaultInjector

_DELIVERY = int(Priority.DELIVERY)
_INF = float("inf")


class _Unicast(SlabEntry):
    """One queue slot for one single-destination delivery.

    The only point-to-point delivery: :meth:`Network.send_payload`,
    the reply sends sync fuses on a clean link, the per-recipient pushes
    of a tie-prone or fault-gated fan-out and the broadcast service's
    entrant offers all land here.  ``size`` stays the inherited class
    attribute (1) — no per-entry store, no per-fire load beyond a
    type-dict hit.

    ``broadcast_id`` distinguishes a fan-out delivery (DELIVER trace
    kind) from a point-to-point receive.
    """

    __slots__ = ("network", "sender", "payload", "broadcast_id", "dest")

    def __init__(self, network: "Network") -> None:
        self.network = network
        self.sender = ""
        self.payload: Any = None
        self.broadcast_id: int | None = None
        self.dest = ""

    def fire(self) -> None:
        network = self.network
        if network._fast:
            sender = self.sender
            payload = self.payload
            process = network._present.get(self.dest)
            # Recycle before dispatching: the handler may send again
            # and reuse this very slot — everything is extracted.
            self.payload = None
            network._unicast_pool.append(self)
            if process is None:
                network.dropped_count += 1
                return
            network.delivered_count += 1
            # ``deliver_payload`` inlined (the frame is measurable on
            # every workload): cached handler, then the watcher poll.
            handler = process._dispatch.get(payload.__class__)
            if handler is None:
                handler = process._handler_for(payload.__class__)
            handler(process, sender, payload)
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
        network._fire_checked(
            self.sender, self.dest, self.payload, self.broadcast_id
        )
        self.payload = None
        network._unicast_pool.append(self)


class _FanoutSweep(SlabEntry):
    """One queue slot carrying an *entire* broadcast fan-out.

    The fan-out's arrivals are drawn up front (in recipient order, so
    the RNG stream is untouched), sorted by instant, and then swept:
    the entry sits in the queue at the next arrival's instant, delivers
    that one recipient when it fires, and re-pushes itself at the
    following instant.  Compared to one pooled entry per recipient this
    keeps the queue ~two orders of magnitude smaller under broadcast
    storms (one slot per in-flight broadcast, not one per in-flight
    delivery) and replaces the per-recipient entry setup with one slot
    in each of two lists.

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
                 "times", "dests", "index", "count")

    def __init__(self, network: "Network") -> None:
        self.network = network
        self.sender = ""
        self.payload: Any = None
        self.broadcast_id: int | None = None
        self.times: Sequence[Time] = ()
        self.dests: Sequence[str] = ()
        self.index = 0
        self.count = 0

    def fire(self) -> None:
        network = self.network
        index = self.index
        dest = self.dests[index]
        index += 1
        if index < self.count:
            # Re-arm at the next arrival before delivering: the sorted
            # vector guarantees monotone instants, and a handler that
            # raises leaves the remaining arrivals queued — exactly
            # like pre-pushed per-recipient entries.
            self.index = index
            engine = network.engine
            engine._push((self.times[index], _DELIVERY, engine._sequence, self))
            engine._sequence += 1
            last = False
        else:
            last = True
        if network._fast:
            payload = self.payload
            process = network._present.get(dest)
            if process is None:
                network.dropped_count += 1
            else:
                network.delivered_count += 1
                # Same inlined dispatch as :meth:`_Unicast.fire`.
                handler = process._dispatch.get(payload.__class__)
                if handler is None:
                    handler = process._handler_for(payload.__class__)
                handler(process, self.sender, payload)
                watchers = process._watchers
                if watchers:
                    if len(watchers) == 1:
                        watchers[0].poll()
                    else:
                        for watcher in list(watchers):
                            watcher.poll()
        else:
            network._fire_checked(
                self.sender, dest, self.payload, self.broadcast_id
            )
        if last:
            self.payload = None
            self.times = self.dests = ()
            network._sweep_pool.append(self)


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
        # The fire sites' flag: tracing off AND no installed plan that
        # gates deliveries, so they test a single attribute.
        # ``trace._enabled`` never changes after construction, so this
        # only needs refreshing when a fault injector lands.
        self._fast = not trace._enabled
        # Hot-path aliases: the membership dicts are bound once (only
        # ever mutated in place) and the delay model is fixed, so the
        # per-delivery attribute chains collapse to one load each.
        self._present = membership._present
        self._records = membership._records
        self._sample = delay_model.sample
        # Uniform point-to-point draw parameters, if the delay model
        # declares them AND the link is clean and untraced: sync fuses
        # its reply sends on them (``lo + span * random()``, bit-
        # identical to ``sample``, pushed without ``send_payload``'s
        # gates or SEND record).  ``None`` — no declaration, tracing
        # on, or (``install_faults``) a fault plan — means every send
        # is ``send_payload``.
        self._p2p_uniform = (
            None if trace._enabled else delay_model.p2p_uniform()
        )
        # Same idea for broadcast draws: with declared parameters the
        # fan-out fuses its per-recipient draw into the scheduling loop.
        self._bcast_uniform = delay_model.broadcast_uniform()
        # Free lists for the slab entries (see module docstring).
        self._unicast_pool: list[_Unicast] = []
        self._sweep_pool: list[_FanoutSweep] = []

    def install_faults(self, injector: FaultInjector) -> None:
        """Install a fault injector (at most one per network)."""
        if self.faults is not None:
            raise NetworkError("a fault injector is already installed")
        self.faults = injector
        # Deliveries take the checked path only if the plan can act when
        # one fires; and the declared uniform parameters — they describe
        # a clean link — are withdrawn, so that every send is
        # ``send_payload`` and every fan-out the per-recipient arm:
        # nothing draws and sends around the transmit gate.
        self._fast = not self.trace._enabled and not injector.gates_delivery
        self._p2p_uniform = self._bcast_uniform = None

    @property
    def known_bound(self) -> Time | None:
        """The delay bound processes may rely on, if any (see delay model)."""
        return self.delay_model.known_bound

    def send_payload(self, sender: str, dest: str, payload: Any) -> Time:
        """Send ``payload`` from ``sender`` to ``dest``; returns the
        arrival instant.

        The delivery is scheduled immediately with a latency drawn from
        the delay model; whether it lands depends on the receiver still
        being present at that instant.  It rides a pooled size-1 slab
        entry, so quorum rounds allocate nothing per message beyond
        their payload.
        """
        # The gates as direct dict probes (``is_present`` and
        # ``__contains__`` are these very lookups behind a call).
        if sender not in self._present:
            raise NetworkError(f"departed process {sender!r} cannot send")
        if dest not in self._records:
            raise UnknownProcessError(f"destination {dest!r} was never in the system")
        now = self.engine._now
        delay = self._sample(sender, dest, payload, now, self._rng)
        if delay <= 0:
            raise NetworkError(
                f"delay model produced non-positive delay {delay!r}"
            )
        deliver_at = now + delay
        fault_reason = None
        if self.faults is not None:
            deliver_at, fault_reason = self.faults.on_transmit(
                sender, dest, payload, now, deliver_at
            )
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
            self._account_fault_drop(
                now, sender, dest, type(payload).__name__, fault_reason
            )
            return deliver_at
        pool = self._unicast_pool
        entry = pool.pop() if pool else _Unicast(self)
        entry.sender = sender
        entry.payload = payload
        entry.broadcast_id = None
        entry.dest = dest
        # schedule_slab inlined (same validation, one size-1 entry):
        # the kernel and this hot path are co-designed — see the module
        # docstring and the scheduler's design notes.
        engine = self.engine
        if not (engine._now <= deliver_at < _INF):
            engine._reject_instant(deliver_at)
        engine._push((deliver_at, _DELIVERY, engine._sequence, entry))
        engine._sequence += 1
        engine._live += 1
        return deliver_at

    def _account_fault_drop(
        self, now: Time, sender: str, dest: str, payload_type: str, reason: str
    ) -> None:
        """Shared accounting for every injector-vetoed delivery."""
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
                self._account_fault_drop(
                    now, sender, dest, type(payload).__name__, fault_reason
                )
                return
        pool = self._unicast_pool
        entry = pool.pop() if pool else _Unicast(self)
        entry.sender = sender
        entry.payload = payload
        entry.broadcast_id = broadcast_id
        entry.dest = dest
        self.engine.schedule_slab(deliver_at, _DELIVERY, entry)

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
        a one-send-per-recipient loop would.  With declared
        uniform parameters the draw fuses into the scheduling loop —
        same ``lo + span * random()`` per recipient, bit-identical to
        :meth:`~repro.net.delay.DelayModel.sample_broadcast_many` — and
        no delay vector is materialized at all.
        """
        count = len(dests)
        if count == 0:
            return
        engine = self.engine
        push = engine._push
        params = self._bcast_uniform
        if params is not None and params[1] > 0.0:
            # Fused sweep arm (never under an injector: its install
            # withdrew the parameters): draw every arrival inline
            # (recipient order — the RNG stream is exactly
            # ``sample_broadcast_many``'s, and ``now + (lo + span * r)``
            # keeps the delay a single float so the sum rounds exactly
            # like the two-step ``now + delay``; the model's constructor
            # already validated ``0 < lo``, so the positivity check is
            # subsumed), sort by ``(instant, recipient index)``, and
            # push ONE sweep entry that re-arms itself arrival by
            # arrival.  The sweep is reserved for *continuous* draws
            # (``span > 0``): its re-push sequence numbers can only
            # reorder exact instant ties, which are measure-zero here —
            # see :class:`_FanoutSweep` for the full argument.
            lo, span = params
            rng_random = rng.random
            pairs = [
                (now + (lo + span * rng_random()), i)
                for i in range(count)
            ]
            if not (pairs[-1][0] < _INF):
                engine._reject_instant(pairs[-1][0])
            pairs.sort()
            pool = self._sweep_pool
            sweep = pool.pop() if pool else _FanoutSweep(self)
            sweep.sender = sender
            sweep.payload = payload
            sweep.broadcast_id = broadcast_id
            sweep.index = 0
            sweep.count = count
            sweep.times = [instant for instant, _ in pairs]
            sweep.dests = [dests[i] for _, i in pairs]
            push((pairs[0][0], _DELIVERY, engine._sequence, sweep))
            engine._sequence += 1
            engine._live += count
            return
        # Per-recipient arm: arrivals CAN tie here — the eventually-
        # synchronous GST flush clamps every straggler to exactly
        # ``gst + delta``, a degenerate ``span == 0`` makes every draw
        # equal, a defer partition parks every recipient it cuts off on
        # its ``end`` — and tied deliveries must keep their consecutive-
        # sequence interleaving, so each recipient the fault gate lets
        # through gets its own pooled entry, pushed in recipient order.
        # ``DELIVERY`` is the lowest priority value: nothing a handler
        # schedules at a tied instant overtakes a later recipient.
        delays = self.delay_model.sample_broadcast_many(
            sender, dests, payload, now, rng
        )
        faults = self.faults
        payload_type = type(payload).__name__
        unicast_pool = self._unicast_pool
        unicast_pop = unicast_pool.pop
        sequence = first = engine._sequence
        for dest, delay in zip(dests, delays):
            if delay <= 0:
                raise NetworkError(
                    f"delay model produced non-positive delay {delay!r}"
                )
            deliver_at = now + delay
            if faults is not None:
                deliver_at, fault_reason = faults.on_transmit(
                    sender, dest, payload, now, deliver_at, payload_type
                )
                if fault_reason is not None:
                    self._account_fault_drop(
                        now, sender, dest, payload_type, fault_reason
                    )
                    continue
            if not (deliver_at < _INF):
                engine._reject_instant(deliver_at)
            entry = unicast_pop() if unicast_pool else _Unicast(self)
            entry.sender = sender
            entry.payload = payload
            entry.broadcast_id = broadcast_id
            entry.dest = dest
            push((deliver_at, _DELIVERY, sequence, entry))
            sequence += 1
        engine._sequence = sequence
        engine._live += sequence - first

    def _fire_checked(
        self, sender: str, dest: str, payload: Any, broadcast_id: int | None
    ) -> None:
        """One traced / delivery-gated delivery: what :meth:`_Unicast.fire`
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
                self._account_fault_drop(
                    now, sender, dest, payload_type, fault_reason
                )
                return
        if not is_present(dest):
            self._departed_drop(now, sender, dest, payload_type)
            return
        if faults is not None:
            # Crash faults count only genuinely deliverable messages; a
            # crash of the destination then drops this very delivery at
            # the re-checked presence gate, like any departure.
            faults.crash_at_deliver(sender, dest, payload_type)
            if not is_present(dest):
                self._departed_drop(now, sender, dest, payload_type)
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
        self.membership.process(dest).deliver_payload(sender, payload)

    def _departed_drop(
        self, now: Time, sender: str, dest: str, payload_type: str
    ) -> None:
        """Accounting for a delivery to a destination that has left."""
        self.dropped_count += 1
        if self.trace._enabled:
            self.trace.record(
                now,
                TraceKind.DROP,
                dest,
                sender=sender,
                type=payload_type,
                reason=REASON_DEPARTED,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(sent={self.sent_count}, delivered={self.delivered_count}, "
            f"dropped={self.dropped_count}, faulted={self.faulted_count})"
        )

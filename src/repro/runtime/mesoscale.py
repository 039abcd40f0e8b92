"""The mesoscale plane: analytic population aggregation around tracers.

Exact simulation pays O(n) per broadcast round — one delivery per
recipient, one reply per active process — which caps affordable
populations near 10⁵ even on the batched kernel.  The paper's claims at
n = 10⁶ (the churn threshold ``c_max(n) = (1 − 1/n)/(3δ)`` is an
asymptotic statement) need a second operating mode: **mesoscale**,
selected by ``SystemConfig(mode="mesoscale")``.

The idea: keep a small *tracer* subpopulation (``config.tracers`` real
protocol nodes, including the designated writer) that runs the exact
Figures 1–2 protocol, message by message, and is judged by the real
checkers — and replace the remaining ``n − tracers`` processes with one
:class:`AggregatePopulation` whose broadcast rounds are computed in
closed form from the delay model's declared uniform parameters
(:meth:`~repro.net.delay.DelayModel.broadcast_uniform` /
:meth:`~repro.net.delay.DelayModel.p2p_uniform`):

* a broadcast's arrival-count trajectory is the uniform CDF, quantized
  into deterministic per-instant integer counts
  (:func:`~repro.net.delay.quantize_arrivals`) and scheduled as
  :class:`~repro.sim.events.BulkEvent` slab entries — 16 scheduler
  slots per round instead of n;
* an inquiry round's replies follow the two-uniform convolution
  (broadcast out, point-to-point back —
  :func:`~repro.net.delay.uniform_sum_cdf`);
* churn acts in *cohorts*: each tick evicts its quota oldest-first from
  a cohort FIFO and admits one cohort of joiners whose Figure 1 join is
  executed analytically — the δ wait, the skip-inquiry branch (a joiner
  that adopts an in-flight WRITE during its first δ completes at
  ``t + δ`` and never inquires), the inquiry broadcast at ``t + δ``,
  and activation at ``t + 3δ`` for the members churn has not evicted.

Validity envelope (all declared, all cross-checked by experiment E18):

* **sync protocol, single register, fault-free, entrant policy
  "none"** — enforced by ``SystemConfig.__post_init__``;
* **oldest-first eviction, constant rate** — the worst case Lemma 2
  reasons about; uniform victim selection has no cohort closed form;
* **expected-value counts** — arrival counts are cumulatively rounded
  expectations, not draws; the trajectory is the mean field of the
  exact run (E18's tolerance covers the fluctuation);
* **optimistic write adoption** — the aggregate register adopts a write
  at its *first* quantized arrival instant; members that receive it
  later in the window are modeled as already holding it;
* **in-flight thinning** — messages to members evicted mid-flight are
  thinned analytically (factor ``1 − c·τ`` at arrival offset ``τ``),
  mirroring the exact network's delivered/dropped split;
* **protected tracers** — seed tracers never churn (an O(m/n)
  population distortion); tracer *joiners* ride the cohort FIFO and are
  evicted on the same oldest-first schedule as aggregate members, so
  their judged joins starve above the threshold exactly like the bulk;
* **unmodeled residue** — a joining tracer does not park aggregate
  inquiries (m is small), and deferred line-11 replies land in the bulk
  delivered counters but not in a tracer's reply phase.

Mesoscale runs are a declared approximation: they are excluded from the
determinism-digest gate (which pins ``mode="exact"`` only), and E18
holds their done-rates, threshold verdicts and delivered-count
trajectories against the exact kernel at n ∈ {10³, 10⁴} before pushing
alone to 10⁵ and 10⁶.
"""

from __future__ import annotations

from typing import Any, Callable

from ..churn.controller import check_stay_and_stop
from ..churn.model import ConstantChurn
from ..net.delay import quantize_arrivals, uniform_cdf, uniform_sum_cdf
from ..protocols.sync_reg import Inquiry, WriteMsg
from ..sim.clock import Time
from ..sim.engine import EventScheduler
from ..sim.errors import ChurnError, ConfigError
from ..sim.events import BulkEvent, Priority
from ..sim.trace import TraceKind
from .config import SystemConfig
from .system import DynamicSystem

#: Quantization resolution of every aggregate arrival trajectory.
ARRIVAL_STEPS = 16


class _Cohort:
    """One churn tick's admissions (or the seed population).

    ``joining``/``active`` count the anonymous aggregate members in
    each mode; ``tracer_pids`` lists the real tracer joiners admitted
    with this cohort (evicted after the cohort's anonymous members —
    within a cohort every member entered at the same instant, so
    oldest-first leaves the intra-cohort order unconstrained).
    ``spawned``/``done`` accumulate the join accounting E18 reads.
    """

    __slots__ = (
        "entered_at", "joining", "active", "tracer_pids", "spawned",
        "done", "inquired",
    )

    def __init__(self, entered_at: Time, joining: int, active: int = 0) -> None:
        self.entered_at = entered_at
        self.joining = joining
        self.active = active
        self.tracer_pids: list[str] = []
        self.spawned = joining
        self.done = 0
        self.inquired = 0


class AggregatePopulation:
    """The analytically aggregated bulk of a mesoscale system.

    Owns the cohort FIFO, the aggregate register state, and the
    closed-form broadcast machinery.  Installed as
    :attr:`~repro.net.broadcast.BroadcastService.aggregate`, so every
    *real* broadcast (tracer writes, tracer-joiner inquiries) is
    absorbed into the aggregate trajectories; aggregate-side rounds
    (cohort inquiries, deferred line-11 replies) never touch the real
    network at all — they bump its counters through bulk events.
    """

    def __init__(
        self,
        engine: EventScheduler,
        network: Any,
        membership: Any,
        delay_model: Any,
        size: int,
        delta: Time,
        initial_value: Any,
        key: Any = None,
    ) -> None:
        bcast = delay_model.broadcast_uniform()
        p2p = delay_model.p2p_uniform()
        if bcast is None or p2p is None:
            raise ConfigError(
                f"mesoscale needs a delay model with declared uniform "
                f"parameters (broadcast_uniform/p2p_uniform), got "
                f"{delay_model!r}"
            )
        self.engine = engine
        self.network = network
        self.membership = membership
        self.delta = float(delta)
        self.key = key
        self._bcast_lo, self._bcast_span = bcast
        self._p2p_lo, self._p2p_span = p2p
        # Aggregate register state: every aggregate member is modeled
        # as holding this (value, sequence) — see "optimistic write
        # adoption" in the module docstring.
        self.value = initial_value
        self.sequence = 0
        #: Per-member eviction hazard ``c`` for in-flight thinning;
        #: installed by ``MesoscaleSystem.attach_churn``.
        self.churn_hazard = 0.0
        seed = _Cohort(engine.now, joining=0, active=size)
        seed.spawned = 0  # seeds are not joins
        #: FIFO of cohorts still holding members (oldest first).
        self.cohorts: list[_Cohort] = [seed]
        #: Every joiner cohort ever admitted, for final accounting
        #: (one per churn tick — small even at 10⁶).
        self.cohort_log: list[_Cohort] = []
        # Recent write broadcasts [(time, value, sequence)] — the skip-
        # inquiry fraction reads the last δ of these.
        self._writes: list[tuple[Time, Any, int]] = []
        # Recent inquiry broadcasts [(time, count)] — deferred line-11
        # replies at activation read the last 3δ of these.
        self._inquiries: list[tuple[Time, int]] = []

    # ------------------------------------------------------------------
    # Population accounting
    # ------------------------------------------------------------------

    @property
    def present_count(self) -> int:
        return sum(c.joining + c.active for c in self.cohorts)

    @property
    def active_count(self) -> int:
        return sum(c.active for c in self.cohorts)

    def join_counts(self, cutoff: Time) -> tuple[int, int, int]:
        """``(joins, eligible, done)`` over every aggregate joiner ever
        admitted; *eligible* are those entering at or before ``cutoff``
        (their 3δ window fits the horizon), exactly E17's criterion."""
        joins = eligible = done = 0
        for cohort in self.cohort_log:
            joins += cohort.spawned
            if cohort.entered_at <= cutoff:
                eligible += cohort.spawned
                done += cohort.done
        return joins, eligible, done

    # ------------------------------------------------------------------
    # Closed-form round scheduling
    # ------------------------------------------------------------------

    def _schedule_bulk(
        self,
        count: int,
        start: Time,
        earliest: Time,
        latest: Time,
        cdf: Callable[[Time], float],
        action: Callable[[int], None],
        thin: bool = False,
    ) -> None:
        """Quantize one round's arrival trajectory into bulk events.

        With ``thin=True`` each instant's count is reduced by the
        in-flight thinning factor ``1 − c·τ`` (recipients evicted
        before arrival offset ``τ`` never receive) and the remainder
        lands in the network's ``dropped_count`` — the mean-field image
        of the exact network's delivered/dropped split under churn.
        Thinning applies to broadcast *fan-outs*, whose recipients span
        the whole (hazard-exposed) population; reply rounds are not
        thinned — their recipient is the round's joiner, the youngest
        member, which oldest-first eviction never reaches inside the
        join window.
        """
        hazard = self.churn_hazard if thin else 0.0
        engine = self.engine
        for instant, c in quantize_arrivals(
            count, start, earliest, latest, cdf, steps=ARRIVAL_STEPS
        ):
            if hazard > 0.0:
                kept = int(c * max(0.0, 1.0 - hazard * (instant - start)) + 0.5)
                if kept < c:
                    self.network.dropped_count += c - kept
                c = kept
            if c > 0:
                engine.schedule_slab(
                    instant,
                    Priority.DELIVERY,
                    BulkEvent(c, lambda c=c, action=action: action(c)),
                )

    def _one_hop_cdf(self) -> Callable[[Time], float]:
        lo, span = self._bcast_lo, self._bcast_span
        return lambda t: uniform_cdf(t, lo, span)

    def _two_hop_cdf(self) -> Callable[[Time], float]:
        lo1, s1 = self._bcast_lo, self._bcast_span
        lo2, s2 = self._p2p_lo, self._p2p_span
        return lambda t: uniform_sum_cdf(t, lo1, s1, lo2, s2)

    def _p2p_cdf(self) -> Callable[[Time], float]:
        lo, span = self._p2p_lo, self._p2p_span
        return lambda t: uniform_cdf(t, lo, span)

    def _count_delivered(self, count: int) -> None:
        self.network.delivered_count += count

    def _count_sent(self, count: int) -> None:
        self.network.sent_count += count

    def _schedule_reply_round(
        self, count: int, now: Time, action: Callable[[int], None]
    ) -> None:
        """One inquiry round's replies, stamped where the exact kernel
        stamps them.

        A reply is *sent* when the inquiry arrives at its replier (one
        hop out) and *delivered* a point-to-point hop later — so near
        the horizon, where late rounds are still in flight when the run
        stops, the counters agree with the exact kernel's.  Under churn
        two eviction effects apply: a replier evicted before the
        inquiry reaches it never sends (sent leg thinned by
        ``1 − c·τ₁``, and the delivered leg by the same factor at the
        reply's expected send offset), and the *inquirer* — admitted at
        ``now − δ``, evicted oldest-first once every older member has
        drained, i.e. after ``1/c`` in the system — stops receiving:
        replies arriving past that instant are sent-then-dropped,
        exactly the above-threshold starvation picture."""
        engine = self.engine
        network = self.network
        hazard = self.churn_hazard
        lo1, span1 = self._bcast_lo, self._bcast_span
        for instant, c in quantize_arrivals(
            count, now, lo1, lo1 + span1, self._one_hop_cdf(), ARRIVAL_STEPS
        ):
            if hazard > 0.0:
                c = int(c * max(0.0, 1.0 - hazard * (instant - now)) + 0.5)
            if c > 0:
                engine.schedule_slab(
                    instant, Priority.DELIVERY,
                    BulkEvent(c, lambda c=c: self._count_sent(c)),
                )
        evict_at = (
            now - self.delta + 1.0 / hazard if hazard > 0.0 else float("inf")
        )
        p2p_mid = self._p2p_lo + 0.5 * self._p2p_span
        for instant, c in quantize_arrivals(
            count, now, lo1 + self._p2p_lo,
            lo1 + span1 + self._p2p_lo + self._p2p_span,
            self._two_hop_cdf(), ARRIVAL_STEPS,
        ):
            if hazard > 0.0:
                sent_tau = min(max(instant - now - p2p_mid, lo1), lo1 + span1)
                c = int(c * max(0.0, 1.0 - hazard * sent_tau) + 0.5)
            if c <= 0:
                continue
            if instant >= evict_at:
                engine.schedule_slab(
                    instant, Priority.DELIVERY,
                    BulkEvent(
                        c,
                        lambda c=c: setattr(
                            network, "dropped_count", network.dropped_count + c
                        ),
                    ),
                )
            else:
                engine.schedule_slab(
                    instant, Priority.DELIVERY,
                    BulkEvent(c, lambda c=c: action(c)),
                )

    # ------------------------------------------------------------------
    # Real-broadcast absorption (the BroadcastService hook)
    # ------------------------------------------------------------------

    def absorb_broadcast(
        self, sender: str, payload: Any, now: Time, broadcast_id: int
    ) -> None:
        """Fold one real broadcast into the aggregate trajectories.

        The real fan-out to tracer nodes has already been scheduled by
        the caller; this adds the aggregate side — delivered counts for
        every aggregate recipient, plus the payload's semantic effect
        (WRITE adoption, or the aggregate's replies to an INQUIRY).
        """
        recipients = self.present_count
        if recipients <= 0:
            return
        kind = type(payload)
        if kind is WriteMsg:
            self._absorb_write(payload, now, recipients)
        elif kind is Inquiry:
            self._absorb_inquiry(payload, now, recipients)
        else:  # pragma: no cover - sync broadcasts only those two
            self._schedule_bulk(
                recipients, now, self._bcast_lo,
                self._bcast_lo + self._bcast_span,
                self._one_hop_cdf(), self._count_delivered, thin=True,
            )

    def _absorb_write(self, msg: WriteMsg, now: Time, recipients: int) -> None:
        self._writes.append((now, msg.value, msg.sequence))
        self._prune(now)
        value, sequence = msg.value, msg.sequence

        first = [True]

        def land(count: int) -> None:
            # Optimistic adoption: the whole aggregate holds the write
            # from its first quantized arrival onward.
            if first[0]:
                first[0] = False
                if sequence > self.sequence:
                    self.value = value
                    self.sequence = sequence
            self.network.delivered_count += count

        self._schedule_bulk(
            recipients, now, self._bcast_lo,
            self._bcast_lo + self._bcast_span, self._one_hop_cdf(), land,
            thin=True,
        )

    def _absorb_inquiry(self, msg: Inquiry, now: Time, recipients: int) -> None:
        """A *tracer joiner's* real inquiry reaching the aggregate.

        Every aggregate recipient counts as a delivery; every *active*
        aggregate member answers, and the replies land in the tracer's
        own (timer-gated) join phase as anonymous bulk offers carrying
        the aggregate register state *as of each arrival instant* —
        :meth:`~repro.protocols.common.QuorumPhase.record_bulk`.
        """
        self._inquiries.append((now, 1))
        self._prune(now)
        self._schedule_bulk(
            recipients, now, self._bcast_lo,
            self._bcast_lo + self._bcast_span,
            self._one_hop_cdf(), self._count_delivered, thin=True,
        )
        repliers = self.active_count
        if repliers <= 0:
            return
        try:
            node = self.membership.process(msg.sender)
        except Exception:  # pragma: no cover - sender always registered
            return
        phase = getattr(node, "_join_phase", None)
        key = self.key

        def reply(count: int) -> None:
            if phase is not None:
                phase.record_bulk(count, ((key, self.value, self.sequence),))
            self.network.delivered_count += count

        self._schedule_reply_round(repliers, now, reply)

    def _prune(self, now: Time) -> None:
        horizon = now - 3.0 * self.delta
        if self._writes and self._writes[0][0] < now - 2.0 * self.delta:
            cut = now - 2.0 * self.delta
            self._writes = [w for w in self._writes if w[0] >= cut]
        if self._inquiries and self._inquiries[0][0] < horizon:
            self._inquiries = [i for i in self._inquiries if i[0] >= horizon]

    # ------------------------------------------------------------------
    # Cohort lifecycle (Figure 1, analytically)
    # ------------------------------------------------------------------

    def spawn_cohort(self, count: int, tracer_pid: str | None = None) -> None:
        """Admit one churn tick's joiners as a cohort at the current
        instant and schedule their analytic Figure 1 join."""
        cohort = _Cohort(self.engine.now, joining=count)
        if tracer_pid is not None:
            cohort.tracer_pids.append(tracer_pid)
        self.cohorts.append(cohort)
        self.cohort_log.append(cohort)
        if count > 0:
            self.engine.schedule(
                self.delta, self._decide, cohort,
                priority=Priority.TIMER, label="mesoscale join decide",
            )

    def _skip_fraction(self, entered: Time, decision: Time) -> float:
        """P(some WRITE broadcast while the joiner was present has
        arrived by the decision instant) — Figure 1 line 03's register
        ≠ ⊥ branch, in closed form (complement product over the
        in-window writes)."""
        lo, span = self._bcast_lo, self._bcast_span
        miss = 1.0
        for sent, _value, _sequence in self._writes:
            # ``entered <= sent``: a cohort admitted at the same instant
            # a write is broadcast *is* present at broadcast time (the
            # harness writes after the tick) and receives it.
            if entered <= sent <= decision:
                miss *= 1.0 - uniform_cdf(decision - sent, lo, span)
        return 1.0 - miss

    def _decide(self, cohort: _Cohort) -> None:
        """The cohort's ``t + δ`` instant: skip-or-inquire (lines 02-05)."""
        k = cohort.joining
        if k <= 0:
            return
        now = self.engine.now
        self._prune(now)
        skip = int(k * self._skip_fraction(cohort.entered_at, now) + 0.5)
        if skip > 0:
            # Line 03 false: an in-flight WRITE already installed a
            # value — these joiners complete at t + δ, no inquiry.
            self._activate(cohort, skip, now)
            k = cohort.joining
        if k <= 0:
            return
        # Lines 04-05: k simultaneous inquiry broadcasts, aggregated
        # into one round of k × recipients deliveries.
        cohort.inquired = k
        self._inquiries.append((now, k))
        present = self.present_count + len(self.membership)
        repliers = self.active_count + len(self.membership.active_pids())
        self._schedule_bulk(
            k * present, now, self._bcast_lo,
            self._bcast_lo + self._bcast_span,
            self._one_hop_cdf(), self._count_delivered, thin=True,
        )
        if repliers > 0:
            self._schedule_reply_round(
                k * repliers, now, self._count_delivered
            )
        # Line 06's wait(2δ), then lines 07-10 at t + 3δ.
        self.engine.schedule(
            2.0 * self.delta, self._complete, cohort,
            priority=Priority.TIMER, label="mesoscale join complete",
        )

    def _complete(self, cohort: _Cohort) -> None:
        """The cohort's ``t + 3δ`` instant: adopt and activate (07-10).

        Adoption is a no-op on the aggregate state (the joiners *are*
        aggregate members from here on); only the members churn has not
        evicted during the window activate.
        """
        remaining = cohort.joining
        if remaining > 0:
            self._activate(cohort, remaining, self.engine.now)

    def _activate(self, cohort: _Cohort, count: int, now: Time) -> None:
        """Flip ``count`` members active and flush line 11's deferred
        replies: each newly active member answers every inquiry that
        arrived while it was joining (minus its own round's echo)."""
        cohort.joining -= count
        cohort.active += count
        cohort.done += count
        parked = sum(
            c for (sent, c) in self._inquiries
            if cohort.entered_at < sent < now
        )
        if cohort.inquired:
            parked -= 1  # a member never answers its own inquiry
        if parked > 0:
            replies = count * parked
            self.network.sent_count += replies
            self._schedule_bulk(
                replies, now, self._p2p_lo, self._p2p_lo + self._p2p_span,
                self._p2p_cdf(), self._count_delivered,
            )

    # ------------------------------------------------------------------
    # Churn eviction
    # ------------------------------------------------------------------

    def evict(
        self, quota: int, now: Time, min_stay: Time = 0.0
    ) -> tuple[int, list[str]]:
        """Remove ``quota`` members oldest-first from the cohort FIFO.

        Within a cohort, joining members go before active ones (the
        worst case for join completion, consistent with the
        oldest-first adversary), and the cohort's real tracer joiners
        go last — but *before* any younger cohort is touched.  Returns
        ``(evicted_anonymous, tracer_pids_to_evict)``; the system
        executes the tracer departures through its real ``leave``.
        """
        evicted = 0
        tracer_victims: list[str] = []
        for cohort in self.cohorts:
            if quota <= 0:
                break
            if now - cohort.entered_at < min_stay:
                break  # FIFO by age: every later cohort is younger still
            take = min(cohort.joining, quota)
            cohort.joining -= take
            quota -= take
            evicted += take
            take = min(cohort.active, quota)
            cohort.active -= take
            quota -= take
            evicted += take
            while quota > 0 and cohort.tracer_pids:
                tracer_victims.append(cohort.tracer_pids.pop(0))
                quota -= 1
        if self.cohorts and not (
            self.cohorts[0].joining
            or self.cohorts[0].active
            or self.cohorts[0].tracer_pids
        ):
            self.cohorts = [
                c for c in self.cohorts
                if c.joining or c.active or c.tracer_pids
            ]
        return evicted, tracer_victims

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AggregatePopulation(present={self.present_count}, "
            f"active={self.active_count}, cohorts={len(self.cohorts)})"
        )


class BulkChurnController:
    """The constant-churn adversary, acting on the aggregate in bulk.

    Mirrors :class:`~repro.churn.controller.ChurnController`'s tick
    cadence and drift-free quota integerization (it reuses
    :class:`~repro.churn.model.ConstantChurn` verbatim), but evicts and
    admits whole cohorts.  One real tracer joiner rides each non-empty
    tick so the checkers always see live, judged joins experiencing the
    same oldest-first eviction schedule as the bulk.
    """

    def __init__(
        self,
        system: "MesoscaleSystem",
        churn: ConstantChurn,
        min_stay: Time = 0.0,
        stop_at: Time | None = None,
    ) -> None:
        check_stay_and_stop(min_stay, stop_at)
        self.system = system
        self.churn = churn
        self.min_stay = float(min_stay)
        self.stop_at = stop_at
        self.ticks_executed = 0
        self.leaves_executed = 0
        self.joins_executed = 0
        self.shortfall = 0
        self._installed = False

    def install(self) -> None:
        if self._installed:
            raise ChurnError("churn controller installed twice")
        self._installed = True
        start = self.churn.start
        assert start is not None  # ConstantChurn.__post_init__ fills it in
        engine = self.system.engine
        if start < engine.now:
            raise ChurnError(
                f"churn start {start!r} is before current time {engine.now!r}"
            )
        engine.schedule_at(
            start, self._tick, priority=Priority.CHURN, label="churn tick"
        )

    def _tick(self) -> None:
        system = self.system
        now = system.engine.now
        if self.stop_at is not None and now > self.stop_at:
            return
        quota = self.churn.refreshes_for_next_tick()
        aggregate = system.aggregate
        evicted, tracer_victims = aggregate.evict(
            quota, now, min_stay=self.min_stay
        )
        for pid in tracer_victims:
            system.leave(pid)
        executed = evicted + len(tracer_victims)
        self.leaves_executed += executed
        self.shortfall += quota - executed
        if executed > 0:
            # One judged tracer join per tick; the rest enter the
            # aggregate cohort.
            tracer_pid = system.spawn_joiner()
            aggregate.spawn_cohort(executed - 1, tracer_pid=tracer_pid)
            self.joins_executed += executed
        self.ticks_executed += 1
        system.trace.record(
            now,
            TraceKind.CHURN_TICK,
            details_quota=quota,
            executed=executed,
            population=system.present_count(),
        )
        system.engine.schedule(
            self.churn.period, self._tick,
            priority=Priority.CHURN, label="churn tick",
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BulkChurnController(c={self.churn.rate!r}, "
            f"ticks={self.ticks_executed}, leaves={self.leaves_executed})"
        )


class MesoscaleSystem(DynamicSystem):
    """A dynamic system whose bulk population is analytically aggregated.

    The first ``config.tracers`` processes are real seed nodes (the
    writer among them) on the exact protocol; the remaining
    ``n − tracers`` live in :class:`AggregatePopulation`.  Construction
    requires ``config.mode == "mesoscale"`` (and the config layer has
    already enforced the envelope: sync protocol, single register,
    fault-free, entrant policy "none").
    """

    mesoscale_capable = True

    def __init__(self, config: SystemConfig, **kwargs: Any) -> None:
        if config.mode != "mesoscale":
            raise ConfigError(
                f"MesoscaleSystem requires mode='mesoscale', got "
                f"{config.mode!r}"
            )
        self.aggregate: AggregatePopulation = None  # set in _create_seeds
        super().__init__(config, **kwargs)

    def _create_seeds(self) -> tuple[str, ...]:
        config = self.config
        pids = self._build_seeds(config.tracers)
        self.aggregate = AggregatePopulation(
            self.engine,
            self.network,
            self.membership,
            self.delay_model,
            size=config.n - config.tracers,
            delta=config.delta,
            initial_value=config.initial_value,
            key=config.key_tuple()[0],
        )
        self.broadcast.aggregate = self.aggregate
        return pids

    def present_count(self) -> int:
        return len(self.membership) + self.aggregate.present_count

    def attach_churn(
        self,
        rate: float = 0.0,
        period: Time = 1.0,
        start: Time | None = None,
        protect_writer: bool = True,
        protected: tuple[str, ...] = (),
        min_stay: Time = 0.0,
        stop_at: Time | None = None,
        victim_policy: str = "oldest_first",
        profile: Any = None,
    ) -> BulkChurnController:
        """Install the bulk churn adversary (cohort eviction/admission).

        Only the ``oldest_first`` worst case has a cohort closed form;
        seed tracers (including the writer) are always protected, which
        subsumes ``protect_writer``/``protected``.
        """
        if self._churn is not None:
            raise ConfigError("churn controller already attached")
        if victim_policy != "oldest_first":
            raise ConfigError(
                f"mesoscale churn supports victim_policy='oldest_first' "
                f"only (the cohort FIFO *is* the oldest-first order), "
                f"got {victim_policy!r}"
            )
        if profile is not None:
            raise ConfigError("mesoscale churn is constant-rate only")
        churn = ConstantChurn(
            rate=rate, n=self.config.n, period=period, start=start
        )
        self.aggregate.churn_hazard = rate
        controller = BulkChurnController(
            self, churn, min_stay=min_stay, stop_at=stop_at
        )
        controller.install()
        self._churn = controller
        return controller

    def join_stats(self) -> dict[str, Any]:
        """Join accounting over tracers *and* the aggregate, with the
        same 3δ-runway eligibility cutoff the E17 cells use."""
        cutoff = self.engine.now - 3.0 * self.config.delta
        joins, eligible, done = self.aggregate.join_counts(cutoff)
        tracer_joins = self.history.joins()
        joins += len(tracer_joins)
        tracer_eligible = [j for j in tracer_joins if j.invoke_time <= cutoff]
        eligible += len(tracer_eligible)
        done += sum(1 for j in tracer_eligible if j.done)
        return {
            "joins": joins,
            "eligible": eligible,
            "done": done,
            "done_rate": done / eligible if eligible else 1.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MesoscaleSystem(n={self.config.n}, "
            f"tracers={self.config.tracers}, t={self.engine.now!r}, "
            f"present={self.present_count()})"
        )


def make_system(config: SystemConfig, **kwargs: Any) -> DynamicSystem:
    """The system ``config.mode`` selects — the one constructor every
    mode-agnostic caller (experiments, CLI cells) should use."""
    if config.mode == "mesoscale":
        return MesoscaleSystem(config, **kwargs)
    return DynamicSystem(config, **kwargs)

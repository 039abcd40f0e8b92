"""The churn controller: an adversary driving joins and leaves.

The controller executes a :class:`~repro.churn.model.ConstantChurn`
specification against a running system: at every tick it removes the
quota of victims (silently — a leave is indistinguishable from a crash)
and admits the same number of fresh identities, which immediately start
their ``join`` operation.

Victim selection is uniform over the present processes, with two
escape hatches that mirror the hypotheses of the paper's lemmas:

* ``protected`` — identities that never leave (e.g. the writer, per the
  "does not leave the system" premise of the termination lemmas);
* ``min_stay`` — a process cannot be evicted before it has spent this
  long in the system (Lemmas 5–7 assume a joiner stays ≥ 3δ).

A tick costs what can exclude a process, not the population: with
``min_stay == 0`` nobody is too young (``now − entered_at ≥ 0`` for
every present process), so the eligible list is the present pids — a
C-level copy of the membership's keys — minus the protected few (one
``list.remove`` each), and no per-process Python runs at all.  Only a
positive ``min_stay`` scans — with the very filter the shortcut stands
in for.

Victim policies:

* ``"uniform"`` — victims drawn uniformly at random (the benign reading
  of the model);
* ``"oldest_first"`` — victims are always the longest-present members.
  This is the worst case Lemma 2's proof reasons about ("in the worst
  case, the nc processes that left are processes that were present at
  time τ"), and it is what makes the analytic churn cap ``1/(3δ)``
  tight in experiment E11.
"""

from __future__ import annotations

from math import isnan
from typing import Callable, Iterable

from ..sim.clock import Time
from ..sim.engine import EventScheduler
from ..sim.errors import ChurnError
from ..sim.events import Priority
from ..sim.membership import Membership
from ..sim.rng import RngRegistry
from ..sim.trace import TraceKind, TraceLog
from .model import ConstantChurn
from .profiles import RateProfile


def check_stay_and_stop(min_stay: Time, stop_at: Time | None) -> None:
    """Refuse, by name, a ``min_stay`` / ``stop_at`` no tick can honour.

    ``not >=`` so NaN is refused too: it would fail every eligibility
    test and turn the stay rule — or, in the exact controller, churn
    itself — off without a word (``inf`` is legal: never evict).  A NaN
    ``stop_at`` would never stop.
    """
    if not min_stay >= 0:
        raise ChurnError(f"min_stay = {min_stay!r}: must be non-negative")
    if stop_at is not None and isnan(stop_at):
        raise ChurnError(f"stop_at = {stop_at!r}: must be an instant or None")


class ChurnController:
    """Drives the constant-churn adversary against a system."""

    def __init__(
        self,
        engine: EventScheduler,
        membership: Membership,
        trace: TraceLog,
        rng: RngRegistry,
        churn: ConstantChurn,
        spawn: Callable[[], str],
        depart: Callable[[str], None],
        protected: Iterable[str] = (),
        min_stay: Time = 0.0,
        stop_at: Time | None = None,
        victim_policy: str = "uniform",
        profile: RateProfile | None = None,
    ) -> None:
        """``profile`` overrides the constant rate with a time-varying
        one (see :mod:`repro.churn.profiles`); the ``churn`` spec then
        only supplies ``n``, ``period`` and ``start``."""
        self.engine = engine
        self.membership = membership
        self.trace = trace
        self._rng = rng.stream("churn.victims")
        self.churn = churn
        self._spawn = spawn
        self._depart = depart
        self._protected = set(protected)
        check_stay_and_stop(min_stay, stop_at)
        if victim_policy not in ("uniform", "oldest_first"):
            raise ChurnError(
                f"victim_policy must be 'uniform' or 'oldest_first', "
                f"got {victim_policy!r}"
            )
        self.min_stay = min_stay
        self.victim_policy = victim_policy
        self.stop_at = stop_at
        self.profile = profile
        self._profile_carry = 0.0
        self.ticks_executed = 0
        self.leaves_executed = 0
        self.joins_executed = 0
        self.shortfall = 0  # refreshes skipped for lack of eligible victims
        self._installed = False

    def protect(self, pid: str) -> None:
        """Exempt ``pid`` from eviction for the rest of the run."""
        self._protected.add(pid)

    def unprotect(self, pid: str) -> None:
        """Remove ``pid`` from the protected set."""
        self._protected.discard(pid)

    @property
    def protected(self) -> frozenset[str]:
        return frozenset(self._protected)

    def install(self) -> None:
        """Schedule the first churn tick."""
        if self._installed:
            raise ChurnError("churn controller installed twice")
        self._installed = True
        start = self.churn.start
        assert start is not None  # ConstantChurn.__post_init__ fills it in
        if start < self.engine.now:
            raise ChurnError(
                f"churn start {start!r} is before current time {self.engine.now!r}"
            )
        self.engine.schedule_at(
            start, self._tick, priority=Priority.CHURN, label="churn tick"
        )

    # ------------------------------------------------------------------
    # One tick: evict the quota, admit the same number
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        now = self.engine.now
        if self.stop_at is not None and now > self.stop_at:
            return
        quota = self._quota_for(now)
        victims = self._choose_victims(quota, now)
        for victim in victims:
            self._depart(victim)
            self.leaves_executed += 1
        for _ in range(len(victims)):
            self._spawn()
            self.joins_executed += 1
        self.shortfall += quota - len(victims)
        self.ticks_executed += 1
        self.trace.record(
            now,
            TraceKind.CHURN_TICK,
            details_quota=quota,
            executed=len(victims),
            population=len(self.membership),
        )
        self.engine.schedule(
            self.churn.period, self._tick, priority=Priority.CHURN, label="churn tick"
        )

    def _quota_for(self, now: Time) -> int:
        """Whole refreshes this tick: constant spec or rate profile.

        The constant path uses :class:`ConstantChurn`'s drift-free
        cumulative-floor accounting (possible because the quota is a
        single multiplication away).  Varying profile rates have no
        closed form, so this path keeps a fractional carry: its error
        stays bounded at one float rounding of ~1.0 per tick (a whole
        refresh could only be misplaced after ~1e15 ticks), whereas an
        ever-growing cumulative sum would round at the magnitude of
        the sum and degrade on long runs.
        """
        if self.profile is None:
            return self.churn.refreshes_for_next_tick()
        self._profile_carry += (
            self.profile.rate_at(now) * self.churn.n * self.churn.period
        )
        whole = int(self._profile_carry)
        self._profile_carry -= whole
        return whole

    def _choose_victims(self, quota: int, now: Time) -> list[str]:
        if quota <= 0:
            return []
        membership = self.membership
        min_stay, protected = self.min_stay, self._protected
        if min_stay == 0:
            eligible = membership.present_pids()
            for pid in protected:
                if membership.is_present(pid):
                    eligible.remove(pid)
        else:
            eligible = [
                process.pid
                for process in membership.present_processes()
                if process.pid not in protected
                and now - process._entered_at >= min_stay
            ]
        if len(eligible) <= quota:
            return eligible
        if self.victim_policy == "oldest_first":
            lookup = membership.process
            eligible.sort(key=lambda pid: (lookup(pid)._entered_at, pid))
            return eligible[:quota]
        return self._rng.sample(eligible, quota)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChurnController(c={self.churn.rate!r}, ticks={self.ticks_executed}, "
            f"leaves={self.leaves_executed}, joins={self.joins_executed})"
        )

"""Churn models (Section 2.1).

The paper captures dynamicity with a single parameter, the *churn rate*
``c``: in every time unit, ``c · n`` processes leave the system and the
same number of new processes join, so the population stays ``n`` while
its composition is continuously refreshed.  [19] argues this constant
model is realistic for several application classes.

:class:`ConstantChurn` turns the real-valued quota ``c · n`` into an
integer number of refreshes per tick using an error-accumulation scheme
(so ``c · n = 2.5`` alternates 2 and 3), keeping the long-run average
exact without randomizing the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite

from ..sim.clock import Time
from ..sim.errors import ChurnError


@dataclass
class ConstantChurn:
    """The paper's constant-churn specification.

    Parameters
    ----------
    rate:
        The churn rate ``c`` — the fraction of the population refreshed
        per time unit.  ``0 <= rate < 1``.
    n:
        The (constant) system size the quota is computed against.
    period:
        Tick length in time units (1.0 reproduces the paper's model;
        smaller periods spread the same churn more smoothly).
    start:
        The first tick instant.  Defaults to one period after time 0 so
        the initial population enjoys one quiet time unit, matching the
        τ = 0 baseline used by Lemma 2's proof.
    """

    rate: float
    n: int
    period: Time = 1.0
    start: Time | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ChurnError(f"churn rate must be in [0, 1), got {self.rate!r}")
        if self.n <= 0:
            raise ChurnError(f"system size must be positive, got {self.n!r}")
        if not 0 < self.period < inf:
            raise ChurnError(
                f"period = {self.period!r}: a tick must be positive and finite"
            )
        if self.start is None:
            self.start = self.period
        elif not isfinite(self.start):
            raise ChurnError(
                f"start = {self.start!r}: the first tick instant must be finite"
            )
        self._ticks_drawn = 0
        self._emitted = 0

    @property
    def per_tick_quota(self) -> float:
        """The exact (real-valued) number of refreshes per tick."""
        return self.rate * self.n * self.period

    def refreshes_for_next_tick(self) -> int:
        """The integer number of leave/join pairs for the next tick.

        Stateful: after ``k`` ticks exactly ``floor(k · quota)``
        refreshes have been emitted, so the long-run average equals
        :attr:`per_tick_quota` with error < 1 at every prefix.  (An
        incremental carry would accumulate float rounding error and
        eventually drop a whole refresh, e.g. at quota = 2/3.)
        """
        self._ticks_drawn += 1
        whole = int(self.per_tick_quota * self._ticks_drawn) - self._emitted
        self._emitted += whole
        return whole

    def reset(self) -> None:
        """Forget the accumulated schedule (for reuse across runs)."""
        self._ticks_drawn = 0
        self._emitted = 0


def synchronous_churn_bound(delta: Time) -> float:
    """The synchronous protocol's churn cap ``1 / (3δ)`` (Section 3.1).

    The protocol tolerates any constant churn ``c < 1/(3δ)``: a join
    lasts at most ``3δ``, and Lemma 2 shows at least ``n(1 − 3δc) > 0``
    processes stay active through any such window, so an inquiry is
    always answered.
    """
    if delta <= 0:
        raise ChurnError(f"delta must be positive, got {delta!r}")
    return 1.0 / (3.0 * delta)


def eventually_synchronous_churn_bound(delta: Time, n: int) -> float:
    """The eventually-synchronous cap ``1 / (3δn)`` (Section 5.2).

    Unlike the synchronous bound, it involves the system size ``n``:
    quorum intersection must survive the churn experienced during an
    operation, so the *absolute* number of refreshes per operation
    window (``3δ · c · n``) must stay below a constant.
    """
    if delta <= 0:
        raise ChurnError(f"delta must be positive, got {delta!r}")
    if n <= 0:
        raise ChurnError(f"system size must be positive, got {n!r}")
    return 1.0 / (3.0 * delta * n)


def sharded_synchronous_churn_bound(delta: Time, shard_n: int) -> float:
    """The per-shard churn cap ``(1 − 1/n_s) / (3δ)`` for a population
    of ``n_s`` processes.

    The classic cap ``1/(3δ)`` is the ``n → ∞`` limit of the real
    requirement: Lemma 2's survivor count ``n_s(1 − 3δc)`` must leave at
    least one active process to answer a join inquiry, i.e.
    ``n_s(1 − 3δc) > 1``, which solves to ``c < (1 − 1/n_s)/(3δ)``.
    For a single large population the correction ``1/n_s`` vanishes,
    but a sharded cluster runs the adversary against each shard's *own*
    slice ``n_s = n/S``, where the correction bites: at ``n_s = 6``,
    ``δ = 5`` the honest cap is ≈ 0.0556, not the 0.0667 the
    single-population formula promises — a rate between the two starves
    small shards while classifying as in-model.  Used by the explorer's
    shard-aware scenario classification.
    """
    if delta <= 0:
        raise ChurnError(f"delta must be positive, got {delta!r}")
    if shard_n <= 0:
        raise ChurnError(f"shard population must be positive, got {shard_n!r}")
    if shard_n == 1:
        return 0.0
    return (1.0 - 1.0 / shard_n) / (3.0 * delta)


def lemma2_window_lower_bound(n: int, c: float, delta: Time) -> float:
    """Lemma 2's lower bound on ``|A(τ, τ + 3δ)|``: ``n · (1 − 3δc)``.

    Valid for ``c ≤ 1/(3δ)`` from a quiescent instant (every member
    active); the experiments measure how it fares in steady state too.
    """
    return n * (1.0 - 3.0 * delta * c)

"""Message-delay models for the three system classes of the paper.

Each model answers one question: *how long does this message take?*

* :class:`SynchronousDelay` — Section 3: every delay is bounded by a
  known ``delta``; the bound holds from time zero.
* :class:`EventuallySynchronousDelay` — Section 5: there exist a time
  (GST) and a bound ``delta``, both unknown to the processes, such that
  every message sent after GST is delivered within ``delta``.  Before
  GST delays are arbitrary (drawn from a heavy-tailed distribution).
* :class:`AsynchronousDelay` — Section 4: delays are unbounded, with no
  eventual stabilization.  Used to demonstrate Theorem 2.
* :class:`AdversarialDelay` — a programmable scheduler: a policy
  callback inspects every message and dictates its delay, enabling the
  constructed runs used in impossibility demonstrations and tests.

All models are *reliable*: a finite delay is always returned, messages
are never lost (departed receivers are the network's concern, not the
delay model's).
"""

from __future__ import annotations

import abc
import random
from typing import Any, Callable

from ..sim.clock import Time
from ..sim.errors import ConfigError

#: An adversary policy: ``(sender, dest, payload, send_time) -> delay | None``.
#: Returning ``None`` delegates the message to the fallback model.
AdversaryPolicy = Callable[[str, str, Any, Time], Time | None]


class DelayModel(abc.ABC):
    """Strategy interface consulted once per message."""

    @abc.abstractmethod
    def sample(
        self,
        sender: str,
        dest: str,
        payload: Any,
        send_time: Time,
        rng: random.Random,
    ) -> Time:
        """Return the network latency for this message (strictly positive)."""

    def sample_broadcast(
        self,
        sender: str,
        dest: str,
        payload: Any,
        send_time: Time,
        rng: random.Random,
    ) -> Time:
        """Latency for one delivery of a broadcast.

        Defaults to the point-to-point distribution; models with
        distinct broadcast and one-to-one bounds (the paper's footnote 4
        distinguishes ``δ`` from ``δ'``) override it.
        """
        return self.sample(sender, dest, payload, send_time, rng)

    def sample_broadcast_many(
        self,
        sender: str,
        dests: list[str],
        payload: Any,
        send_time: Time,
        rng: random.Random,
    ) -> list[Time]:
        """Latencies for one broadcast's whole fan-out, in recipient order.

        Models that declare uniform broadcast latencies (via
        :meth:`broadcast_uniform`) get the vectorized ``lo + span *
        random()`` comprehension — the bit-identical expansion of
        ``random.uniform``, one method call per fan-out — here in the
        base class, so a new delay model cannot fork the fast path.
        Everything else delegates to :meth:`sample_broadcast` per
        recipient and stays byte-identical without opting in (batched
        fan-out must not perturb a single draw).
        """
        params = self.broadcast_uniform()
        if params is None:
            sample = self.sample_broadcast
            return [
                sample(sender, dest, payload, send_time, rng) for dest in dests
            ]
        lo, span = params
        random = rng.random
        return [lo + span * random() for _ in dests]

    def broadcast_uniform(self) -> tuple[Time, Time] | None:
        """``(lo, span)`` when broadcast latencies are exactly
        ``lo + span * rng.random()`` — the uniform models declare their
        parameters here and inherit the vectorized fan-out loop.
        ``None`` (the default) means draws are not uniform and every
        vectorized path must fall back to per-recipient sampling.
        """
        return None

    def p2p_uniform(self) -> tuple[Time, Time] | None:
        """``(lo, span)`` when *point-to-point* latencies are exactly
        ``lo + span * rng.random()``; ``None`` otherwise.  The network's
        batch-dispatch plane inlines reply draws with these parameters
        (same stream, same draw order — bit-identical), and falls back
        to :meth:`sample` calls when no parameters are declared.
        """
        return None

    @property
    def known_bound(self) -> Time | None:
        """The delay bound ``delta`` if one is *known to the processes*.

        Synchronous protocols read this to size their ``wait``
        statements; it is ``None`` for (eventually) asynchronous models,
        where no usable bound exists at any process.
        """
        return None


class SynchronousDelay(DelayModel):
    """Delays uniform in ``[min_delay, delta]`` with ``delta`` known.

    ``min_delay`` defaults to 10% of ``delta`` so that messages are
    never instantaneous (the paper assumes communication takes time
    while local processing does not).
    """

    def __init__(self, delta: Time, min_delay: Time | None = None) -> None:
        if delta <= 0:
            raise ConfigError(f"delta must be positive, got {delta!r}")
        self.delta = float(delta)
        self.min_delay = float(min_delay) if min_delay is not None else 0.1 * self.delta
        if not 0 < self.min_delay <= self.delta:
            raise ConfigError(
                f"min_delay {self.min_delay!r} must lie in (0, delta={self.delta!r}]"
            )

    def sample(
        self,
        sender: str,
        dest: str,
        payload: Any,
        send_time: Time,
        rng: random.Random,
    ) -> Time:
        # ``lo + (hi - lo) * random()`` is exactly what random.uniform
        # computes — bit-identical draw, without the wrapper call.
        lo = self.min_delay
        return lo + (self.delta - lo) * rng.random()

    def broadcast_uniform(self) -> tuple[Time, Time]:
        lo = self.min_delay
        return lo, self.delta - lo

    def p2p_uniform(self) -> tuple[Time, Time]:
        lo = self.min_delay
        return lo, self.delta - lo

    @property
    def known_bound(self) -> Time:
        return self.delta

    def __repr__(self) -> str:
        return f"SynchronousDelay(delta={self.delta!r}, min={self.min_delay!r})"


class DualBoundSynchronousDelay(DelayModel):
    """Footnote 4's refinement: broadcast bound ``δ``, one-to-one bound ``δ'``.

    The paper observes that the join's ``wait(2δ)`` can be tightened to
    ``wait(δ + δ')`` when point-to-point responses enjoy a smaller bound
    ``δ' ≤ δ`` than the dissemination primitive.  This model gives the
    two primitives their distinct distributions; the protocol reads
    ``δ'`` from its context and shortens its inquiry wait accordingly
    (ablation A3 measures the gain).
    """

    def __init__(
        self,
        broadcast_delta: Time,
        p2p_delta: Time,
        min_delay: Time | None = None,
    ) -> None:
        if broadcast_delta <= 0:
            raise ConfigError(
                f"broadcast_delta must be positive, got {broadcast_delta!r}"
            )
        if not 0 < p2p_delta <= broadcast_delta:
            raise ConfigError(
                f"p2p_delta {p2p_delta!r} must lie in (0, "
                f"broadcast_delta={broadcast_delta!r}]"
            )
        self.broadcast_delta = float(broadcast_delta)
        self.p2p_delta = float(p2p_delta)
        self.min_delay = (
            float(min_delay) if min_delay is not None else 0.1 * self.p2p_delta
        )
        if not 0 < self.min_delay <= self.p2p_delta:
            raise ConfigError(
                f"min_delay {self.min_delay!r} must lie in (0, "
                f"p2p_delta={self.p2p_delta!r}]"
            )

    def sample(
        self,
        sender: str,
        dest: str,
        payload: Any,
        send_time: Time,
        rng: random.Random,
    ) -> Time:
        # Bit-identical expansion of random.uniform (see SynchronousDelay).
        lo = self.min_delay
        return lo + (self.p2p_delta - lo) * rng.random()

    def sample_broadcast(
        self,
        sender: str,
        dest: str,
        payload: Any,
        send_time: Time,
        rng: random.Random,
    ) -> Time:
        lo = self.min_delay
        return lo + (self.broadcast_delta - lo) * rng.random()

    def broadcast_uniform(self) -> tuple[Time, Time]:
        lo = self.min_delay
        return lo, self.broadcast_delta - lo

    def p2p_uniform(self) -> tuple[Time, Time]:
        lo = self.min_delay
        return lo, self.p2p_delta - lo

    @property
    def known_bound(self) -> Time:
        return self.broadcast_delta

    def __repr__(self) -> str:
        return (
            f"DualBoundSynchronousDelay(delta={self.broadcast_delta!r}, "
            f"p2p={self.p2p_delta!r})"
        )


class EventuallySynchronousDelay(DelayModel):
    """Arbitrary delays before GST, bounded by ``delta`` afterwards.

    Pre-GST delays are uniform in ``[min_delay, pre_gst_max]``; by
    default every message still in flight when GST strikes is "flushed"
    — delivered no later than ``gst + delta`` — which matches the usual
    reading of partial synchrony and keeps channels reliable.

    The model knows ``gst`` and ``delta`` but :attr:`known_bound` is
    ``None``: the *processes* must not rely on them (Section 5.1).
    """

    def __init__(
        self,
        gst: Time,
        delta: Time,
        pre_gst_max: Time | None = None,
        min_delay: Time | None = None,
        flush_at_gst: bool = True,
    ) -> None:
        if delta <= 0:
            raise ConfigError(f"delta must be positive, got {delta!r}")
        if gst < 0:
            raise ConfigError(f"gst must be non-negative, got {gst!r}")
        self.gst = float(gst)
        self.delta = float(delta)
        self.pre_gst_max = float(pre_gst_max) if pre_gst_max is not None else 20.0 * delta
        if self.pre_gst_max < delta:
            raise ConfigError("pre_gst_max must be at least delta")
        self.min_delay = float(min_delay) if min_delay is not None else 0.1 * delta
        if not 0 < self.min_delay <= self.delta:
            raise ConfigError(
                f"min_delay {self.min_delay!r} must lie in (0, delta={delta!r}]"
            )
        self.flush_at_gst = flush_at_gst

    def sample(
        self,
        sender: str,
        dest: str,
        payload: Any,
        send_time: Time,
        rng: random.Random,
    ) -> Time:
        # Bit-identical expansion of random.uniform (see SynchronousDelay).
        lo = self.min_delay
        if send_time >= self.gst:
            return lo + (self.delta - lo) * rng.random()
        raw = lo + (self.pre_gst_max - lo) * rng.random()
        if self.flush_at_gst:
            latest = (self.gst + self.delta) - send_time
            return min(raw, latest)
        return raw

    def sample_broadcast_many(
        self, sender: str, dests: list[str], payload: Any, send_time: Time,
        rng: random.Random,
    ) -> list[Time]:
        """:meth:`sample` per recipient — one send time, so one side of
        GST — as one comprehension: same stream, same order, same clamp."""
        lo, draw, early = self.min_delay, rng.random, send_time < self.gst
        span = (self.pre_gst_max if early else self.delta) - lo
        if early and self.flush_at_gst:
            latest = (self.gst + self.delta) - send_time
            return [min(lo + span * draw(), latest) for _ in dests]
        return [lo + span * draw() for _ in dests]

    def __repr__(self) -> str:
        return (
            f"EventuallySynchronousDelay(gst={self.gst!r}, delta={self.delta!r}, "
            f"pre_gst_max={self.pre_gst_max!r})"
        )


class AsynchronousDelay(DelayModel):
    """Unbounded delays: exponential with heavy upper tail, never stabilizing.

    Every message is still delivered at a finite time (reliable
    channels), but no bound exists and none is ever learnable — the
    setting of Theorem 2.
    """

    def __init__(self, mean: Time = 5.0, min_delay: Time = 0.1) -> None:
        if mean <= 0:
            raise ConfigError(f"mean delay must be positive, got {mean!r}")
        if min_delay <= 0:
            raise ConfigError(f"min_delay must be positive, got {min_delay!r}")
        self.mean = float(mean)
        self.min_delay = float(min_delay)

    def sample(
        self,
        sender: str,
        dest: str,
        payload: Any,
        send_time: Time,
        rng: random.Random,
    ) -> Time:
        return self.min_delay + rng.expovariate(1.0 / self.mean)

    def __repr__(self) -> str:
        return f"AsynchronousDelay(mean={self.mean!r})"


class AdversarialDelay(DelayModel):
    """A delay model driven by an explicit adversary policy.

    The policy sees ``(sender, dest, payload, send_time)`` and returns a
    delay, or ``None`` to fall through to the ``fallback`` model.  The
    impossibility experiment (Theorem 2) uses this to keep every message
    that carries fresh state away from the victim reader while the rest
    of the system runs fast.
    """

    def __init__(
        self,
        policy: AdversaryPolicy,
        fallback: DelayModel | None = None,
    ) -> None:
        self.policy = policy
        self.fallback = fallback if fallback is not None else AsynchronousDelay()

    def sample(
        self,
        sender: str,
        dest: str,
        payload: Any,
        send_time: Time,
        rng: random.Random,
    ) -> Time:
        chosen = self.policy(sender, dest, payload, send_time)
        if chosen is None:
            return self.fallback.sample(sender, dest, payload, send_time, rng)
        if chosen <= 0:
            raise ConfigError(
                f"adversary returned non-positive delay {chosen!r} for "
                f"{sender}->{dest}"
            )
        return float(chosen)

    def __repr__(self) -> str:
        return f"AdversarialDelay(fallback={self.fallback!r})"


#: Names accepted by :func:`make_delay` (the explorer sweeps these).
DELAY_MODEL_NAMES: tuple[str, ...] = ("sync", "dual", "es", "async")

#: GST of the named ``"es"`` model, as a multiple of ``delta`` — also
#: used by the explorer's taxonomy to tell pre- from post-GST spikes.
DEFAULT_GST_FACTOR = 4.0

#: Point-to-point bound of the named ``"dual"`` model, as a fraction
#: of the broadcast bound ``delta`` (footnote 4's ``δ' ≤ δ``).
DUAL_P2P_FRACTION = 0.5


def make_delay(name: str, delta: Time, gst: Time | None = None) -> DelayModel:
    """Build a delay model from a sweepable name.

    * ``"sync"``  — :class:`SynchronousDelay` with bound ``delta``;
    * ``"dual"``  — :class:`DualBoundSynchronousDelay` with the
      point-to-point bound at ``delta / 2`` (footnote 4's refinement);
    * ``"es"``    — :class:`EventuallySynchronousDelay` with GST at
      ``gst`` (default ``4 * delta``) and bound ``delta``;
    * ``"async"`` — :class:`AsynchronousDelay` with mean ``delta / 2``.

    The explorer and CLI use this to name delay regimes in scenario
    matrices and corpus entries without serializing model objects.
    """
    if name == "sync":
        return SynchronousDelay(delta)
    if name == "dual":
        return DualBoundSynchronousDelay(delta, DUAL_P2P_FRACTION * delta)
    if name == "es":
        return EventuallySynchronousDelay(
            gst if gst is not None else DEFAULT_GST_FACTOR * delta, delta
        )
    if name == "async":
        return AsynchronousDelay(mean=delta / 2.0)
    raise ConfigError(
        f"unknown delay model {name!r}; choose from {DELAY_MODEL_NAMES}"
    )


# ----------------------------------------------------------------------
# Closed-form arrival trajectories (the mesoscale aggregate plane)
# ----------------------------------------------------------------------
#
# The mesoscale mode (``SystemConfig(mode="mesoscale")``) replaces a
# broadcast round's n per-recipient delay draws with the *expected
# arrival-count trajectory* of the round, computed from the uniform
# delay parameters the models above already declare via
# ``broadcast_uniform()`` / ``p2p_uniform()``.  Two closed forms cover
# the synchronous protocol's rounds:
#
# * one-hop arrivals (a broadcast's deliveries) are uniform on
#   ``[lo, lo + span]`` — :func:`uniform_cdf`;
# * two-hop arrivals (an inquiry's replies: broadcast delay plus
#   point-to-point delay) follow the convolution of two uniforms, a
#   piecewise-quadratic trapezoid — :func:`uniform_sum_cdf`.
#
# :func:`quantize_arrivals` turns a CDF into deterministic per-instant
# integer counts (cumulative rounding, so the counts always sum to the
# population exactly) — the bulk events the aggregate plane schedules.


def uniform_cdf(t: Time, lo: Time, span: Time) -> float:
    """``P(U <= t)`` for ``U`` uniform on ``[lo, lo + span]``."""
    if t <= lo:
        return 0.0
    if span <= 0.0:
        return 1.0
    if t >= lo + span:
        return 1.0
    return (t - lo) / span


def uniform_sum_cdf(
    t: Time, lo1: Time, span1: Time, lo2: Time, span2: Time
) -> float:
    """``P(U1 + U2 <= t)`` for independent uniforms (trapezoid law).

    ``U1`` is uniform on ``[lo1, lo1 + span1]``, ``U2`` on
    ``[lo2, lo2 + span2]``.  Degenerate spans collapse to the
    single-uniform (or step) law.
    """
    s = t - (lo1 + lo2)
    short = min(span1, span2)
    long = max(span1, span2)
    if s <= 0.0:
        return 0.0
    if s >= short + long:
        return 1.0
    if short <= 0.0:
        # One (or both) point masses: a plain uniform shifted by the
        # constant — the guards above already handled the step case.
        return s / long
    if s <= short:
        return s * s / (2.0 * short * long)
    if s <= long:
        return (2.0 * s - short) / (2.0 * long)
    tail = short + long - s
    return 1.0 - tail * tail / (2.0 * short * long)


def quantize_arrivals(
    count: int,
    start: Time,
    earliest: Time,
    latest: Time,
    cdf: "Callable[[Time], float]",
    steps: int = 16,
) -> list[tuple[Time, int]]:
    """Deterministic per-instant arrival counts for one aggregate round.

    Splits the arrival window ``[start + earliest, start + latest]``
    into ``steps`` equal sub-intervals and assigns each boundary
    instant the *increment* of the cumulatively rounded expected count
    — ``round(count * cdf)`` differences — so the returned counts sum
    to ``count`` exactly and every run quantizes identically (no RNG).
    Zero-count instants are dropped.  ``cdf`` takes the *relative*
    offset from ``start``.
    """
    if count <= 0 or steps < 1:
        return []
    width = (latest - earliest) / steps
    out: list[tuple[Time, int]] = []
    previous = 0
    for k in range(1, steps + 1):
        offset = earliest + width * k
        cumulative = int(count * cdf(offset) + 0.5) if k < steps else count
        increment = cumulative - previous
        if increment > 0:
            out.append((start + offset, increment))
        previous = cumulative
    return out

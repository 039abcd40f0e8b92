"""Non-constant churn: rate profiles beyond the paper's model.

The paper fixes the churn rate ``c`` to a constant and notes (citing
[19], Ko–Hoque–Gupta) that this is realistic *for several classes of
applications* — real deployments also see bursts (flash crowds,
correlated failures) and diurnal cycles.  A :class:`RateProfile` maps
simulated time to an instantaneous churn rate, letting experiment E12
ask the question the constant model cannot: **is the long-run average
the quantity that matters, or the instantaneous rate?**  (Spoiler,
measured in E12: the instantaneous rate — bursts above ``1/(3δ)``
damage joins that averages hide.)

Profiles only shape the *rate*; the controller still executes whole
leave/join pairs with exact fractional carry.
"""

from __future__ import annotations

import abc
import math

from ..sim.clock import Time
from ..sim.errors import ChurnError


class RateProfile(abc.ABC):
    """Instantaneous churn rate as a function of time."""

    @abc.abstractmethod
    def rate_at(self, time: Time) -> float:
        """The churn rate in effect at ``time`` (fraction per time unit)."""


class ConstantRate(RateProfile):
    """The paper's model: the same rate at every instant."""

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate < 1.0:
            raise ChurnError(f"rate must be in [0, 1), got {rate!r}")
        self.rate = float(rate)

    def rate_at(self, time: Time) -> float:
        return self.rate

    def __repr__(self) -> str:
        return f"ConstantRate({self.rate!r})"


class BurstRate(RateProfile):
    """A base rate with periodic bursts: flash crowds / correlated exits.

    Every ``period`` time units, the rate jumps to ``burst_rate`` for
    ``burst_length`` units, then falls back to ``base_rate``.
    """

    def __init__(
        self,
        base_rate: float,
        burst_rate: float,
        period: Time,
        burst_length: Time,
        first_burst: Time = 0.0,
    ) -> None:
        if not 0.0 <= base_rate < 1.0:
            raise ChurnError(f"base_rate must be in [0, 1), got {base_rate!r}")
        if not base_rate <= burst_rate < 1.0:
            raise ChurnError(
                f"burst_rate {burst_rate!r} must lie in [base_rate, 1)"
            )
        if period <= 0:
            raise ChurnError(f"period must be positive, got {period!r}")
        if not 0 < burst_length <= period:
            raise ChurnError(
                f"burst_length {burst_length!r} must lie in (0, period={period!r}]"
            )
        self.base_rate = float(base_rate)
        self.burst_rate = float(burst_rate)
        self.period = float(period)
        self.burst_length = float(burst_length)
        self.first_burst = float(first_burst)

    def rate_at(self, time: Time) -> float:
        if time < self.first_burst:
            return self.base_rate
        phase = (time - self.first_burst) % self.period
        return self.burst_rate if phase < self.burst_length else self.base_rate

    @property
    def duty_cycle(self) -> float:
        """Fraction of time spent bursting."""
        return self.burst_length / self.period

    def long_run_average(self) -> float:
        """The steady-state mean rate."""
        return (
            self.burst_rate * self.duty_cycle
            + self.base_rate * (1.0 - self.duty_cycle)
        )

    def __repr__(self) -> str:
        return (
            f"BurstRate(base={self.base_rate!r}, burst={self.burst_rate!r}, "
            f"period={self.period!r}, length={self.burst_length!r})"
        )


class DiurnalRate(RateProfile):
    """A sinusoidal day/night cycle around a base rate.

    ``rate(t) = base + amplitude · sin(2πt / period)``, clipped to
    ``[0, 1)`` — the classic shape of user-driven P2P populations.
    """

    def __init__(self, base_rate: float, amplitude: float, period: Time) -> None:
        if not 0.0 <= base_rate < 1.0:
            raise ChurnError(f"base_rate must be in [0, 1), got {base_rate!r}")
        if amplitude < 0:
            raise ChurnError(f"amplitude must be non-negative, got {amplitude!r}")
        if period <= 0:
            raise ChurnError(f"period must be positive, got {period!r}")
        self.base_rate = float(base_rate)
        self.amplitude = float(amplitude)
        self.period = float(period)

    def rate_at(self, time: Time) -> float:
        raw = self.base_rate + self.amplitude * math.sin(
            2.0 * math.pi * time / self.period
        )
        return min(max(raw, 0.0), 0.999999)

    def __repr__(self) -> str:
        return (
            f"DiurnalRate(base={self.base_rate!r}, "
            f"amplitude={self.amplitude!r}, period={self.period!r})"
        )

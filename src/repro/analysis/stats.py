"""Small statistics helpers used by experiments and benchmarks.

Kept deliberately dependency-light: plain arithmetic where possible,
``statistics`` from the standard library for moments.  (NumPy/SciPy are
available in the environment but the sample sizes here never justify
them; explicit code is easier to audit.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.checker import LatencySamples
from ..sim.errors import ExperimentError


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of one metric across repetitions."""

    count: int
    mean: float
    stdev: float
    minimum: float
    maximum: float

    def format(self, precision: int = 3) -> str:
        return (
            f"{self.mean:.{precision}f} ± {self.stdev:.{precision}f} "
            f"[{self.minimum:.{precision}f}, {self.maximum:.{precision}f}] "
            f"(k={self.count})"
        )


def summarize(samples: Sequence[float]) -> Summary:
    """Mean / stdev / min / max of a non-empty sample: any sequence,
    :class:`~repro.core.checker.LatencySamples` too (read by iteration,
    never copied)."""
    # Here, not at the top: ``statistics`` loads ``decimal`` and
    # ``fractions`` (0.4 MB resident), which ``percentile`` never needs.
    import statistics

    if not samples:
        raise ExperimentError("cannot summarize an empty sample")
    if len(samples) == 1:
        only = float(samples[0])
        return Summary(count=1, mean=only, stdev=0.0, minimum=only, maximum=only)
    return Summary(
        count=len(samples),
        mean=statistics.fmean(samples),
        stdev=statistics.stdev(samples),
        minimum=min(samples),
        maximum=max(samples),
    )


def percentile(samples: Iterable[float], q: float) -> float:
    """The q-th percentile (0 <= q <= 100), linear interpolation.  A
    :class:`~repro.core.checker.LatencySamples` is ranked through its
    sorted samples: its runs of zeros are never expanded."""
    data = (
        samples.sorted_samples()
        if isinstance(samples, LatencySamples)
        else sorted(samples)
    )
    if not data:
        raise ExperimentError("cannot take a percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ExperimentError(f"percentile must be in [0, 100], got {q!r}")
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return data[low]
    frac = rank - low
    return data[low] * (1.0 - frac) + data[high] * frac

"""Active-set observability: the quantities in Definition 1 and Lemma 2.

``A(τ)`` is the set of processes *active* at ``τ`` (returned from join,
not yet departed); ``A(τ1, τ2)`` those active during the whole interval.
The tracker samples population counts at a fixed cadence during a run
and computes window statistics post-hoc from the membership records, so
protocols remain oracle-free while experiments can verify the lemmas.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.clock import Time
from ..sim.engine import EventScheduler
from ..sim.errors import ChurnError
from ..sim.events import Priority
from ..sim.membership import Membership


@dataclass(frozen=True)
class PopulationSample:
    """A snapshot of the population at one instant."""

    time: Time
    present: int
    active: int
    listening: int


@dataclass(frozen=True)
class WindowStat:
    """Survivor count for one window ``[start, start + width]``."""

    start: Time
    width: Time
    survivors: int


#: The cadence of the active-set probes.
SAMPLE_PERIOD: Time = 1.0


class ActiveSetTracker:
    """Samples ``|A(τ)|`` every :data:`SAMPLE_PERIOD` during a run and
    computes ``|A(τ, τ+w)|`` after it."""

    def __init__(self, engine: EventScheduler, membership: Membership) -> None:
        self.engine = engine
        self.membership = membership
        self.samples: list[PopulationSample] = []
        self._installed = False

    def install(self) -> None:
        """Start sampling: one probe per period, beginning now."""
        if self._installed:
            raise ChurnError("tracker installed twice")
        self._installed = True
        self._probe()

    def _probe(self) -> None:
        now = self.engine.now
        active = self.membership.active_count
        present = len(self.membership)
        self.samples.append(
            PopulationSample(
                time=now,
                present=present,
                active=active,
                listening=present - active,
            )
        )
        self.engine.schedule(
            SAMPLE_PERIOD,
            self._probe,
            priority=Priority.PROBE,
            label="active-set probe",
        )

    # ------------------------------------------------------------------
    # Post-hoc statistics
    # ------------------------------------------------------------------

    def min_active(self) -> int:
        """The smallest sampled ``|A(τ)|``."""
        if not self.samples:
            raise ChurnError("no samples recorded; was the tracker installed?")
        return min(sample.active for sample in self.samples)

    def window_survivors(
        self,
        width: Time,
        start: Time = 0.0,
        end: Time | None = None,
        step: Time = 1.0,
    ) -> list[WindowStat]:
        """``|A(τ, τ + width)|`` for each ``τ`` on a grid.

        ``end`` bounds the *window start* (defaults to the last sample
        time minus ``width`` so every window is fully observed).
        """
        if width <= 0:
            raise ChurnError(f"window width must be positive, got {width!r}")
        if step <= 0:
            raise ChurnError(f"step must be positive, got {step!r}")
        if end is None:
            if not self.samples:
                raise ChurnError("no samples recorded and no explicit end given")
            end = self.samples[-1].time - width
        stats = []
        tau = start
        while tau <= end + 1e-9:
            survivors = self.membership.active_throughout_count(tau, tau + width)
            stats.append(WindowStat(start=tau, width=width, survivors=survivors))
            tau += step
        return stats

    def min_window_survivors(
        self,
        width: Time,
        start: Time = 0.0,
        end: Time | None = None,
        step: Time = 1.0,
    ) -> int:
        """The minimum ``|A(τ, τ + width)|`` over the grid — Lemma 2's subject."""
        stats = self.window_survivors(width, start, end, step)
        if not stats:
            raise ChurnError("window grid is empty")
        return min(stat.survivors for stat in stats)

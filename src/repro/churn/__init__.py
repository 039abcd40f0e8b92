"""Churn substrate: the constant-churn model, its controller and the
active-set observability needed to verify Lemma 2 and the Section 5
majority-active assumption."""

from .active_set import ActiveSetTracker, PopulationSample, WindowStat
from .controller import ChurnController
from .model import (
    ConstantChurn,
    eventually_synchronous_churn_bound,
    lemma2_window_lower_bound,
    synchronous_churn_bound,
)
from .profiles import (
    BurstRate,
    ConstantRate,
    DiurnalRate,
    RateProfile,
)

__all__ = [
    "ActiveSetTracker",
    "PopulationSample",
    "WindowStat",
    "ChurnController",
    "ConstantChurn",
    "eventually_synchronous_churn_bound",
    "lemma2_window_lower_bound",
    "synchronous_churn_bound",
    "BurstRate",
    "ConstantRate",
    "DiurnalRate",
    "RateProfile",
]

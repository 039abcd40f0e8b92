"""Analysis helpers: summary statistics and percentiles."""

from .stats import Summary, percentile, summarize

__all__ = ["Summary", "percentile", "summarize"]

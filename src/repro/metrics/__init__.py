"""Metrics collection, analysis, and reporting (S12 in DESIGN.md)."""

from .analysis import Summary, percentile, summarize
from .counters import DeltaTracker
from .histogram import EMPTY_SUMMARY, LatencyHistogram, LatencySummary
from .report import format_series, format_table
from .series import BucketCounter, TimeSeries

__all__ = [
    "BucketCounter",
    "DeltaTracker",
    "EMPTY_SUMMARY",
    "LatencyHistogram",
    "LatencySummary",
    "Summary",
    "TimeSeries",
    "format_series",
    "format_table",
    "percentile",
    "summarize",
]

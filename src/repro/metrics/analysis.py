"""Statistical helpers for interpreting simulation output."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    n: int
    mean: float
    std: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    def format(self, unit: str = "", scale: float = 1.0) -> str:
        return (f"n={self.n} mean={self.mean * scale:.2f}{unit} "
                f"p50={self.p50 * scale:.2f}{unit} "
                f"p95={self.p95 * scale:.2f}{unit} "
                f"p99={self.p99 * scale:.2f}{unit} "
                f"max={self.maximum * scale:.2f}{unit}")


def summarize(values: Sequence[float]) -> Summary:
    """Summary statistics of a non-empty sample."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    return Summary(
        n=n, mean=mean, std=math.sqrt(variance),
        p50=percentile(values, 50), p95=percentile(values, 95),
        p99=percentile(values, 99),
        minimum=min(values), maximum=max(values))

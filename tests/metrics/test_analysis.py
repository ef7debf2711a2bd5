"""Tests for statistical helpers."""

import math

import pytest

from repro.metrics.analysis import percentile, summarize


def test_percentile_basics():
    values = [1, 2, 3, 4, 5]
    assert percentile(values, 0) == 1
    assert percentile(values, 50) == 3
    assert percentile(values, 100) == 5
    assert percentile(values, 25) == 2.0


def test_percentile_interpolates():
    assert percentile([0, 10], 50) == 5.0
    assert percentile([0, 10], 75) == 7.5


def test_percentile_single_value():
    assert percentile([7.5], 99) == 7.5


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_summarize():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.n == 4
    assert s.mean == 2.5
    assert s.minimum == 1.0 and s.maximum == 4.0
    assert s.p50 == 2.5
    assert s.std == pytest.approx(math.sqrt(1.25))
    assert "p99" in s.format()


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


"""Tests for steady-state and timeline runners."""

import pytest

from repro.experiments import (ExperimentConfig, run_steady_state,
                               run_timeline)


def small(**kw):
    base = dict(n_mds=3, scale=0.2, warmup_s=0.3, duration_s=1.0)
    base.update(kw)
    return ExperimentConfig(**base)


def test_steady_state_measures():
    result = run_steady_state(small())
    assert result.mean_node_throughput > 0
    assert len(result.node_throughputs) == 3
    assert 0.0 < result.hit_rate <= 1.0
    assert 0.0 <= result.prefix_fraction < 1.0
    assert result.total_ops > 0
    assert result.client_mean_latency_s > 0
    assert result.total_metadata > 0


def test_steady_state_deterministic():
    a = run_steady_state(small(seed=9))
    b = run_steady_state(small(seed=9))
    assert a.total_ops == b.total_ops
    assert a.mean_node_throughput == pytest.approx(b.mean_node_throughput)
    assert a.hit_rate == pytest.approx(b.hit_rate)


def test_steady_state_seed_changes_results():
    a = run_steady_state(small(seed=1))
    b = run_steady_state(small(seed=2))
    assert a.total_ops != b.total_ops


def test_timeline_series_cover_run():
    cfg = small()
    result = run_timeline(cfg, sample_interval_s=0.2)
    expected_points = round(cfg.run_until_s / 0.2)
    assert len(result.throughput_series) == expected_points
    assert len(result.forward_series) == expected_points
    assert len(result.rate_series) == expected_points
    for t, mn, avg, mx in result.throughput_series:
        assert mn <= avg <= mx


def test_timeline_rates_match_totals():
    cfg = small()
    result = run_timeline(cfg, sample_interval_s=0.2)
    total_replies = sum(r * 0.2 for (_t, r, _f) in result.rate_series)
    assert total_replies > 0


def test_timeline_rejects_misaligned_interval():
    cfg = small()  # stats bucket 0.1s
    with pytest.raises(ValueError, match="multiple"):
        run_timeline(cfg, sample_interval_s=0.25)

"""Unit tests for the figure-harness logic (no heavy simulation).

The expensive sweeps are exercised by the benchmark suite; here the
aggregation, formatting and plotting logic are tested against stubbed
results, plus one genuinely tiny end-to-end figure (fig7).
"""

from unittest import mock

import pytest

from repro.experiments import FigureResult, fig2, fig7, scaling_config
from repro.experiments.figures import _sizes_for, SIZES_FULL, SIZES_MEDIUM, \
    SIZES_SMALL
from repro.experiments.runner import SteadyStateResult


def fake_steady(config, thr=1000.0):
    return SteadyStateResult(
        config=config, mean_node_throughput=thr,
        node_throughputs=[thr] * config.n_mds, hit_rate=0.9,
        prefix_fraction=0.2, forward_fraction=0.05, total_ops=1000,
        client_mean_latency_s=0.002, errors=0, total_metadata=5000)


def test_sizes_for_scale_regimes():
    assert _sizes_for(1.0) == SIZES_FULL
    assert _sizes_for(0.5) == SIZES_MEDIUM
    assert _sizes_for(0.2) == SIZES_SMALL


def test_scaling_config_scales_with_cluster():
    small = scaling_config("FileHash", 4, 0.5)
    large = scaling_config("FileHash", 8, 0.5)
    assert large.n_users == 2 * small.n_users
    assert large.n_clients == 2 * small.n_clients
    assert small.cache_capacity_per_mds == large.cache_capacity_per_mds


def test_fig2_aggregates_stubbed_results(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "0")  # the stub cannot be pickled
    calls = []

    def stub(config):
        calls.append(config)
        return fake_steady(config, thr=100.0 * config.n_mds
                           + {"StaticSubtree": 5}.get(config.strategy, 0))

    with mock.patch("repro.experiments.figures.run_steady_state", stub):
        result = fig2(scale=0.2, seeds=2)
    assert isinstance(result, FigureResult)
    assert result.headers[0] == "mds_cluster_size"
    # 5 strategies x 3 sizes x 2 seeds
    assert len(calls) == 30
    # rows carry the stubbed throughputs
    sizes = [row[0] for row in result.rows]
    assert sizes == SIZES_SMALL
    static_curve = dict(result.series["StaticSubtree"])
    assert static_curve[SIZES_SMALL[0]] == pytest.approx(
        100.0 * SIZES_SMALL[0] + 5)


def test_fig2_seed_averaging(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "0")  # the stub cannot be pickled
    values = iter([100.0, 300.0] * 1000)

    def stub(config):
        return fake_steady(config, thr=next(values))

    with mock.patch("repro.experiments.figures.run_steady_state", stub):
        result = fig2(scale=0.2, seeds=2)
    first = dict(result.series["StaticSubtree"])[SIZES_SMALL[0]]
    assert first == pytest.approx(200.0)


def test_figure_result_format_and_plot():
    result = FigureResult(
        figure="Figure X", title="demo", headers=["x", "a", "b"],
        rows=[[1, 10, 20], [2, 15, 25]], notes="note",
        series={"a": [(1, 10), (2, 15)], "b": [(1, 20), (2, 25)]})
    text = result.format()
    assert "Figure X" in text and "note" in text
    chart = result.plot(width=30, height=6)
    assert "o a" in chart and "x b" in chart


def test_plottable_reduces_rich_series():
    result = FigureResult(
        figure="F", title="t", headers=["time"], rows=[],
        series={
            "plain": [(0, 1.0)],
            "minavgmax": [(0, 1.0, 2.0, 3.0)],
            "rates": [(0, 5.0, 6.0)],
            "empty": [],
        })
    plottable = result.plottable()
    assert plottable["plain"] == [(0, 1.0)]
    assert plottable["minavgmax avg"] == [(0, 2.0)]
    assert plottable["rates replies"] == [(0, 5.0)]
    assert plottable["rates forwards"] == [(0, 6.0)]
    assert "empty" not in plottable


def test_fig7_end_to_end_tiny():
    result = fig7(scale=0.25)
    assert result.figure == "Figure 7"
    off = result.series["off"]
    on = result.series["on"]
    assert sum(f for (_t, _r, f) in off) > sum(f for (_t, _r, f) in on)

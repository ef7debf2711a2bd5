"""The public facade: surface completeness, run_experiment, no deep imports."""

import re
from pathlib import Path

import pytest

import repro.api as api

REPO = Path(__file__).resolve().parents[2]


def small_cfg(**kw):
    base = dict(n_mds=3, scale=0.1, warmup_s=0.3, duration_s=1.0, seed=7)
    base.update(kw)
    return api.ExperimentConfig(**base)


class TestSurface:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert hasattr(api, name), name

    def test_core_entry_points_present(self):
        assert callable(api.run_experiment)
        assert callable(api.build_simulation)
        assert callable(api.run_steady_state)
        assert api.ExperimentConfig and api.ClusterSummary and api.Trace


class TestRunExperiment:
    def test_returns_summary_and_config(self):
        result = api.run_experiment(small_cfg())
        assert isinstance(result, api.RunResult)
        assert result.config.n_mds == 3
        assert isinstance(result.summary, api.ClusterSummary)
        assert result.summary.total_ops > 0
        assert result.summary.throughput_ops_per_s > 0

    def test_reports_per_op_percentiles(self):
        result = api.run_experiment(small_cfg())
        assert result.summary.latency_by_op  # op name -> LatencySummary
        for op, summary in result.summary.latency_by_op.items():
            assert isinstance(op, str)
            assert summary.p50_s <= summary.p95_s <= summary.p99_s

    def test_run_until_override(self):
        cfg = small_cfg()
        result = api.run_experiment(cfg, run_until=0.5)
        assert result.summary.total_ops < \
            api.run_experiment(cfg).summary.total_ops

    def test_summary_format_is_printable(self):
        text = api.run_experiment(small_cfg()).summary.format()
        assert "cluster summary" in text
        assert "p50/p95/p99" in text
        assert "latency by op type" in text


class TestSimulationSummary:
    def test_summary_replaces_adhoc_aggregation(self):
        sim = api.build_simulation(small_cfg())
        sim.run_to(1.0)
        summary = sim.summary()
        # the typed object must agree with the raw counters it folds
        assert summary.total_served == sum(
            n.stats.ops_served for n in sim.cluster.nodes)
        assert summary.total_ops == sum(
            c.stats.ops_completed for c in sim.clients)
        assert summary.hit_rate == sim.cluster.cluster_hit_rate()
        assert 0.0 <= summary.forward_fraction <= 1.0

    def test_summary_window_defaults_clamp_to_now(self):
        sim = api.build_simulation(small_cfg())
        sim.run_to(0.4)  # before the warmup window would normally end
        summary = sim.summary()
        assert summary.window[1] <= 0.4


class TestNoDeepImportsRemain:
    @pytest.mark.parametrize("tree", ["benchmarks", "examples"])
    def test_consumers_use_the_facade(self, tree):
        offenders = []
        for path in (REPO / tree).rglob("*.py"):
            text = path.read_text()
            if re.search(r"(from|import)\s+repro\.experiments\b", text):
                offenders.append(path.name)
        assert not offenders, (
            f"{tree} must import via repro.api, found deep imports of "
            f"repro.experiments in: {offenders}")

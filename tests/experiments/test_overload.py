"""Overload scenario builders and the end-to-end accessor plumbing."""

import dataclasses

import pytest

from repro.api import run_experiment
from repro.experiments.overload import (ADMISSION_INBOX, HOTSPOT_INBOX,
                                        NOMINAL_CAPACITY_OPS_S,
                                        OVERLOAD_N_MDS, PER_USER_OPS_S,
                                        SLO_LATENCY_S, hotspot_config,
                                        overload_config)
from repro.experiments.runner import run_steady_state
from repro.experiments.workload import OpenLoopSpec


class TestOverloadConfig:
    def test_user_population_derives_the_offered_rate(self):
        cfg = overload_config(1.0)
        spec = cfg.workload
        assert isinstance(spec, OpenLoopSpec)
        assert spec.implied_users == round(
            NOMINAL_CAPACITY_OPS_S / PER_USER_OPS_S)
        assert spec.offered_rate_ops_per_s == pytest.approx(
            NOMINAL_CAPACITY_OPS_S)
        assert spec.slo_latency_s == SLO_LATENCY_S

    def test_admission_toggle_bounds_the_inbox(self):
        assert overload_config(
            1.0, admission=True).params.inbox_capacity == ADMISSION_INBOX
        assert overload_config(
            1.0, admission=False).params.inbox_capacity is None

    def test_proxy_toggle(self):
        assert overload_config(1.0, proxy=False).proxy is None
        assert overload_config(1.0, proxy=True).proxy is not None

    def test_cluster_size_and_strategy(self):
        cfg = overload_config(0.8, strategy="StaticSubtree")
        assert cfg.n_mds == OVERLOAD_N_MDS
        assert cfg.strategy == "StaticSubtree"

    def test_overrides_win(self):
        assert overload_config(1.0, seed=9).seed == 9
        assert overload_config(1.0, scale=0.25).scale == 0.25


class TestHotspotConfig:
    def test_traffic_control_toggle(self):
        assert hotspot_config(tc=True, proxy=False).params.traffic_control
        assert not hotspot_config(tc=False,
                                  proxy=True).params.traffic_control

    def test_hotspot_overlay_is_on(self):
        cfg = hotspot_config(tc=False, proxy=False)
        assert cfg.workload.hotspot_prob > 0
        assert cfg.workload.arrival == "bursty"
        assert cfg.params.inbox_capacity == HOTSPOT_INBOX

    def test_variants_share_seed_and_load(self):
        a = hotspot_config(tc=True, proxy=False)
        b = hotspot_config(tc=False, proxy=True)
        assert a.seed == b.seed
        assert a.workload.offered_rate_ops_per_s == pytest.approx(
            b.workload.offered_rate_ops_per_s)


def tiny_overload(**kw):
    base = dict(scale=0.2, warmup_s=0.2, duration_s=0.5,
                cache_capacity_per_mds=2000)
    base.update(kw)
    spec = OpenLoopSpec(kind="general", rate_ops_per_s=6000.0, sources=16,
                        slo_latency_s=0.010)
    return dataclasses.replace(
        overload_config(1.0, **base),
        workload=spec, files_per_user=20)


class TestEndToEnd:
    def test_run_experiment_exposes_overload_accessors(self):
        summary = run_experiment(tiny_overload()).summary
        assert summary.offered_ops > 0
        assert summary.dropped_ops >= 0
        assert summary.slo_violations >= 0
        assert summary.goodput_ops_per_s > 0

    def test_run_steady_state_carries_overload_fields(self):
        res = run_steady_state(tiny_overload())
        assert res.offered_ops > 0
        assert res.goodput_ops_per_s > 0
        window = res.config.measure_window
        good = res.goodput_ops_per_s * (window[1] - window[0])
        assert good <= res.offered_ops

    def test_closed_loop_summary_format_omits_overload_rows(self):
        from repro.experiments import (ClosedLoopSpec, ExperimentConfig,
                                       build_simulation)
        cfg = ExperimentConfig(n_mds=3, scale=0.2, warmup_s=0.2,
                               duration_s=0.5,
                               workload=ClosedLoopSpec())
        sim = build_simulation(cfg)
        sim.run_to(cfg.run_until_s)
        text = sim.summary().format()
        assert "offered ops" not in text
        assert "dropped ops" not in text

    def test_open_loop_summary_format_shows_overload_rows(self):
        from repro.experiments import build_simulation
        cfg = tiny_overload()
        sim = build_simulation(cfg)
        sim.run_to(cfg.run_until_s)
        text = sim.summary().format()
        assert "offered ops" in text
        assert "goodput (ops/s)" in text

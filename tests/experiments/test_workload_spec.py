"""The typed WorkloadSpec API: the only spelling of a workload."""

import pytest

from repro.experiments import ClosedLoopSpec, ExperimentConfig, OpenLoopSpec


class TestConfigWorkloadField:
    def test_default_is_the_general_closed_loop(self):
        assert ExperimentConfig().workload == ClosedLoopSpec(
            kind="general", think_time_s=0.006)

    def test_string_workload_rejected(self):
        with pytest.raises(TypeError, match="ClosedLoopSpec or OpenLoopSpec"):
            ExperimentConfig(workload="general")


class TestSpecValidation:
    def test_closed_loop_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            ClosedLoopSpec(kind="bogus").validate()

    def test_closed_loop_rejects_nonpositive_think_time(self):
        with pytest.raises(ValueError, match="think_time_s"):
            ClosedLoopSpec(think_time_s=0.0).validate()

    def test_closed_loop_rejects_unknown_args(self):
        with pytest.raises(ValueError, match="accepted keys: .*phase_len_s"):
            ClosedLoopSpec(kind="scientific",
                           args={"phase_length_s": 2.0}).validate()

    def test_open_loop_rejects_unknown_args(self):
        with pytest.raises(ValueError, match="accepted keys: .*move_dir_prob"):
            OpenLoopSpec(rate_ops_per_s=100.0,
                         args={"mkdir_bias": 0.2}).validate()

    def test_open_loop_needs_a_rate(self):
        with pytest.raises(ValueError, match="rate_ops_per_s or"):
            OpenLoopSpec().validate()

    def test_open_loop_rejects_unknown_arrival(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            OpenLoopSpec(rate_ops_per_s=100.0, arrival="fractal").validate()

    def test_open_loop_rejects_shallow_pareto_tail(self):
        with pytest.raises(ValueError, match="burst_alpha"):
            OpenLoopSpec(rate_ops_per_s=100.0, burst_alpha=1.0).validate()

    def test_open_loop_rejects_bad_hotspot_prob(self):
        with pytest.raises(ValueError, match="hotspot_prob"):
            OpenLoopSpec(rate_ops_per_s=100.0, hotspot_prob=1.5).validate()


class TestSpecDerivations:
    def test_rate_from_nominal_users(self):
        spec = OpenLoopSpec(nominal_users=2_000_000,
                            per_user_ops_per_s=0.008)
        assert spec.offered_rate_ops_per_s == pytest.approx(16_000.0)
        assert spec.implied_users == 2_000_000

    def test_users_implied_from_rate(self):
        spec = OpenLoopSpec(rate_ops_per_s=5000.0, per_user_ops_per_s=0.01)
        assert spec.implied_users == 500_000

    def test_sources_default_to_client_population(self):
        assert OpenLoopSpec(rate_ops_per_s=1.0).resolved_sources(24) == 24
        assert OpenLoopSpec(rate_ops_per_s=1.0,
                            sources=8).resolved_sources(24) == 8

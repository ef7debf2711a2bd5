"""Consolidated environment-gate parsing and precedence."""

import os

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.config import (PARALLEL_ENV, SCALE_ENV, EnvGates,
                                      env_gates, parse_parallel_env)
from repro.sim.backend import BACKEND_ENV, parse_backend_env, resolve_kernel


class TestParseParallelEnv:
    def test_unset_defers_to_auto(self):
        assert parse_parallel_env(None) is None

    @pytest.mark.parametrize("token", ["", "  "])
    def test_auto_tokens(self, token):
        assert parse_parallel_env(token) is None

    @pytest.mark.parametrize("token", ["0", " 0 "])
    def test_serial_tokens(self, token):
        assert parse_parallel_env(token) == 0

    @pytest.mark.parametrize("token", ["1", " 1 "])
    def test_one_worker_count(self, token):
        assert parse_parallel_env(token) == 1

    def test_degenerate_worker_count_means_serial(self, monkeypatch):
        # zero and one worker are both a serial sweep: the executor pools
        # only above 1
        for token in ("0", "1"):
            monkeypatch.setenv(PARALLEL_ENV, token)
            assert env_gates().parallel_workers <= 1

    def test_worker_count_pins_parallel(self):
        assert parse_parallel_env("4") == 4

    def test_garbage_raises(self):
        for token in ("bogus", "-3", "2.5"):
            with pytest.raises(ValueError,
                               match="REPRO_PARALLEL.*worker count"):
                parse_parallel_env(token)

    @pytest.mark.parametrize("token", [
        "auto", "on", "true", "yes", "off", " OFF ", "serial", "Serial",
        "false", "no"])
    def test_mode_words_raise(self, token):
        with pytest.raises(ValueError, match="REPRO_PARALLEL"):
            parse_parallel_env(token)


class TestParseBackendEnv:
    @pytest.mark.parametrize("raw", [None, "", "  "])
    def test_unset_or_blank_defers_to_default(self, raw):
        assert parse_backend_env(raw) is None

    @pytest.mark.parametrize("token,expected", [
        ("reference", "reference"), ("REFERENCE", "reference"),
        ("compiled", "compiled"), (" Compiled ", "compiled"),
    ])
    def test_mode_tokens(self, token, expected):
        assert parse_backend_env(token) == expected

    @pytest.mark.parametrize("token", ["bogus", "1", "fast", "c", "auto"])
    def test_garbage_raises(self, token):
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            parse_backend_env(token)

    def test_resolve_defaults_to_reference(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_kernel() == "reference"
        assert resolve_kernel("reference") == "reference"


class TestEnvGatesPrecedence:
    def test_defaults(self, monkeypatch):
        for name in list(os.environ):
            if name.startswith("REPRO_"):
                monkeypatch.delenv(name)
        gates = env_gates()
        assert gates == EnvGates(parallel_workers=None, scale=1.0,
                                 backend="reference")

    def test_env_vars_override_defaults(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_ENV, "6")
        monkeypatch.setenv(SCALE_ENV, "0.4")
        monkeypatch.setenv(BACKEND_ENV, "compiled")
        gates = env_gates()
        assert gates.backend == "compiled"
        assert gates.parallel_workers == 6
        assert gates.scale == pytest.approx(0.4)

    def test_config_field_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_ENV, "6")
        monkeypatch.setenv(SCALE_ENV, "0.4")
        gates = env_gates(ExperimentConfig(scale=0.7))
        assert gates.scale == pytest.approx(0.7)  # config wins over REPRO_SCALE
        assert gates.parallel_workers == 6    # no config field: env applies

    def test_default_scale_used_without_config(self, monkeypatch):
        monkeypatch.delenv(SCALE_ENV, raising=False)
        assert env_gates(default_scale=0.3).scale == pytest.approx(0.3)

    def test_backend_env_var_reaches_config_gates(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "compiled")
        assert env_gates(ExperimentConfig()).backend == "compiled"

    def test_backend_env_var_garbage_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "turbo")
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            env_gates()


class TestReExports:
    def test_api_re_exports_gates(self):
        from repro import api
        assert api.env_gates is env_gates
        assert api.EnvGates is EnvGates
        assert api.parse_parallel_env is parse_parallel_env

"""Tests for the parallel sweep map (repro.parallel).

The determinism contract — a pooled sweep returns bit-identical results
to the serial in-process loop — is the hard requirement here; failures,
pool breakage and worker resolution ride along.  Every test sets its own
``REPRO_PARALLEL``, so the caller's environment cannot change what runs.
Simulations are kept tiny (scale 0.15, n_mds=2) so the pool tests stay
fast.
"""

import dataclasses
from unittest import mock

import pytest

from repro.experiments.config import PARALLEL_ENV, ExperimentConfig
from repro.experiments.runner import (SteadyStateResult, run_steady_state,
                                      run_timeline)
from repro.parallel import executor as executor_mod
from repro.parallel import run_many


def tiny(seed=42, **kw):
    base = dict(strategy="DynamicSubtree", n_mds=2, seed=seed, scale=0.15,
                users_per_mds=4, files_per_user=20, clients_per_mds=6,
                warmup_s=0.5, duration_s=1.0)
    base.update(kw)
    return ExperimentConfig(**base)


def broken(seed=42):
    return tiny(seed=seed, strategy="NoSuchStrategy")


def serial(monkeypatch):
    monkeypatch.setenv(PARALLEL_ENV, "0")


def pooled(monkeypatch):
    monkeypatch.setenv(PARALLEL_ENV, "2")


# ---------------------------------------------------------------------------
# Serial vs pooled equivalence
# ---------------------------------------------------------------------------
def test_serial_and_parallel_results_identical_field_by_field(monkeypatch):
    configs = [tiny(seed=42 + 7 * s) for s in range(3)]
    serial(monkeypatch)
    serial_results = run_many(configs)
    pooled(monkeypatch)
    pooled_results = run_many(configs)
    assert len(serial_results) == len(pooled_results) == 3
    for s, p in zip(serial_results, pooled_results):
        assert isinstance(s, SteadyStateResult)
        assert isinstance(p, SteadyStateResult)
        for f in dataclasses.fields(SteadyStateResult):
            assert getattr(s, f.name) == getattr(p, f.name), f.name


def test_timeline_serial_and_parallel_identical(monkeypatch):
    configs = [tiny(seed=1), tiny(seed=2)]
    serial(monkeypatch)
    serial_runs = run_many(configs, run_timeline, sample_interval_s=0.5)
    pooled(monkeypatch)
    pooled_runs = run_many(configs, run_timeline, sample_interval_s=0.5)
    assert serial_runs == pooled_runs
    assert serial_runs[0].throughput_series  # non-trivial run
    assert serial_runs[0].config.seed == 1


def test_results_assembled_in_input_order(monkeypatch):
    pooled(monkeypatch)
    results = run_many([tiny(seed=s) for s in (5, 3, 9)])
    assert [r.config.seed for r in results] == [5, 3, 9]


def test_sweep_results_match_plain_runner_calls(monkeypatch):
    configs = [tiny(seed=11), tiny(seed=12)]
    plain = [run_steady_state(c) for c in configs]
    serial(monkeypatch)
    assert run_many(configs) == plain
    pooled(monkeypatch)
    assert run_many(configs) == plain


def test_empty_sweep(monkeypatch):
    pooled(monkeypatch)
    assert run_many([]) == []


# ---------------------------------------------------------------------------
# Failures
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workers", ["0", "2"])
def test_failing_config_raises_its_own_error(monkeypatch, workers):
    monkeypatch.setenv(PARALLEL_ENV, workers)
    with pytest.raises(ValueError, match="NoSuchStrategy"):
        run_many([tiny(seed=1), broken(), tiny(seed=2)])


def test_serial_mode_captures_errors_identically(monkeypatch):
    errors = []
    for workers in ("0", "2"):
        monkeypatch.setenv(PARALLEL_ENV, workers)
        with pytest.raises(ValueError) as info:
            run_many([tiny(seed=1), broken()])
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]


def test_broken_pool_falls_back_in_process(monkeypatch):
    used = []

    class ExplodingPool:
        def __init__(self, *a, **kw):
            used.append(a)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, *a, **kw):
            from concurrent.futures.process import BrokenProcessPool
            raise BrokenProcessPool("worker died")

    configs = [tiny(seed=1), tiny(seed=2)]
    pooled(monkeypatch)
    with mock.patch.object(executor_mod, "ProcessPoolExecutor",
                           ExplodingPool):
        results = run_many(configs)
    assert used == [(2,)]
    assert results == [run_steady_state(c) for c in configs]


# ---------------------------------------------------------------------------
# Worker resolution (REPRO_PARALLEL, parsed by env_gates)
# ---------------------------------------------------------------------------
def test_env_var_forces_serial(monkeypatch):
    for value in ("0", "1"):
        monkeypatch.setenv(PARALLEL_ENV, value)
        assert executor_mod._workers(4) <= 1
    with mock.patch.object(executor_mod, "ProcessPoolExecutor") as pool:
        assert len(run_many([tiny(seed=1), tiny(seed=2)])) == 2
    pool.assert_not_called()


def test_env_var_pins_worker_count(monkeypatch):
    monkeypatch.setenv(PARALLEL_ENV, "3")
    monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 1)
    assert executor_mod._workers(4) == 3
    assert executor_mod._workers(2) == 2  # never more workers than configs


def test_env_var_garbage_rejected(monkeypatch):
    monkeypatch.setenv(PARALLEL_ENV, "sideways")
    with pytest.raises(ValueError, match="REPRO_PARALLEL"):
        run_many([tiny(), tiny(seed=2)])


def test_single_task_runs_serial_by_default(monkeypatch):
    monkeypatch.delenv(PARALLEL_ENV, raising=False)
    monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 8)
    assert executor_mod._workers(1) == 1


# ---------------------------------------------------------------------------
# Snapshot memo: every sweep task runs inside it; a hit equals regeneration
# ---------------------------------------------------------------------------
def test_snapshot_memo_matches_regeneration():
    from repro.experiments import _build

    cfg = tiny(seed=4)
    assert not _build._snapshot_memo_active
    fresh = run_steady_state(cfg)
    _build._SNAPSHOT_MEMO.clear()
    with _build.snapshot_memo():
        memo_miss = run_steady_state(cfg)
        assert len(_build._SNAPSHOT_MEMO) == 1
        memo_hit = run_steady_state(cfg)
    assert not _build._snapshot_memo_active
    assert fresh == memo_miss == memo_hit

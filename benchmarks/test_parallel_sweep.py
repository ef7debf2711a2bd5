"""Benchmark: the pooled sweep map vs a serial in-process sweep.

Times a small Fig. 2-style sweep both ways and asserts the determinism
contract: the process pool must return bit-identical results to the serial
path.  The mode is picked through ``REPRO_PARALLEL`` (``0`` serial, ``2``
two workers).  On a single-CPU host the pool can only add overhead, so
expect a speed-up of about 1x or slightly below there.
"""

from repro.api import run_many, scaling_config

from .conftest import bench_scale, run_once


def sweep_configs():
    scale = bench_scale()
    return [scaling_config(name, 4, scale, seed=42 + 7 * s)
            for name in ("DynamicSubtree", "StaticSubtree")
            for s in range(2)]


def test_sweep_serial(benchmark, monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "0")
    results = run_once(benchmark, lambda: run_many(sweep_configs()))
    assert len(results) == 4


def test_sweep_parallel_matches_serial(benchmark, monkeypatch):
    configs = sweep_configs()
    monkeypatch.setenv("REPRO_PARALLEL", "0")
    serial = run_many(configs)
    monkeypatch.setenv("REPRO_PARALLEL", "2")
    parallel = run_once(benchmark, lambda: run_many(configs))
    assert parallel == serial

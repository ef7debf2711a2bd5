"""Benchmark: the parallel sweep executor vs forced-serial execution.

Times a small Fig. 2-style sweep both ways and asserts the determinism
contract: the process pool must return bit-identical results to the serial
path.  On a single-CPU host the pool can only add overhead, so expect
a speed-up of about 1x or slightly below there.
"""

from repro.api import require_ok, run_many, scaling_config

from .conftest import bench_scale, run_once


def sweep_configs():
    scale = bench_scale()
    return [scaling_config(name, 4, scale, seed=42 + 7 * s)
            for name in ("DynamicSubtree", "StaticSubtree")
            for s in range(2)]


def test_sweep_serial(benchmark):
    results = run_once(
        benchmark,
        lambda: require_ok(run_many(sweep_configs(), mode="serial")))
    assert len(results) == 4


def test_sweep_parallel_matches_serial(benchmark):
    configs = sweep_configs()
    serial = require_ok(run_many(configs, mode="serial"))
    parallel = run_once(
        benchmark,
        lambda: require_ok(run_many(configs, mode="parallel")))
    assert parallel == serial

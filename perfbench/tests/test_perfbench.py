"""The benchmark's own tests: tiny runs through the benchmark's code path."""

import dataclasses
import json
import os

import pytest

import harness
from layers import LAYERS, PER_LAYER
from workloads import WORKLOADS, Workload, sub_seeds

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: workload size of the smoke runs (the benchmark runs at 1.0)
TINY = 0.05


def tiny(name: str) -> Workload:
    return dataclasses.replace(WORKLOADS[name], sims=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_untraced(name):
    outcome = harness.measure(tiny(name), seed=7, seconds=0.0, size=TINY)
    assert outcome.failed == 0
    assert set(outcome.metrics) == set(harness.END_TO_END)
    assert all(value > 0 for value in outcome.metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_layers_repeat_exactly(name):
    first = harness.measure_traced(tiny(name), seed=7, size=TINY)
    second = harness.measure_traced(tiny(name), seed=7, size=TINY)
    assert first.failed == second.failed == 0
    assert set(first.metrics) == set(PER_LAYER)
    for layer in LAYERS:
        key = f"{layer}.calls_per_op"
        assert first.metrics[key] == second.metrics[key], key
    assert first.metrics["sim.calls_per_op"] > 0


def test_fingerprint_check_fails_on_perturbed_config():
    base = tiny("cache_bound")
    recorded = harness.fingerprint(
        harness.execute(base.config(sub_seeds(7, 1)[0], TINY)))

    def perturbed_config(seed, size):
        return base.config(seed, size).replace(cache_fraction=0.04)

    perturbed = dataclasses.replace(base, config=perturbed_config)
    assert harness.measure(base, 7, 0.0, TINY, [recorded]).failed == 0
    assert harness.measure(perturbed, 7, 0.0, TINY, [recorded]).failed == 1
    assert harness.measure_traced(perturbed, 7, TINY, [recorded]).failed == 1


def test_default_seed_is_recorded_for_every_workload():
    recorded = harness.load_fingerprints()
    for name, workload in WORKLOADS.items():
        runs = recorded[name][str(harness.DEFAULT_SEED)]
        assert len(runs) == workload.sims


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER

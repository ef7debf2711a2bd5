"""The bench tools' baseline/trajectory bookkeeping (no timing involved).

``tools/bench_overload.py`` compares each run against the previously
*committed* report instead of a constant frozen in the source, and keeps a
``trajectory`` of recorded values across changes.  These tests pin the
pure helpers that implement that: prior-report loading, baseline
extraction (with its fallback), and trajectory carry-forward.
"""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def _load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench_overload", REPO / "tools" / "bench_overload.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_missing_or_garbage_prior_report(tmp_path):
    bench = _load_bench()
    assert bench.load_prior_report(str(tmp_path / "nope.json")) is None
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert bench.load_prior_report(str(bad)) is None


def test_baseline_falls_back_without_prior():
    bench = _load_bench()
    assert bench.baseline_from_prior(None) == \
        bench.FALLBACK_BASELINE_GOODPUT_OPS_S
    assert bench.baseline_from_prior({}) == \
        bench.FALLBACK_BASELINE_GOODPUT_OPS_S
    assert bench.baseline_from_prior({"peak_ac_goodput_ops_per_s": 0}) == \
        bench.FALLBACK_BASELINE_GOODPUT_OPS_S


def test_trajectory_carries_forward_and_copies():
    bench = _load_bench()
    existing = [{"timestamp": "t0"}, {"timestamp": "t1"}]
    prior = {"trajectory": existing}
    trajectory = bench.trajectory_from_prior(prior)
    assert trajectory == existing
    trajectory.append({"timestamp": "t2"})  # must not alias the prior list
    assert len(existing) == 2
    assert bench.trajectory_from_prior(None) == []


def test_committed_report_is_a_valid_prior():
    """The report committed at the repo root must parse and provide a
    baseline — the tool's regression warning depends on it."""
    bench = _load_bench()
    committed = REPO / "BENCH_overload.json"
    prior = bench.load_prior_report(str(committed))
    assert prior is not None
    assert bench.baseline_from_prior(prior) == \
        prior["peak_ac_goodput_ops_per_s"]
    assert bench.trajectory_from_prior(prior)  # at least one entry

"""The request-path fast lane must be invisible to results.

With the fast lane off (reference walks, no memo, no authority cache) and
on, the same seed must produce bit-identical summaries: the fast lane is
pure memoisation, never a behaviour change.  The switch
(:data:`repro._fastpath.ENABLED`) is read at wiring time, so each mode
gets its own build.
"""

import pytest

from repro import _fastpath
from repro._fastpath import fastpath_enabled
from repro.api import build_simulation, scaling_config

#: one parameter, so the parametrized tests keep the ``[reference]`` ids
#: they recorded when they also ran on a second simulator implementation
REFERENCE_ID = pytest.mark.parametrize("implementation", ["reference"])


def _summary_for(monkeypatch, fastpath: bool):
    monkeypatch.setattr(_fastpath, "ENABLED", fastpath)
    cfg = scaling_config("DynamicSubtree", 4, 0.1, seed=42)
    sim = build_simulation(cfg)
    sim.run_to(cfg.run_until_s)
    return sim


@REFERENCE_ID
def test_fixed_seed_summaries_identical(monkeypatch, implementation):
    off = _summary_for(monkeypatch, False)
    on = _summary_for(monkeypatch, True)
    assert repr(off.summary()) == repr(on.summary())


def test_fastpath_wiring_follows_switch(monkeypatch):
    off = _summary_for(monkeypatch, False)
    assert off.cluster.ns.resolution_memo is None
    on = _summary_for(monkeypatch, True)
    memo = on.cluster.ns.resolution_memo
    assert memo is not None
    assert memo.hits > 0  # the run actually exercised the fast lane
    memo.verify_invariants()


def test_fastpath_defaults_on(request):
    # on unless the session runs with ``pytest --fastpath-off``
    expected = not request.config.getoption("fastpath_off")
    assert fastpath_enabled() is expected


@REFERENCE_ID
def test_kernel_counters_prove_event_elision(monkeypatch, implementation):
    """The fast lane's win is visible in the kernel counters: fewer
    calendar events for the same simulated work, with every elision
    accounted as a fast resume and the freelists actually reused."""
    off = _summary_for(monkeypatch, False).env.kernel_stats()
    on = _summary_for(monkeypatch, True).env.kernel_stats()
    assert off["fastlane"] is False and on["fastlane"] is True
    assert off["fast_resumes"] == 0
    assert on["fast_resumes"] > 0
    assert on["events_scheduled"] < off["events_scheduled"]
    assert on["pool_reuse_rate"] > 0.5


def test_summary_carries_kernel_counters_outside_equivalence(monkeypatch):
    """``summary().kernel`` exposes the counters, but stays out of the
    repr/equality contract — the modes differ there by design."""
    off = _summary_for(monkeypatch, False).summary()
    on = _summary_for(monkeypatch, True).summary()
    assert on.kernel is not None and off.kernel is not None
    assert on.kernel["fast_resumes"] > 0
    assert on.kernel != off.kernel
    assert "kernel" not in repr(on)
    assert repr(off) == repr(on)

"""The request-path fast lane must be invisible to results.

With the fast lane off (reference walks, no memo, no authority cache) and
on, the same seed must produce bit-identical summaries: the fast lane is
pure memoisation, never a behaviour change.  The switch
(:data:`repro._fastpath.ENABLED`) is read at wiring time, so each mode
gets its own build.

The equivalence contract is enforced on **both** backends: every
fixed-seed comparison below is parametrized over ``REPRO_BACKEND`` so the
compiled calendar (and the compiled model structures, where built) has
to reproduce the reference bit-for-bit in each fast-lane mode (cleanly
skipped where the kernel extension is not built).
"""

import pytest

from repro import _fastpath
from repro._fastpath import fastpath_enabled
from repro.api import build_simulation, scaling_config
from repro.sim.backend import BACKEND_ENV, backend_of, compiled_viable

BACKENDS = [
    pytest.param("reference", id="reference"),
    pytest.param("compiled", id="compiled",
                 marks=pytest.mark.skipif(
                     not compiled_viable(),
                     reason="compiled kernel extension not built "
                            "(python tools/build_kernel.py)")),
]


def _summary_for(monkeypatch, fastpath: bool, backend: str = "reference"):
    monkeypatch.setattr(_fastpath, "ENABLED", fastpath)
    monkeypatch.setenv(BACKEND_ENV, backend)
    cfg = scaling_config("DynamicSubtree", 4, 0.1, seed=42)
    sim = build_simulation(cfg)
    assert backend_of(sim.env) == backend
    sim.run_to(cfg.run_until_s)
    return sim


@pytest.mark.parametrize("backend", BACKENDS)
def test_fixed_seed_summaries_identical(monkeypatch, backend):
    off = _summary_for(monkeypatch, False, backend)
    on = _summary_for(monkeypatch, True, backend)
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_counters_prove_event_elision(monkeypatch, backend):
    """The fast lane's win is visible in the kernel counters: fewer
    calendar events for the same simulated work, with every elision
    accounted as a fast resume and the freelists actually reused."""
    off = _summary_for(monkeypatch, False, backend).env.kernel_stats()
    on = _summary_for(monkeypatch, True, backend).env.kernel_stats()
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


@pytest.mark.skipif(not compiled_viable(),
                    reason="compiled kernel extension not built")
@pytest.mark.parametrize("fastpath", [False, True],
                         ids=["fastpath-off", "fastpath-on"])
def test_backends_bit_identical_per_fastpath_mode(monkeypatch, fastpath):
    """The acceptance criterion of the backend seam: for a fixed seed the
    compiled backend's summary repr equals the reference's, in both
    fast-lane modes."""
    ref = _summary_for(monkeypatch, fastpath, "reference")
    com = _summary_for(monkeypatch, fastpath, "compiled")
    ref_summary, com_summary = ref.summary(), com.summary()
    assert repr(ref_summary) == repr(com_summary)
    assert ref_summary == com_summary
    # even the execution counters agree — the C kernel schedules exactly
    # the events the reference does
    ref_stats = ref.env.kernel_stats()
    com_stats = com.env.kernel_stats()
    assert ref_stats["events_scheduled"] == com_stats["events_scheduled"]
    assert ref_stats["fast_resumes"] == com_stats["fast_resumes"]
    # provenance travels on the summary, outside the equality contract
    assert ref_summary.kernel["kernel_backend"] == "reference"
    assert com_summary.kernel["kernel_backend"] == "compiled"

"""Model half of the backend gate: precedence, fallback, provenance.

Token parsing (shared with the kernel half) lives in
``tests/experiments/test_env_gates.py``.
"""

import pytest

from repro.api import scaling_config
from repro.experiments import env_gates
from repro.experiments._build import build_simulation
from repro.model import backend as backend_mod
from repro.model.backend import (compiled_model_unavailable_reason,
                                 compiled_model_viable, make_metadata_cache,
                                 make_popularity_map, make_resolution_memo,
                                 model_info, resolve_model, set_model_gate)
from repro.sim.backend import BACKEND_ENV

needs_cmodel = pytest.mark.skipif(
    not compiled_model_viable(),
    reason="compiled model extension not built "
           "(python tools/build_kernel.py)")


@pytest.fixture(autouse=True)
def clean_gate(monkeypatch):
    """Every test starts from an unset env var and an unset process gate."""
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    previous = set_model_gate(None)
    yield
    set_model_gate(previous)


def test_env_gates_rejects_bad_env(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "sonic")
    with pytest.raises(ValueError, match=BACKEND_ENV):
        env_gates()


# ----------------------------------------------------------------------
# precedence: explicit gate > process gate > env > reference
# ----------------------------------------------------------------------
def test_resolve_defaults_to_reference():
    assert resolve_model() == "reference"


def test_env_var_steers_resolution(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "reference")
    assert resolve_model() == "reference"


@needs_cmodel
def test_precedence_gate_arg_beats_process_and_env(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "compiled")
    set_model_gate("compiled")
    assert resolve_model("reference") == "reference"


@needs_cmodel
def test_precedence_process_gate_beats_env(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "reference")
    set_model_gate("compiled")
    assert resolve_model() == "compiled"


# ----------------------------------------------------------------------
# silent fallback when the extension is absent
# ----------------------------------------------------------------------
def test_fallback_when_extension_missing(monkeypatch):
    monkeypatch.setattr(backend_mod, "_C", None)
    assert resolve_model("compiled") == "reference"
    assert compiled_model_viable() is False
    assert compiled_model_unavailable_reason() is not None
    # factories silently hand back the reference classes
    from repro.cache.lru import MetadataCache
    from repro.mds.popularity import PopularityMap
    from repro.namespace.memo import ResolutionMemo
    assert isinstance(make_metadata_cache(4, model="compiled"),
                      MetadataCache)
    assert isinstance(make_resolution_memo(model="compiled"),
                      ResolutionMemo)
    assert isinstance(make_popularity_map(600.0, model="compiled"),
                      PopularityMap)


@needs_cmodel
def test_unavailable_reason_none_when_built():
    assert compiled_model_unavailable_reason() is None


# ----------------------------------------------------------------------
# factories construct the selected implementation
# ----------------------------------------------------------------------
@needs_cmodel
def test_factories_build_compiled_types():
    from repro.model import _cmodel
    assert isinstance(make_metadata_cache(4, model="compiled"),
                      _cmodel.MetadataCache)
    assert isinstance(make_resolution_memo(16, model="compiled"),
                      _cmodel.ResolutionMemo)
    assert isinstance(make_popularity_map(600.0, model="compiled"),
                      _cmodel.PopularityMap)


def test_factories_build_reference_types():
    from repro.cache.lru import MetadataCache
    from repro.mds.popularity import PopularityMap
    from repro.namespace.memo import ResolutionMemo
    assert isinstance(make_metadata_cache(4, model="reference"),
                      MetadataCache)
    assert isinstance(make_resolution_memo(model="reference"),
                      ResolutionMemo)
    assert isinstance(make_popularity_map(600.0, model="reference"),
                      PopularityMap)


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def test_model_info_shape():
    info = model_info("reference")
    assert info == {"model_backend": "reference",
                    "compiled_model_viable": compiled_model_viable()}


@pytest.mark.parametrize("backend", [
    pytest.param("reference", id="reference"),
    pytest.param("compiled", id="compiled", marks=needs_cmodel),
])
def test_summary_carries_model_provenance(monkeypatch, backend):
    monkeypatch.setenv(BACKEND_ENV, backend)
    cfg = scaling_config("DynamicSubtree", 2, 0.05, seed=7)
    sim = build_simulation(cfg)
    assert sim.model_backend == backend
    sim.run_to(cfg.run_until_s)
    summary = sim.summary()
    assert summary.kernel["model_backend"] == backend
    assert summary.kernel["compiled_model_viable"] \
        == compiled_model_viable()
    # provenance stays out of the repr/equality contract
    assert "model_backend" not in repr(summary)


@needs_cmodel
def test_build_records_gate_for_runtime_constructions(monkeypatch):
    """``build_simulation`` pins the process gate so objects constructed
    mid-run (failover resets, proxy tiers) pick the build's backend."""
    monkeypatch.setenv(BACKEND_ENV, "compiled")
    cfg = scaling_config("DynamicSubtree", 2, 0.05, seed=7)
    build_simulation(cfg)
    monkeypatch.delenv(BACKEND_ENV)
    from repro.model import _cmodel
    assert isinstance(make_metadata_cache(8), _cmodel.MetadataCache)

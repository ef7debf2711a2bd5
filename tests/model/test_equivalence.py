"""The compiled model must be invisible to results.

The reference and compiled model structures must produce bit-identical
summaries for the same seed — the C structures replicate every counter,
exception and float expression of the pure-python model.  The model
half is isolated here: the kernel stays on the reference calendar (as it
does when only the model extension is built), in both fast-lane modes.
Both halves compiled together are compared in
``tests/experiments/test_fastpath_equivalence.py``.
"""

import pytest

from repro import _fastpath
from repro.api import build_simulation, scaling_config
from repro.model.backend import compiled_model_viable
from repro.sim import backend as sim_backend
from repro.sim.backend import BACKEND_ENV, backend_of

pytestmark = pytest.mark.skipif(
    not compiled_model_viable(),
    reason="compiled model extension not built "
           "(python tools/build_kernel.py)")


def _run(monkeypatch, model: str, *, fastpath: bool = True):
    monkeypatch.setattr(_fastpath, "ENABLED", fastpath)
    monkeypatch.setenv(BACKEND_ENV, model)
    # hide the kernel extension: the gate falls back to the reference
    # calendar for the kernel half only
    monkeypatch.setattr(sim_backend, "_C", None)
    cfg = scaling_config("DynamicSubtree", 4, 0.1, seed=42)
    sim = build_simulation(cfg)
    assert sim.model_backend == model
    assert backend_of(sim.env) == "reference"
    sim.run_to(cfg.run_until_s)
    return sim.summary()


@pytest.mark.parametrize("fastpath", [False, True],
                         ids=["fastpath-off", "fastpath-on"])
def test_model_backends_bit_identical(monkeypatch, fastpath):
    """The acceptance criterion: for a fixed seed the compiled model's
    summary repr equals the reference's, in both fast-lane modes."""
    ref = _run(monkeypatch, "reference", fastpath=fastpath)
    com = _run(monkeypatch, "compiled", fastpath=fastpath)
    assert repr(ref) == repr(com)
    assert ref == com
    # provenance travels on the summary, outside the equality contract
    assert ref.kernel["model_backend"] == "reference"
    assert com.kernel["model_backend"] == "compiled"

"""``summary().kernel`` names the model implementation for benchmark reports.

The simulator has one implementation of its model structures (metadata
cache, popularity map, resolution memo); ``model_backend`` still names it
because ``perfbench`` copies the key into every report line.
"""

import pytest

from repro.api import scaling_config
from repro.experiments._build import build_simulation


@pytest.mark.parametrize("backend", [pytest.param("reference", id="reference")])
def test_summary_carries_model_provenance(backend):
    cfg = scaling_config("DynamicSubtree", 2, 0.05, seed=7)
    sim = build_simulation(cfg)
    sim.run_to(cfg.run_until_s)
    summary = sim.summary()
    assert summary.kernel["model_backend"] == backend
    # provenance stays out of the repr/equality contract
    assert "model_backend" not in repr(summary)

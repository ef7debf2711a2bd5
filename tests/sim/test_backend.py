"""``summary().kernel`` names the event kernel for benchmark reports.

The simulator has one event kernel; ``perfbench`` reads ``kernel_backend``,
``fastlane`` and the kernel counters from ``summary().kernel``, so a
missing key breaks every benchmark run with a ``KeyError``.
"""

from repro.api import ExperimentConfig, build_simulation


class TestProvenance:
    def test_summary_carries_backend_fields(self):
        cfg = ExperimentConfig(n_mds=2, scale=0.05)
        sim = build_simulation(cfg)
        sim.run_to(cfg.run_until_s)
        kernel = sim.summary().kernel
        assert kernel["kernel_backend"] == "reference"
        assert isinstance(kernel["fastlane"], bool)
        # the counters perfbench's per-layer table reads
        for key in ("events_scheduled", "fast_resumes", "pool_reuse_rate"):
            assert key in kernel

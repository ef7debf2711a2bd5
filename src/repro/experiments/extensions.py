"""Extension experiments beyond the paper's figures.

The paper's workload section (§5.2) motivates scientific-computing bursts
— every compute node opening the same input file or checkpointing into one
shared directory — but the evaluation only shows the general-purpose
scaling and the synthetic flash crowd.  ``extA_scientific`` closes that
gap: it runs the LLNL-style burst workload against every partitioning
strategy and measures how much of the burst each can absorb.

Expected outcome, from the paper's arguments: only the dynamic subtree
partition can replicate the burst target on demand (§4.4), so it should
absorb shared-file bursts at cluster bandwidth while every other strategy
funnels them through one authority.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..mds import SimParams
from ..partition import strategy_names
from ._build import build_simulation
from .config import ExperimentConfig
from .figures import FigureResult
from .workload import ClosedLoopSpec


def scientific_config(strategy: str, scale: float = 0.5,
                      seed: int = 42, **overrides) -> ExperimentConfig:
    """Burst-heavy scientific workload on a mid-size cluster."""
    base = dict(
        strategy=strategy,
        n_mds=6,
        seed=seed,
        scale=scale,
        workload=ClosedLoopSpec(kind="scientific", think_time_s=0.002,
                                args={"phase_len_s": 1.0}),
        users_per_mds=6,
        files_per_user=40,
        clients_per_mds=60,
        cache_capacity_per_mds=500,
        warmup_s=0.0,
        duration_s=8.0,
        params=SimParams(
            replicate_threshold=120.0,
            popularity_halflife_s=0.5,
        ),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def extA_scientific(scale: float = 0.5,
                    progress: Optional[Callable[[str], None]] = None,
                    ) -> FigureResult:
    """Shared-file burst absorption per strategy (extension experiment A)."""
    rows: List[List[object]] = []
    series: Dict[str, object] = {}
    for name in strategy_names():
        cfg = scientific_config(name, scale)
        sim = build_simulation(cfg)
        sim.run_to(cfg.run_until_s)
        cluster = sim.cluster
        served = [n.stats.ops_served for n in cluster.nodes]
        total_ops = sum(c.stats.ops_completed for c in sim.clients)
        latencies = sorted(l for c in sim.clients
                           for l in c.stats.latencies)
        p99 = latencies[int(0.99 * (len(latencies) - 1))] if latencies \
            else 0.0
        busiest_share = max(served) / max(1, sum(served))
        rows.append([
            name,
            round(total_ops / cfg.run_until_s, 1),
            round(100 * busiest_share, 1),
            round(1000 * p99, 2),
            sum(n.stats.replications_pushed for n in cluster.nodes),
        ])
        series[name] = {"served": served, "total_ops": total_ops}
        if progress:
            progress(f"{name} done")
    return FigureResult(
        figure="Extension A",
        title="Scientific burst workload (LLNL-style, §5.2) across "
              "strategies",
        headers=["strategy", "cluster_ops_per_s", "busiest_node_share_pct",
                 "client_p99_ms", "replications"],
        rows=rows,
        notes="expected shape: dynamic subtree absorbs shared-file bursts "
              "by replicating the hot input (lowest busiest-node share and "
              "p99); static/hashed strategies funnel the burst through one "
              "authority",
        series=series)

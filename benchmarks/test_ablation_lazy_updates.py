"""Ablation: Lazy Hybrid's update propagation policy (§3.1.3).

LH's viability is "predicated on the low prevalence of specific metadata
operations": every directory chmod/rename owes one deferred update per
nested file.  This ablation raises the directory-mutation rate and
compares pure on-access application against background draining — and
shows the divergence the paper warns about when updates are created
faster than they are applied.
"""

import dataclasses

from repro.api import scaling_config
from repro.api import build_simulation
from repro.mds import OpType

from .conftest import bench_scale, run_once

#: a chmod/rename-heavy op mix (an unfriendly workload for LH)
STORMY_WEIGHTS = {
    OpType.OPEN: 0.30,
    OpType.STAT: 0.30,
    OpType.CLOSE: 0.15,
    OpType.READDIR: 0.05,
    OpType.CREATE: 0.05,
    OpType.CHMOD: 0.10,
    OpType.RENAME: 0.05,
}


def run_lh(drain_rate: float):
    cfg = scaling_config("LazyHybrid", n_mds=6, scale=bench_scale())
    cfg = cfg.replace(
        workload=dataclasses.replace(
            cfg.workload, op_weights=STORMY_WEIGHTS,
            args={"move_dir_prob": 0.3, "dir_chmod_fraction": 0.5}),
        params=dataclasses.replace(cfg.params,
                                   lh_drain_rate_per_s=drain_rate))
    sim = build_simulation(cfg)
    t0, t1 = cfg.measure_window
    sim.run_to(t1)
    on_access = sum(n.stats.lazy_updates for n in sim.cluster.nodes)
    return {
        "drain_rate": drain_rate,
        "throughput": sim.cluster.mean_node_throughput(t0, t1),
        "backlog": sim.cluster.strategy.pending_count,
        "updates_owed": sim.cluster.deferred_work_created,
        "updates_applied": on_access,
    }


def test_ablation_lazy_update_propagation(benchmark):
    def sweep():
        return [run_lh(rate) for rate in (0.0, 50.0, 5000.0)]

    results = run_once(benchmark, sweep)
    print()
    for r in results:
        label = "on-access only" if r["drain_rate"] == 0 else \
            f"drain {r['drain_rate']:.0f}/s"
        print(f"{label:15s} owed={r['updates_owed']:6d} "
              f"backlog={r['backlog']:6d} applied={r['updates_applied']:6d} "
              f"thr={r['throughput']:.0f}")

    on_access, slow_drain, fast_drain = results
    # the storm creates substantial deferred work
    assert on_access["updates_owed"] > 1000
    # a fast drain keeps the backlog well below on-access-only — though it
    # is itself bounded by journal commit throughput (~2000/s), so under a
    # sufficiently violent storm even it cannot fully converge: exactly
    # the paper's "as long as updates are eventually applied more quickly
    # than they are created" precondition
    assert fast_drain["backlog"] < 0.5 * max(1, on_access["backlog"])
    assert fast_drain["backlog"] < slow_drain["backlog"]
    # an inadequate drain rate cannot keep up: its backlog stays within
    # the same order as no drain at all
    assert slow_drain["backlog"] > 0.5 * max(1, on_access["backlog"])
    assert fast_drain["updates_applied"] > 1.5 * on_access["updates_applied"]

"""Ablation: journal-warmed vs cold MDS recovery (§4.6).

"With a log size on the order of the amount of memory in the MDS, such an
arrangement has the convenient property that the log represents an
approximation of that node's working set, allowing the memory cache to be
quickly preloaded ... on startup or after a failure."  This bench fails a
node mid-run, recovers it warm or cold, and compares how it performs in
the first seconds back.
"""

import dataclasses

from repro.api import scaling_config
from repro.api import build_simulation
from repro.mds import fail_node, recover_node

from .conftest import bench_scale, run_once


#: an update-heavy mix with a stable working set: the §4.6 premise — "the
#: log represents an approximation of that node's working set" — holds
#: when the hot files are the mutated files
from repro.mds import OpType

UPDATE_HEAVY = {
    OpType.OPEN: 0.25,
    OpType.CLOSE: 0.15,
    OpType.STAT: 0.25,
    OpType.SETATTR: 0.30,
    OpType.READDIR: 0.05,
}


def run_recovery(warm: bool):
    cfg = scaling_config("DynamicSubtree", n_mds=6, scale=bench_scale())
    cfg = cfg.replace(workload=dataclasses.replace(
        cfg.workload, op_weights=UPDATE_HEAVY,
        args={"move_dir_prob": 0.05}))
    sim = build_simulation(cfg)
    env = sim.env
    victim = 0
    fail_t = cfg.warmup_s + 1.0
    sim.run_to(fail_t)
    owned = fail_node(sim.cluster, victim)
    sim.run_to(fail_t + 1.0)

    done = env.event()

    def bring_back():
        loaded = yield from recover_node(sim.cluster, victim, warm=warm)
        done.succeed(loaded)

    env.process(bring_back())
    loaded = env.run(until=done)
    # hand the node its old subtrees back so it serves again
    for subtree in owned:
        if subtree in sim.ns:
            try:
                sim.cluster.strategy.delegate(subtree, victim)
            except ValueError:
                continue
    recover_t = env.now
    node = sim.cluster.nodes[victim]
    misses_before = node.stats.cache_misses
    sim.run_to(recover_t + 2.0)
    return {
        "preloaded": loaded,
        "early_misses": node.stats.cache_misses - misses_before,
        "served_after": node.stats.served_by_time.count_in(
            recover_t, recover_t + 2.0),
    }


def test_ablation_journal_warm_recovery(benchmark):
    def both():
        return run_recovery(False), run_recovery(True)

    cold, warm = run_once(benchmark, both)
    print()
    print(f"cold restart: preloaded={cold['preloaded']:4d} "
          f"early_misses={cold['early_misses']:5d} "
          f"served={cold['served_after']:.0f}")
    print(f"warm restart: preloaded={warm['preloaded']:4d} "
          f"early_misses={warm['early_misses']:5d} "
          f"served={warm['served_after']:.0f}")

    assert cold["preloaded"] == 0
    assert warm["preloaded"] > 50
    # the preloaded working set absorbs faults the cold node must take from
    # the object store; service volume is comparable (the balancer's
    # post-recovery moves dominate its exact value, so only a coarse bound
    # is asserted there)
    assert warm["early_misses"] < cold["early_misses"]
    assert warm["served_after"] > 0.75 * cold["served_after"]

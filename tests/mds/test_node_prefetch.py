"""Directory prefetch (§4.5) against the entry-at-a-time oracle.

``MdsNode._fetch_from_disk`` decides authority once per fetched directory
object and inserts the owned siblings in one loop.  The oracle below is the
original formulation — one membership test, one authority lookup and one
``_insert`` per sibling — and both must leave every node in the same state:
cache contents, eviction order, counters and replica registrations.
"""

import random
import types

import pytest

from repro.mds import MdsRequest, OpType, SimParams
from repro.namespace import ROOT_INO
from repro.namespace import path as p

from .conftest import make_cluster

TREE = {
    "remote": {"mine": {"a": 1, "b": 2}},
    "bigdir": {f"f{i}": 1 for i in range(40)},
    "mixed": {"sub": {"s0": 1, "s1": 2, "deep": {"d0": 1}}, "m0": 1,
              "m1": 2, "m2": 3},
}


def entry_at_a_time_fetch(node, inode, trace=None):
    """The sibling loop as it was: every sibling priced on its own."""
    ns = node.cluster.ns
    siblings = yield from node.cluster.strategy.layout.fetch(
        node.cluster.object_store, ns, inode)
    node._insert(inode, replica=False)
    if inode.ino not in node.cache:
        return
    node.cache.pin(inode.ino)
    try:
        for sibling_ino in siblings:
            if sibling_ino in node.cache or sibling_ino not in ns:
                continue
            sibling = ns.inode(sibling_ino)
            if node.cluster.strategy.authority_of_ino(sibling_ino) \
                    != node.node_id:
                continue
            node._insert(sibling, replica=False,
                         prefetched=node.params.prefetch_cold_insert)
            node.stats.prefetches += 1
    finally:
        node._notify_evictions(node.cache.unpin(inode.ino))


def build(cold_insert, oracle, capacity=12):
    params = SimParams(cache_capacity=capacity,
                       prefetch_cold_insert=cold_insert,
                       balance_interval_s=1e9, traffic_control=False)
    env, ns, cluster = make_cluster("DynamicSubtree", n_mds=2,
                                    params=params, tree=TREE)
    strategy = cluster.strategy
    ino = lambda text: ns.resolve(p.parse(text)).ino  # noqa: E731
    strategy.delegate(ino("/remote"), 1)
    strategy.delegate(ino("/remote/mine"), 0)
    strategy.delegate(ino("/bigdir"), 0)
    strategy.delegate(ino("/mixed"), 0)
    strategy.delegate(ino("/mixed/sub"), 1)  # carved out of a prefetch
    if oracle:
        for node in cluster.nodes:
            node._fetch_from_disk = types.MethodType(entry_at_a_time_fetch,
                                                     node)
    return env, ns, cluster


def stat(env, cluster, text, dest=None):
    path = p.parse(text)
    if dest is None:
        dest = cluster.strategy.authority_of_ino(
            cluster.ns.resolve(path).ino)
    req = MdsRequest(op=OpType.STAT, path=path, client_id=0)
    return env.run(until=cluster.submit(dest, req))


def snapshot(cluster):
    state = []
    for node in cluster.nodes:
        node.cache.verify_invariants()
        counters = node.cache.counters
        state.append({
            "entries": sorted((e.ino, e.parent_ino, e.replica)
                              for e in node.cache.entries()),
            "lru": node.cache._lru_order(),
            "counters": (counters.insertions, counters.evictions,
                         counters.prefetch_insertions),
            "prefetches": node.stats.prefetches,
            "replicas": sorted((i, sorted(node.replicas.holders(i)))
                               for i in node.replicas.replicated_inos()),
        })
    return state


def all_files(ns):
    out = []
    for node in ns.iter_subtree(ROOT_INO):
        if node.is_file:
            out.append("/" + "/".join(ns.path_of(node.ino)))
    return sorted(out)


@pytest.mark.parametrize("cold_insert", [False, True])
def test_prefetch_matches_the_entry_at_a_time_oracle(cold_insert):
    runs = {}
    for oracle in (False, True):
        env, ns, cluster = build(cold_insert, oracle)
        # fill node 0 to capacity, then keep missing across directories
        stat(env, cluster, "/bigdir/f0")
        assert len(cluster.nodes[0].cache) == cluster.params.cache_capacity
        rng = random.Random(7)
        files = all_files(ns)
        steps = []
        for text in [files[rng.randrange(len(files))] for _ in range(60)]:
            assert stat(env, cluster, text).ok
            steps.append(snapshot(cluster))
        runs[oracle] = steps
    assert runs[False] == runs[True]
    assert runs[False][-1][0]["prefetches"] > 0
    assert runs[False][-1][0]["counters"][1] > 0  # evictions happened


def test_replica_evicted_by_a_prefetch_is_unregistered():
    env, ns, cluster = build(cold_insert=False, oracle=False)
    remote = ns.resolve(p.parse("/remote")).ino
    # node 0 traverses /remote (owned by node 1) and caches a replica
    assert stat(env, cluster, "/remote/mine/a", dest=0).ok
    node0, node1 = cluster.nodes
    assert node0.cache.get(remote, touch=False).replica
    assert node1.replicas.holders(remote) == frozenset({0})
    # a 40-entry directory prefetch drains the old chain, replica included
    assert stat(env, cluster, "/bigdir/f5", dest=0).ok
    assert remote not in node0.cache
    assert node0.stats.prefetches > 0
    assert node1.replicas.holders(remote) == frozenset()

"""The compiled model must be invisible to results.

The reference and compiled model structures must produce bit-identical
summaries for the same seed — the C structures replicate every counter,
exception and float expression of the pure-python model.  The model
half is isolated here: the kernel stays on the reference calendar (as it
does when only the model extension is built), in both fast-lane modes.
Both halves compiled together are compared in
``tests/experiments/test_fastpath_equivalence.py``.  A differential
replay below drives the structures directly, without the simulator, so
a divergence points at the structure that caused it.
"""

import random

import pytest

from repro import _fastpath
from repro.api import build_simulation, scaling_config
from repro.model.backend import (compiled_model_viable,
                                 make_metadata_cache, make_popularity_map,
                                 make_resolution_memo)
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


class _Node:
    """Stand-in for a namespace node: the memo only reads ``.ino``."""

    __slots__ = ("ino",)

    def __init__(self, ino: int) -> None:
        self.ino = ino


def build_trace(n_requests: int, seed: int):
    """A deterministic op stream shaped like ``MdsNode._handle``'s use of
    the model structures.

    Each request resolves a path (memo lookup, store on a miss), touches
    or inserts the ancestor chain and the leaf in a cache under
    pressure, and counts popularity for the whole chain.  About 1% of
    requests also rename (memo invalidation plus subtree collection) and
    1% prune the popularity map.  All randomness is drawn here, so the
    replay is the same straight-line program on either backend.
    """
    rng = random.Random(seed)
    # a synthetic tree of 2,000 directories, at most 8 deep
    parents = {1: None}
    depth = {1: 0}
    dirs = [1]
    for ino in range(2, 2_001):
        parent = dirs[rng.randrange(len(dirs))]
        if depth[parent] >= 8:
            parent = 1
        parents[ino] = parent
        depth[ino] = depth[parent] + 1
        dirs.append(ino)
    files = {}
    next_file = len(dirs) + 1
    trace = []
    for _ in range(n_requests):
        d = dirs[int(rng.random() ** 2 * len(dirs))]  # popularity skew
        chain = []
        node = d
        while node is not None:
            chain.append(node)
            node = parents[node]
        chain.reverse()
        if d not in files:
            files[d] = next_file
            next_file += 1
        now = rng.random() * 600.0
        roll = rng.random()
        trace.append(("request", chain, files[d], now,
                      rng.random() < 0.3))       # replica fetch?
        if roll < 0.01:
            trace.append(("rename", d))
        elif roll < 0.02:
            trace.append(("prune", now, 1e-4))
    return trace


def run_trace(trace, model: str) -> dict:
    """Replay ``trace`` on backend ``model``, check every structure's
    invariants and return a fingerprint of the final state."""
    cache = make_metadata_cache(1_024, model=model)
    memo = make_resolution_memo(65_536, model=model)
    pop = make_popularity_map(600.0, model=model)
    nodes = {}

    def node_of(ino):
        node = nodes.get(ino)
        if node is None:
            node = nodes[ino] = _Node(ino)
        return node

    for op in trace:
        if op[0] == "request":
            _, chain, leaf, now, replica = op
            path = tuple(chain)
            if memo.paths.get(path) is None:
                memo.misses += 1
                walk = tuple(node_of(ino) for ino in chain)
                memo.store_path(path, walk)
                if len(walk) > 1:
                    memo.store_chain(chain[-1], walk[:-1])
            else:
                memo.hits += 1
            parent = None
            for ino in chain:
                if ino in cache:
                    cache.get(ino)
                else:
                    cache.insert(ino, parent, True, replica=replica)
                parent = ino
            if leaf in cache:
                cache.get(leaf)
            else:
                cache.insert(leaf, chain[-1], False, replica=replica)
            pop.add_chain(chain, now)
            pop.add(leaf, now)
        elif op[0] == "rename":
            d = op[1]
            memo.invalidate_ino(d)
            if d in cache:
                for entry in cache.collect_subtree(d):
                    if entry.ino != d and not entry.pinned:
                        cache.remove(entry.ino)
        else:
            _, now, floor = op
            pop.prune(now, floor=floor)

    cache.verify_invariants()
    memo.verify_invariants()
    counters = cache.counters
    return {
        "cache_len": len(cache),
        "insertions": counters.insertions,
        "evictions": counters.evictions,
        "prefetch_insertions": counters.prefetch_insertions,
        "slot_census": cache.slot_census(),
        "prefix_fraction": cache.prefix_fraction(),
        "replica_fraction": cache.replica_fraction(),
        "memo": memo.stats(),
        "pop_len": len(pop),
        "pop_mass": repr(sum(sorted(pop.read(i, 600.0)
                                    for i in range(1, 2_001)))),
    }


def test_structure_replay_bit_identical():
    """One composed cache + memo + popularity op stream leaves the same
    final state on both backends, and both pass their invariant checks."""
    trace = build_trace(3_000, seed=42)
    ref = run_trace(trace, "reference")
    assert ref["evictions"] > 0  # the cache really was under pressure
    assert run_trace(trace, "compiled") == ref

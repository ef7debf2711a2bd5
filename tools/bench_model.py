#!/usr/bin/env python3
"""Benchmark the compiled model structures and write ``BENCH_model.json``.

Mirrors ``bench_fullscale.py``'s kernel discipline for the *model* half
of the backend gate: the headline number is a **model churn** rate — the
composed stream of metadata-cache, resolution-memo, authority-memo and
popularity operations that the request-path workload performs per served
request, replayed directly against the structures on each backend
(explicit ``model=`` arguments, best wall-clock of ``--repeat``).
Driving the structures without the surrounding simulator isolates what
the C extension buys; the whole-simulation rates are recorded alongside
for the end-to-end picture (there the python serving generators
dominate, so the win is diluted — that residual is exactly what
``profile_sim.py --breakdown`` shows).

Determinism is enforced twice and each is a hard failure (exit 1):

* the churn replay must leave bit-identical structure state on both
  backends (counters, LRU order, popularity values, memo stats);
* a fixed-seed steady-state run must produce bit-identical summaries
  under ``REPRO_BACKEND=reference`` and ``REPRO_BACKEND=compiled``.

The baseline is read from the previously committed report at ``--out``
(its ``churn.compiled_model_ops_per_s``); a >15% regression against it
warns but never fails (absolute rates depend on host speed and load).

Usage:
    PYTHONPATH=src python tools/bench_model.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_common  # noqa: E402  (tools-dir import)
from bench_common import load_prior_report  # noqa: E402

from repro.api import run_steady_state, scaling_config  # noqa: E402
from repro.model.backend import (compiled_model_viable,  # noqa: E402
                                 make_metadata_cache, make_popularity_map,
                                 make_resolution_memo, resolve_model)
from repro.sim.backend import BACKEND_ENV, resolve_kernel  # noqa: E402

#: model ops per churn replay (``--quick`` divides by 5)
CHURN_REQUESTS = 60_000

#: compiled churn rate (model-ops/wall-s) recorded when this tool landed —
#: used only when no prior report exists at ``--out``.
FALLBACK_BASELINE_MODEL_OPS_PER_S = 1_000_000.0

#: the acceptance floor for the compiled/reference churn speedup
TARGET_SPEEDUP = 1.5


class _Node:
    """Stand-in for a namespace node: the memo only reads ``.ino``."""

    __slots__ = ("ino",)

    def __init__(self, ino: int) -> None:
        self.ino = ino

    def __deepcopy__(self, memo):
        return self


def build_trace(n_requests: int, seed: int):
    """A deterministic request-path-shaped model-op trace.

    Each simulated request mirrors what ``MdsNode._handle`` does to the
    model structures: resolve the path (memo lookup / store on miss),
    touch the cached ancestor chain, insert fetched inodes under cache
    pressure, account popularity for the whole chain, and occasionally
    rename (memo invalidation + subtree collection) or evict under
    pin churn.  All randomness is drawn here, once — the replay below
    is a straight-line interpretation on either backend.
    """
    rng = random.Random(seed)
    # a synthetic tree: inos 1..n, parent pointers biased shallow
    n_dirs = 2_000
    parents = {1: None}
    depth = {1: 0}
    dirs = [1]
    for ino in range(2, n_dirs + 1):
        parent = dirs[rng.randrange(len(dirs))]
        if depth[parent] >= 8:
            parent = 1
        parents[ino] = parent
        depth[ino] = depth[parent] + 1
        dirs.append(ino)
    files = {}
    next_file = n_dirs + 1
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
        leaf = files[d]
        now = rng.random() * 600.0
        roll = rng.random()
        trace.append(("request", chain, leaf, now,
                      rng.random() < 0.3))       # replica fetch?
        if roll < 0.01:
            trace.append(("rename", d, chain[0]))
        elif roll < 0.02:
            trace.append(("prune", now, 1e-4))
    return trace


def run_trace(trace, model: str):
    """Replay ``trace`` against backend ``model``; returns
    ``(state_fingerprint, model_ops, wall_s)``."""
    cache = make_metadata_cache(1_024, model=model)
    memo = make_resolution_memo(65_536, model=model)
    pop = make_popularity_map(600.0, model=model)
    nodes = {}

    def node_of(ino):
        node = nodes.get(ino)
        if node is None:
            node = nodes[ino] = _Node(ino)
        return node

    ops = 0
    t0 = time.perf_counter()
    for op in trace:
        kind = op[0]
        if kind == "request":
            _, chain, leaf, now, replica = op
            path = tuple(chain)
            hit = memo.paths.get(path)
            if hit is None:
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
            if leaf not in cache:
                cache.insert(leaf, chain[-1], False, replica=replica)
            else:
                cache.get(leaf)
            pop.add_chain(chain, now)
            pop.add(leaf, now)
            ops += 2 * len(chain) + 3
        elif kind == "rename":
            _, d, root = op
            dropped = memo.invalidate_ino(d)
            if d in cache:
                for entry in cache.collect_subtree(d):
                    if entry.ino != d and not entry.pinned:
                        cache.remove(entry.ino)
            ops += 2 + dropped
        else:  # prune
            _, now, floor = op
            ops += pop.prune(now, floor=floor) + 1
    wall = time.perf_counter() - t0

    counters = cache.counters
    fingerprint = {
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
    cache.verify_invariants()
    memo.verify_invariants()
    return fingerprint, ops, wall


def bench_churn(n_requests: int, repeat: int, seed: int = 42):
    """Best-of-``repeat`` churn replay per backend; hard-fails on state
    divergence between the backends."""
    trace = build_trace(n_requests, seed)
    results = {}
    for model in ("reference", "compiled"):
        if model == "compiled" and not compiled_model_viable():
            results[model] = None
            continue
        best = float("inf")
        fingerprint = None
        ops = 0
        for _ in range(max(1, repeat)):
            fingerprint, ops, wall = run_trace(trace, model)
            best = min(best, wall)
        rate = ops / best
        results[model] = {"fingerprint": fingerprint, "model_ops": ops,
                          "wall_s": best, "ops_per_s": rate}
        print(f"model churn [{model}]: {ops} model-ops in {best:.3f}s "
              f"-> {rate:,.0f} model-ops/s")
    identical = True
    if results["compiled"] is not None:
        identical = (results["reference"]["fingerprint"]
                     == results["compiled"]["fingerprint"])
        speedup = (results["reference"]["wall_s"]
                   / results["compiled"]["wall_s"])
        print(f"compiled model speedup {speedup:.2f}x on the churn replay "
              f"(identical final state: {identical})")
    else:
        print("compiled model unavailable; churn measured on reference only")
    return trace, results, identical


def fullsim_check(scale: float, repeat: int):
    """Fixed-seed steady-state runs on both backends: bit-identical
    summaries required; wall rates recorded for the end-to-end picture."""
    cfg = scaling_config("DynamicSubtree", 4, scale, seed=42)
    out = {}
    reprs = {}
    prior_env = os.environ.get(BACKEND_ENV)
    try:
        for model in ("reference", "compiled"):
            if model == "compiled" and not compiled_model_viable():
                out[model] = None
                continue
            os.environ[BACKEND_ENV] = model
            best = float("inf")
            result = None
            for _ in range(max(1, repeat)):
                t0 = time.perf_counter()
                result = run_steady_state(cfg)
                best = min(best, time.perf_counter() - t0)
            reprs[model] = repr(result)
            out[model] = {"total_ops": result.total_ops,
                          "wall_s": round(best, 3),
                          "sim_ops_per_wall_s":
                              round(result.total_ops / best, 1)}
            print(f"full sim [{model}]: {result.total_ops} ops in "
                  f"{best:.3f}s -> {result.total_ops / best:.0f} "
                  "sim-ops/wall-s")
    finally:
        if prior_env is None:
            os.environ.pop(BACKEND_ENV, None)
        else:
            os.environ[BACKEND_ENV] = prior_env
    identical = ("compiled" not in reprs
                 or reprs["reference"] == reprs["compiled"])
    print(f"identical fixed-seed summaries across backends: "
          f"{identical}")
    return out, identical


def baseline_from_prior(prior) -> float:
    return bench_common.baseline_from_prior(
        prior, ("churn", "compiled_model_ops_per_s"),
        FALLBACK_BASELINE_MODEL_OPS_PER_S)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller replay and fewer repeats for CI")
    parser.add_argument("--scale", type=float, default=0.2,
                        help="full-sim spot-check scale")
    parser.add_argument("--repeat", type=int, default=None,
                        help="timing repeats (min wins; default 2 quick, "
                             "3 full)")
    parser.add_argument("--out", default="BENCH_model.json")
    args = parser.parse_args(argv)
    repeat = args.repeat if args.repeat is not None else \
        (2 if args.quick else 3)
    n_requests = CHURN_REQUESTS // 5 if args.quick else CHURN_REQUESTS

    prior = load_prior_report(args.out)
    baseline = baseline_from_prior(prior)
    trajectory = bench_common.trajectory_from_prior(prior)

    print(f"kernel backend: {resolve_kernel()} | model backend: "
          f"{resolve_model()} (recorded in the report's kernel_backend/"
          "model_backend fields)")

    _, churn, churn_identical = bench_churn(n_requests, repeat)
    fullsim, sim_identical = fullsim_check(args.scale, repeat)

    compiled_rate = (churn["compiled"]["ops_per_s"]
                     if churn["compiled"] else None)
    speedup = None
    if churn["compiled"] is not None:
        speedup = round(churn["reference"]["wall_s"]
                        / churn["compiled"]["wall_s"], 3)
        if speedup < TARGET_SPEEDUP:
            print(f"WARNING: churn speedup {speedup:.2f}x is below the "
                  f"{TARGET_SPEEDUP}x target for the compiled model")

    regressed = False
    if compiled_rate is not None:
        regressed = bench_common.warn_if_regressed(
            compiled_rate, baseline, what="compiled model churn rate",
            hint="model-ops/s; informational: absolute rates depend on "
                 "host load")

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "reference_model_ops_per_s":
            round(churn["reference"]["ops_per_s"], 1),
        "compiled_model_ops_per_s":
            round(compiled_rate, 1) if compiled_rate else None,
        "speedup_compiled_vs_reference": speedup,
        "quick": args.quick,
    }
    trajectory.append(entry)

    report = {
        "benchmark": "compiled model structures (LRU cache, resolution "
                     "memo, popularity counters)",
        "quick": args.quick,
        "churn_requests": n_requests,
        "repeats": repeat,
        **bench_common.host_fields(),
        "timestamp": entry["timestamp"],
        "baseline_model_ops_per_s": round(baseline, 1),
        "churn": {
            "reference_model_ops_per_s":
                entry["reference_model_ops_per_s"],
            "compiled_model_ops_per_s":
                entry["compiled_model_ops_per_s"],
            "speedup_compiled_vs_reference": speedup,
            "target_speedup": TARGET_SPEEDUP,
            "identical_final_state": churn_identical,
        },
        "fullsim": {
            "scale": args.scale,
            "reference": fullsim["reference"],
            "compiled": fullsim["compiled"],
            "identical_summaries": sim_identical,
        },
        "regressed_vs_baseline": regressed,
        "trajectory": trajectory,
    }
    bench_common.write_report(args.out, report)
    if not churn_identical:
        print("ERROR: churn replay left divergent structure state "
              "across model backends")
        return 1
    if not sim_identical:
        print("ERROR: fixed-seed summaries diverged across backends")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

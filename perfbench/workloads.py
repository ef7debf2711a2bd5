"""The benchmark's workloads: slices of the paper's own evaluation.

Every workload is built from the public config builders in
:mod:`repro.api` (``scaling_config``, ``shift_config``,
``overload_config``) plus config overrides, never from the flat workload
knobs or the sharding gate.

One benchmark run simulates ``sims`` independent sub-seeds of the run's
``--seed``.  Simulated statistics are exact for a fixed seed but differ
from seed to seed (namespace shape, which files the workload mutates),
so pooling several sub-seeds keeps the modelled metrics of two runs with
different seeds comparable.

``size`` scales every workload down for the smoke tests; the benchmark
itself always runs at ``size=1.0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.api import (ExperimentConfig, overload_config, scaling_config,
                       shift_config)

#: one run's sub-seeds are ``seed * SEED_STRIDE + i`` for ``i < sims``
SEED_STRIDE = 64


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: independent simulations (sub-seeds) pooled into one run
    sims: int
    #: ``config(seed, size)``: the config of one simulation
    config: Callable[[int, float], ExperimentConfig]


def sub_seeds(seed: int, count: int) -> List[int]:
    return [seed * SEED_STRIDE + i for i in range(count)]


def _cache_bound(seed: int, size: float) -> ExperimentConfig:
    # Fig. 2/4 scaling mix on ~1.1e5 inodes with 5% of them cached per
    # node: misses, directory prefetch and eviction dominate the model.
    # 400 home directories of ~250 files rather than fewer, larger ones:
    # a few huge users would make each seed's statistics hinge on them.
    return scaling_config("DynamicSubtree", 4, size, seed=seed,
                          users_per_mds=100, files_per_user=250,
                          cache_capacity_per_mds=None, cache_fraction=0.05,
                          duration_s=3.0)


def _shift_rebalance(seed: int, size: float) -> ExperimentConfig:
    # Fig. 5/6: the shift lands at t=5 s and the run continues to t=10 s,
    # long enough for several heartbeat rounds of subtree migration.
    return shift_config("DynamicSubtree", 0.25 * size, seed=seed,
                        duration_s=40.0)


def _overload_hotspot(seed: int, size: float) -> ExperimentConfig:
    return overload_config(1.25, proxy=True, hotspot=True,
                           scale=0.5 * size, seed=seed)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("cache_bound",
             "closed-loop Fig. 2/4 scaling mix on ~1e5 inodes with 5% "
             "cached per MDS, so cache, namespace and storage reads work "
             "hardest and the proxy is idle",
             sims=8, config=_cache_bound),
    Workload("shift_rebalance",
             "closed-loop Fig. 5/6 workload shift on cache-resident "
             "metadata, so MDS dispatch, forwarding, balancing and "
             "migration work hardest",
             sims=6, config=_shift_rebalance),
    Workload("overload_hotspot",
             "open-loop Poisson load at 1.25x capacity with flash crowd, "
             "proxy tier and bounded inboxes, so the kernel, proxy and "
             "admission shedding work hardest",
             sims=10, config=_overload_hotspot),
)}

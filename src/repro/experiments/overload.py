"""Overload experiments: open-loop load, admission control, proxy tier.

The paper's evaluation drives the cluster with closed-loop clients, which
by construction cannot offer more load than the cluster absorbs.  These
extension figures use the open-loop generators
(:class:`~repro.experiments.workload.OpenLoopSpec`) to push *past*
saturation — the "millions of users" regime — and measure what the paper's
mechanisms do about it:

* :func:`fig_overload` — goodput (within-SLO completions/s) versus offered
  load.  Without admission control an overloaded node queues without bound
  and goodput collapses past the knee; with bounded inboxes the excess is
  shed with explicit overload replies and goodput stays pinned near
  capacity.  Compared across static subtree, dynamic subtree, and dynamic
  subtree fronted by the adaptive proxy tier.
* :func:`fig_hotspot` — a flash-crowd hotspot riding bursty open-loop
  traffic near saturation.  Head-to-head: the paper's §4.4 traffic control
  (replicate the hot inode across the MDS cluster) versus the MIDAS-style
  proxy tier (absorb and coalesce hot reads *before* they reach the
  cluster), versus no countermeasure.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..mds import SimParams
from ..proxy import ProxySpec
from .config import ExperimentConfig
from .figures import FigureResult
from .runner import run_steady_state
from .workload import OpenLoopSpec

#: cluster size for every overload scenario
OVERLOAD_N_MDS = 4

#: nominal service capacity of that cluster: each MDS burns ``cpu_op_s``
#: (0.3 ms) per op, so 4 nodes serve ~13,333 ops/s when every op hits cache
NOMINAL_CAPACITY_OPS_S = OVERLOAD_N_MDS / 0.0003

#: each nominal user issues metadata ops at this rate; the offered load of
#: a scenario is written down as a user population (fraction × capacity /
#: this rate ≈ 1.3 M users at the knee)
PER_USER_OPS_S = 0.01

#: offered-load fractions of nominal capacity swept by fig_overload
OVERLOAD_FRACTIONS = [0.5, 0.8, 1.0, 1.25, 1.6]

#: bounded-inbox depth when admission control is on.  Worst-case queueing
#: behind 24 outstanding ops is ~24 × 0.3 ms ≈ 7 ms — inside the 10 ms
#: SLO, so every *admitted* request can still complete as goodput.
ADMISSION_INBOX = 24

#: client-observed latency SLO defining goodput
SLO_LATENCY_S = 0.010


def overload_config(offered_fraction: float, *,
                    strategy: str = "DynamicSubtree",
                    admission: bool = True,
                    proxy: bool = False,
                    arrival: str = "poisson",
                    hotspot: bool = False,
                    scale: float = 0.5,
                    seed: int = 42,
                    **overrides) -> ExperimentConfig:
    """An open-loop scenario offering ``offered_fraction`` × capacity.

    ``admission`` bounds every MDS inbox (excess load is shed with explicit
    overload replies); ``proxy`` fronts the cluster with the adaptive
    proxy tier; ``hotspot`` adds the flash-crowd overlay used by
    :func:`fig_hotspot`.
    """
    users = max(1, round(offered_fraction * NOMINAL_CAPACITY_OPS_S
                         / PER_USER_OPS_S))
    workload = OpenLoopSpec(
        kind="general",
        arrival=arrival,
        nominal_users=users,
        per_user_ops_per_s=PER_USER_OPS_S,
        sources=64,
        slo_latency_s=SLO_LATENCY_S,
        # the hotspot rides inside the measure window (which is
        # ``duration_s * scale`` wide) and covers a fixed ~70% of it at
        # every scale, so the tail the figure reports is shaped by the
        # flash crowd rather than by background queueing
        hotspot_prob=0.5 if hotspot else 0.0,
        hotspot_start_s=0.6,
        hotspot_duration_s=1.4 * scale,
    )
    base = dict(
        strategy=strategy,
        n_mds=OVERLOAD_N_MDS,
        seed=seed,
        scale=scale,
        workload=workload,
        users_per_mds=4,
        # enough files that background mutations only rarely land on the
        # flash-crowd target (a tiny namespace would shred the proxy's
        # hot cache entry by accident), small enough that directory ops
        # stay cheap and the capacity knee sits where the figure says
        files_per_user=80,
        # big caches: keep per-op service time near cpu_op_s so the knee
        # sits at the nominal capacity instead of drifting with miss rate
        cache_capacity_per_mds=6000,
        warmup_s=0.5,
        duration_s=2.0,
        params=SimParams(
            inbox_capacity=ADMISSION_INBOX if admission else None,
            osds_per_mds=2,
        ),
        proxy=ProxySpec() if proxy else None,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


#: the goodput-vs-offered-load variants, in plot order
OVERLOAD_VARIANTS = [
    ("dynamic no-AC", dict(strategy="DynamicSubtree", admission=False)),
    ("dynamic AC", dict(strategy="DynamicSubtree", admission=True)),
    ("static AC", dict(strategy="StaticSubtree", admission=True)),
    ("dynamic AC+proxy", dict(strategy="DynamicSubtree", admission=True,
                              proxy=True)),
]


def fig_overload(scale: float = 0.5,
                 progress: Optional[Callable[[str], None]] = None,
                 fractions: Optional[List[float]] = None) -> FigureResult:
    """Goodput vs offered load, with and without admission control."""
    from ..parallel import run_many

    fractions = fractions or OVERLOAD_FRACTIONS
    cells = [(name, frac) for name, kw in OVERLOAD_VARIANTS
             for frac in fractions]
    configs = [overload_config(frac, scale=scale, **kw)
               for name, kw in OVERLOAD_VARIANTS for frac in fractions]
    results = run_many(configs, run_steady_state)

    rows: List[List[object]] = []
    series: Dict[str, object] = {name: [] for name, _kw in OVERLOAD_VARIANTS}
    for (name, frac), res in zip(cells, results):
        offered = frac * NOMINAL_CAPACITY_OPS_S
        rows.append([
            name,
            round(offered, 0),
            round(res.goodput_ops_per_s, 1),
            res.dropped_ops,
            res.slo_violations,
            round(res.latency_p99_s * 1e3, 2),
        ])
        series[name].append((offered, res.goodput_ops_per_s))
        if progress:
            progress(f"{name} @ {frac:.2f}x done")
    return FigureResult(
        figure="Overload",
        title="Goodput vs offered load (open-loop, "
              f"{NOMINAL_CAPACITY_OPS_S:.0f} ops/s nominal capacity)",
        headers=["variant", "offered_ops_per_s", "goodput_ops_per_s",
                 "dropped", "slo_violations", "p99_ms"],
        rows=rows,
        notes="expected shape: without admission control goodput collapses "
              "past the knee (unbounded queues blow the SLO); bounded "
              "inboxes shed the excess and keep goodput pinned near "
              "capacity; the proxy tier adds headroom by absorbing "
              "repeated hot reads",
        series=series)


#: the hotspot countermeasure variants, in plot order
HOTSPOT_VARIANTS = [
    ("traffic-control", dict(tc=True, proxy=False)),
    ("proxy", dict(tc=False, proxy=True)),
    ("neither", dict(tc=False, proxy=False)),
]


#: baseline offered fraction for the hotspot scenario: comfortable on its
#: own, so the tail is shaped by the flash crowd, not background queueing
HOTSPOT_BASE_FRACTION = 0.6

#: inbox depth for the hotspot head-to-head.  Deeper than
#: :data:`ADMISSION_INBOX`: queues may stretch well past the SLO before
#: shedding starts, so the tail can actually *express* how long each
#: countermeasure lets the hot node's queue grow — with the tight
#: overload-figure inbox every variant's p99 is pinned at the same
#: admission bound and the comparison degenerates to noise
HOTSPOT_INBOX = 64


def hotspot_config(tc: bool, proxy: bool, scale: float = 0.5,
                   seed: int = 42, **overrides) -> ExperimentConfig:
    """Bursty moderate load with a flash-crowd hotspot overlay."""
    return overload_config(
        HOTSPOT_BASE_FRACTION, admission=True, proxy=proxy,
        arrival="bursty", hotspot=True,
        scale=scale, seed=seed,
        params=SimParams(
            inbox_capacity=HOTSPOT_INBOX,
            osds_per_mds=2,
            traffic_control=tc,
            # the §4.4 flash-crowd tuning (cf. flash_config):
            replicate_threshold=60.0,
            popularity_halflife_s=0.5,
            balance_interval_s=1e9,  # isolate the countermeasure
        ),
        **overrides)


def fig_hotspot(scale: float = 0.5,
                progress: Optional[Callable[[str], None]] = None,
                ) -> FigureResult:
    """Flash-crowd hotspot: §4.4 traffic control vs the proxy tier."""
    from ..parallel import run_many

    configs = [hotspot_config(scale=scale, **kw)
               for _name, kw in HOTSPOT_VARIANTS]
    results = run_many(configs, run_steady_state)

    rows: List[List[object]] = []
    series: Dict[str, object] = {}
    for (name, _kw), res in zip(HOTSPOT_VARIANTS, results):
        rows.append([
            name,
            round(res.goodput_ops_per_s, 1),
            round(res.latency_p99_s * 1e3, 2),
            res.dropped_ops,
            res.slo_violations,
        ])
        series[name] = [(0, res.goodput_ops_per_s)]
        if progress:
            progress(f"{name} done")
    return FigureResult(
        figure="Hotspot",
        title="Flash-crowd hotspot under bursty open-loop load "
              f"({HOTSPOT_BASE_FRACTION:.1f}x capacity baseline)",
        headers=["variant", "goodput_ops_per_s", "p99_ms", "dropped",
                 "slo_violations"],
        rows=rows,
        notes="expected shape: the proxy tier absorbs hot reads before "
              "they reach the cluster (best p99 and goodput); traffic "
              "control (§4.4) spreads the hot reads across the MDS nodes "
              "but every request still burns MDS cpu, so it trails the "
              "proxy on both while beating no countermeasure",
        series=series)


__all__ = [
    "ADMISSION_INBOX",
    "HOTSPOT_INBOX",
    "HOTSPOT_VARIANTS",
    "NOMINAL_CAPACITY_OPS_S",
    "OVERLOAD_FRACTIONS",
    "OVERLOAD_VARIANTS",
    "fig_hotspot",
    "fig_overload",
    "hotspot_config",
    "overload_config",
]

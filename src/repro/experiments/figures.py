"""One experiment per figure in the paper's evaluation (§5, Figs. 2-7).

Each ``fig*`` function runs the simulations and returns a
:class:`FigureResult` whose rows are the same series the paper plots.
``scale`` trades fidelity for wall-clock time: the benchmark suite uses the
small default, a full run (``REPRO_SCALE=1`` or ``--scale 1``) uses larger
namespaces, populations and durations.

Shared methodology (§5.1/§5.3): per-MDS cache is fixed while file-system
size, client base and cluster size scale together; the initial subtree
partition hashes directories near the root; the load metric is a weighted
combination of throughput and cache misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..mds import SimParams
from ..metrics import format_table
from ..partition import strategy_names
from .config import ExperimentConfig
from .runner import (SteadyStateResult, TimelineResult, run_steady_state,
                     run_timeline)
from .workload import ClosedLoopSpec

#: cluster sizes swept by the scaling experiments, by scale regime
SIZES_SMALL = [4, 6, 8]
SIZES_MEDIUM = [4, 6, 8, 10, 12]
SIZES_FULL = [5, 10, 15, 20, 25, 30]


@dataclass
class FigureResult:
    """A reproduced figure: named columns plus the raw row data."""

    figure: str
    title: str
    headers: List[str]
    rows: List[Sequence[object]]
    notes: str = ""
    series: Dict[str, object] = field(default_factory=dict)

    def format(self) -> str:
        text = format_table(self.headers, self.rows,
                            title=f"{self.figure}: {self.title}")
        if self.notes:
            text += f"\n({self.notes})"
        return text

    def plottable(self) -> "Dict[str, List[tuple]]":
        """The series reduced to (x, y) pairs for the ASCII chart.

        Time-series figures carry richer tuples: Fig. 5's
        ``(t, min, avg, max)`` plots the average; Fig. 7's
        ``(t, replies, forwards)`` expands into two curves per run.
        """
        out: Dict[str, List[tuple]] = {}
        for name, points in self.series.items():
            points = list(points)
            if not points:
                continue
            arity = len(points[0])
            if arity == 2:
                out[str(name)] = points
            elif arity == 4:  # (t, min, avg, max) -> average
                out[f"{name} avg"] = [(t, avg) for t, _mn, avg, _mx in points]
            elif arity == 3:  # (t, replies, forwards)
                out[f"{name} replies"] = [(t, r) for t, r, _f in points]
                out[f"{name} forwards"] = [(t, f) for t, _r, f in points]
        return out

    def plot(self, width: int = 64, height: int = 16) -> str:
        """Render the figure as a terminal line chart."""
        from ..metrics.asciichart import render_chart

        return render_chart(self.plottable(), width=width, height=height,
                            title=f"{self.figure}: {self.title}",
                            x_label=self.headers[0])

    def to_csv(self) -> str:
        """The figure's rows as CSV (headers first)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def save_csv(self, directory) -> str:
        """Write ``<figN>.csv`` into ``directory``; returns the path."""
        import os

        os.makedirs(directory, exist_ok=True)
        name = self.figure.lower().replace(" ", "").replace("figure", "fig")
        path = os.path.join(directory, f"{name}.csv")
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(self.to_csv())
        return path


def _sizes_for(scale: float) -> List[int]:
    if scale >= 1.0:
        return SIZES_FULL
    if scale >= 0.4:
        return SIZES_MEDIUM
    return SIZES_SMALL


def scaling_config(strategy: str, n_mds: int, scale: float,
                   seed: int = 42, **overrides) -> ExperimentConfig:
    """The Fig. 2/3 configuration: fixed MDS memory, everything else scales."""
    base = dict(
        strategy=strategy,
        n_mds=n_mds,
        seed=seed,
        scale=scale,
        workload=ClosedLoopSpec(kind="scaling", think_time_s=0.002,
                                args={"move_dir_prob": 0.3}),
        users_per_mds=10,
        files_per_user=55,
        clients_per_mds=40,
        cache_capacity_per_mds=250,
        warmup_s=1.5,
        duration_s=4.0,
        params=SimParams(osds_per_mds=1),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _average_results(results: List[SteadyStateResult]) -> SteadyStateResult:
    """Average the aggregates of several seeds of one configuration."""
    n = len(results)
    first = results[0]
    return SteadyStateResult(
        config=first.config,
        mean_node_throughput=sum(r.mean_node_throughput for r in results) / n,
        node_throughputs=first.node_throughputs,
        hit_rate=sum(r.hit_rate for r in results) / n,
        prefix_fraction=sum(r.prefix_fraction for r in results) / n,
        forward_fraction=sum(r.forward_fraction for r in results) / n,
        total_ops=sum(r.total_ops for r in results),
        client_mean_latency_s=sum(r.client_mean_latency_s
                                  for r in results) / n,
        errors=sum(r.errors for r in results),
        total_metadata=first.total_metadata,
        latency_p50_s=sum(r.latency_p50_s for r in results) / n,
        latency_p95_s=sum(r.latency_p95_s for r in results) / n,
        latency_p99_s=sum(r.latency_p99_s for r in results) / n,
        offered_ops=sum(r.offered_ops for r in results),
        dropped_ops=sum(r.dropped_ops for r in results),
        slo_violations=sum(r.slo_violations for r in results),
        goodput_ops_per_s=sum(r.goodput_ops_per_s for r in results) / n,
    )


def _scaling_sweep(scale: float, seeds: int,
                   strategies: Optional[List[str]] = None,
                   sizes: Optional[List[int]] = None,
                   progress: Optional[Callable[[str], None]] = None,
                   ) -> Dict[str, Dict[int, SteadyStateResult]]:
    # imported here: repro.parallel imports this package at module level
    from ..parallel import run_many

    strategies = strategies or strategy_names()
    sizes = sizes or _sizes_for(scale)
    # One flat submission for the whole sweep: strategies × sizes × seeds
    # tasks fan out together instead of one seed-batch at a time.
    cells = [(name, n_mds) for name in strategies for n_mds in sizes]
    configs = [scaling_config(name, n_mds, scale, seed=42 + 7 * s)
               for name, n_mds in cells for s in range(seeds)]
    flat = run_many(configs, run_steady_state)
    out: Dict[str, Dict[int, SteadyStateResult]] = {}
    for j, (name, n_mds) in enumerate(cells):
        out.setdefault(name, {})[n_mds] = _average_results(
            flat[j * seeds:(j + 1) * seeds])
        if progress:
            progress(f"{name} n_mds={n_mds} done")
    return out


# ---------------------------------------------------------------------------
# Figure 2: MDS throughput as the whole system scales
# ---------------------------------------------------------------------------
def fig2(scale: float = 0.5, seeds: int = 2,
         progress: Optional[Callable[[str], None]] = None) -> FigureResult:
    """Average per-MDS throughput vs cluster size, five strategies."""
    sweep = _scaling_sweep(scale, seeds, progress=progress)
    sizes = sorted(next(iter(sweep.values())).keys())
    headers = ["mds_cluster_size"] + strategy_names()
    rows = []
    for n in sizes:
        rows.append([n] + [round(sweep[s][n].mean_node_throughput, 1)
                           for s in strategy_names()])
    return FigureResult(
        figure="Figure 2",
        title="Average MDS throughput (ops/sec) as file system, cluster "
              "size, and client base are scaled",
        headers=headers, rows=rows,
        notes="expected shape: subtree strategies highest; DirHash below; "
              "FileHash lowest and degrading; LazyHybrid flat (§5.3)",
        series={s: [(n, sweep[s][n].mean_node_throughput) for n in sizes]
                for s in strategy_names()})


# ---------------------------------------------------------------------------
# Figure 3: cache consumed by prefix inodes
# ---------------------------------------------------------------------------
def fig3(scale: float = 0.5, seeds: int = 2,
         progress: Optional[Callable[[str], None]] = None) -> FigureResult:
    """Percentage of MDS cache devoted to prefix inodes vs cluster size.

    The paper plots four strategies; Lazy Hybrid is excluded because it
    caches no prefixes by design (no path traversal).
    """
    strategies = ["DynamicSubtree", "StaticSubtree", "DirHash", "FileHash"]
    sweep = _scaling_sweep(scale, seeds, strategies=strategies,
                           progress=progress)
    sizes = sorted(next(iter(sweep.values())).keys())
    headers = ["mds_cluster_size"] + [f"{s}_pct" for s in strategies]
    rows = []
    for n in sizes:
        rows.append([n] + [round(100 * sweep[s][n].prefix_fraction, 1)
                           for s in strategies])
    return FigureResult(
        figure="Figure 3",
        title="Percentage of cache devoted to prefix inodes as the system "
              "scales",
        headers=headers, rows=rows,
        notes="expected shape: hashed distributions devote much larger and "
              "growing cache fractions to prefixes; dynamic subtree "
              "slightly above static (re-delegation anchors) (§5.3.1)",
        series={s: [(n, sweep[s][n].prefix_fraction) for n in sizes]
                for s in strategies})


# ---------------------------------------------------------------------------
# Figure 4: cache hit rate vs cache size
# ---------------------------------------------------------------------------
def fig4(scale: float = 0.5, n_mds: int = 8, seeds: int = 1,
         fractions: Optional[List[float]] = None,
         progress: Optional[Callable[[str], None]] = None) -> FigureResult:
    """Cache hit rate as a function of per-node cache size / total metadata."""
    from ..parallel import run_many

    fractions = fractions or [0.05, 0.1, 0.2, 0.3, 0.45, 0.6]
    cells = [(name, frac) for name in strategy_names() for frac in fractions]
    configs = [scaling_config(name, n_mds, scale, seed=42 + 7 * s,
                              cache_capacity_per_mds=None,
                              cache_fraction=frac)
               for name, frac in cells for s in range(seeds)]
    flat = run_many(configs, run_steady_state)
    results: Dict[str, List[float]] = {}
    for j, (name, frac) in enumerate(cells):
        averaged = _average_results(flat[j * seeds:(j + 1) * seeds])
        results.setdefault(name, []).append(averaged.hit_rate)
        if progress:
            progress(f"{name} fraction={frac} done")
    headers = ["cache_fraction"] + strategy_names()
    rows = []
    for i, frac in enumerate(fractions):
        rows.append([frac] + [round(results[s][i], 4)
                              for s in strategy_names()])
    return FigureResult(
        figure="Figure 4",
        title="Cache hit rate as a function of cache size (fraction of "
              "total metadata)",
        headers=headers, rows=rows,
        notes="expected shape: hit rates converge as the cache grows; "
              "replicated prefixes depress hashed strategies at small "
              "caches; LazyHybrid lowest (no prefetch) (§5.3.1)",
        series={s: list(zip(fractions, results[s]))
                for s in strategy_names()})


# ---------------------------------------------------------------------------
# Figures 5 & 6 share one experiment: the workload shift
# ---------------------------------------------------------------------------
def shift_config(strategy: str, scale: float, seed: int = 42,
                 **overrides) -> ExperimentConfig:
    """Fig. 5/6 configuration: general workload that shifts mid-run."""
    # A lightly-loaded baseline so the post-shift hot spot — half the
    # clients converging on one subtree — saturates its authority's CPU,
    # which is the §5.3.2 scenario.  Ample cache and OSDs keep disk noise
    # from masking the imbalance signal.
    shift_time = 10.0 * max(0.5, scale)
    base = dict(
        strategy=strategy,
        n_mds=6,
        seed=seed,
        scale=scale,
        workload=ClosedLoopSpec(kind="shifting", think_time_s=0.01,
                                args={"shift_time_s": shift_time,
                                      "migrate_fraction": 0.5}),
        users_per_mds=10,
        files_per_user=55,
        clients_per_mds=40,
        cache_capacity_per_mds=800,
        warmup_s=0.0,
        duration_s=26.0,
        params=SimParams(osds_per_mds=2),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def run_shift_experiment(scale: float = 0.5,
                         progress: Optional[Callable[[str], None]] = None,
                         ) -> Dict[str, TimelineResult]:
    """Dynamic vs static subtree under the §5.3.2 workload shift."""
    from ..parallel import run_many

    strategies = ("DynamicSubtree", "StaticSubtree")
    configs = [shift_config(strategy, scale) for strategy in strategies]
    runs = run_many(configs, run_timeline, sample_interval_s=1.0)
    out = {}
    for strategy, run in zip(strategies, runs):
        out[strategy] = run
        if progress:
            progress(f"{strategy} shift run done")
    return out


def fig5(scale: float = 0.5,
         progress: Optional[Callable[[str], None]] = None,
         shift_results: Optional[Dict[str, TimelineResult]] = None,
         ) -> FigureResult:
    """Range and average MDS throughput under a dynamic workload."""
    results = shift_results or run_shift_experiment(scale, progress)
    dyn = results["DynamicSubtree"].throughput_series
    sta = results["StaticSubtree"].throughput_series
    headers = ["time", "dyn_min", "dyn_avg", "dyn_max",
               "static_min", "static_avg", "static_max"]
    rows = []
    for (t, dmin, davg, dmax), (_t, smin, savg, smax) in zip(dyn, sta):
        rows.append([round(t, 1), round(dmin, 1), round(davg, 1),
                     round(dmax, 1), round(smin, 1), round(savg, 1),
                     round(smax, 1)])
    shift_t = results["DynamicSubtree"].config.workload.args["shift_time_s"]
    return FigureResult(
        figure="Figure 5",
        title="Range and average MDS throughput under a workload shift "
              f"(clients migrate at t={shift_t:.0f}s)",
        headers=headers, rows=rows,
        notes="expected shape: after the shift the static partition stays "
              "unbalanced (wide min-max range, lower average); the dynamic "
              "partition re-delegates and recovers higher average "
              "throughput (§5.3.2)",
        series={k: v.throughput_series for k, v in results.items()})


def fig6(scale: float = 0.5,
         progress: Optional[Callable[[str], None]] = None,
         shift_results: Optional[Dict[str, TimelineResult]] = None,
         ) -> FigureResult:
    """Portion of requests forwarded under the same workload shift."""
    results = shift_results or run_shift_experiment(scale, progress)
    dyn = results["DynamicSubtree"].forward_series
    sta = results["StaticSubtree"].forward_series
    headers = ["time", "dynamic_forwarded", "static_forwarded"]
    rows = [[round(t, 1), round(d, 4), round(s, 4)]
            for (t, d), (_t, s) in zip(dyn, sta)]
    return FigureResult(
        figure="Figure 6",
        title="Forwarded requests for static and dynamic partitioning "
              "under a dynamic workload",
        headers=headers, rows=rows,
        notes="expected shape: a spike when clients move to unexplored "
              "territory, then a higher residual level for dynamic "
              "partitioning (clients must rediscover migrated metadata) "
              "(§5.3.3)",
        series={k: v.forward_series for k, v in results.items()})


# ---------------------------------------------------------------------------
# Figure 7: flash crowd with and without traffic control
# ---------------------------------------------------------------------------
def flash_config(traffic_control: bool, scale: float,
                 seed: int = 42, **overrides) -> ExperimentConfig:
    # One request per client: it is the clients' *ignorance* of the
    # partition that spreads the crowd over random nodes (§4.4); repeat
    # requests would learn the authority and change the scenario.
    base = dict(
        strategy="DynamicSubtree",
        n_mds=6,
        seed=seed,
        scale=scale,
        workload=ClosedLoopSpec(kind="flash", think_time_s=0.01,
                                args={"start_s": 0.3,
                                      "arrival_jitter_s": 0.15,
                                      "requests_per_client": 1}),
        users_per_mds=6,
        files_per_user=30,
        clients_per_mds=300,     # ×6 MDS ×scale -> ~1000-2000 clients
        cache_capacity_per_mds=400,
        warmup_s=0.0,
        duration_s=3.0,
        params=SimParams(
            traffic_control=traffic_control,
            osds_per_mds=2,
            replicate_threshold=60.0,
            popularity_halflife_s=0.5,
            balance_interval_s=1e9,  # isolate traffic control from balancing
        ),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def fig7(scale: float = 0.5,
         progress: Optional[Callable[[str], None]] = None) -> FigureResult:
    """Flash crowd: replies/forwards per second, traffic control off vs on."""
    from ..parallel import run_many

    settings = (False, True)
    configs = [flash_config(enabled, scale) for enabled in settings]
    runs = run_many(configs, run_timeline, sample_interval_s=0.1)
    results = {}
    for enabled, run in zip(settings, runs):
        results[enabled] = run
        if progress:
            progress(f"traffic_control={enabled} done")
    headers = ["time", "tc_off_replies", "tc_off_forwards",
               "tc_on_replies", "tc_on_forwards"]
    rows = []
    for (t, off_r, off_f), (_t, on_r, on_f) in zip(
            results[False].rate_series, results[True].rate_series):
        rows.append([round(t, 2), round(off_r, 0), round(off_f, 0),
                     round(on_r, 0), round(on_f, 0)])
    return FigureResult(
        figure="Figure 7",
        title="Flash crowd: cluster request rates without (top) and with "
              "(bottom) traffic control",
        headers=headers, rows=rows,
        notes="expected shape: without traffic control forwards dominate "
              "(every node relays to the one authority, which throttles "
              "replies); with it the item replicates quickly and replies "
              "vastly outnumber forwards (§5.4)",
        series={("off" if not k else "on"): v.rate_series
                for k, v in results.items()})


FIGURES: Dict[str, Callable[..., FigureResult]] = {
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
}

"""Typed run summaries: one object instead of scattered ``aggregate_*`` calls.

:func:`summarize_simulation` (surfaced as ``Simulation.summary()``) folds
the cluster counters, client stats and tracer histograms into a single
:class:`ClusterSummary`, so benchmarks and figure drivers stop reaching
into ``sim.cluster.nodes[*].stats`` by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..metrics import (EMPTY_SUMMARY, LatencyHistogram, LatencySummary,
                       format_table)

if TYPE_CHECKING:  # pragma: no cover
    from ._build import Simulation


@dataclass(frozen=True)
class ClusterSummary:
    """Aggregates of one simulation run.

    Throughput is measured over ``window``; everything else is cumulative
    since the start of the run (matching the paper's methodology, where
    rate metrics use the post-warmup window but hit rates are whole-run).
    """

    n_mds: int
    window: Tuple[float, float]
    total_ops: int               # requests completed by clients
    total_served: int            # replies sent by MDS nodes
    total_forwards: int          # intra-cluster forwards
    errors: int
    throughput_ops_per_s: float  # mean per-MDS reply rate over the window
    node_throughputs: List[float]
    hit_rate: float
    forward_fraction: float
    prefix_fraction: float
    mean_latency_s: float
    latency: LatencySummary                  # all ops pooled
    latency_by_op: Dict[str, LatencySummary]  # op name -> digest
    total_metadata: int
    #: event-kernel counters (events scheduled, fast-lane resumes, pool
    #: reuse) from :meth:`Environment.kernel_stats`, plus the
    #: :data:`_PROVENANCE` keys.  Excluded from repr and comparison: they
    #: describe how the run was *executed*, not what it computed, and must
    #: not break the fast-lane equivalence contract (identical summary
    #: reprs in both modes).
    kernel: Optional[Dict[str, float]] = field(default=None, repr=False,
                                               compare=False)
    #: overload accounting (open-loop generators / bounded inboxes).  All
    #: zero for classic closed-loop runs; excluded from repr so those
    #: summaries stay byte-identical to their pre-overload form.  The
    #: values themselves are deterministic and mode-invariant (they DO
    #: participate in ``==``).
    offered_ops: int = field(default=0, repr=False)
    dropped_ops: int = field(default=0, repr=False)
    slo_violations: int = field(default=0, repr=False)
    #: within-SLO completions per second over the window
    goodput_ops_per_s: float = field(default=0.0, repr=False)
    #: aggregated proxy-tier counters, when a proxy fronted the cluster
    proxy: Optional[Dict[str, int]] = field(default=None, repr=False)

    @property
    def latency_p50_s(self) -> float:
        return self.latency.p50_s

    @property
    def latency_p95_s(self) -> float:
        return self.latency.p95_s

    @property
    def latency_p99_s(self) -> float:
        return self.latency.p99_s

    def format(self) -> str:
        """Human-readable two-part report: aggregates, then per-op latency."""
        t0, t1 = self.window
        rows = [
            ("mds nodes", self.n_mds),
            ("total metadata", self.total_metadata),
            ("window (s)", f"{t0:.1f}-{t1:.1f}"),
            ("client ops", self.total_ops),
            ("errors", self.errors),
            ("per-MDS throughput (ops/s)",
             round(self.throughput_ops_per_s, 1)),
            ("cache hit rate", round(self.hit_rate, 4)),
            ("forward fraction", round(self.forward_fraction, 4)),
            ("prefix cache fraction", round(self.prefix_fraction, 4)),
            ("mean latency (ms)", round(self.mean_latency_s * 1e3, 3)),
            ("p50/p95/p99 latency (ms)",
             f"{self.latency.p50_s * 1e3:.3f}/"
             f"{self.latency.p95_s * 1e3:.3f}/"
             f"{self.latency.p99_s * 1e3:.3f}"),
        ]
        if self.offered_ops or self.dropped_ops or self.slo_violations:
            rows.extend([
                ("offered ops", self.offered_ops),
                ("dropped ops", self.dropped_ops),
                ("slo violations", self.slo_violations),
                ("goodput (ops/s)", round(self.goodput_ops_per_s, 1)),
            ])
        text = format_table(["metric", "value"], rows,
                            title="cluster summary")
        if self.proxy:
            proxy_rows = sorted(self.proxy.items())
            text += "\n" + format_table(["counter", "value"], proxy_rows,
                                        title="proxy tier")
        if self.latency_by_op:
            op_rows = [
                (op, s.count, round(s.mean_s * 1e3, 3),
                 round(s.p50_s * 1e3, 3), round(s.p95_s * 1e3, 3),
                 round(s.p99_s * 1e3, 3))
                for op, s in self.latency_by_op.items()]
            text += "\n" + format_table(
                ["op", "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms"],
                op_rows, title="latency by op type")
        return text


#: provenance keys every ``ClusterSummary.kernel`` carries next to the
#: kernel counters; benchmark reports read them.  The simulator has one
#: implementation, so both name it.
_PROVENANCE = {"kernel_backend": "reference", "model_backend": "reference"}


def summarize_simulation(sim: "Simulation",
                         window: Optional[Tuple[float, float]] = None
                         ) -> ClusterSummary:
    """Build a :class:`ClusterSummary` from a (partially) run simulation."""
    cluster = sim.cluster
    if window is None:
        t0, t1 = sim.config.measure_window
        t1 = min(t1, sim.env.now)
        t0 = min(t0, t1)
        window = (t0, t1)
    ops = sum(c.stats.ops_completed for c in sim.clients)
    lat = [c.stats.mean_latency_s for c in sim.clients
           if c.stats.ops_completed]
    stats = cluster.node_stats()
    # overload accounting: open-loop sources carry the extra counters;
    # duck-typing keeps classic closed-loop clients zero-cost
    offered = 0
    slo_viol = 0
    good = 0
    open_latencies: List[float] = []
    for c in sim.clients:
        cs = c.stats
        offered += getattr(cs, "offered", 0)
        slo_viol += getattr(cs, "slo_violations", 0)
        buckets = getattr(cs, "good_by_time", None)
        if buckets is not None:
            good += buckets.count_in(*window)
        samples = getattr(cs, "ok_latency_by_time", None)
        if samples:
            open_latencies.extend(
                l for t, l in samples if window[0] <= t < window[1])
    width = window[1] - window[0]
    goodput = good / width if width > 0 else 0.0
    dropped = sum(s.drops for s in stats)
    proxy_stats = sim.proxy.stats_dict() if sim.proxy is not None else None
    if sim.tracer is not None:
        overall = sim.tracer.latency_overall.summary()
        by_op = sim.tracer.latency_summaries()
    else:
        overall = EMPTY_SUMMARY
        by_op = {}
    if open_latencies:
        # open-loop runs report the measure-window tail: the run-wide
        # tracer histogram folds cold-start (warmup) latencies into p99,
        # which is exactly what an overload figure must not measure
        hist = LatencyHistogram()
        for latency in open_latencies:
            hist.record(latency)
        overall = hist.summary()
    return ClusterSummary(
        n_mds=cluster.n_mds,
        window=window,
        total_ops=ops,
        total_served=sum(s.ops_served for s in stats),
        total_forwards=sum(s.forwards for s in stats),
        errors=sum(c.stats.errors for c in sim.clients),
        throughput_ops_per_s=cluster.mean_node_throughput(*window),
        node_throughputs=cluster.node_throughputs(*window),
        hit_rate=cluster.cluster_hit_rate(),
        forward_fraction=cluster.forward_fraction(),
        prefix_fraction=cluster.mean_prefix_fraction(),
        mean_latency_s=sum(lat) / len(lat) if lat else 0.0,
        latency=overall,
        latency_by_op=by_op,
        total_metadata=sim.total_metadata,
        kernel={**sim.env.kernel_stats(), **_PROVENANCE},
        offered_ops=offered,
        dropped_ops=dropped,
        slo_violations=slo_viol,
        goodput_ops_per_s=goodput,
        proxy=proxy_stats,
    )

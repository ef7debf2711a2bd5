"""Per-layer numbers of one traced simulation.

Two sources, both read from outside the program:

* a ``cProfile`` of ``run_to``, whose frames are bucketed by the
  ``repro.<subpackage>`` that owns their source file.  Builtin, C and
  standard-library frames count toward the layer that called them, split
  by the profiler's caller edges;
* the ``repro.obs`` span tracer at ``trace_sample_rate=1.0``, whose spans
  give modelled (simulated) time per stage, plus the counters the
  simulation already keeps.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Tuple

import repro

#: the layers reported, one per ``repro.<subpackage>``; every other
#: subpackage, top-level module and uncalled root frame lands in "other"
LAYERS = ("sim", "cache", "namespace", "mds", "partition", "clients",
          "storage", "proxy", "metrics", "obs")

#: every per-layer metric: name -> (unit, which direction is better)
PER_LAYER = {
    **{f"{layer}.calls_per_op": ("calls/op", "lower") for layer in LAYERS},
    **{f"{layer}.self_frac": ("fraction", "lower")
       for layer in LAYERS + ("other",)},
    "sim.events_per_op": ("events/op", "lower"),
    "sim.fast_resume_frac": ("fraction", "higher"),
    "sim.pool_reuse_frac": ("fraction", "higher"),
    "cache.hit_rate": ("fraction", "higher"),
    "cache.evictions_per_op": ("1/op", "lower"),
    "cache.prefix_frac": ("fraction", "lower"),
    "namespace.memo_hit_rate": ("fraction", "higher"),
    "mds.distmemo_hit_rate": ("fraction", "higher"),
    "mds.forward_frac": ("fraction", "lower"),
    "mds.migrations": ("count", "lower"),
    "mds.replications": ("count", "lower"),
    "mds.drop_frac": ("fraction", "lower"),
    "mds.queue_ms": ("ms", "lower"),
    "mds.cpu_ms": ("ms", "lower"),
    "storage.osd_read_ms": ("ms", "lower"),
    "storage.journal_ms": ("ms", "lower"),
    "storage.reads_per_op": ("reads/op", "lower"),
    "proxy.absorb_frac": ("fraction", "higher"),
    "clients.failed_frac": ("fraction", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

_Func = Tuple[str, int, str]


def _own_layer(func: _Func):
    """The layer owning ``func``'s source file, or None outside repro."""
    filename = func[0]
    if not filename.startswith(_REPRO_DIR):
        return None
    head = filename[len(_REPRO_DIR):].split(os.sep, 1)
    if len(head) == 2 and head[0] in LAYERS:
        return head[0]
    return "other"


def attribute(stats: pstats.Stats) -> Tuple[Dict[str, float],
                                             Dict[str, float]]:
    """``(calls, self_seconds)`` per layer from a profile.

    Call counts are exact for a deterministic run: a frame outside repro
    is split over its callers' layers in proportion to the calls along
    each caller edge, and the sums run in sorted frame order.
    """
    table = stats.stats
    shares: Dict[_Func, Dict[str, float]] = {}

    def layer_shares(func: _Func) -> Dict[str, float]:
        if func in shares:
            return shares[func]
        own = _own_layer(func)
        if own is not None:
            shares[func] = {own: 1.0}
            return shares[func]
        shares[func] = {"other": 1.0}  # breaks caller cycles
        callers = table[func][4] if func in table else {}
        total = sum(edge[0] for edge in callers.values())
        if total:
            out: Dict[str, float] = {}
            for caller in sorted(callers):
                weight = callers[caller][0] / total
                for layer, share in layer_shares(caller).items():
                    out[layer] = out.get(layer, 0.0) + weight * share
            shares[func] = out
        return shares[func]

    calls = {layer: 0.0 for layer in LAYERS + ("other",)}
    self_s = dict(calls)
    for func in sorted(table):
        _cc, nc, tt, _ct, callers = table[func]
        own = _own_layer(func)
        if own is not None:
            calls[own] += nc
            self_s[own] += tt
            continue
        if not callers:
            calls["other"] += nc
            self_s["other"] += tt
            continue
        for caller in sorted(callers):
            edge_nc, _edge_cc, edge_tt, _edge_ct = callers[caller]
            for layer, share in layer_shares(caller).items():
                calls[layer] += edge_nc * share
                self_s[layer] += edge_tt * share
    return calls, self_s


def span_ms_per_op(traces) -> Dict[str, float]:
    """Total simulated milliseconds per span name, over all traces,
    divided by the number of traces."""
    total: Dict[str, float] = {}
    count = 0
    for trace in traces:
        count += 1
        for span in trace.spans:
            total[span.name] = total.get(span.name, 0.0) + (
                span.end_s - span.start_s)
    return {name: seconds * 1e3 / count for name, seconds in total.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(sim, summary, profile: pstats.Stats) -> Dict[str, float]:
    """Every per-layer metric of one traced simulation (see README.md)."""
    ops = summary.total_ops
    calls, self_s = attribute(profile)
    total_s = sum(self_s.values())
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_op"] = _ratio(calls[layer], ops)
        out[f"{layer}.self_frac"] = _ratio(self_s[layer], total_s)
    out["other.self_frac"] = _ratio(self_s["other"], total_s)

    kernel = summary.kernel
    events = kernel["events_scheduled"]
    out["sim.events_per_op"] = _ratio(events, ops)
    out["sim.fast_resume_frac"] = _ratio(
        kernel["fast_resumes"], kernel["fast_resumes"] + events)
    out["sim.pool_reuse_frac"] = kernel["pool_reuse_rate"]

    nodes = sim.cluster.nodes
    out["cache.hit_rate"] = summary.hit_rate
    out["cache.evictions_per_op"] = _ratio(
        sum(node.cache.counters.evictions for node in nodes), ops)
    out["cache.prefix_frac"] = summary.prefix_fraction

    memo = sim.ns.resolution_memo
    out["namespace.memo_hit_rate"] = (
        _ratio(memo.hits, memo.hits + memo.misses) if memo else 0.0)

    # the distribution memo has no public accessor; it exists only while
    # the request-path fast lane is on
    dist = getattr(sim.cluster, "_dist_memo", None)
    out["mds.distmemo_hit_rate"] = (
        _ratio(dist.hits, dist.hits + dist.misses) if dist else 0.0)
    out["mds.forward_frac"] = summary.forward_fraction
    out["mds.migrations"] = sum(node.stats.migrations_out for node in nodes)
    out["mds.replications"] = sum(node.stats.replications_pushed
                                  for node in nodes)
    out["mds.drop_frac"] = _ratio(summary.dropped_ops,
                                  summary.total_served + summary.dropped_ops)

    stages = span_ms_per_op(sim.tracer.sink)
    out["mds.queue_ms"] = stages.get("node.queue", 0.0)
    out["mds.cpu_ms"] = stages.get("node.cpu", 0.0)
    out["storage.osd_read_ms"] = stages.get("osd.read", 0.0)
    out["storage.journal_ms"] = stages.get("journal.append", 0.0)
    out["storage.reads_per_op"] = _ratio(
        sim.cluster.object_store.total_reads, ops)

    proxy = summary.proxy or {}
    out["proxy.absorb_frac"] = _ratio(
        proxy.get("absorbed", 0) + proxy.get("coalesced", 0),
        proxy.get("requests", 0))
    return out

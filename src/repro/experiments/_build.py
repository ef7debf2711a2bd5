"""Build a runnable simulation from an :class:`ExperimentConfig`.

Internal module: the public import surface is :mod:`repro.api`.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..clients import (Client, FlashCrowdSpec, FlashCrowdWorkload,
                       GeneralWorkload, GeneralWorkloadSpec, OpenLoopSource,
                       OpenLoopWorkload, SCALING_MIX, ScientificSpec,
                       ScientificWorkload, ShiftSpec, ShiftingWorkload,
                       make_arrivals)
from ..mds import MdsCluster
from ..namespace import Namespace, SnapshotSpec, SnapshotStats, \
    generate_snapshot
from ..namespace import path as pathmod
from ..obs import RingBufferSink, Trace, Tracer
from ..partition import make_strategy
from ..proxy import ProxyTier
from ..sim import Environment, RngStreams
from .config import ExperimentConfig
from .workload import (WORKLOAD_ARGS, ClosedLoopSpec, OpenLoopSpec,
                       WorkloadSpec)

if TYPE_CHECKING:  # pragma: no cover
    from .summary import ClusterSummary


@dataclass
class Simulation:
    """A fully wired simulation ready to ``env.run()``."""

    config: ExperimentConfig
    env: Environment
    streams: RngStreams
    ns: Namespace
    snapshot: SnapshotStats
    cluster: MdsCluster
    clients: List[Client]
    workload: object
    tracer: Optional[Tracer] = None
    #: the adaptive proxy tier fronting the cluster, when configured
    proxy: Optional[ProxyTier] = None

    def run_to(self, t: float) -> None:
        self.env.run(until=t)

    @property
    def total_metadata(self) -> int:
        return len(self.ns)

    def summary(self, window: Optional[Tuple[float, float]] = None
                ) -> "ClusterSummary":
        """Typed aggregate of the run so far (see :class:`ClusterSummary`).

        ``window`` bounds the throughput measurement; it defaults to the
        config's post-warmup measure window, clamped to the time actually
        simulated.
        """
        from .summary import summarize_simulation

        return summarize_simulation(self, window)

    def traces(self) -> List[Trace]:
        """Sampled traces collected so far (newest-last, ring-bounded)."""
        if self.tracer is None or not isinstance(self.tracer.sink,
                                                 RingBufferSink):
            return []
        return self.tracer.sink.traces


# ---------------------------------------------------------------------------
# Namespace-snapshot memo
#
# Snapshot generation is a pure function of (seed, SnapshotSpec): it draws
# only from the "snapshot.*" named RNG streams, which nothing else in a run
# reads, and every stream is derived statelessly from (seed, name).  A sweep
# whose configs share (scale, snapshot seed) therefore regenerates the exact
# same tree over and over.  Inside ``snapshot_memo()`` — every sweep task
# runs there; plain ``build_simulation`` calls do not — the pristine generated
# tree is cached per key and each run receives a deep copy, which is
# bit-identical to regenerating (enforced by the serial/parallel equivalence
# tests).
# ---------------------------------------------------------------------------
_SnapshotKey = Tuple[int, SnapshotSpec]
_SNAPSHOT_MEMO: Dict[_SnapshotKey, Tuple[Namespace, SnapshotStats]] = {}
_SNAPSHOT_MEMO_MAX = 8
_snapshot_memo_active = False


@contextmanager
def snapshot_memo():
    """Scoped snapshot-memo switch; restores the previous state on exit.

    Cached trees outlive the scope (the memo is bounded), so later sweeps
    in the same process reuse them.
    """
    global _snapshot_memo_active
    prev = _snapshot_memo_active
    _snapshot_memo_active = True
    try:
        yield
    finally:
        _snapshot_memo_active = prev


def _make_snapshot(config: ExperimentConfig,
                   streams: RngStreams) -> Tuple[Namespace, SnapshotStats]:
    spec = SnapshotSpec(n_users=config.n_users,
                        files_per_user=config.n_files_per_user,
                        shared_tree_files=config.shared_tree_files)
    if not _snapshot_memo_active:
        ns = Namespace()
        return ns, generate_snapshot(ns, spec, streams)
    key: _SnapshotKey = (config.seed, spec)
    cached = _SNAPSHOT_MEMO.get(key)
    if cached is None:
        ns = Namespace()
        # Generate from a fresh stream factory so the memo entry does not
        # depend on the caller's stream state; named streams are derived
        # purely from (seed, name), so the tree is identical either way.
        snapshot = generate_snapshot(ns, spec, RngStreams(config.seed))
        while len(_SNAPSHOT_MEMO) >= _SNAPSHOT_MEMO_MAX:
            _SNAPSHOT_MEMO.pop(next(iter(_SNAPSHOT_MEMO)))
        _SNAPSHOT_MEMO[key] = (ns, snapshot)
        cached = (ns, snapshot)
    return copy.deepcopy(cached)


def build_simulation(config: ExperimentConfig) -> Simulation:
    """Construct namespace, cluster, clients and tracer per the config."""
    env = Environment()
    streams = RngStreams(config.seed)

    ns, snapshot = _make_snapshot(config, streams)

    strategy = make_strategy(config.strategy, config.n_mds)
    strategy.bind(ns)
    params = _size_cache(config, len(ns))
    tracer = Tracer(sample_rate=config.trace_sample_rate,
                    sink=RingBufferSink(config.trace_buffer),
                    seed=config.seed)
    cluster = MdsCluster(env, ns, strategy, params, tracer=tracer)
    cluster.start()

    spec = config.workload.validate()
    workload = _make_workload(config, spec, ns, snapshot, strategy)

    # clients talk to the proxy tier when one is configured, otherwise
    # straight to the cluster — the two expose the same submit() surface
    proxy = None
    front = cluster
    if config.proxy is not None:
        proxy = ProxyTier(env, cluster, config.proxy)
        front = proxy

    clients = []
    if isinstance(spec, OpenLoopSpec):
        for i in range(spec.resolved_sources(config.n_clients)):
            source = OpenLoopSource(env, i, front, workload,
                                    streams.py_stream(f"source.{i}"), spec)
            source.start()
            clients.append(source)
    else:
        for i in range(config.n_clients):
            client = Client(env, i, front, workload,
                            streams.py_stream(f"client.{i}"))
            client.start()
            clients.append(client)

    return Simulation(config=config, env=env, streams=streams, ns=ns,
                      snapshot=snapshot, cluster=cluster, clients=clients,
                      workload=workload, tracer=tracer, proxy=proxy)


def _size_cache(config: ExperimentConfig, total_metadata: int):
    """Apply the config's cache-sizing rule to the SimParams."""
    import dataclasses

    params = config.params
    if config.cache_fraction is not None:
        capacity = max(16, int(config.cache_fraction * total_metadata))
    elif config.cache_capacity_per_mds is not None:
        capacity = config.cache_capacity_per_mds
    else:
        return params
    return dataclasses.replace(params, cache_capacity=capacity,
                               journal_capacity=capacity)


def _make_workload(config: ExperimentConfig, spec: WorkloadSpec,
                   ns: Namespace, snapshot: SnapshotStats, strategy=None):
    if isinstance(spec, OpenLoopSpec):
        # the op *mix* is orthogonal to the arrival *process*: reuse the
        # closed-loop generator for ops (its next_delay is never called)
        # and pace submissions with the configured arrival process
        inner = _make_workload(
            config,
            ClosedLoopSpec(kind=spec.kind, think_time_s=1.0,
                           args=spec.args, op_weights=spec.op_weights),
            ns, snapshot, strategy)
        n_sources = spec.resolved_sources(config.n_clients)
        hot_target = (_flash_target(ns, snapshot)
                      if spec.hotspot_prob > 0 else None)
        return OpenLoopWorkload(inner, make_arrivals(spec, n_sources),
                                spec, hot_target)

    args = dict(spec.args)
    kind = spec.kind

    if kind in ("general", "scaling"):
        weights = spec.op_weights or (
            dict(SCALING_MIX) if kind == "scaling" else None)
        spec_kw = dict(think_time_s=spec.think_time_s)
        if weights is not None:
            spec_kw["op_weights"] = weights
        for key in WORKLOAD_ARGS[kind]:
            if key in args:
                spec_kw[key] = args[key]
        return GeneralWorkload(ns, snapshot.user_roots,
                               GeneralWorkloadSpec(**spec_kw))

    if kind == "shifting":
        # The "new portion of the hierarchy served by a single MDS"
        # (§5.3.2): every user subtree the victim node initially owns.
        victim_node = int(args.get("victim_node", 0))
        victim_roots = None
        if strategy is not None:
            victim_roots = [
                root for root in snapshot.user_roots
                if strategy.authority_of_ino(ns.resolve(root).ino)
                == victim_node] or None
        shift = ShiftSpec(
            shift_time_s=args.get("shift_time_s", 10.0),
            migrate_fraction=args.get("migrate_fraction", 0.5),
            victim_roots=victim_roots)
        spec_kw = dict(think_time_s=spec.think_time_s)
        if spec.op_weights is not None:
            spec_kw["op_weights"] = spec.op_weights
        return ShiftingWorkload(ns, snapshot.user_roots, shift,
                                GeneralWorkloadSpec(**spec_kw))

    if kind == "scientific":
        shared = snapshot.user_roots[0]
        return ScientificWorkload(
            ns, shared,
            ScientificSpec(phase_len_s=args.get("phase_len_s", 1.0)))

    if kind == "flash":
        target = _flash_target(ns, snapshot)
        return FlashCrowdWorkload(
            ns, target,
            FlashCrowdSpec(
                start_s=args.get("start_s", 1.0),
                arrival_jitter_s=args.get("arrival_jitter_s", 0.05),
                requests_per_client=int(args.get("requests_per_client", 5)),
                repeat_think_s=args.get("repeat_think_s", 0.01)))

    raise ValueError(f"unknown workload kind {kind!r}")


def _flash_target(ns: Namespace, snapshot: SnapshotStats):
    """Pick a deep, previously-unknown file as the flash-crowd target.

    The choice must be stable under snapshot-generator changes, so it is
    explicit: the *lexicographically-last named* file child of the last
    user root (not whatever dict iteration order happens to yield).  If
    that root has no file children, a synthetic one is created.
    """
    root = snapshot.user_roots[-1]
    node = ns.resolve(root)
    best = None
    for name in sorted(node.children):  # type: ignore[union-attr]
        child = ns.inode(node.children[name])  # type: ignore[union-attr]
        if child.is_file:
            best = pathmod.join(root, name)
    if best is None:
        best = pathmod.join(root, "hotfile.dat")
        ns.create_file(best, size=1 << 30)
    return best

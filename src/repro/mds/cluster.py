"""The MDS cluster: nodes, shared storage, network, background services.

The cluster owns what is global: the ground-truth namespace, the partition
strategy, the shared OSD pool, the set of traffic-control-replicated "hot"
inodes, and the background processes (load balancer, hot-set sweeper,
optional dirfrag manager).  Clients interact only through
:meth:`submit` — everything else is intra-cluster.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Generator, List, Optional, Set

from .._fastpath import fastpath_enabled
from ..namespace import Namespace
from ..obs import Tracer
from ..partition import DynamicSubtreePartition, Strategy
from ..sim import Environment, Event
from ..storage import ObjectStore
from .config import SimParams
from .dirfrag import DirFragManager
from .distmemo import DistributionMemo
from .loadbalance import LoadBalancer
from .messages import OVERLOAD_ERROR, MdsReply, MdsRequest
from .node import MdsNode
from .stats import NodeStats, aggregate_forward_fraction, aggregate_hit_rate


class MdsCluster:
    """A cluster of metadata servers over a shared object store."""

    def __init__(self, env: Environment, ns: Namespace, strategy: Strategy,
                 params: SimParams = SimParams(), *,
                 n_mds: Optional[int] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.env = env
        self.ns = ns
        self.strategy = strategy
        self.params = params
        #: request-level observability (spans + latency histograms); a
        #: ``None`` tracer disables both without any hot-path cost
        self.tracer = tracer
        self.n_mds = n_mds if n_mds is not None else strategy.n_mds
        if self.n_mds != strategy.n_mds:
            raise ValueError(
                f"cluster size {self.n_mds} != strategy n_mds {strategy.n_mds}")
        params.validate()
        if strategy.ns is not ns:
            strategy.bind(ns)
        if fastpath_enabled():
            # request-path fast lane: memoise resolutions/ancestor chains
            # (invalidated precisely by the namespace on structural change)
            ns.enable_resolution_memo()

        self.object_store = ObjectStore(
            env, n_osds=max(1, params.osds_per_mds * self.n_mds),
            read_s=params.disk_read_s, write_s=params.disk_write_s)
        #: inos replicated on every node by traffic control (§4.4)
        self.hot_inos: Set[int] = set()
        #: path -> distribution-info mapping, shared by all nodes (the info
        #: depends only on global state: namespace structure, partition
        #: state, hot set).  Invalidated precisely: the namespace reports
        #: structural mutations per ino, hot-set toggles invalidate the
        #: toggled ino, and partition-state changes (``_auth_gen``) clear
        #: it wholesale.  ``None`` when the fast lane is off (reference
        #: mode computes per reply).
        self._dist_memo: Optional[DistributionMemo] = (
            DistributionMemo() if env.fastlane else None)
        if self._dist_memo is not None:
            ns.attach_structure_watcher(self._dist_memo)
        #: the strategy generation the memo was last cleared at
        self._dist_auth_gen = -1
        #: unlinked-while-open inodes -> the node retaining them (§4.5)
        self.orphan_authorities: Dict[int, int] = {}
        self.deferred_work_created = 0
        #: admission control (None = unbounded, the exact legacy path).
        #: The bound is checked at *dispatch* against a per-node
        #: outstanding-request counter rather than at arrival against the
        #: inbox deque: counter updates happen at the same simulated
        #: instants in both fast-lane modes, so drop decisions — and with
        #: them whole-run results — stay bit-identical across modes.
        self._admission: Optional[int] = params.inbox_capacity

        self.nodes: List[MdsNode] = [
            MdsNode(env, i, self, params) for i in range(self.n_mds)]
        #: deterministic retry routing for failover bounces
        self._retry_rng = random.Random(0xC0FFEE)
        #: set before start() to customize the distribution policy (§4.3);
        #: defaults to capacity-weighted balancing for heterogeneous
        #: clusters, vanilla balancing otherwise
        self.balance_policy = None
        self.balancer: Optional[LoadBalancer] = None
        self.dirfrag: Optional[DirFragManager] = None
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def traffic_control_active(self) -> bool:
        """Traffic control is a capability of the dynamic partition (§4.4)."""
        return (self.params.traffic_control
                and isinstance(self.strategy, DynamicSubtreePartition))

    def start(self) -> None:
        """Spawn worker and background processes.  Idempotent."""
        if self._started:
            return
        self._started = True
        for node in self.nodes:
            node.start_workers()
        if (isinstance(self.strategy, DynamicSubtreePartition)
                and self.strategy.supports_rebalancing):
            policy = self.balance_policy
            if policy is None and self.params.node_speed_factors is not None:
                from .policy import WeightedNodesPolicy
                policy = WeightedNodesPolicy.from_params(self.params,
                                                         self.n_mds)
            self.balancer = LoadBalancer(self, policy)
            self.env.process(self.balancer.run())
        if self.traffic_control_active:
            self.env.process(self._hot_set_sweeper())
        if (self.params.dirfrag_enabled
                and isinstance(self.strategy, DynamicSubtreePartition)):
            self.dirfrag = DirFragManager(self)
            self.env.process(self.dirfrag.run())
        from ..partition import LazyHybridPartition
        if (self.params.lh_drain_rate_per_s > 0
                and isinstance(self.strategy, LazyHybridPartition)):
            self.env.process(self._lazy_update_drainer())

    # ------------------------------------------------------------------
    # client interface
    # ------------------------------------------------------------------
    def submit(self, dest: int, request: MdsRequest) -> Event:
        """Send ``request`` to node ``dest``; returns its completion event."""
        if not (0 <= dest < self.n_mds):
            raise ValueError(f"destination {dest} out of range")
        request.done = self.env.event()
        request.submitted_at = self.env.now
        self.deliver_later(dest, request)
        return request.done

    # ------------------------------------------------------------------
    # intra-cluster messaging
    # ------------------------------------------------------------------
    def pick_live_node(self) -> int:
        """A uniformly random live node (client-retry routing)."""
        live = [n.node_id for n in self.nodes if not n.failed]
        if not live:
            raise RuntimeError("no live MDS nodes")
        return self._retry_rng.choice(live)

    def deliver_later(self, node_id: int, request: MdsRequest) -> None:
        """Enqueue ``request`` at a node after one network hop.

        A request addressed to a failed node is rerouted to a random live
        one, modelling the client's connection-refused retry.
        """
        if self.nodes[node_id].failed:
            request.hops += 1
            node_id = self.pick_live_node()
        capacity = self._admission
        if capacity is not None:
            node = self.nodes[node_id]
            if node.inflight >= capacity:
                # inbox full: shed the request with an explicit overload
                # reply instead of queueing without bound
                node.stats.record_drop(self.env.now)
                self._send_reply(request, MdsReply(
                    ok=False, served_by=node_id, op=request.op,
                    path=request.path, error=OVERLOAD_ERROR,
                    forwarded=request.hops,
                    latency_s=self.env.now - request.submitted_at))
                return
            node.inflight += 1
        now = self.env.now
        request.enqueued_at = now + self.params.net_hop_s
        if request.trace is not None:
            request.trace.add("net.hop", now, request.enqueued_at,
                              node=node_id)
        # The request rides the delivering timeout as its value and a
        # prebound Store method enqueues it on arrival — no closure per
        # message.
        timer = self.env.timeout(self.params.net_hop_s, request)
        timer.callbacks.append(self.nodes[node_id].inbox._put_from_event)

    def reply_later(self, request: MdsRequest, reply: MdsReply) -> None:
        """Complete a request's done-event after one network hop."""
        if self._admission is not None:
            # the serving node releases its outstanding-request slot
            self.nodes[reply.served_by].inflight -= 1
        self._send_reply(request, reply)

    def _send_reply(self, request: MdsRequest, reply: MdsReply) -> None:
        """Schedule delivery of ``reply`` (no admission bookkeeping)."""
        done = request.done
        assert done is not None
        if request.trace is not None:
            now = self.env.now
            request.trace.add("net.reply", now,
                              now + self.params.net_hop_s,
                              node=reply.served_by)
        self.env.succeed_later(done, reply, self.params.net_hop_s)

    def on_deferred_work(self, count: int) -> None:
        """Strategies report lazily-owed updates here (visibility only)."""
        self.deferred_work_created += count

    # ------------------------------------------------------------------
    # background services
    # ------------------------------------------------------------------
    def _hot_set_sweeper(self) -> Generator[Event, Any, None]:
        """Consolidate items whose popularity decayed away (§4.4)."""
        interval = max(0.25, self.params.popularity_halflife_s / 2)
        while True:
            yield self.env.timeout(interval)
            now = self.env.now
            cooled = []
            for ino in self.hot_inos:
                if ino not in self.ns:
                    cooled.append(ino)
                    continue
                authority = self.strategy.authority_of_ino(ino)
                value = self.nodes[authority].popularity.read(ino, now)
                if value < self.params.unreplicate_threshold:
                    cooled.append(ino)
            if cooled:
                memo = self._dist_memo
                for ino in cooled:
                    self.hot_inos.discard(ino)
                    if memo is not None:
                        memo.invalidate_ino(ino)

    def _lazy_update_drainer(self) -> Generator[Event, Any, None]:
        """Background propagation of Lazy Hybrid's owed updates (§3.1.3).

        Drains the pending set at ``lh_drain_rate_per_s``, charging each
        applied update one network round trip plus a journal commit on the
        record's authority — the paper's amortized "one network trip per
        affected file".
        """
        from ..partition import LazyHybridPartition

        strategy = self.strategy
        assert isinstance(strategy, LazyHybridPartition)
        interval = 0.1
        per_tick = max(1, int(self.params.lh_drain_rate_per_s * interval))
        while True:
            yield self.env.timeout(interval)
            batch = strategy.pop_pending_batch(per_tick)
            if not batch:
                continue
            yield self.env.timeout(2 * self.params.net_hop_s)
            for ino in batch:
                if ino not in self.ns:
                    continue
                authority = self.nodes[strategy.authority_of_ino(ino)]
                if authority.failed:
                    continue
                yield from authority._journal_update(ino)
                authority.stats.lazy_updates += 1

    # ------------------------------------------------------------------
    # measurement helpers (used by experiments and tests)
    # ------------------------------------------------------------------
    def node_stats(self) -> List[NodeStats]:
        return [node.stats for node in self.nodes]

    def mean_node_throughput(self, t_start: float, t_end: float) -> float:
        rates = [s.throughput(t_start, t_end) for s in self.node_stats()]
        return sum(rates) / len(rates)

    def node_throughputs(self, t_start: float, t_end: float) -> List[float]:
        return [s.throughput(t_start, t_end) for s in self.node_stats()]

    def cluster_hit_rate(self) -> float:
        return aggregate_hit_rate(self.node_stats())

    def forward_fraction(self) -> float:
        return aggregate_forward_fraction(self.node_stats())

    def mean_prefix_fraction(self) -> float:
        fracs = [node.cache.prefix_fraction() for node in self.nodes]
        return sum(fracs) / len(fracs)

    def queue_delay_summaries(self) -> "List":
        """Per-node inbox queue-delay percentile digests."""
        return [node.stats.queue_delay.summary() for node in self.nodes]

    def cache_report(self) -> Dict[str, float]:
        """Aggregated slot census over all node caches."""
        total: Dict[str, float] = {}
        for node in self.nodes:
            for key, count in node.cache.slot_census().items():
                total[key] = total.get(key, 0) + count
        return total

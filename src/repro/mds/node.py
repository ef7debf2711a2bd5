"""One metadata server: request workers, cache, journal, coherence (§4).

The node is where every paper mechanism meets:

* **authority & forwarding** (§4.2): requests for metadata this node does
  not own are forwarded to the authority — unless a replica can serve a
  read locally (collaborative caching / traffic control).
* **path traversal** (§4.1): the ancestors of every served item are pulled
  into cache (locally from disk when this node owns them, from the owning
  peer otherwise) so permission checks never need extra I/O afterwards.
* **embedded inodes & prefetch** (§4.5): a miss under a directory-grain
  layout loads the whole directory; siblings enter the cache near the cold
  end of the LRU.
* **two-tier storage** (§4.6): mutations append to the bounded journal;
  entries that fall off are written back to the shared object store off the
  critical path.
* **popularity & replication** (§4.4): the authority counts accesses with
  decaying counters and pushes replicas of suddenly-popular metadata to the
  whole cluster.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List, Optional

from ..cache import ReplicaRegistry
from ..model.backend import make_metadata_cache, make_popularity_map
from ..namespace import FsError, Inode, ROOT_INO
from ..namespace import path as pathmod
from ..sim import Environment, Event, Resource, Store
from ..storage import DiskDevice, Journal
from .config import SimParams
from .messages import (ANY_NODE, EMPTY_LOCATIONS, MdsReply, MdsRequest,
                       OpType)
from .stats import NodeStats

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import MdsCluster


class MdsNode:
    """A single metadata server in the cluster."""

    def __init__(self, env: Environment, node_id: int, cluster: "MdsCluster",
                 params: SimParams) -> None:
        self.env = env
        self.node_id = node_id
        self.cluster = cluster
        self.params = params
        self.inbox: Store = Store(env)
        self.cpu = Resource(env, capacity=1)
        self.cache = make_metadata_cache(params.cache_capacity)
        journal_dev = DiskDevice(env, read_s=params.journal_write_s,
                                 write_s=params.journal_write_s,
                                 name=f"journal{node_id}")
        self.journal = Journal(env, journal_dev,
                               capacity=params.journal_capacity)
        #: replicas of *my* metadata held by peers
        self.replicas = ReplicaRegistry()
        self.popularity = make_popularity_map(params.popularity_halflife_s)
        self.stats = NodeStats(bucket_width_s=params.stats_bucket_s)
        self.failed = False  # set by mds.failover; a dead node serves nothing
        #: requests outstanding at this node (in flight + queued + in
        #: service); maintained only when admission control is on
        #: (``SimParams.inbox_capacity``), otherwise stays 0
        self.inflight = 0
        #: open-file handles this authority has exposed: ino -> refcount.
        #: The cache entry is pinned while open; an unlinked-while-open
        #: inode is retained as a namespace orphan until the last close
        #: (§4.5).
        self._open_refs: dict = {}
        self._open_pinned: set = set()
        self._writeback_buffer: List[int] = []
        #: per-ino embargo on re-replication after a mutation invalidated
        #: the replica set (prevents replicate/invalidate churn on items
        #: that are both read- and write-hot)
        self._replication_cooldown: dict = {}
        self._bootstrap_root()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _bootstrap_root(self) -> None:
        """Every node caches (and pins) the root — all clients know it."""
        ns = self.cluster.ns
        is_auth = self.cluster.strategy.authority_of_ino(ROOT_INO) == self.node_id
        self.cache.insert(ROOT_INO, None, True, replica=not is_auth)
        self.cache.pin(ROOT_INO)

    def start_workers(self) -> None:
        for _ in range(self.params.workers_per_node):
            self.env.process(self._worker())
        self.env.process(self._writeback_flusher())

    def _worker(self) -> Generator[Event, Any, None]:
        inbox = self.inbox
        handle = self._handle
        if self.env.fastlane:
            # Batch inbox draining: one wakeup serves every already-queued
            # message before blocking again, eliding the per-item get()
            # event.  Service order is unchanged — get_nowait() pops the
            # same FIFO the reference get() path would have handed over
            # one URGENT event at a time.
            get_nowait = inbox.get_nowait
            while True:
                request: MdsRequest = yield inbox.get()
                yield from handle(request)
                while True:
                    queued = get_nowait()
                    if queued is None:
                        break
                    yield from handle(queued)
        while True:
            request = yield inbox.get()
            yield from handle(request)

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def _handle(self, req: MdsRequest) -> Generator[Event, Any, None]:
        trace = req.trace
        now = self.env.now
        self.stats.record_queue_delay(now - req.enqueued_at)
        if trace is not None:
            trace.add("node.queue", req.enqueued_at, now, node=self.node_id)
        if self.failed:
            # a dead server answers nothing: the client's retry lands on a
            # random live node (which forwards to the new authority)
            req.hops += 1
            if self.cluster._admission is not None:
                self.inflight -= 1  # the request leaves this node
            self.cluster.deliver_later(self.cluster.pick_live_node(), req)
            return
        ns = self.cluster.ns
        strategy = self.cluster.strategy

        target, authority, error = self._locate(req)
        if error is not None:
            t0 = self.env.now
            hold = self.cpu.acquire(self.params.cpu_op_s)
            if hold is not None:  # uncontended: one event, no sub-generator
                yield hold
            else:
                yield from self.cpu.use(self.params.cpu_op_s)
            if trace is not None:
                trace.add("node.cpu", t0, self.env.now, node=self.node_id,
                          detail="locate-error")
            self._reply(req, ok=False, error=error)
            return

        if authority != self.node_id:
            cached = self.cache.get(target.ino) if target is not None else None
            replica_can_serve = (cached is not None and not req.is_mutation)
            if not replica_can_serve:
                yield from self._forward(req, authority)
                return
            # fall through: serve the read from the local replica
            if trace is not None:
                trace.bump("replica.read")

        t0 = self.env.now
        service_s = self.params.cpu_op_s / self.params.speed_of(self.node_id)
        hold = self.cpu.acquire(service_s)
        if hold is not None:  # uncontended: one event, no sub-generator
            yield hold
        else:
            yield from self.cpu.use(service_s)
        if trace is not None:
            trace.add("node.cpu", t0, self.env.now, node=self.node_id)

        # Everything below touches ground truth that concurrent workers may
        # mutate (the target can be unlinked while we wait on disk), so the
        # whole serve path shares one failure exit.
        try:
            # -- path traversal & permission check (§4.1) -----------------
            # The cache-hit case is inlined: a generator per ancestor per
            # request is measurable overhead at ~5 lookups/request, and
            # after warmup nearly every lookup hits.
            if strategy.needs_path_traversal and target is not None:
                cache_get = self.cache.get
                stats = self.stats
                for aino in ns.ancestor_inos(target.ino):
                    if cache_get(aino) is not None:
                        stats.cache_hits += 1
                        if trace is not None:
                            trace.bump("cache.hit")
                    else:
                        yield from self._fetch_missing(ns.inode(aino),
                                                       trace=trace)

            # -- Lazy Hybrid / rename-migration deferred work -------------
            if target is not None and strategy.take_pending(target.ino):
                t0 = self.env.now
                yield self.env.timeout(2 * self.params.net_hop_s)
                yield from self._journal_update(target.ino)
                if trace is not None:
                    trace.add("lazy.update", t0, self.env.now,
                              node=self.node_id)
                self.stats.lazy_updates += 1

            # -- bring the target itself into cache ------------------------
            if target is not None:
                if self.cache.get(target.ino) is not None:
                    self.stats.cache_hits += 1
                    if trace is not None:
                        trace.bump("cache.hit")
                else:
                    yield from self._fetch_missing(target, trace=trace)

            # -- apply the operation ----------------------------------------
            touched_ino = yield from self._apply(req, target)
        except FsError as exc:
            self.stats.errors += 1
            self._reply(req, ok=False, error=str(exc))
            return

        # -- popularity accounting & traffic control (§4.4) ----------------
        # The accounting itself never yields; only the rare replication
        # broadcast does, so the common case stays a plain call.
        if touched_ino is not None and authority == self.node_id:
            if self._note_access(touched_ino):
                t0 = self.env.now
                try:
                    yield from self._replicate_everywhere(touched_ino)
                except FsError:
                    pass  # the item vanished while we were broadcasting
                else:
                    if trace is not None:
                        trace.add("traffic.replicate", t0, self.env.now,
                                  node=self.node_id,
                                  detail=f"ino={touched_ino}")

        self._reply(req, ok=True, target_ino=touched_ino)

    def _locate(self, req: MdsRequest):
        """Resolve the request target and its authority.

        Returns ``(target_inode_or_None, authority, error_or_None)``.  For
        creations the target is the parent directory and the authority is
        where the new entry will live.
        """
        ns = self.cluster.ns
        strategy = self.cluster.strategy
        if req.op in (OpType.CREATE, OpType.MKDIR):
            parent = ns.try_resolve(pathmod.parent(req.path))
            if parent is None or not parent.is_dir:
                return None, self.node_id, "no such parent directory"
            return parent, strategy.authority_of_new(req.path, parent.ino), None
        if req.op is OpType.LINK:
            if req.dst_path is None:
                return None, self.node_id, "link without destination"
            parent = ns.try_resolve(pathmod.parent(req.dst_path))
            if parent is None or not parent.is_dir:
                return None, self.node_id, "no such link directory"
            return parent, strategy.authority_of_new(req.dst_path,
                                                     parent.ino), None
        target = ns.try_resolve(req.path)
        if target is None:
            if (req.op is OpType.CLOSE and req.ino is not None
                    and ns.is_orphan(req.ino)):
                # closing a file whose name was unlinked while open: the
                # orphaned inode is still addressable by its handle
                authority = self.cluster.orphan_authorities.get(
                    req.ino, self.node_id)
                return ns.inode(req.ino), authority, None
            return None, self.node_id, "no such entry"
        return target, strategy.authority_of_ino(target.ino), None

    def _forward(self, req: MdsRequest,
                 authority: int) -> Generator[Event, Any, None]:
        """Pass a misdirected request to its authority (§5.3.3)."""
        t0 = self.env.now
        hold = self.cpu.acquire(self.params.cpu_forward_s)
        if hold is not None:
            yield hold
        else:
            yield from self.cpu.use(self.params.cpu_forward_s)
        if req.trace is not None:
            req.trace.add("node.forward", t0, self.env.now,
                          node=self.node_id, detail=f"to={authority}")
        req.hops += 1
        self.stats.record_forward(self.env.now)
        if req.hops > self.params.max_forward_hops:
            # Pathological ping-pong (e.g. racing migrations): answer with an
            # error rather than looping forever.
            self._reply(req, ok=False, error="too many forwards")
            return
        if self.cluster._admission is not None:
            self.inflight -= 1  # handing off: the authority re-admits it
        self.cluster.deliver_later(authority, req)

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------
    def _ensure_cached(self, inode: Inode,
                       trace=None) -> Generator[Event, Any, None]:
        """Make sure ``inode`` is in the local cache, fetching if needed."""
        entry = self.cache.get(inode.ino)
        if entry is not None:
            self.stats.record_hit()
            if trace is not None:
                trace.bump("cache.hit")
            return
        yield from self._fetch_missing(inode, trace=trace)

    def _fetch_missing(self, inode: Inode,
                       trace=None) -> Generator[Event, Any, None]:
        """Cache-miss path of :meth:`_ensure_cached` (caller checked)."""
        self.stats.record_miss()
        if trace is not None:
            trace.bump("cache.miss")
        if self.cluster.ns.is_orphan(inode.ino):
            # orphans have no path to hash or traverse: the retaining
            # authority (normally us) reloads it directly
            yield from self._fetch_from_disk(inode, trace=trace)
            return
        authority = self.cluster.strategy.authority_of_ino(inode.ino)
        if authority == self.node_id:
            yield from self._fetch_from_disk(inode, trace=trace)
        else:
            yield from self._fetch_from_peer(inode, authority, trace=trace)

    def _fetch_from_disk(self, inode: Inode,
                         trace=None) -> Generator[Event, Any, None]:
        """Load locally-owned metadata from the shared object store."""
        ns = self.cluster.ns
        layout = self.cluster.strategy.layout
        t0 = self.env.now
        siblings = yield from layout.fetch(self.cluster.object_store, ns,
                                           inode)
        if trace is not None:
            trace.add("osd.read", t0, self.env.now, node=self.node_id,
                      detail=f"ino={inode.ino}")
        self._insert(inode, replica=False)
        if inode.ino not in self.cache:  # pragma: no cover - all-pinned edge
            return
        # hold the entry we actually came for: under pressure the sibling
        # prefetch below could otherwise evict it before it is ever used
        self.cache.pin(inode.ino)
        try:
            for sibling_ino in siblings:
                if sibling_ino in self.cache or sibling_ino not in ns:
                    continue
                sibling = ns.inode(sibling_ino)
                # Only prefetch what this node is authoritative for — under
                # directory hashing the whole directory is; under subtree
                # partitioning nested delegations may carve children out.
                if self.cluster.strategy.authority_of_ino(sibling_ino) \
                        != self.node_id:
                    continue
                self._insert(sibling, replica=False,
                             prefetched=self.params.prefetch_cold_insert)
                self.stats.prefetches += 1
        finally:
            self._notify_evictions(self.cache.unpin(inode.ino))

    def _fetch_from_peer(self, inode: Inode, authority: int,
                         trace=None) -> Generator[Event, Any, None]:
        """Replicate metadata from its authority (prefix fetch, §4.2)."""
        t0 = self.env.now
        peer_missed = False
        yield self.env.timeout(self.params.net_hop_s)
        peer = self.cluster.nodes[authority]
        if inode.ino not in peer.cache:
            # the authority must load it before it can hand out a replica
            peer.stats.record_miss()
            peer_missed = True
            yield from peer._fetch_from_disk(inode)
        else:
            peer.cache.get(inode.ino)  # refresh recency at the authority
        yield self.env.timeout(self.params.net_hop_s)
        if trace is not None:
            # the peer's own disk miss (if any) is inside this span
            trace.add("peer.fetch", t0, self.env.now, node=self.node_id,
                      detail=f"from={authority}"
                             + (" peer-miss" if peer_missed else ""))
        self._insert(inode, replica=True)
        peer.replicas.register(inode.ino, self.node_id)
        self.stats.remote_fetches += 1

    def _insert(self, inode: Inode, *, replica: bool,
                prefetched: bool = False) -> None:
        """Cache an inode, keeping the hierarchical pin structure.

        The parent link is only recorded when the parent is itself cached —
        and never for strategies without path traversal (Lazy Hybrid), whose
        local store is hash-keyed and flat: a file record there neither
        needs nor pins its ancestors.
        """
        if inode.ino in self.cache:
            return
        parent: Optional[int] = None
        if (self.cluster.strategy.needs_path_traversal
                and inode.ino != ROOT_INO
                and inode.parent_ino in self.cache):
            parent = inode.parent_ino
        evicted = self.cache.insert(inode.ino, parent, inode.is_dir,
                                    replica=replica, prefetched=prefetched)
        self._notify_evictions(evicted)

    def _notify_evictions(self, evicted) -> None:
        """Tell authorities we dropped their replicas (free, piggybacked)."""
        for entry in evicted:
            if entry.replica:
                authority = self.cluster.strategy.authority_of_ino(entry.ino) \
                    if entry.ino in self.cluster.ns else None
                if authority is not None and authority != self.node_id:
                    self.cluster.nodes[authority].replicas.unregister(
                        entry.ino, self.node_id)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _apply(self, req: MdsRequest,
               target: Optional[Inode]) -> Generator[Event, Any, Optional[int]]:
        """Execute the operation against ground truth; returns touched ino."""
        ns = self.cluster.ns
        now = self.env.now
        op = req.op
        trace = req.trace

        if op is OpType.READDIR:
            assert target is not None
            fragmented = getattr(self.cluster.strategy, "fragmented", ())
            if target.ino in fragmented:
                # a fragmented directory's entries are scattered by name
                # hash; readdir is the one op that must gather from every
                # node (§4.3) — one parallel round trip
                t0 = self.env.now
                yield self.env.timeout(2 * self.params.net_hop_s)
                if trace is not None:
                    trace.add("net.gather", t0, self.env.now,
                              node=self.node_id, detail="fragmented-readdir")
            return target.ino

        if op is OpType.OPEN:
            assert target is not None
            if target.is_file:
                self._register_open(target.ino)
            return target.ino

        if op is OpType.CLOSE:
            assert target is not None
            self._register_close(target.ino)
            return target.ino

        if op is OpType.STAT:
            assert target is not None
            return target.ino

        if op in (OpType.CREATE, OpType.MKDIR):
            assert target is not None  # the parent directory
            if op is OpType.CREATE:
                inode = ns.create_file(req.path, mode=req.mode or 0,
                                       owner=req.uid, size=req.size or 0,
                                       mtime=now)
            else:
                inode = ns.mkdir(req.path, mode=req.mode or 0, owner=req.uid,
                                 mtime=now)
            self._insert(inode, replica=False)
            yield from self._journal_update(inode.ino, trace=trace)
            yield from self._invalidate_replicas(target.ino,
                                                 trace=trace)  # dir changed
            return inode.ino

        if op is OpType.LINK:
            assert target is not None and req.dst_path is not None
            inode = ns.link(req.path, req.dst_path, mtime=now)
            yield from self._journal_update(inode.ino, trace=trace)
            yield from self._invalidate_replicas(target.ino, trace=trace)
            return inode.ino

        if op is OpType.UNLINK:
            assert target is not None
            yield from self._invalidate_replicas(target.ino, trace=trace)
            still_open = (target.is_file and target.nlink == 1
                          and self._open_refs.get(target.ino, 0) > 0)
            ns.unlink(req.path, mtime=now, retain_inode=still_open)
            if still_open:
                # deleted while open: the record stays addressable (and
                # pinned in our cache) until the last close (§4.5)
                self.cluster.orphan_authorities[target.ino] = self.node_id
            else:
                entry = self.cache.get(target.ino, touch=False)
                if entry is not None and not entry.pinned:
                    self.cache.remove(target.ino)
            yield from self._journal_update(target.parent_ino, trace=trace)
            return None

        if op is OpType.RENAME:
            assert target is not None and req.dst_path is not None
            dst_parent = ns.try_resolve(pathmod.parent(req.dst_path))
            if dst_parent is None or not dst_parent.is_dir:
                raise FsError("no such destination directory")
            dst_authority = self.cluster.strategy.authority_of_ino(
                dst_parent.ino)
            yield from self._invalidate_replicas(target.ino, trace=trace)
            old_path = req.path
            ns.rename(req.path, req.dst_path, mtime=now)
            deferred = self.cluster.strategy.on_rename(target.ino, old_path,
                                                       req.dst_path)
            self.cluster.on_deferred_work(deferred)
            if dst_authority != self.node_id:
                # renames frequently involve two directories (§4.3)
                t0 = self.env.now
                yield self.env.timeout(2 * self.params.net_hop_s)
                if trace is not None:
                    trace.add("net.gather", t0, self.env.now,
                              node=self.node_id, detail="cross-dir-rename")
            yield from self._journal_update(target.ino, trace=trace)
            return target.ino

        if op is OpType.CHMOD:
            assert target is not None
            yield from self._invalidate_replicas(target.ino, trace=trace)
            ns.chmod(req.path, req.mode or 0o755, mtime=now)
            deferred = self.cluster.strategy.on_chmod(target.ino)
            self.cluster.on_deferred_work(deferred)
            yield from self._journal_update(target.ino, trace=trace)
            return target.ino

        if op is OpType.SETATTR:
            assert target is not None
            ns.setattr(req.path, size=req.size, mtime=now)
            yield from self._journal_update(target.ino, trace=trace)
            return target.ino

        raise FsError(f"unsupported operation {op}")  # pragma: no cover

    # ------------------------------------------------------------------
    # open-file handles (§4.5)
    # ------------------------------------------------------------------
    def _register_open(self, ino: int) -> None:
        """Expose an inode to a client; pin it while any handle is live."""
        count = self._open_refs.get(ino, 0)
        self._open_refs[ino] = count + 1
        if count == 0 and ino in self.cache:
            self.cache.pin(ino)
            self._open_pinned.add(ino)

    def _register_close(self, ino: int) -> None:
        """Release one handle; drop orphans on the last close.

        A close the table does not know about (handle opened before a
        migration or failover) is accepted as a no-op — the pin it would
        release lives wherever the open was registered.
        """
        count = self._open_refs.get(ino)
        if count is None:
            return
        if count > 1:
            self._open_refs[ino] = count - 1
            return
        del self._open_refs[ino]
        if ino in self._open_pinned:
            self._open_pinned.discard(ino)
            if ino in self.cache:
                self._notify_evictions(self.cache.unpin(ino))
        ns = self.cluster.ns
        if ns.is_orphan(ino):
            entry = self.cache.get(ino, touch=False)
            if entry is not None and not entry.pinned:
                self.cache.remove(ino)
            ns.release_orphan(ino)
            self.cluster.orphan_authorities.pop(ino, None)

    @property
    def open_file_count(self) -> int:
        """Distinct inodes with at least one live handle here."""
        return len(self._open_refs)

    def _journal_update(self, ino: int,
                        trace=None) -> Generator[Event, Any, None]:
        """Commit an update to the journal; queue retired entries for tier 2."""
        t0 = self.env.now
        retired = yield from self.journal.append(ino)
        if trace is not None:
            trace.add("journal.append", t0, self.env.now, node=self.node_id)
        self.stats.journal_appends += 1
        self._writeback_buffer.extend(retired)

    def _writeback_flusher(self) -> Generator[Event, Any, None]:
        """Background tier-2 writeback of retired journal entries.

        Retirements accumulate over a flush window and go through the
        layout's batch path, so inodes retiring from the same directory
        cost one object rewrite under directory-grain storage (§4.6).
        """
        ns = self.cluster.ns
        store = self.cluster.object_store
        while True:
            yield self.env.timeout(self.params.writeback_flush_s)
            if not self._writeback_buffer:
                continue
            batch, self._writeback_buffer = self._writeback_buffer, []
            # coalesce repeat retirements of the same inode within a flush
            # window (§4.6): one tier-2 write covers them all.  Insertion
            # order is kept so the layout sees a deterministic batch.
            batch = list(dict.fromkeys(batch))
            live = [ns.inode(ino) for ino in batch if ino in ns]
            if not live:
                continue
            layout = self.cluster.strategy.layout
            transactions = yield from layout.writeback_batch(store, ns, live)
            self.stats.tier2_writes += transactions

    def _invalidate_replicas(self, ino: int,
                             trace=None) -> Generator[Event, Any, None]:
        """Coherence callback: drop peer replicas before mutating (§4.2)."""
        holders = self.replicas.drop_ino(ino)
        if not holders:
            return
        t0 = self.env.now
        yield self.env.timeout(self.params.net_hop_s)
        if trace is not None:
            trace.add("coherence.invalidate", t0, self.env.now,
                      node=self.node_id, detail=f"holders={len(holders)}")
        for holder in holders:
            peer = self.cluster.nodes[holder]
            entry = peer.cache.get(ino, touch=False)
            # pinned replicas (open handles, cached children) stay put; the
            # peer refreshes from ground truth on next use
            if entry is not None and entry.replica and not entry.pinned:
                peer.cache.remove(ino)
        self.stats.invalidations_sent += len(holders)
        if ino in self.cluster.hot_inos:
            self.cluster.hot_inos.discard(ino)
            if self.cluster._dist_memo is not None:
                self.cluster._dist_memo.invalidate_ino(ino)
        self._replication_cooldown[ino] = (
            self.env.now + 4 * self.params.popularity_halflife_s)

    # ------------------------------------------------------------------
    # popularity / traffic control (§4.4)
    # ------------------------------------------------------------------
    def _note_access(self, ino: int) -> bool:
        """Popularity bookkeeping; True when the item crossed the
        replication threshold (caller runs the broadcast)."""
        ns = self.cluster.ns
        now = self.env.now
        value = self.popularity.add(ino, now)
        # hierarchical accounting for the load balancer: each ancestor
        # directory absorbs the access (a directory absorbs its own as
        # well).  The chain comes from the memoised ancestor walk and is
        # recorded in one batch — counters are independent, so the order
        # within the chain is irrelevant to the decayed values.
        if ino in ns:
            self.popularity.add_chain(ns.ancestor_inos(ino), now)
            if ns.inode(ino).is_dir:
                self.popularity.add(ino, now)
        return (self.cluster.traffic_control_active
                and value >= self.params.replicate_threshold
                and ino not in self.cluster.hot_inos
                and ino in ns
                and now >= self._replication_cooldown.get(ino, 0.0))

    def _replicate_everywhere(self, ino: int) -> Generator[Event, Any, None]:
        """Push replicas of a suddenly popular item to every node (§4.4)."""
        ns = self.cluster.ns
        inode = ns.inode(ino)
        chain = ns.ancestors(ino) + [inode]
        yield self.env.timeout(self.params.net_hop_s)  # parallel broadcast
        for peer in self.cluster.nodes:
            if peer.node_id == self.node_id or peer.failed:
                continue
            for link in chain:
                if link.ino in peer.cache:
                    continue
                peer._insert(link, replica=True)
                if (self.cluster.strategy.authority_of_ino(link.ino)
                        == self.node_id):
                    self.replicas.register(link.ino, peer.node_id)
        self.cluster.hot_inos.add(ino)
        if self.cluster._dist_memo is not None:
            self.cluster._dist_memo.invalidate_ino(ino)
        self.stats.replications_pushed += 1

    # ------------------------------------------------------------------
    # replies
    # ------------------------------------------------------------------
    def _reply(self, req: MdsRequest, *, ok: bool,
               error: Optional[str] = None,
               target_ino: Optional[int] = None) -> None:
        now = self.env.now
        locations = EMPTY_LOCATIONS  # shared read-only map; no per-reply dict
        if ok and self.cluster.strategy.client_locate(req.path) is None:
            locations = self._distribution_info(req.path)
        reply = MdsReply(ok=ok, served_by=self.node_id, op=req.op,
                         path=req.path, error=error, locations=locations,
                         target_ino=target_ino, forwarded=req.hops,
                         latency_s=now - req.submitted_at)
        self.stats.record_served(now)
        if not ok:
            self.stats.errors += 1
        self.cluster.reply_later(req, reply)

    def _distribution_info(self, path) -> dict:
        """Location hints for the path and its prefixes (§4.4).

        One incremental walk down the dentry tree covers every prefix —
        resolution is hierarchical, so the first unresolvable component
        ends the hints (deeper prefixes cannot resolve either).

        The result depends only on global state — namespace structure,
        partition state, hot set — so with the fast lane on it is memoised
        cluster-wide per path (:class:`~repro.mds.distmemo.DistributionMemo`).
        Invalidation is precise: entries are indexed by the inodes on
        their walk; structural mutations and hot-set toggles drop exactly
        the walks through the mutated ino, and only a partition-state
        change (``_auth_gen``) clears the memo wholesale.  Dentry
        *additions* never invalidate: a new entry can only extend a walk
        that ended early, so a **complete** entry (every component
        resolved) stays valid across creates, while a truncated one is
        revalidated against ``dentry_add_epoch``.  Replies share the
        memoised mapping; clients only read it (like ``EMPTY_LOCATIONS``).
        """
        cluster = self.cluster
        memo = cluster._dist_memo
        if memo is not None:
            ns = cluster.ns
            auth_gen = cluster.strategy._auth_gen
            if auth_gen != cluster._dist_auth_gen:
                memo.clear()
                cluster._dist_auth_gen = auth_gen
            entry = memo.entries.get(path)
            if entry is not None:
                if entry[0] or entry[1] == ns.dentry_add_epoch:
                    memo.hits += 1
                    return entry[2]
            memo.misses += 1
            info, walk_inos = self._compute_distribution_walk(path)
            # root entry + one per component <=> the whole path resolved
            memo.store(path, len(info) == len(path) + 1,
                       ns.dentry_add_epoch, info, walk_inos)
            return info
        return self._compute_distribution_walk(path)[0]

    def _compute_distribution_walk(self, path) -> "tuple[dict, tuple]":
        """Walk the dentry tree once: ``(prefix -> authority hints,
        inos of the resolved components)``.  The ino tuple is what the
        memo indexes invalidation by."""
        ns = self.cluster.ns
        strategy = self.cluster.strategy
        hot = self.cluster.hot_inos
        info: dict = {(): ANY_NODE}  # the root is cached on every node
        walk: list = []
        node = ns.root
        depth = 0
        for name in path:
            if not node.is_dir:
                break
            child_ino = node.children.get(name)  # type: ignore[union-attr]
            if child_ino is None:
                break
            node = ns.inode(child_ino)
            depth += 1
            prefix = path[:depth]
            walk.append(child_ino)
            if child_ino in hot:
                info[prefix] = ANY_NODE
            else:
                info[prefix] = strategy.authority_of_ino(child_ino)
        return info, tuple(walk)

"""An adaptive proxy tier that absorbs metadata hotspots (MIDAS-style).

The paper's own answer to flash crowds is server-side: traffic control
(§4.4) replicates suddenly-popular metadata across the MDS cluster.  The
MIDAS line of work puts an *adaptive middleware tier in front of* the
cluster instead: proxies detect hot items from the request stream, serve
repeated hot reads from a short-TTL reply cache, and coalesce concurrent
identical reads into one upstream fetch — the authority sees one request
per TTL window instead of one per client.

Model
-----
Each :class:`ProxyNode` is a single-CPU station (service time
``ProxySpec.cpu_op_s``, far cheaper than an MDS op) fed by *key
affinity*: requests are routed by a stable hash of their path, so every
hot key is owned by exactly one proxy — its cache entry is filled once
per TTL window instead of once per proxy, and a mutation's invalidation
lands where the cached copy lives.  Every request pays one extra network hop into the proxy and one
out of it; misses additionally pay the full MDS round trip, so the proxy
is only a win when it actually absorbs work — the overload figures measure
exactly that trade against §4.4 traffic control.

Hotness reuses the popularity machinery (:class:`~repro.mds.popularity.
PopularityMap` keyed by ``(op, path)``): a decayed access counter above
``hot_threshold`` marks an item hot.  Every successful upstream *read*
reply is remembered in the reply cache, hot or not; hotness only decides
whether a read consults that cache (TTL-bounded staleness) or joins an
in-flight fetch.  Mutations always go upstream and invalidate the touched
paths, so a client can never read its own write stale.  Since only reads
are remembered, invalidation pops the ``(read op, path)`` keys directly
instead of scanning the cache.

The tier exposes the cluster's client-facing surface (``submit``,
``strategy``, ``n_mds``, ``params``, ``tracer``), so closed- and open-loop
clients work unchanged whether they talk to the cluster or the tier.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..mds.messages import (MdsReply, MdsRequest, OVERLOAD_ERROR,
                             READ_ONLY_OPS)
from ..mds.popularity import PopularityMap
from ..sim import Environment, Event, Resource


@dataclass(frozen=True)
class ProxySpec:
    """Knobs for the proxy tier."""

    n_proxies: int = 2
    #: CPU to proxy one request (cache probe / relay) — metadata ops are
    #: ~6x more expensive at the MDS, which is what makes absorption pay
    cpu_op_s: float = 0.00005
    #: how long an absorbed reply may be served before going upstream again
    cache_ttl_s: float = 0.5
    #: decayed popularity at which an item counts as hot
    hot_threshold: float = 30.0
    popularity_halflife_s: float = 0.5
    #: merge concurrent identical hot reads into one upstream request
    coalesce: bool = True
    #: reply-cache entries per proxy (oldest-first eviction)
    max_cached_paths: int = 4096
    #: times the designated hot-fetch is re-submitted when admission
    #: control sheds it (the fetch carries every coalesced waiter, so
    #: giving up on the first overload reply would fail them all —
    #: exactly when absorption matters most)
    overload_retries: int = 6
    #: initial retry backoff; doubles per attempt, alternating MDS nodes
    retry_backoff_s: float = 0.0005

    def validate(self) -> "ProxySpec":
        if self.n_proxies < 1:
            raise ValueError("n_proxies must be >= 1")
        if self.cpu_op_s < 0:
            raise ValueError("cpu_op_s must be non-negative")
        if self.cache_ttl_s <= 0:
            raise ValueError("cache_ttl_s must be positive")
        if self.hot_threshold <= 0:
            raise ValueError("hot_threshold must be positive")
        if self.popularity_halflife_s <= 0:
            raise ValueError("popularity_halflife_s must be positive")
        if self.max_cached_paths < 1:
            raise ValueError("max_cached_paths must be >= 1")
        if self.overload_retries < 0:
            raise ValueError("overload_retries must be non-negative")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be non-negative")
        return self


@dataclass
class ProxyStats:
    """Counters for one proxy node."""

    requests: int = 0       # everything routed through this proxy
    absorbed: int = 0       # hot reads served from the reply cache
    coalesced: int = 0      # hot reads merged into an in-flight upstream
    forwarded: int = 0      # requests that went to the MDS cluster
    invalidations: int = 0  # cache entries dropped by mutations
    retries: int = 0        # hot fetches re-submitted after overload drops

    def merge(self, other: "ProxyStats") -> None:
        self.requests += other.requests
        self.absorbed += other.absorbed
        self.coalesced += other.coalesced
        self.forwarded += other.forwarded
        self.invalidations += other.invalidations
        self.retries += other.retries


#: reply-cache / coalescing key: the same path means different things to
#: different ops (an OPEN reply is not a READDIR reply)
_Key = Tuple[Any, Any]


class ProxyNode:
    """One proxy: a cheap single-CPU station with a hot-reply cache."""

    def __init__(self, env: Environment, proxy_id: int, tier: "ProxyTier",
                 spec: ProxySpec) -> None:
        self.env = env
        self.proxy_id = proxy_id
        self.tier = tier
        self.spec = spec
        self.cpu = Resource(env, capacity=1)
        self.popularity = PopularityMap(spec.popularity_halflife_s)
        self.stats = ProxyStats()
        #: key -> (reply, cached_at); insertion-ordered for FIFO eviction
        self._cache: Dict[_Key, Tuple[MdsReply, float]] = {}
        #: key -> waiters piggybacking on an in-flight upstream request
        self._inflight: Dict[_Key, List[Tuple[Event, MdsRequest, float]]] = {}

    # ------------------------------------------------------------------
    def serve(self, request: MdsRequest, dest: int,
              done: Event) -> Generator[Event, Any, None]:
        env = self.env
        spec = self.spec
        submitted = request.submitted_at
        yield env.timeout(self.tier.net_hop_s)  # client -> proxy hop
        read = not request.is_mutation
        key: _Key = (request.op, request.path)
        if read:
            hot = (self.popularity.add(key, env.now)
                   >= spec.hot_threshold)
            if hot:
                cached = self._cache.get(key)
                if cached is not None:
                    reply, at = cached
                    # stale-while-revalidate: while a refresher is already
                    # in flight, keep serving the stale entry — stalling
                    # the whole burst behind one upstream fetch is the
                    # worse trade for TTL-bounded metadata reads
                    if (env.now - at <= spec.cache_ttl_s
                            or (spec.coalesce and key in self._inflight)):
                        yield from self._cpu(spec.cpu_op_s)
                        self.stats.absorbed += 1
                        # served here: zero MDS hops this time around
                        self._finish(done, reply, submitted, forwarded=0)
                        return
                    # stale with no refresher in flight: fall through and
                    # refresh; the entry stays cached so arrivals during
                    # the refresh are served stale, and it remains a
                    # fallback if admission control sheds the refresh
                if spec.coalesce:
                    waiters = self._inflight.get(key)
                    if waiters is not None:
                        self.stats.coalesced += 1
                        waiters.append((done, request, submitted))
                        return
                    self._inflight[key] = []

        yield from self._cpu(spec.cpu_op_s)
        self.stats.forwarded += 1
        reply = yield self.tier.cluster.submit(dest, request)
        request.done = None
        if read and key in self._inflight:
            # the designated hot fetch carries every coalesced waiter, so
            # an admission-control shed would fail the whole burst exactly
            # when absorption matters most: back off and retry, rotating
            # across MDS nodes to dodge the overloaded inbox
            attempt = 0
            while (not reply.ok and reply.error == OVERLOAD_ERROR
                   and attempt < spec.overload_retries):
                # don't hold coalesced waiters through the whole backoff
                # chain: flush them with the shed reply now (a cheap,
                # explicit drop) and let only the fetch itself keep
                # retrying — new arrivals coalesce onto the next attempt
                waiters = self._inflight.get(key)
                if waiters:
                    for wdone, _wreq, wsub in waiters:
                        self._finish(wdone, reply, wsub,
                                     forwarded=reply.forwarded)
                    waiters.clear()
                yield env.timeout(spec.retry_backoff_s * (1 << attempt))
                attempt += 1
                self.stats.retries += 1
                self.stats.forwarded += 1
                retry_dest = (dest + attempt) % self.tier.cluster.n_mds
                reply = yield self.tier.cluster.submit(retry_dest, request)
                request.done = None
        if read:
            if reply.ok:
                self._remember(key, reply)
            elif reply.error == OVERLOAD_ERROR:
                cached = self._cache.get(key)
                if cached is not None:
                    # refresh shed even after retries: a stale hot reply
                    # beats failing everyone who piggybacked on the fetch
                    self.stats.absorbed += 1
                    reply = cached[0]
            waiters = self._inflight.pop(key, None)
            if waiters:
                for wdone, _wreq, wsub in waiters:
                    self._finish(wdone, reply, wsub,
                                 forwarded=reply.forwarded)
        else:
            self.tier.invalidate(request)
        self._finish(done, reply, submitted, forwarded=reply.forwarded)

    # ------------------------------------------------------------------
    def _cpu(self, hold_s: float) -> Generator[Event, Any, None]:
        hold = self.cpu.acquire(hold_s)
        if hold is not None:  # uncontended fast lane: one event
            yield hold
        else:
            yield from self.cpu.use(hold_s)

    def _finish(self, done: Event, reply: MdsReply, submitted_at: float,
                *, forwarded: int) -> None:
        """Deliver ``reply`` to the client after the proxy->client hop."""
        env = self.env
        final = MdsReply(reply.ok, reply.served_by, reply.op, reply.path,
                         error=reply.error, target_ino=reply.target_ino,
                         locations=reply.locations, forwarded=forwarded,
                         latency_s=env.now - submitted_at)
        env.succeed_later(done, final, self.tier.net_hop_s)

    def _remember(self, key: _Key, reply: MdsReply) -> None:
        cache = self._cache
        if key in cache:
            del cache[key]  # refresh insertion order
        elif len(cache) >= self.spec.max_cached_paths:
            del cache[next(iter(cache))]
        cache[key] = (reply, self.env.now)

    def _invalidate(self, request: MdsRequest) -> None:
        """A mutation went upstream: drop every cached reply it staled.

        Only reads are remembered, so the stale keys are exactly the
        ``(read op, path)`` pairs: pop those instead of scanning the cache.
        """
        cache = self._cache
        stats = self.stats
        for path in (request.path, request.dst_path):
            if path is None:
                continue
            for op in READ_ONLY_OPS:
                if cache.pop((op, path), None) is not None:
                    stats.invalidations += 1


class ProxyTier:
    """The client-facing front: routes every request through a proxy."""

    def __init__(self, env: Environment, cluster, spec: ProxySpec) -> None:
        spec.validate()
        self.env = env
        self.cluster = cluster
        self.spec = spec
        self.net_hop_s = cluster.params.net_hop_s
        self.nodes: List[ProxyNode] = [
            ProxyNode(env, i, self, spec) for i in range(spec.n_proxies)]

    # -- the cluster surface clients actually use ----------------------
    @property
    def strategy(self):
        return self.cluster.strategy

    @property
    def n_mds(self) -> int:
        return self.cluster.n_mds

    @property
    def params(self):
        return self.cluster.params

    @property
    def tracer(self):
        return self.cluster.tracer

    def submit(self, dest: int, request: MdsRequest) -> Event:
        """Route ``request`` through the proxy owning its path; returns
        the completion event the client waits on (the proxy keeps its own
        upstream event, so the MDS round trip stays invisible)."""
        done = self.env.event()
        request.submitted_at = self.env.now
        node = self.nodes[self._route(request.path)]
        node.stats.requests += 1
        self.env.process(node.serve(request, dest, done))
        return done

    def _route(self, path) -> int:
        """Key-affinity routing: a stable hash of the path (``zlib.crc32``
        — Python's ``hash()`` is salted per process, which would make
        fixed-seed runs irreproducible)."""
        return zlib.crc32(str(path).encode()) % len(self.nodes)

    def invalidate(self, request: MdsRequest) -> None:
        """Drop every cached reply ``request`` staled, on every proxy
        (a rename's destination path may be owned by a different proxy
        than the one the mutation was routed to)."""
        for node in self.nodes:
            node._invalidate(request)

    # -- measurement ----------------------------------------------------
    def stats_dict(self) -> Dict[str, int]:
        """Aggregated counters over all proxies (summary-friendly)."""
        total = ProxyStats()
        for node in self.nodes:
            total.merge(node.stats)
        return {"requests": total.requests, "absorbed": total.absorbed,
                "coalesced": total.coalesced, "forwarded": total.forwarded,
                "invalidations": total.invalidations,
                "retries": total.retries}

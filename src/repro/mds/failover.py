"""MDS failure, takeover, and journal-warmed recovery (§2.1.2, §4.6).

The architecture "can be augmented with a failover mechanism such that a
failed node's workload is redistributed among other servers or assumed by
a standby", and because the per-MDS journals live on the *shared* OSD pool,
"shared access facilitates takeover in the case of a node failure": the
bounded log approximates the failed node's working set, so a successor can
preload its cache with the logged inodes instead of faulting them in one
miss at a time.

Implemented here:

* :func:`fail_node` — mark a node dead, redistribute its subtree
  delegations over the survivors (or a designated standby), drop its
  volatile state; requests already addressed to it are bounced to live
  nodes (modelling client retry).
* :func:`warm_from_journal` — stream another node's surviving journal and
  preload a cache with the logged working set (one cheap sequential log
  read per entry batch instead of a random read per inode).
* :func:`recover_node` — bring a node back, optionally warming its cache
  from its own journal; the load balancer re-populates it over time.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, TYPE_CHECKING

from ..cache import MetadataCache
from ..namespace import ROOT_INO
from ..partition import DynamicSubtreePartition
from ..sim import Event
from .popularity import PopularityMap

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import MdsCluster
    from .node import MdsNode

#: journal entries preloaded per sequential log-read transaction
WARM_BATCH = 64


def fail_node(cluster: "MdsCluster", node_id: int,
              standby: Optional[int] = None) -> List[int]:
    """Kill ``node_id``; returns the subtree roots that were reassigned.

    With ``standby`` given, the whole workload is assumed by that node;
    otherwise delegations are spread round-robin over the survivors.
    Volatile state (cache, popularity, replica registry) is lost; the
    journal survives on shared storage.
    """
    strategy = cluster.strategy
    if not isinstance(strategy, DynamicSubtreePartition):
        raise TypeError("failover requires a dynamic subtree partition")
    node = cluster.nodes[node_id]
    if node.failed:
        raise RuntimeError(f"node {node_id} is already failed")
    survivors = [n.node_id for n in cluster.nodes
                 if not n.failed and n.node_id != node_id]
    if not survivors:
        raise RuntimeError("cannot fail the last live node")
    if standby is not None and standby not in survivors:
        raise ValueError(f"standby {standby} is not a live peer")

    node.failed = True

    # reassign authority for everything the dead node owned
    reassigned: List[int] = []
    owned = sorted(strategy.subtrees_of(node_id))
    for i, subtree_ino in enumerate(owned):
        target = standby if standby is not None \
            else survivors[i % len(survivors)]
        if subtree_ino == ROOT_INO:
            # direct table write (delegate() would coalesce away nested
            # delegations) — must drop memoised authorities by hand
            strategy.delegations[ROOT_INO] = target
            strategy._authority_changed()
        else:
            strategy.delegate(subtree_ino, target)
        reassigned.append(subtree_ino)

    # volatile state is gone
    _drop_volatile_state(node)

    # requests sitting in the dead inbox bounce to live nodes (retry)
    while len(node.inbox):
        pending = node.inbox._items.popleft()
        pending.hops += 1
        if cluster._admission is not None:
            node.inflight -= 1  # leaving the dead node's books
        cluster.deliver_later(cluster.pick_live_node(), pending)
    return reassigned


def _drop_volatile_state(node: "MdsNode") -> None:
    # unpin the root so the cache can drain completely, then rebuild empty
    node.cache = MetadataCache(node.params.cache_capacity)
    node.replicas.drop_all()
    node.popularity = PopularityMap(node.params.popularity_halflife_s)
    # open handles die with the node; orphans it retained are reclaimed
    # (the crash-recovery cleanup a real MDS would run from its journal)
    ns = node.cluster.ns
    for ino in list(node.cluster.orphan_authorities):
        if node.cluster.orphan_authorities[ino] == node.node_id:
            if ns.is_orphan(ino):
                ns.release_orphan(ino)
            del node.cluster.orphan_authorities[ino]
    node._open_refs.clear()
    node._open_pinned.clear()


def warm_from_journal(cluster: "MdsCluster", source_node_id: int,
                      target_node_id: int) -> Generator[Event, Any, int]:
    """Preload ``target``'s cache from ``source``'s surviving journal.

    A sub-process: charges one sequential journal-read transaction per
    :data:`WARM_BATCH` entries, then inserts each still-live inode (with
    its ancestors) into the target cache.  Returns inodes preloaded.
    """
    source = cluster.nodes[source_node_id]
    target = cluster.nodes[target_node_id]
    ns = cluster.ns
    inos = source.journal.warm_inos()
    loaded = 0
    for start in range(0, len(inos), WARM_BATCH):
        batch = inos[start:start + WARM_BATCH]
        yield from source.journal.device.read(1)  # one sequential log read
        for ino in batch:
            if ino not in ns:
                continue  # deleted since it was logged
            inode = ns.inode(ino)
            is_auth = cluster.strategy.authority_of_ino(ino) \
                == target_node_id
            for ancestor in ns.ancestors(ino):
                anc_auth = cluster.strategy.authority_of_ino(ancestor.ino) \
                    == target_node_id
                target._insert(ancestor, replica=not anc_auth)
            target._insert(inode, replica=not is_auth)
            loaded += 1
    return loaded


def recover_node(cluster: "MdsCluster", node_id: int,
                 warm: bool = True) -> Generator[Event, Any, int]:
    """Bring a failed node back online.

    The node rejoins with an empty (or journal-warmed) cache and no
    delegations; the load balancer migrates work back to it over time.
    Returns the number of inodes preloaded.
    """
    node = cluster.nodes[node_id]
    if not node.failed:
        raise RuntimeError(f"node {node_id} is not failed")
    node.failed = False
    node._bootstrap_root()
    loaded = 0
    if warm:
        loaded = yield from warm_from_journal(cluster, node_id, node_id)
    return loaded

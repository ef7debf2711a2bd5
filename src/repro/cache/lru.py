"""MDS metadata cache: LRU with the hierarchical tree constraint (§4.1).

Each MDS caches a *connected* subset of the hierarchy: an inode may only be
cached while its parent directory is cached, and a directory may not be
evicted while any child is cached ("only leaf items may be expired").  The
constraint is enforced with per-entry pin counts: caching a child pins its
parent; eviction considers only unpinned entries.

Two paper-specific behaviours:

* **Mid-LRU insertion of prefetched inodes** (§4.5): entries brought in by a
  directory prefetch are placed at the cold end of the eviction order so
  speculative data cannot displace known-useful data.
* **Category accounting** (§5.3.1 / Fig. 3): the cache can report how many
  slots are devoted to prefix (ancestor) directory inodes, and how many hold
  replicas of metadata another MDS is authoritative for.

The eviction order is an *intrusive* doubly-linked list threaded through the
entries themselves (``lru_prev``/``lru_next``): touch, cold-end insertion
and mid-list unlink are pointer swaps with no dict churn, which matters
because every single request serves several cache touches.  List order is
identical to the previous ``OrderedDict`` implementation: head = coldest
(evicted first), tail = hottest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass(slots=True)
class CacheEntry:
    """One cached inode; doubles as its own LRU-list link."""

    ino: int
    parent_ino: Optional[int]  # None only for the root
    is_dir: bool
    replica: bool = False      # cached copy of another MDS's metadata
    pin_count: int = 0         # cached children pinning this entry
    external_pins: int = 0     # delegation anchors, in-flight operations
    dirty: bool = False
    #: intrusive eviction-order links; ``None``-``None`` while pinned
    #: (pinned entries leave the eviction list entirely)
    lru_prev: Optional["CacheEntry"] = field(
        default=None, repr=False, compare=False)
    lru_next: Optional["CacheEntry"] = field(
        default=None, repr=False, compare=False)
    in_lru: bool = field(default=False, repr=False, compare=False)

    @property
    def pinned(self) -> bool:
        return self.pin_count > 0 or self.external_pins > 0

    @property
    def is_prefix(self) -> bool:
        """A directory held (at least in part) to anchor cached descendants."""
        return self.is_dir and self.pinned


@dataclass
class CacheCounters:
    """Monotonic cache activity counters."""

    insertions: int = 0
    evictions: int = 0
    prefetch_insertions: int = 0


class MetadataCache:
    """Bounded inode cache with leaf-only eviction.

    ``capacity`` is in inode slots — metadata records are near-uniform in
    size, so slot-counting matches the paper's "cache size relative to total
    metadata size" axis directly.

    If every entry is pinned the cache temporarily overflows rather than
    deadlocking; pressure resolves as pins are released.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.counters = CacheCounters()
        self._entries: Dict[int, CacheEntry] = {}
        # Eviction order over *unpinned* entries, threaded through the
        # entries: sentinel head/tail, head side = coldest.
        self._head = CacheEntry(ino=-1, parent_ino=None, is_dir=False)
        self._tail = CacheEntry(ino=-2, parent_ino=None, is_dir=False)
        self._head.lru_next = self._tail
        self._tail.lru_prev = self._head

    # ------------------------------------------------------------------
    # intrusive-list primitives
    # ------------------------------------------------------------------
    def _lru_unlink(self, entry: CacheEntry) -> None:
        prev, nxt = entry.lru_prev, entry.lru_next
        prev.lru_next = nxt  # type: ignore[union-attr]
        nxt.lru_prev = prev  # type: ignore[union-attr]
        entry.lru_prev = entry.lru_next = None
        entry.in_lru = False

    def _lru_append_hot(self, entry: CacheEntry) -> None:
        tail = self._tail
        prev = tail.lru_prev
        entry.lru_prev = prev
        entry.lru_next = tail
        prev.lru_next = entry  # type: ignore[union-attr]
        tail.lru_prev = entry
        entry.in_lru = True

    def _lru_append_cold(self, entry: CacheEntry) -> None:
        head = self._head
        nxt = head.lru_next
        entry.lru_prev = head
        entry.lru_next = nxt
        head.lru_next = entry
        nxt.lru_prev = entry  # type: ignore[union-attr]
        entry.in_lru = True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, ino: int) -> bool:
        return ino in self._entries

    def get(self, ino: int, *, touch: bool = True) -> Optional[CacheEntry]:
        """Entry for ``ino``, refreshing its recency unless ``touch=False``."""
        entry = self._entries.get(ino)
        if entry is not None and touch and entry.in_lru:
            tail = self._tail
            if entry.lru_next is not tail:  # move to the hot end
                prev, nxt = entry.lru_prev, entry.lru_next
                prev.lru_next = nxt  # type: ignore[union-attr]
                nxt.lru_prev = prev  # type: ignore[union-attr]
                prev = tail.lru_prev
                entry.lru_prev = prev
                entry.lru_next = tail
                prev.lru_next = entry  # type: ignore[union-attr]
                tail.lru_prev = entry
        return entry

    def entries(self) -> Iterator[CacheEntry]:
        return iter(self._entries.values())

    @property
    def overflowed(self) -> bool:
        return len(self._entries) > self.capacity

    # -- accounting (Fig. 3) ------------------------------------------------
    def slot_census(self) -> Dict[str, int]:
        """Occupancy by category: local/replica × prefix/leaf."""
        census = {"local_prefix": 0, "local_other": 0,
                  "replica_prefix": 0, "replica_other": 0}
        for entry in self._entries.values():
            kind = "replica" if entry.replica else "local"
            part = "prefix" if entry.is_prefix else "other"
            census[f"{kind}_{part}"] += 1
        return census

    def prefix_fraction(self) -> float:
        """Fraction of occupied slots holding prefix (ancestor) inodes."""
        if not self._entries:
            return 0.0
        prefixes = sum(1 for e in self._entries.values() if e.is_prefix)
        return prefixes / len(self._entries)

    def replica_fraction(self) -> float:
        """Fraction of occupied slots holding replicated metadata."""
        if not self._entries:
            return 0.0
        replicas = sum(1 for e in self._entries.values() if e.replica)
        return replicas / len(self._entries)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, ino: int, parent_ino: Optional[int], is_dir: bool, *,
               replica: bool = False,
               prefetched: bool = False) -> List[CacheEntry]:
        """Cache ``ino``; returns the entries evicted to make room.

        The parent must already be cached (insert prefixes root-first); it
        gets pinned by this child.  Re-inserting an existing ino refreshes
        recency and downgrades ``replica`` status if the new insert is
        authoritative (an MDS can become the authority for metadata it
        already replicates, never the other way around implicitly).
        """
        entries = self._entries
        existing = entries.get(ino)
        if existing is not None:
            if not replica:
                existing.replica = False
            if existing.in_lru and not prefetched:
                self._make_evictable(existing, cold=False)  # to the hot end
            return []

        if parent_ino is not None:
            parent = entries.get(parent_ino)
            if parent is None:
                raise KeyError(
                    f"cannot cache ino {ino}: parent {parent_ino} not cached"
                    " (hierarchical constraint)")
            # the child pins its parent: a pinned entry leaves the list
            parent.pin_count += 1
            if parent.in_lru:
                prev, nxt = parent.lru_prev, parent.lru_next
                prev.lru_next = nxt  # type: ignore[union-attr]
                nxt.lru_prev = prev  # type: ignore[union-attr]
                parent.lru_prev = parent.lru_next = None
                parent.in_lru = False

        entry = CacheEntry(ino, parent_ino, is_dir, replica)
        entries[ino] = entry
        entry.in_lru = True
        counters = self.counters
        if prefetched:
            # Cold-end insertion: first in line for eviction (§4.5).
            head = self._head
            nxt = head.lru_next
            entry.lru_prev = head
            entry.lru_next = nxt
            head.lru_next = entry
            nxt.lru_prev = entry  # type: ignore[union-attr]
            counters.prefetch_insertions += 1
        else:
            tail = self._tail
            prev = tail.lru_prev
            entry.lru_prev = prev
            entry.lru_next = tail
            prev.lru_next = entry  # type: ignore[union-attr]
            tail.lru_prev = entry
        counters.insertions += 1

        if len(entries) > self.capacity:
            return self._shrink(exclude=ino)
        return []

    def pin(self, ino: int) -> None:
        """Add an external pin (delegation anchor / in-flight op)."""
        entry = self._entries[ino]
        entry.external_pins += 1
        if entry.in_lru:
            self._lru_unlink(entry)

    def unpin(self, ino: int) -> List[CacheEntry]:
        """Release an external pin.

        If the cache had overflowed while everything was pinned, releasing a
        pin resolves the pressure immediately; the evicted entries are
        returned so the caller can send any replica-drop notices.
        """
        entry = self._entries[ino]
        if entry.external_pins <= 0:
            raise RuntimeError(f"unpin without pin for ino {ino}")
        entry.external_pins -= 1
        if not entry.pinned:
            self._make_evictable(entry, cold=False)
        return self._shrink()

    def remove(self, ino: int) -> CacheEntry:
        """Forcibly drop an unpinned entry (migration / invalidation)."""
        entry = self._entries.get(ino)
        if entry is None:
            raise KeyError(f"ino {ino} not cached")
        if entry.pin_count > 0:
            raise RuntimeError(
                f"cannot remove ino {ino}: {entry.pin_count} cached children")
        if entry.external_pins > 0:
            raise RuntimeError(
                f"cannot remove ino {ino}: {entry.external_pins} external "
                "pins (open handles / delegation anchors)")
        del self._entries[ino]
        if entry.in_lru:
            self._lru_unlink(entry)
        self._unpin_parent(entry)
        return entry

    def collect_subtree(self, root_ino: int) -> List[CacheEntry]:
        """Cached entries at/under ``root_ino``, deepest first.

        Depth ordering means callers can remove them in sequence without
        violating the pin constraint.  Walks the *cached* parent pointers, so
        the result is exactly the cached fragment of the subtree.
        """
        if root_ino not in self._entries:
            return []
        members: List[tuple[int, CacheEntry]] = []
        for entry in self._entries.values():
            depth = 0
            node: Optional[CacheEntry] = entry
            found = entry.ino == root_ino
            while not found and node is not None and node.parent_ino is not None:
                node = self._entries.get(node.parent_ino)
                depth += 1
                if node is not None and node.ino == root_ino:
                    found = True
            if found:
                members.append((depth, entry))
        members.sort(key=lambda pair: -pair[0])
        return [entry for _depth, entry in members]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _unpin_parent(self, child: CacheEntry) -> None:
        if child.parent_ino is None:
            return
        parent = self._entries.get(child.parent_ino)
        if parent is None:
            return
        parent.pin_count -= 1
        if not parent.pinned:
            # A directory whose last cached child left is cold: put it at
            # the eviction end so chains drain bottom-up.
            self._make_evictable(parent, cold=True)

    def _make_evictable(self, entry: CacheEntry, *, cold: bool) -> None:
        if entry.in_lru:
            self._lru_unlink(entry)
        if cold:
            self._lru_append_cold(entry)
        else:
            self._lru_append_hot(entry)

    def _shrink(self, exclude: Optional[int] = None) -> List[CacheEntry]:
        """Evict until within capacity (or nothing evictable remains).

        Victims come off the cold end, skipping ``exclude``; a parent left
        with no cached children re-enters the list at the cold end, so
        chains drain bottom-up.
        """
        evicted: List[CacheEntry] = []
        entries = self._entries
        capacity = self.capacity
        head, tail = self._head, self._tail
        counters = self.counters
        while len(entries) > capacity:
            victim = head.lru_next
            while victim is not tail and victim.ino == exclude:  # type: ignore[union-attr]
                victim = victim.lru_next  # type: ignore[union-attr]
            if victim is tail:
                break  # everything pinned: tolerate overflow
            assert victim is not None
            del entries[victim.ino]
            prev, nxt = victim.lru_prev, victim.lru_next
            prev.lru_next = nxt  # type: ignore[union-attr]
            nxt.lru_prev = prev  # type: ignore[union-attr]
            victim.lru_prev = victim.lru_next = None
            victim.in_lru = False
            parent = entries.get(victim.parent_ino)  # type: ignore[arg-type]
            if parent is not None:
                parent.pin_count -= 1
                if parent.pin_count <= 0 and parent.external_pins <= 0:
                    # it was pinned, so it is off the list: re-enter cold
                    nxt = head.lru_next
                    parent.lru_prev = head
                    parent.lru_next = nxt
                    head.lru_next = parent
                    nxt.lru_prev = parent  # type: ignore[union-attr]
                    parent.in_lru = True
            counters.evictions += 1
            evicted.append(victim)
        return evicted

    # ------------------------------------------------------------------
    # invariants (for property-based tests)
    # ------------------------------------------------------------------
    def _lru_order(self) -> List[int]:
        """Eviction order, coldest first (tests/introspection only)."""
        order: List[int] = []
        node = self._head.lru_next
        while node is not self._tail:
            assert node is not None
            order.append(node.ino)
            node = node.lru_next
        return order

    def verify_invariants(self) -> None:
        """Raise ``AssertionError`` on internal inconsistency."""
        pin_counts: Dict[int, int] = {}
        for entry in self._entries.values():
            if entry.parent_ino is not None:
                assert entry.parent_ino in self._entries, (
                    f"ino {entry.ino}: parent {entry.parent_ino} not cached")
                pin_counts[entry.parent_ino] = (
                    pin_counts.get(entry.parent_ino, 0) + 1)
        for entry in self._entries.values():
            assert entry.pin_count == pin_counts.get(entry.ino, 0), (
                f"ino {entry.ino}: pin_count {entry.pin_count} != "
                f"{pin_counts.get(entry.ino, 0)} cached children")
            assert entry.in_lru == (not entry.pinned), (
                f"ino {entry.ino}: pinned={entry.pinned} but "
                f"in_lru={entry.in_lru}")
        # the intrusive list is consistent both ways and holds exactly the
        # unpinned entries
        forward: List[int] = []
        node = self._head.lru_next
        prev = self._head
        while node is not self._tail:
            assert node is not None and node.lru_prev is prev, (
                f"broken back-link at ino {node.ino if node else '?'}")
            assert node.in_lru, f"listed entry {node.ino} not flagged in_lru"
            assert node.ino in self._entries, (
                f"listed entry {node.ino} not cached")
            forward.append(node.ino)
            prev, node = node, node.lru_next
        assert self._tail.lru_prev is prev, "broken tail back-link"
        unpinned = {e.ino for e in self._entries.values() if not e.pinned}
        assert set(forward) == unpinned, (
            f"LRU list {set(forward)} != unpinned entries {unpinned}")
        assert len(forward) == len(unpinned), "duplicate entries in LRU list"

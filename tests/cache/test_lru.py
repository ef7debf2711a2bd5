"""Unit tests for the hierarchical LRU metadata cache."""

import pytest

from repro.cache import MetadataCache


def insert_chain(cache, *inos, is_dir=True, replica=False):
    """Insert a root-first chain of directories (last may be a file)."""
    parent = None
    for ino in inos:
        cache.insert(ino, parent, is_dir, replica=replica)
        parent = ino


def test_capacity_validation():
    with pytest.raises(ValueError):
        MetadataCache(0)


def test_insert_and_get():
    cache = MetadataCache(10)
    cache.insert(1, None, True)
    entry = cache.get(1)
    assert entry is not None and entry.ino == 1
    assert 1 in cache and len(cache) == 1


def test_insert_requires_cached_parent():
    cache = MetadataCache(10)
    with pytest.raises(KeyError):
        cache.insert(5, 4, False)


def test_child_pins_parent():
    cache = MetadataCache(10)
    insert_chain(cache, 1, 2)
    assert cache.get(1).pin_count == 1
    assert cache.get(2).pin_count == 0
    cache.verify_invariants()


def test_eviction_lru_order_among_leaves():
    cache = MetadataCache(3)
    cache.insert(1, None, True)
    cache.insert(2, 1, False)
    cache.insert(3, 1, False)
    # cache full: 1(pinned), 2, 3.  Insert 4 -> evicts 2 (coldest leaf).
    evicted = cache.insert(4, 1, False)
    assert [e.ino for e in evicted] == [2]
    assert 3 in cache and 4 in cache
    cache.verify_invariants()


def test_touch_refreshes_recency():
    cache = MetadataCache(3)
    cache.insert(1, None, True)
    cache.insert(2, 1, False)
    cache.insert(3, 1, False)
    cache.get(2)  # 2 becomes MRU; 3 is now coldest
    evicted = cache.insert(4, 1, False)
    assert [e.ino for e in evicted] == [3]


def test_pinned_directory_never_evicted():
    cache = MetadataCache(2)
    cache.insert(1, None, True)
    cache.insert(2, 1, False)
    # full; new leaf evicts the old leaf, not the pinned dir
    evicted = cache.insert(3, 1, False)
    assert [e.ino for e in evicted] == [2]
    assert 1 in cache
    cache.verify_invariants()


def test_overflow_tolerated_when_all_pinned():
    cache = MetadataCache(2)
    insert_chain(cache, 1, 2, 3)  # chain: 3 pins 2 pins 1; only 3 evictable
    evicted = cache.insert(4, 3, False)
    # victim candidates: only 4 itself is excluded, 3 became pinned by 4...
    # chain 1-2-3-4 with capacity 2: nothing but the new leaf is evictable,
    # and the new leaf is excluded, so the cache overflows.
    assert evicted == []
    assert cache.overflowed
    cache.verify_invariants()


def test_eviction_of_leaf_unpins_parent_chain():
    cache = MetadataCache(10)
    insert_chain(cache, 1, 2)
    cache.insert(3, 2, False)
    entry3 = cache.remove(3)
    assert entry3.ino == 3
    assert cache.get(2).pin_count == 0
    cache.verify_invariants()


def test_remove_pinned_dir_rejected():
    cache = MetadataCache(10)
    insert_chain(cache, 1, 2)
    with pytest.raises(RuntimeError):
        cache.remove(1)


def test_parent_becomes_cold_after_last_child_leaves():
    cache = MetadataCache(3)
    cache.insert(1, None, True)
    cache.insert(2, 1, True)
    cache.insert(3, 2, False)
    cache.remove(3)  # dir 2 now unpinned and cold
    cache.insert(4, 1, False)  # back at capacity (1, 2, 4)
    evicted = cache.insert(5, 1, False)
    # 2 was placed at the eviction end, so it goes before leaf 4
    assert [e.ino for e in evicted] == [2]
    cache.verify_invariants()


def test_external_pin_blocks_eviction():
    cache = MetadataCache(2)
    cache.insert(1, None, True)
    cache.insert(2, 1, False)
    cache.pin(2)
    evicted = cache.insert(3, 1, False)
    assert evicted == []  # nothing evictable: 1 pinned by children, 2 pinned
    assert cache.overflowed
    cache.unpin(2)
    cache.verify_invariants()


def test_unpin_without_pin_raises():
    cache = MetadataCache(2)
    cache.insert(1, None, True)
    with pytest.raises(RuntimeError):
        cache.unpin(1)


def test_prefetched_entries_evicted_first():
    cache = MetadataCache(3)
    cache.insert(1, None, True)
    cache.insert(2, 1, False)                  # normal, older
    cache.insert(3, 1, False, prefetched=True)  # prefetched, newer
    evicted = cache.insert(4, 1, False)
    # despite being newer, the prefetched entry goes first
    assert [e.ino for e in evicted] == [3]
    assert cache.counters.prefetch_insertions == 1


def test_reinsert_refreshes_and_deduplicates():
    cache = MetadataCache(3)
    cache.insert(1, None, True)
    cache.insert(2, 1, False)
    cache.insert(3, 1, False)
    assert cache.insert(2, 1, False) == []  # refresh, no growth
    assert len(cache) == 3
    evicted = cache.insert(4, 1, False)
    assert [e.ino for e in evicted] == [3]


def test_reinsert_as_authority_clears_replica_flag():
    cache = MetadataCache(3)
    cache.insert(1, None, True)
    cache.insert(2, 1, False, replica=True)
    assert cache.get(2).replica
    cache.insert(2, 1, False, replica=False)
    assert not cache.get(2).replica
    # but a replica re-insert never upgrades an authoritative entry
    cache.insert(2, 1, False, replica=True)
    assert not cache.get(2).replica


def test_slot_census_and_fractions():
    cache = MetadataCache(10)
    cache.insert(1, None, True)           # root dir, pinned by 2,3 -> prefix
    cache.insert(2, 1, True, replica=True)  # replica dir, pinned -> prefix
    cache.insert(3, 2, False, replica=True)  # replica file
    cache.insert(4, 1, False)             # local file
    census = cache.slot_census()
    assert census == {"local_prefix": 1, "local_other": 1,
                      "replica_prefix": 1, "replica_other": 1}
    assert cache.prefix_fraction() == pytest.approx(0.5)
    assert cache.replica_fraction() == pytest.approx(0.5)


def test_prefix_fraction_empty_cache():
    cache = MetadataCache(4)
    assert cache.prefix_fraction() == 0.0
    assert cache.replica_fraction() == 0.0


def test_collect_subtree_depth_order():
    cache = MetadataCache(20)
    cache.insert(1, None, True)
    cache.insert(2, 1, True)
    cache.insert(3, 2, True)
    cache.insert(4, 3, False)
    cache.insert(5, 2, False)
    cache.insert(6, 1, False)  # outside subtree rooted at 2
    members = [e.ino for e in cache.collect_subtree(2)]
    assert set(members) == {2, 3, 4, 5}
    assert members.index(4) < members.index(3) < members.index(2)
    # removal in that order never violates pins
    for ino in members:
        cache.remove(ino)
    cache.verify_invariants()


def test_collect_subtree_missing_root():
    cache = MetadataCache(4)
    cache.insert(1, None, True)
    assert cache.collect_subtree(99) == []


def test_eviction_counter():
    cache = MetadataCache(2)
    cache.insert(1, None, True)
    cache.insert(2, 1, False)
    cache.insert(3, 1, False)
    assert cache.counters.evictions == 1
    assert cache.counters.insertions == 3


# ----------------------------------------------------------------------
# capacity-1 cache: every insert evicts
# ----------------------------------------------------------------------
def test_capacity_one_eviction_churn():
    cache = MetadataCache(1)
    for ino in range(1, 200):
        cache.insert(ino, None, False)
        assert ino in cache and len(cache) == 1
        cache.verify_invariants()
    assert cache.counters.evictions == 198
    assert not cache.overflowed


def test_capacity_one_pinned_overflow():
    cache = MetadataCache(1)
    cache.insert(1, None, True)
    cache.pin(1)
    # the pinned root cannot be evicted; inserting a child overflows
    cache.insert(2, 1, False)
    assert cache.overflowed and len(cache) == 2
    cache.verify_invariants()
    cache.unpin(1)
    # next insert drains the overflow back to capacity
    cache.insert(3, None, False)
    assert len(cache) <= 2
    cache.verify_invariants()


# ----------------------------------------------------------------------
# deep pin/unpin chains: one long ancestry, pins rippling to the root
# ----------------------------------------------------------------------
def test_deep_pin_unpin_chain():
    depth = 500
    cache = MetadataCache(depth + 10)
    insert_chain(cache, *range(1, depth + 1))
    # every interior node is pinned by its child; only the leaf is loose
    unpinned = [e.ino for e in cache.entries() if not e.pinned]
    assert unpinned == [depth]
    cache.verify_invariants()
    # an external pin on the leaf, then release — state fully restored
    cache.pin(depth)
    assert cache.get(depth).pinned
    cache.unpin(depth)
    assert not cache.get(depth).pinned
    # removing leaves one by one unpins each parent in turn
    for ino in range(depth, 1, -1):
        cache.remove(ino)
        assert not cache.get(ino - 1).pinned
    cache.verify_invariants()
    assert len(cache) == 1


def test_unpin_errors_match():
    cache = MetadataCache(4)
    cache.insert(1, None, True)
    with pytest.raises(RuntimeError, match="unpin without pin for ino 1"):
        cache.unpin(1)
    with pytest.raises(KeyError):
        cache.pin(99)


def test_remove_with_children_refuses():
    cache = MetadataCache(8)
    cache.insert(1, None, True)
    cache.insert(2, 1, True)
    cache.insert(3, 1, False)
    with pytest.raises(RuntimeError,
                       match="cannot remove ino 1: 2 cached children"):
        cache.remove(1)


def test_collect_subtree_with_replicas():
    cache = MetadataCache(32)
    cache.insert(1, None, True)
    cache.insert(2, 1, True, replica=True)
    cache.insert(3, 2, True)
    cache.insert(4, 3, False, replica=True)
    cache.insert(5, 2, False)
    cache.insert(6, 1, False, replica=True)
    got = cache.collect_subtree(2)
    # leaves-first: every entry precedes its parent, replicas included
    inos = [e.ino for e in got]
    assert set(inos) == {2, 3, 4, 5}
    assert inos.index(4) < inos.index(3) < inos.index(2)
    assert inos.index(5) < inos.index(2)
    assert [e.ino for e in got if e.replica] == [4, 2]
    # a subtree rooted at a leaf is just the leaf
    assert [e.ino for e in cache.collect_subtree(6)] == [6]
    # fractions count the replicas we inserted
    assert cache.replica_fraction() == pytest.approx(3 / 6)

"""Exact-order differential test: the cache against a plain list model.

``test_lru_properties`` checks invariants only, so a cache that evicted a
different (but legal) victim would still pass it.  Here every operation is
mirrored on a deliberately naive model — a Python list for the eviction
order (coldest first) and per-entry pin counts — and after every step the
eviction order, the evicted inos and the activity counters must be equal.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule, run_state_machine_as_test)

from repro.cache import MetadataCache


class ListModel:
    """The eviction policy spelled out with list operations."""

    def __init__(self, capacity):
        self.capacity = capacity
        #: ino -> [parent_ino, is_dir, replica, child pins, external pins]
        self.entries = {}
        self.order = []  # unpinned inos, coldest first
        self.insertions = self.evictions = self.prefetch_insertions = 0

    def pinned(self, ino):
        entry = self.entries[ino]
        return entry[3] > 0 or entry[4] > 0

    def _to_hot(self, ino):
        if ino in self.order:
            self.order.remove(ino)
        self.order.append(ino)

    def _to_cold(self, ino):
        if ino in self.order:
            self.order.remove(ino)
        self.order.insert(0, ino)

    def _unpin_parent(self, ino):
        parent = self.entries[ino][0]
        if parent is None or parent not in self.entries:
            return
        self.entries[parent][3] -= 1
        if not self.pinned(parent):
            self._to_cold(parent)

    def _shrink(self, exclude=None):
        evicted = []
        while len(self.entries) > self.capacity:
            victims = [ino for ino in self.order if ino != exclude]
            if not victims:
                break
            victim = victims[0]
            self.order.remove(victim)
            self._unpin_parent(victim)
            del self.entries[victim]
            self.evictions += 1
            evicted.append(victim)
        return evicted

    def insert(self, ino, parent, is_dir, replica, prefetched):
        if ino in self.entries:
            if not replica:
                self.entries[ino][2] = False
            if ino in self.order and not prefetched:
                self._to_hot(ino)
            return []
        if parent is not None:
            self.entries[parent][3] += 1
            if parent in self.order:
                self.order.remove(parent)
        self.entries[ino] = [parent, is_dir, replica, 0, 0]
        if prefetched:
            self.order.insert(0, ino)
            self.prefetch_insertions += 1
        else:
            self.order.append(ino)
        self.insertions += 1
        return self._shrink(exclude=ino)

    def get(self, ino):
        if ino in self.order:
            self._to_hot(ino)

    def pin(self, ino):
        self.entries[ino][4] += 1
        if ino in self.order:
            self.order.remove(ino)

    def unpin(self, ino):
        self.entries[ino][4] -= 1
        if not self.pinned(ino):
            self._to_hot(ino)
        return self._shrink()

    def remove(self, ino):
        if ino in self.order:
            self.order.remove(ino)
        self._unpin_parent(ino)
        del self.entries[ino]


class ExactOrderMachine(RuleBasedStateMachine):
    @initialize(capacity=st.integers(2, 10))
    def setup(self, capacity):
        self.cache = MetadataCache(capacity)
        self.model = ListModel(capacity)
        self.next_ino = 2
        self.pins = []
        for target in (self.cache, self.model):
            target.insert(1, None, True, replica=False, prefetched=False)
            target.pin(1)

    def _dirs(self):
        return sorted(ino for ino, e in self.model.entries.items() if e[1])

    def _cached(self):
        return sorted(self.model.entries)

    @rule(parent_choice=st.integers(0, 100), make_dir=st.booleans(),
          prefetched=st.booleans(), replica=st.booleans(),
          orphan=st.booleans())
    def insert_new(self, parent_choice, make_dir, prefetched, replica,
                   orphan):
        dirs = self._dirs()
        parent = None if orphan else dirs[parent_choice % len(dirs)]
        ino = self.next_ino
        self.next_ino += 1
        evicted = self.cache.insert(ino, parent, make_dir, replica=replica,
                                    prefetched=prefetched)
        expected = self.model.insert(ino, parent, make_dir, replica,
                                     prefetched)
        assert [e.ino for e in evicted] == expected

    @rule(choice=st.integers(0, 100), prefetched=st.booleans(),
          replica=st.booleans())
    def reinsert_cached(self, choice, prefetched, replica):
        cached = self._cached()
        ino = cached[choice % len(cached)]
        parent, is_dir = self.model.entries[ino][:2]
        assert self.cache.insert(ino, parent, is_dir, replica=replica,
                                 prefetched=prefetched) == []
        assert self.model.insert(ino, parent, is_dir, replica,
                                 prefetched) == []
        assert self.cache.get(ino, touch=False).replica == \
            self.model.entries[ino][2]

    @rule(choice=st.integers(0, 100), touch=st.booleans())
    def get(self, choice, touch):
        cached = self._cached()
        ino = cached[choice % len(cached)]
        assert self.cache.get(ino, touch=touch).ino == ino
        if touch:
            self.model.get(ino)

    @rule(choice=st.integers(0, 100))
    def pin(self, choice):
        cached = self._cached()
        ino = cached[choice % len(cached)]
        self.cache.pin(ino)
        self.model.pin(ino)
        self.pins.append(ino)

    @rule(choice=st.integers(0, 100))
    def unpin(self, choice):
        if not self.pins:
            return
        ino = self.pins.pop(choice % len(self.pins))
        evicted = self.cache.unpin(ino)
        assert [e.ino for e in evicted] == self.model.unpin(ino)

    @rule(choice=st.integers(0, 100))
    def remove(self, choice):
        candidates = [ino for ino in self._cached()
                      if ino != 1 and not self.model.pinned(ino)]
        if not candidates:
            return
        ino = candidates[choice % len(candidates)]
        assert self.cache.remove(ino).ino == ino
        self.model.remove(ino)

    @invariant()
    def same_state(self):
        if not hasattr(self, "cache"):
            return
        model = self.model
        assert self.cache._lru_order() == model.order
        assert sorted(e.ino for e in self.cache.entries()) == \
            sorted(model.entries)
        counters = self.cache.counters
        assert (counters.insertions, counters.evictions,
                counters.prefetch_insertions) == (
            model.insertions, model.evictions, model.prefetch_insertions)
        for ino, (parent, is_dir, replica, pins, ext) in \
                model.entries.items():
            entry = self.cache.get(ino, touch=False)
            assert (entry.parent_ino, entry.is_dir, entry.replica,
                    entry.pin_count, entry.external_pins) == (
                parent, is_dir, replica, pins, ext)


# a plain pytest function so the package's backend fixture applies
def test_cache_matches_list_model_exactly():
    run_state_machine_as_test(
        ExactOrderMachine,
        settings=settings(max_examples=80, stateful_step_count=50,
                          deadline=None))

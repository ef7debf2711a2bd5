"""O(1) path-resolution memo for the request hot path.

Every MDS request re-resolves its full path component-by-component against
the shared ground-truth namespace, and the serving path then walks the
target's ancestor chain again (traversal, popularity accounting,
distribution info).  Both walks are pure functions of the namespace
structure, so :class:`ResolutionMemo` caches them:

* **path entries** — ``path -> (target inode, walk inodes)`` where the walk
  is the inode at each path depth (root excluded).  A hit turns
  ``Namespace.resolve`` into one dict lookup and is what
  ``Namespace.walk`` (the reply-hint walk) returns.
* **chain entries** — ``ino -> ancestor inos (root first)``, one shared
  immutable tuple backing ``Namespace.ancestor_inos`` (and
  ``Namespace.ancestors``, which maps it back to inodes).

Path entries store *references* to live
:class:`~repro.namespace.inode.Inode` objects, so in-place attribute
mutations (chmod, setattr, mtime) are always visible; only *structural*
mutations can make an entry stale.  Invalidation is precise: every entry
is indexed by each inode on its walk/chain, and ``invalidate_ino`` —
called by :class:`~repro.namespace.tree.Namespace` on
``unlink``/``rename``/orphan release — drops exactly the entries whose walk
passes through the mutated inode (a renamed directory therefore invalidates
its whole cached subtree in one call).  Creations and hard-link additions
never invalidate: negative lookups are never cached, and a new dentry
cannot change the meaning of an existing one.

The memo is bounded; when full, the oldest path entry is dropped (plain
FIFO — the workload's locality makes anything fancier irrelevant here, and
the backing namespace walk is always correct).
"""

from __future__ import annotations

from typing import Dict, Set, Tuple, Union

from .inode import Inode
from .path import Path

#: A dependency-index key: a memoised path (tuple of components) or a
#: memoised ancestor chain (the int ino it is keyed by).
_MemoKey = Union[Path, int]


class ResolutionMemo:
    """Bounded memo of path resolutions and ancestor chains."""

    __slots__ = ("capacity", "paths", "chains", "_deps",
                 "hits", "misses", "invalidations")

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: path -> (target, walk); walk[i] is the inode at depth i+1, so
        #: walk[-1] is the target itself (root excluded).
        self.paths: Dict[Path, Tuple[Inode, Tuple[Inode, ...]]] = {}
        #: ino -> ancestor inos of ino, root first (excluding ino itself).
        self.chains: Dict[int, Tuple[int, ...]] = {}
        #: ino -> keys of entries whose walk/chain passes through it.
        self._deps: Dict[int, Set[_MemoKey]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self.paths) + len(self.chains)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def store_path(self, path: Path, walk: Tuple[Inode, ...]) -> None:
        """Memoise a *successful* resolution of ``path``."""
        if path in self.paths:
            return
        while len(self.paths) >= self.capacity:
            self._drop_path(next(iter(self.paths)))
        self.paths[path] = (walk[-1], walk)
        deps = self._deps
        for node in walk:
            bucket = deps.get(node.ino)
            if bucket is None:
                bucket = deps[node.ino] = set()
            bucket.add(path)

    def store_chain(self, ino: int, chain: Tuple[int, ...]) -> None:
        """Memoise ``ancestor_inos(ino)`` (root first, ``ino`` excluded)."""
        if ino in self.chains:
            return
        while len(self.chains) >= self.capacity:
            self._drop_chain(next(iter(self.chains)))
        self.chains[ino] = chain
        deps = self._deps
        # the entry depends on ino itself (a rename/unlink of ino must kill
        # it) and on every non-root ancestor on the chain
        bucket = deps.get(ino)
        if bucket is None:
            bucket = deps[ino] = set()
        bucket.add(ino)
        for dep_ino in chain[1:]:  # chain[0] is the immovable root
            bucket = deps.get(dep_ino)
            if bucket is None:
                bucket = deps[dep_ino] = set()
            bucket.add(ino)

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate_ino(self, ino: int) -> int:
        """Drop every entry whose walk or chain passes through ``ino``.

        Returns the number of entries dropped.  Called on ``unlink``,
        ``rename`` and orphan release — the only namespace mutations that
        can change what an existing path resolves to.
        """
        keys = self._deps.pop(ino, None)
        if not keys:
            return 0
        dropped = 0
        for key in list(keys):
            if isinstance(key, tuple):
                if self._drop_path(key):
                    dropped += 1
            else:
                if self._drop_chain(key):
                    dropped += 1
        self.invalidations += dropped
        return dropped

    def clear(self) -> None:
        self.paths.clear()
        self.chains.clear()
        self._deps.clear()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _drop_path(self, path: Path) -> bool:
        entry = self.paths.pop(path, None)
        if entry is None:
            return False
        deps = self._deps
        for node in entry[1]:
            bucket = deps.get(node.ino)
            if bucket is not None:
                bucket.discard(path)
                if not bucket:
                    del deps[node.ino]
        return True

    def _drop_chain(self, ino: int) -> bool:
        chain = self.chains.pop(ino, None)
        if chain is None:
            return False
        deps = self._deps
        for dep_ino in (ino, *chain[1:]):
            bucket = deps.get(dep_ino)
            if bucket is not None:
                bucket.discard(ino)
                if not bucket:
                    del deps[dep_ino]
        return True

    # ------------------------------------------------------------------
    # introspection (tests, reports)
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {"entries": len(self), "hits": self.hits,
                "misses": self.misses, "invalidations": self.invalidations}

    def verify_invariants(self) -> None:
        """Raise ``AssertionError`` on index inconsistency (tests only)."""
        expected: Dict[int, Set[_MemoKey]] = {}
        for path, (_target, walk) in self.paths.items():
            for node in walk:
                expected.setdefault(node.ino, set()).add(path)
        for ino, chain in self.chains.items():
            expected.setdefault(ino, set()).add(ino)
            for dep_ino in chain[1:]:
                expected.setdefault(dep_ino, set()).add(ino)
        assert self._deps == expected, (
            f"dep index mismatch: {self._deps} != {expected}")


__all__ = ["ResolutionMemo"]

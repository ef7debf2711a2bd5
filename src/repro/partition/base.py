"""Strategy interface: how metadata is partitioned over the MDS cluster.

A strategy answers one central question — *which MDS is authoritative for
this inode?* — plus the strategy-specific properties the MDS node needs:
whether serving a request requires path traversal (Lazy Hybrid does not),
what one cache miss fetches from disk (directory-grain vs inode-grain
layout, §4.5), and whether clients can compute the authority themselves
(hash-based strategies) or must discover it (subtree strategies, §4.4).

Strategies also observe namespace mutations (rename/chmod) because two of
them — Lazy Hybrid most of all — owe deferred work when those happen.
"""

from __future__ import annotations

import abc
import zlib
from typing import ClassVar, Dict, List, Optional

from .._fastpath import fastpath_enabled
from ..namespace import Namespace
from ..namespace import path as pathmod
from ..namespace.path import Path
from ..storage import DirectoryGrainLayout, Layout


def stable_hash(path: Path, salt: int = 0) -> int:
    """Deterministic, platform-stable hash of a path (crc32-based).

    ``hash()`` is randomized per process; simulation runs must be exactly
    reproducible, so we use crc32 over the rendered path.
    """
    return zlib.crc32(f"{salt}:{pathmod.format_path(path)}".encode())


class Strategy(abc.ABC):
    """Base class for metadata partitioning strategies."""

    #: registry key, e.g. ``"DynamicSubtree"``
    name: ClassVar[str] = "abstract"
    #: does serving a request require checking ancestor directories?
    needs_path_traversal: ClassVar[bool] = True
    #: can the strategy's partition be adjusted at runtime?
    supports_rebalancing: ClassVar[bool] = False

    def __init__(self, n_mds: int) -> None:
        if n_mds < 1:
            raise ValueError("need at least one MDS")
        self.n_mds = n_mds
        self.ns: Optional[Namespace] = None
        self.layout: Layout = DirectoryGrainLayout()
        #: request-path fast lane: ino -> MDS memo, valid only while both
        #: the namespace ``structure_epoch`` and the strategy's own partition
        #: state are unchanged.  ``None`` when the fast lane is disabled.
        self._auth_cache: Optional[Dict[int, int]] = None
        self._auth_epoch = -1

    def bind(self, ns: Namespace) -> None:
        """Attach the namespace and build the initial partition."""
        self.ns = ns
        self._auth_cache = {} if fastpath_enabled() else None
        self._auth_epoch = -1
        self._setup()

    def _setup(self) -> None:
        """Hook: build initial partition state.  Default: nothing."""

    # -- the core query -----------------------------------------------------
    def authority_of_ino(self, ino: int) -> int:
        """MDS id authoritative for the given inode.

        Memoised per inode while the namespace structure and the partition
        state stay put: any structural namespace mutation bumps
        ``Namespace.structure_epoch`` (checked here), and every
        partition-state mutation (delegate/undelegate/dirfrag/failover)
        calls :meth:`_authority_changed`.
        """
        cache = self._auth_cache
        if cache is None:
            return self._authority_of_ino(ino)
        epoch = self.ns.structure_epoch  # type: ignore[union-attr]
        if epoch != self._auth_epoch:
            cache.clear()
            self._auth_epoch = epoch
        mds = cache.get(ino)
        if mds is None:
            mds = cache[ino] = self._authority_of_ino(ino)
        return mds

    def _authority_changed(self) -> None:
        """Partition state mutated: drop every memoised authority."""
        if self._auth_cache is not None:
            self._auth_cache.clear()

    @abc.abstractmethod
    def _authority_of_ino(self, ino: int) -> int:
        """Compute the authoritative MDS for ``ino`` (uncached)."""

    def owned_entries(self, dir_ino: int, inos: List[int],
                      node_id: int) -> List[int]:
        """The entries ``inos`` of directory ``dir_ino`` that ``node_id``
        is authoritative for, in order.

        This prices a directory-grain prefetch (§4.5): one call per fetched
        directory object.  The contract is exactly
        ``[i for i in inos if authority_of_ino(i) == node_id]``;
        strategies whose authority is shared by a directory's entries
        override it to decide once per directory.
        """
        authority_of_ino = self.authority_of_ino
        return [ino for ino in inos if authority_of_ino(ino) == node_id]

    def authority_of_new(self, path: Path, parent_ino: int) -> int:
        """Authority for an entry about to be created at ``path``.

        Default: creations happen where the parent directory lives (subtree
        and directory-hash semantics).  Full-path-hash strategies override.
        """
        return self.authority_of_ino(parent_ino)

    def client_locate(self, path: Path, *,
                      dir_hint: bool = False) -> Optional[int]:
        """Authority a *client* can compute on its own, or ``None``.

        Hash strategies return the hash target (clients know the function);
        subtree strategies return ``None`` — clients must rely on cached
        distribution info learned from replies (§4.4).  ``dir_hint`` tells
        directory-hash routing that the client knows ``path`` names a
        directory.
        """
        return None

    # -- mutation observers ---------------------------------------------------
    def on_rename(self, ino: int, old_path: Path, new_path: Path) -> int:
        """Notify of a rename; returns the number of *deferred* per-file
        updates this creates for the strategy (0 for most)."""
        return 0

    def on_chmod(self, ino: int) -> int:
        """Notify of a permission change; returns deferred update count."""
        return 0

    def take_pending(self, ino: int) -> bool:
        """Consume a deferred update owed for ``ino`` (Lazy Hybrid).

        Returns True when the caller must charge the lazy-update cost (one
        network round trip plus a metadata write) before serving.
        """
        return False

    def describe(self) -> str:
        return f"{self.name}(n_mds={self.n_mds})"

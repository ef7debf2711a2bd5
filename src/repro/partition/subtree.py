"""Subtree partitioning: static and dynamic (§3.1.1, §4).

Authority is defined by a *delegation table* mapping subtree-root directory
inos to MDS ids; everything beneath a delegated directory belongs to that
MDS unless a nested delegation overrides it.  The initial partition follows
the paper's evaluation setup (§5.1): directories near the root are hashed
across the cluster.

``StaticSubtreePartition`` never changes after setup.
``DynamicSubtreePartition`` exposes ``delegate``/``undelegate`` for the load
balancer (§4.3) and per-directory fragmentation (dirfrag) hooks for giant or
scorching directories.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from ..namespace import ROOT_INO
from ..namespace import path as pathmod
from ..namespace.path import Path
from .base import Strategy, stable_hash


class SubtreePartition(Strategy):
    """Common machinery for subtree-delegation strategies."""

    #: directories at depth 1..split_depth get explicit hash delegations
    split_depth: int = 2

    def __init__(self, n_mds: int, split_depth: int = 2) -> None:
        super().__init__(n_mds)
        self.split_depth = split_depth
        #: subtree-root dir ino -> authoritative MDS
        self.delegations: Dict[int, int] = {}
        #: directories whose entries are hashed across the cluster (§4.3)
        self.fragmented: Set[int] = set()

    def _setup(self) -> None:
        """Initial partition: hash directories near the root (§5.1)."""
        assert self.ns is not None
        self._authority_changed()
        self.delegations = {ROOT_INO: 0}
        self.fragmented = set()
        for node in self.ns.iter_subtree(ROOT_INO):
            if not node.is_dir or node.ino == ROOT_INO:
                continue
            depth = len(self.ns.path_of(node.ino))
            if 1 <= depth <= self.split_depth:
                path = self.ns.path_of(node.ino)
                self.delegations[node.ino] = stable_hash(path) % self.n_mds

    # -- authority ------------------------------------------------------------
    def _authority_of_ino(self, ino: int) -> int:
        assert self.ns is not None
        node = self.ns.inode(ino)
        # Fragmented-directory override: a file's authority is defined by a
        # hash of its name and the directory ino (§4.3).
        if not node.is_dir and node.parent_ino in self.fragmented:
            parent = self.ns.inode(node.parent_ino)
            name = next((n for n, i in parent.children.items()  # type: ignore[union-attr]
                         if i == ino), "")
            return stable_hash((name,), salt=node.parent_ino) % self.n_mds
        while True:
            mds = self.delegations.get(node.ino)
            if mds is not None:
                return mds
            if node.ino == ROOT_INO:  # pragma: no cover - root always present
                raise RuntimeError("no delegation for root")
            node = self.ns.inode(node.parent_ino)

    def owned_entries(self, dir_ino: int, inos: List[int],
                      node_id: int) -> List[int]:
        """One walk for the directory, one delegation probe per entry.

        An entry embedded in ``dir_ino`` belongs to its own delegation if
        it heads one and to the directory's authority otherwise.  Entries
        that some other dentry also names may be embedded elsewhere (hard
        links) and take the full per-inode lookup.
        """
        assert self.ns is not None
        authority_of_ino = self.authority_of_ino
        dir_auth = authority_of_ino(dir_ino)
        delegations = self.delegations
        linked = self.ns.multiply_linked
        if dir_ino not in self.fragmented:
            return [ino for ino in inos
                    if (authority_of_ino(ino) if ino in linked
                        else delegations.get(ino, dir_auth)) == node_id]
        # Fragmented: files hash by name (§4.3).  One pass over the
        # directory names every entry, where a per-file name lookup would
        # scan the (typically giant) directory once per entry.
        names = {ino: name for name, ino
                 in self.ns.inode(dir_ino).children.items()}  # type: ignore[union-attr]
        inode = self.ns.inode
        owned = []
        for ino in inos:
            if ino in linked:
                mds = authority_of_ino(ino)
            elif inode(ino).is_dir:
                mds = delegations.get(ino, dir_auth)
            else:
                mds = stable_hash((names[ino],), salt=dir_ino) % self.n_mds
            if mds == node_id:
                owned.append(ino)
        return owned

    def authority_of_new(self, path: Path, parent_ino: int) -> int:
        if parent_ino in self.fragmented:
            # New entries in a fragmented directory hash by name (§4.3).
            return stable_hash((pathmod.basename(path),),
                               salt=parent_ino) % self.n_mds
        return self.authority_of_ino(parent_ino)

    def delegation_root_of(self, ino: int) -> int:
        """The subtree-root ino whose delegation covers ``ino``."""
        assert self.ns is not None
        node = self.ns.inode(ino)
        if not node.is_dir:
            node = self.ns.inode(node.parent_ino)
        while node.ino not in self.delegations:
            node = self.ns.inode(node.parent_ino)
        return node.ino

    def subtrees_of(self, mds_id: int) -> List[int]:
        """Delegated subtree-root inos currently owned by ``mds_id``."""
        return [ino for ino, owner in self.delegations.items()
                if owner == mds_id]


class StaticSubtreePartition(SubtreePartition):
    """Fixed subtree assignment: no load balancing ever (§3.1.1)."""

    name = "StaticSubtree"
    needs_path_traversal = True
    supports_rebalancing = False


class DynamicSubtreePartition(SubtreePartition):
    """Subtree partition adjusted at runtime by the load balancer (§4.3)."""

    name = "DynamicSubtree"
    needs_path_traversal = True
    supports_rebalancing = True

    def delegate(self, subtree_ino: int, mds_id: int) -> None:
        """(Re-)delegate the subtree rooted at ``subtree_ino``.

        After the change, sibling delegations that became redundant — nested
        delegations now pointing at the same MDS as their covering
        delegation — are coalesced, keeping the partition simple (the paper
        notes each delegation costs prefix-caching overhead).
        """
        assert self.ns is not None
        if not (0 <= mds_id < self.n_mds):
            raise ValueError(f"mds_id {mds_id} out of range")
        if not self.ns.inode(subtree_ino).is_dir:
            raise ValueError("only directories can head a delegation")
        self.delegations[subtree_ino] = mds_id
        self._coalesce(subtree_ino)
        self._authority_changed()

    def undelegate(self, subtree_ino: int) -> None:
        """Remove a nested delegation (the covering one takes over)."""
        if subtree_ino == ROOT_INO:
            raise ValueError("cannot undelegate the root")
        self.delegations.pop(subtree_ino, None)
        self._authority_changed()

    def _coalesce(self, subtree_ino: int) -> None:
        """Drop nested delegations made redundant by a new delegation."""
        assert self.ns is not None
        owner = self.delegations[subtree_ino]
        redundant = []
        for other_ino, other_owner in self.delegations.items():
            if other_ino == subtree_ino or other_owner != owner:
                continue
            if self.ns.is_ancestor_ino(subtree_ino, other_ino):
                # covered by the new delegation and pointing the same way —
                # but only redundant if no *different* delegation sits between
                if self._nearest_delegation_above(other_ino) == subtree_ino:
                    redundant.append(other_ino)
        for ino in redundant:
            del self.delegations[ino]

    def _nearest_delegation_above(self, ino: int) -> int:
        assert self.ns is not None
        node = self.ns.inode(ino)
        while True:
            node = self.ns.inode(node.parent_ino)
            if node.ino in self.delegations:
                return node.ino

    # -- dirfrag (§4.3) -------------------------------------------------------
    def fragment_directory(self, dir_ino: int) -> None:
        """Hash a single directory's entries across the cluster."""
        assert self.ns is not None
        if not self.ns.inode(dir_ino).is_dir:
            raise ValueError("can only fragment directories")
        self.fragmented.add(dir_ino)
        self._authority_changed()

    def unfragment_directory(self, dir_ino: int) -> None:
        """Consolidate a previously fragmented directory (§4.3)."""
        self.fragmented.discard(dir_ino)
        self._authority_changed()

"""The shared file-system namespace.

One :class:`Namespace` instance is the ground truth that every simulated MDS
serves a partition of.  It provides POSIX-shaped mutations (create, unlink,
rename, link, chmod) and the ancestry queries that path traversal, permission
checks and the partitioning strategies are built on.

Inodes are embedded (§4.5): each lives with its *primary* dentry, recorded by
``Inode.parent_ino``.  Extra hard links are tracked separately, and files
with ``nlink > 1`` — together with their ancestor directories — appear in the
:class:`~repro.namespace.anchor.AnchorTable` so they remain locatable without
a global inode table.
"""

from __future__ import annotations

from typing import Dict, Iterator, KeysView, List, Optional, Set, Tuple

from . import path as pathmod
from .anchor import AnchorTable
from .errors import (AlreadyExists, FileNotFound, InvalidOperation,
                     IsADirectory, NotADirectory, NotEmpty)
from .inode import Inode, InodeType
from .memo import ResolutionMemo
from .path import Path

ROOT_INO = 1


class Namespace:
    """An in-memory hierarchical namespace with embedded inodes."""

    def __init__(self) -> None:
        self._inodes: Dict[int, Inode] = {}
        self._next_ino = ROOT_INO
        self.anchors = AnchorTable()
        #: non-primary hard links: ino -> set of (parent_ino, name)
        self._extra_links: Dict[int, Set[Tuple[int, str]]] = {}
        #: unlinked-while-open inodes, retained until released (§4.5)
        self._orphans: Dict[int, Inode] = {}
        #: request-path fast lane (attached by the cluster when the fast
        #: path is enabled); ``None`` means every resolve walks the tree
        self._memo: Optional[ResolutionMemo] = None
        #: dir ino -> (subdir names, file names) in entry order, built on
        #: first ask; dropped wherever that directory's ``children`` change
        self._listings: Dict[int, Tuple[List[str], List[str]]] = {}
        #: bumped on every structural mutation (unlink/rename/orphan
        #: release); consumers with coarse-grained caches keyed on
        #: namespace structure (partition authority caches) compare it
        #: instead of registering callbacks — an int survives ``deepcopy``
        #: where a listener list would drag its subscribers along.
        self.structure_epoch = 0
        root = self._new_inode(InodeType.DIR, parent_ino=ROOT_INO)
        assert root.ino == ROOT_INO
        self.root = root

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Total number of inodes (files + directories)."""
        return len(self._inodes)

    def __contains__(self, ino: int) -> bool:
        return ino in self._inodes

    def inode(self, ino: int) -> Inode:
        """Look up an inode by number."""
        try:
            return self._inodes[ino]
        except KeyError:
            raise FileNotFound(f"no inode {ino}") from None

    @property
    def multiply_linked(self) -> KeysView[int]:
        """Live view of the inos that a non-primary dentry also names.

        A directory entry whose inode is embedded elsewhere (a hard link)
        always names one of these, so a walk over one directory's entries
        can trust ``parent_ino == directory`` for every other entry.
        """
        return self._extra_links.keys()

    def count_dirs(self) -> int:
        return sum(1 for i in self._inodes.values() if i.is_dir)

    def count_files(self) -> int:
        return sum(1 for i in self._inodes.values() if i.is_file)

    def resolve(self, path: Path) -> Inode:
        """Walk ``path`` from the root, returning the final inode.

        With the fast lane attached (:meth:`enable_resolution_memo`) a
        repeated resolution is one dict hit; the memo stores only
        *successful* full resolutions, so error behaviour is untouched.
        """
        memo = self._memo
        if memo is None:
            node = self.root
            for i, name in enumerate(path):
                if not node.is_dir:
                    raise NotADirectory(
                        f"{pathmod.format_path(path[:i])} is not a directory")
                child_ino = node.children.get(name)  # type: ignore[union-attr]
                if child_ino is None:
                    raise FileNotFound(pathmod.format_path(path[: i + 1]))
                node = self._inodes[child_ino]
            return node
        hit = memo.paths.get(path)
        if hit is not None:
            memo.hits += 1
            return hit[0]
        memo.misses += 1
        node = self.root
        walk: List[Inode] = []
        for i, name in enumerate(path):
            if not node.is_dir:
                raise NotADirectory(
                    f"{pathmod.format_path(path[:i])} is not a directory")
            child_ino = node.children.get(name)  # type: ignore[union-attr]
            if child_ino is None:
                raise FileNotFound(pathmod.format_path(path[: i + 1]))
            node = self._inodes[child_ino]
            walk.append(node)
        if walk:  # the root itself is never memoised (nor invalidated)
            memo.store_path(path, tuple(walk))
        return node

    def try_resolve(self, path: Path) -> Optional[Inode]:
        """Like :meth:`resolve` but returns ``None`` instead of raising."""
        memo = self._memo
        if memo is not None:
            hit = memo.paths.get(path)
            if hit is not None:
                memo.hits += 1
                return hit[0]
        try:
            return self.resolve(path)
        except (FileNotFound, NotADirectory):
            return None

    def subdir_names(self, node: Inode) -> List[str]:
        """Names of ``node``'s directory children, in entry order.

        The list is cached and shared between calls: do not mutate it.
        """
        listing = self._listings.get(node.ino)
        if listing is None:
            listing = self._list_children(node)
        return listing[0]

    def file_names(self, node: Inode) -> List[str]:
        """Names of ``node``'s file children, in entry order.

        The list is cached and shared between calls: do not mutate it.
        """
        listing = self._listings.get(node.ino)
        if listing is None:
            listing = self._list_children(node)
        return listing[1]

    def _list_children(self, node: Inode) -> Tuple[List[str], List[str]]:
        inodes = self._inodes
        children = node.children.items()  # type: ignore[union-attr]
        listing = self._listings[node.ino] = (
            [name for name, ino in children if inodes[ino].is_dir],
            [name for name, ino in children if inodes[ino].is_file])
        return listing

    def path_of(self, ino: int) -> Path:
        """Primary path of an inode (via embedding parents)."""
        parts: List[str] = []
        node = self.inode(ino)
        while node.ino != ROOT_INO:
            parent = self._inodes[node.parent_ino]
            name = self._name_in(parent, node.ino)
            parts.append(name)
            node = parent
        return tuple(reversed(parts))

    def walk(self, path: Path) -> Tuple[Inode, ...]:
        """Inodes of the longest resolvable prefix of ``path``.

        ``walk(path)[i]`` is the inode at depth ``i + 1`` (the root is
        excluded); the walk stops at the first missing or non-directory
        component instead of raising.  A path the fast lane has resolved
        returns its memoised walk — shared and immutable — so this adds no
        hit or miss to the memo's counters and stores nothing.
        """
        memo = self._memo
        if memo is not None:
            hit = memo.paths.get(path)
            if hit is not None:
                return hit[1]
        inodes = self._inodes
        node = self.root
        walk: List[Inode] = []
        for name in path:
            if not node.is_dir:
                break
            child_ino = node.children.get(name)  # type: ignore[union-attr]
            if child_ino is None:
                break
            node = inodes[child_ino]
            walk.append(node)
        return tuple(walk)

    def ancestors(self, ino: int) -> List[Inode]:
        """Ancestor directories of ``ino``, root first (excludes ``ino``).

        Returns a fresh list on every call (callers extend it).  Only cold
        paths (migration, failover, replication broadcast) need inodes, so
        this maps :meth:`ancestor_inos` — and its memoised chain — back
        through the inode table.
        """
        inodes = self._inodes
        return [inodes[a] for a in self.ancestor_inos(ino)]

    def ancestor_inos(self, ino: int) -> Tuple[int, ...]:
        """Ancestor inos of ``ino``, root first (excludes ``ino``).

        The request path's chain query (traversal, popularity accounting).
        With the fast lane attached the chain is memoised and a hit returns
        the shared immutable tuple with no per-call copy.  Do not mutate
        the result.
        """
        memo = self._memo
        if memo is not None:
            cached = memo.chains.get(ino)
            if cached is not None:
                memo.hits += 1
                return cached
            memo.misses += 1
        chain: List[int] = []
        node = self.inode(ino)
        while node.ino != ROOT_INO:
            chain.append(node.parent_ino)
            node = self._inodes[node.parent_ino]
        chain.reverse()
        result = tuple(chain)
        if memo is not None:
            memo.store_chain(ino, result)
        return result

    def is_ancestor_ino(self, candidate: int, ino: int) -> bool:
        """True if ``candidate`` is a proper ancestor directory of ``ino``."""
        node = self.inode(ino)
        while node.ino != ROOT_INO:
            node = self._inodes[node.parent_ino]
            if node.ino == candidate:
                return True
        return False

    def readdir(self, path: Path) -> List[str]:
        """Entry names of a directory, in stable (insertion) order."""
        node = self.resolve(path)
        if not node.is_dir:
            raise NotADirectory(pathmod.format_path(path))
        return list(node.children)  # type: ignore[arg-type]

    def iter_subtree(self, ino: int) -> Iterator[Inode]:
        """Depth-first iteration over ``ino`` and everything beneath it."""
        stack = [ino]
        while stack:
            node = self._inodes[stack.pop()]
            yield node
            if node.is_dir:
                # reversed so iteration order matches insertion order
                stack.extend(reversed(list(node.children.values())))  # type: ignore[union-attr]

    def subtree_inode_count(self, ino: int) -> int:
        """Number of inodes in the subtree rooted at ``ino`` (inclusive)."""
        return sum(1 for _ in self.iter_subtree(ino))

    # ------------------------------------------------------------------
    # request-path fast lane
    # ------------------------------------------------------------------
    @property
    def resolution_memo(self) -> Optional[ResolutionMemo]:
        """The attached fast-lane memo, or ``None`` when disabled."""
        return self._memo

    def enable_resolution_memo(self,
                               capacity: int = 65536) -> ResolutionMemo:
        """Attach (or return the existing) path-resolution memo."""
        if self._memo is None:
            self._memo = ResolutionMemo(capacity)
        return self._memo

    def disable_resolution_memo(self) -> None:
        self._memo = None

    def _structure_changed(self, ino: int) -> None:
        """One dentry/chain mutation happened at ``ino``: precise-invalidate
        the memo and bump the coarse epoch."""
        self.structure_epoch += 1
        if self._memo is not None:
            self._memo.invalidate_ino(ino)

    # ------------------------------------------------------------------
    # orphans (unlinked while open, §4.5)
    # ------------------------------------------------------------------
    def is_orphan(self, ino: int) -> bool:
        return ino in self._orphans

    def orphan_count(self) -> int:
        return len(self._orphans)

    def release_orphan(self, ino: int) -> None:
        """Drop a retained orphan (the last open handle closed)."""
        inode = self._orphans.pop(ino, None)
        if inode is None:
            raise KeyError(f"ino {ino} is not an orphan")
        del self._inodes[ino]
        self._structure_changed(ino)

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def mkdir(self, path: Path, mode: int = 0, owner: int = 0,
              mtime: float = 0.0) -> Inode:
        """Create a directory at ``path``."""
        return self._create(path, InodeType.DIR, mode, owner, 0, mtime)

    def create_file(self, path: Path, mode: int = 0, owner: int = 0,
                    size: int = 0, mtime: float = 0.0) -> Inode:
        """Create a regular file at ``path``."""
        return self._create(path, InodeType.FILE, mode, owner, size, mtime)

    def _create(self, path: Path, itype: InodeType, mode: int, owner: int,
                size: int, mtime: float) -> Inode:
        if not path:
            raise InvalidOperation("cannot create the root")
        parent = self.resolve(pathmod.parent(path))
        if not parent.is_dir:
            raise NotADirectory(pathmod.format_path(pathmod.parent(path)))
        name = pathmod.basename(path)
        if name in parent.children:  # type: ignore[operator]
            raise AlreadyExists(pathmod.format_path(path))
        inode = self._new_inode(itype, parent_ino=parent.ino, mode=mode,
                                owner=owner, size=size, mtime=mtime)
        parent.children[name] = inode.ino  # type: ignore[index]
        self._listings.pop(parent.ino, None)
        parent.mtime = max(parent.mtime, mtime)
        return inode

    def link(self, target: Path, new_path: Path, mtime: float = 0.0) -> Inode:
        """Create a hard link ``new_path`` to the file at ``target``."""
        inode = self.resolve(target)
        if inode.is_dir:
            raise InvalidOperation("hard links to directories are not allowed")
        new_parent = self.resolve(pathmod.parent(new_path))
        if not new_parent.is_dir:
            raise NotADirectory(pathmod.format_path(pathmod.parent(new_path)))
        name = pathmod.basename(new_path)
        if name in new_parent.children:  # type: ignore[operator]
            raise AlreadyExists(pathmod.format_path(new_path))
        new_parent.children[name] = inode.ino  # type: ignore[index]
        self._listings.pop(new_parent.ino, None)
        new_parent.mtime = max(new_parent.mtime, mtime)
        self._extra_links.setdefault(inode.ino, set()).add(
            (new_parent.ino, name))
        inode.nlink += 1
        if inode.nlink == 2:
            # Newly multiply-linked: register its embedding chain.
            self.anchors.add_anchor(inode.ino, self._ancestry_pairs(inode.ino))
        return inode

    def unlink(self, path: Path, mtime: float = 0.0,
               retain_inode: bool = False) -> None:
        """Remove the dentry at ``path`` (files and empty directories).

        With ``retain_inode`` a file whose last link is removed becomes an
        *orphan*: unreachable by path but still addressable by inode number
        (§4.5's deleted-while-open case) until :meth:`release_orphan`.
        """
        if not path:
            raise InvalidOperation("cannot unlink the root")
        parent = self.resolve(pathmod.parent(path))
        name = pathmod.basename(path)
        child_ino = parent.children.get(name)  # type: ignore[union-attr]
        if child_ino is None:
            raise FileNotFound(pathmod.format_path(path))
        inode = self._inodes[child_ino]
        if inode.is_dir:
            if inode.entry_count:
                raise NotEmpty(pathmod.format_path(path))
            del parent.children[name]  # type: ignore[union-attr]
            self._listings.pop(parent.ino, None)
            self._listings.pop(child_ino, None)
            del self._inodes[child_ino]
            parent.mtime = max(parent.mtime, mtime)
            self._structure_changed(child_ino)
            return
        # file unlink
        is_primary = (inode.parent_ino == parent.ino
                      and self._name_in(parent, child_ino) == name
                      and (parent.ino, name) not in
                      self._extra_links.get(child_ino, ()))
        del parent.children[name]  # type: ignore[union-attr]
        self._listings.pop(parent.ino, None)
        parent.mtime = max(parent.mtime, mtime)
        if inode.nlink > 1:
            was_anchored_pairs = None
            if is_primary:
                was_anchored_pairs = self._ancestry_pairs(child_ino)
            inode.nlink -= 1
            if is_primary:
                # Promote a surviving link to be the embedding dentry.
                new_parent_ino, _new_name = self._promote_link(child_ino)
                self.anchors.remove_anchor(child_ino, was_anchored_pairs)
                if inode.nlink > 1:
                    self.anchors.add_anchor(
                        child_ino, self._ancestry_pairs(child_ino))
                _ = new_parent_ino
            else:
                self._extra_links[child_ino].discard((parent.ino, name))
                if not self._extra_links[child_ino]:
                    del self._extra_links[child_ino]
                if inode.nlink == 1:
                    self.anchors.remove_anchor(
                        child_ino, self._ancestry_pairs(child_ino))
        elif retain_inode:
            # deleted while open: keep the record addressable by ino
            inode.nlink = 0
            self._orphans[child_ino] = inode
        else:
            del self._inodes[child_ino]
        self._structure_changed(child_ino)

    def rename(self, old: Path, new: Path, mtime: float = 0.0) -> Inode:
        """Move/rename the entry at ``old`` to ``new``.

        ``new`` must not exist (no overwriting rename, which keeps the
        workload model simple and deterministic).  Renaming a directory into
        its own subtree is rejected.
        """
        if not old:
            raise InvalidOperation("cannot rename the root")
        if pathmod.is_prefix(old, new):
            raise InvalidOperation(
                f"cannot rename {pathmod.format_path(old)} into itself")
        old_parent = self.resolve(pathmod.parent(old))
        old_name = pathmod.basename(old)
        child_ino = old_parent.children.get(old_name)  # type: ignore[union-attr]
        if child_ino is None:
            raise FileNotFound(pathmod.format_path(old))
        new_parent = self.resolve(pathmod.parent(new))
        if not new_parent.is_dir:
            raise NotADirectory(pathmod.format_path(pathmod.parent(new)))
        new_name = pathmod.basename(new)
        if new_name in new_parent.children:  # type: ignore[operator]
            raise AlreadyExists(pathmod.format_path(new))
        inode = self._inodes[child_ino]

        is_primary_dentry = (inode.parent_ino == old_parent.ino and
                             (old_parent.ino, old_name) not in
                             self._extra_links.get(child_ino, ()))
        anchored = child_ino in self.anchors
        old_pairs = (self._ancestry_pairs(child_ino)
                     if anchored and is_primary_dentry else None)

        del old_parent.children[old_name]  # type: ignore[union-attr]
        new_parent.children[new_name] = child_ino  # type: ignore[index]
        self._listings.pop(old_parent.ino, None)
        self._listings.pop(new_parent.ino, None)
        old_parent.mtime = max(old_parent.mtime, mtime)
        new_parent.mtime = max(new_parent.mtime, mtime)

        if is_primary_dentry:
            inode.parent_ino = new_parent.ino
            if anchored:
                count = self.anchors.entry(child_ino).refcount
                # Re-point the moved entry and shift ancestor references
                # from the old chain to the new one.
                self.anchors.move(child_ino, new_parent.ino)
                assert old_pairs is not None
                self.anchors.remove_refs(old_pairs[1:], count)
                self.anchors.add_refs(
                    self._ancestry_pairs(child_ino)[1:], count)
        else:
            links = self._extra_links[child_ino]
            links.discard((old_parent.ino, old_name))
            links.add((new_parent.ino, new_name))
        self._structure_changed(child_ino)
        return inode

    def chmod(self, path: Path, mode: int, mtime: float = 0.0) -> Inode:
        """Change permission bits on the entry at ``path``."""
        inode = self.resolve(path)
        inode.mode = mode
        inode.mtime = max(inode.mtime, mtime)
        return inode

    def setattr(self, path: Path, *, size: Optional[int] = None,
                mtime: float = 0.0) -> Inode:
        """Update file attributes (used by the workload's setattr ops)."""
        inode = self.resolve(path)
        if size is not None:
            if inode.is_dir:
                raise IsADirectory(pathmod.format_path(path))
            inode.size = size
        inode.mtime = max(inode.mtime, mtime)
        return inode

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _new_inode(self, itype: InodeType, parent_ino: int, mode: int = 0,
                   owner: int = 0, size: int = 0, mtime: float = 0.0) -> Inode:
        ino = self._next_ino
        self._next_ino += 1
        inode = Inode(ino=ino, itype=itype, parent_ino=parent_ino, mode=mode,
                      owner=owner, size=size, mtime=mtime)
        self._inodes[ino] = inode
        return inode

    def _name_in(self, parent: Inode, child_ino: int) -> str:
        """Name of ``child_ino``'s primary dentry inside ``parent``."""
        extra = self._extra_links.get(child_ino, set())
        for name, ino in parent.children.items():  # type: ignore[union-attr]
            if ino == child_ino and (parent.ino, name) not in extra:
                return name
        raise FileNotFound(
            f"ino {child_ino} has no primary dentry in dir {parent.ino}")

    def _ancestry_pairs(self, ino: int) -> List[Tuple[int, int]]:
        """``(node, parent)`` pairs from ``ino`` up to (excluding) the root."""
        pairs: List[Tuple[int, int]] = []
        node = self.inode(ino)
        while node.ino != ROOT_INO:
            pairs.append((node.ino, node.parent_ino))
            node = self._inodes[node.parent_ino]
        return pairs

    def _promote_link(self, ino: int) -> Tuple[int, str]:
        """Make one surviving extra link the primary dentry of ``ino``."""
        links = self._extra_links.get(ino)
        if not links:
            raise RuntimeError(f"ino {ino} has nlink>1 but no extra links")
        parent_ino, name = min(links)  # deterministic choice
        links.discard((parent_ino, name))
        if not links:
            del self._extra_links[ino]
        self._inodes[ino].parent_ino = parent_ino
        return parent_ino, name

    # ------------------------------------------------------------------
    # invariants (used by property-based tests)
    # ------------------------------------------------------------------
    def verify_invariants(self) -> None:
        """Raise ``AssertionError`` if internal bookkeeping is inconsistent."""
        # 1. every child pointer refers to a live inode; primary parents match
        dentry_counts: Dict[int, int] = {}
        for node in self._inodes.values():
            if not node.is_dir:
                continue
            for name, child_ino in node.children.items():  # type: ignore[union-attr]
                assert child_ino in self._inodes, (
                    f"dangling dentry {name!r} -> {child_ino}")
                dentry_counts[child_ino] = dentry_counts.get(child_ino, 0) + 1
        # 2. nlink matches dentry count for files; dirs have exactly one
        #    dentry; orphans are unreachable by construction
        for node in self._inodes.values():
            if node.ino == ROOT_INO:
                continue
            if node.ino in self._orphans:
                assert node.nlink == 0 and node.is_file, (
                    f"orphan {node.ino} inconsistent")
                assert node.ino not in dentry_counts, (
                    f"orphan {node.ino} still linked")
                continue
            have = dentry_counts.get(node.ino, 0)
            if node.is_dir:
                assert have == 1, f"dir {node.ino} has {have} dentries"
            else:
                assert have == node.nlink, (
                    f"file {node.ino}: nlink={node.nlink} but {have} dentries")
            parent = self._inodes.get(node.parent_ino)
            assert parent is not None and parent.is_dir, (
                f"ino {node.ino} has bad parent {node.parent_ino}")
            assert node.ino in parent.children.values(), (  # type: ignore[union-attr]
                f"ino {node.ino} missing from its primary parent")
        # 3. anchor table holds exactly the multiply-linked files, and
        #    refcounts equal the number of anchored inodes beneath each entry
        multi = {i.ino for i in self._inodes.values()
                 if i.is_file and i.nlink > 1}
        expected: Dict[int, int] = {}
        for ino in multi:
            for node_ino, _parent in self._ancestry_pairs(ino):
                expected[node_ino] = expected.get(node_ino, 0) + 1
        actual = {e.ino: e.refcount for e in self.anchors._entries.values()}
        assert actual == expected, (
            f"anchor table mismatch: expected {expected}, got {actual}")
        for entry in self.anchors._entries.values():
            assert entry.parent_ino == self._inodes[entry.ino].parent_ino, (
                f"anchor parent stale for ino {entry.ino}")

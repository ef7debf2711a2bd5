"""On-disk layout policies: what one cache miss fetches.

This is the embedded-inode design choice (§4.5) factored out as a policy so
strategies — and the ablation benchmark — can swap it:

* :class:`DirectoryGrainLayout`: inodes are embedded in their directory;
  missing an inode fetches its whole directory in one transaction and yields
  every sibling for prefetching.
* :class:`InodeGrainLayout`: the traditional scattered-inode layout; one
  transaction per inode, nothing to prefetch.
"""

from __future__ import annotations

from typing import Any, Generator, List

from ..namespace import Inode, Namespace
from ..sim import Event
from .objectstore import ObjectStore


def container_ino(inode: Inode) -> int:
    """The directory object that embeds ``inode`` (§4.5).

    A directory is stored with its own entries; a file lives in its
    primary parent's object.
    """
    return inode.ino if inode.is_dir else inode.parent_ino


class Layout:
    """Interface: fetch the object(s) needed to load ``inode`` into cache."""

    #: True when a single miss brings in the containing directory's inodes.
    prefetches_directory: bool = False

    def fetch(self, store: ObjectStore, ns: Namespace,
              inode: Inode) -> Generator[Event, Any, List[int]]:
        """Sub-process performing the I/O; returns prefetchable sibling inos."""
        raise NotImplementedError

    def writeback(self, store: ObjectStore, ns: Namespace,
                  inode: Inode) -> Generator[Event, Any, None]:
        """Sub-process writing a retired dirty inode to tier 2."""
        raise NotImplementedError

    def writeback_batch(self, store: ObjectStore, ns: Namespace,
                        inodes: List[Inode]) -> Generator[Event, Any, int]:
        """Write a batch of retired inodes; returns transactions issued.

        Default: one transaction per inode (scattered layouts cannot do
        better).  Directory-grain layouts override to rewrite each affected
        directory object once (§4.6: incremental B-tree updates).
        """
        for inode in inodes:
            yield from self.writeback(store, ns, inode)
        return len(inodes)


class DirectoryGrainLayout(Layout):
    """Embedded inodes: one read per directory, siblings come along free."""

    prefetches_directory = True

    def fetch(self, store: ObjectStore, ns: Namespace,
              inode: Inode) -> Generator[Event, Any, List[int]]:
        dir_ino = container_ino(inode)
        yield from store.read_dir_object(dir_ino)
        container = ns.inode(dir_ino)
        if container.is_dir and container.children:
            return [child for child in container.children.values()
                    if child != inode.ino]
        return []

    def writeback(self, store: ObjectStore, ns: Namespace,
                  inode: Inode) -> Generator[Event, Any, None]:
        yield from store.write_dir_object(container_ino(inode))

    def writeback_batch(self, store: ObjectStore, ns: Namespace,
                        inodes: List[Inode]) -> Generator[Event, Any, int]:
        """Retired inodes sharing a directory cost one object rewrite."""
        containers = []
        seen = set()
        for inode in inodes:
            container = container_ino(inode)
            if container not in seen:
                seen.add(container)
                containers.append(container)
        for container in containers:
            yield from store.write_dir_object(container)
        return len(containers)


class InodeGrainLayout(Layout):
    """Scattered inodes: every miss is its own transaction, no prefetch."""

    prefetches_directory = False

    def fetch(self, store: ObjectStore, ns: Namespace,
              inode: Inode) -> Generator[Event, Any, List[int]]:
        yield from store.read_inode(inode.ino)
        return []

    def writeback(self, store: ObjectStore, ns: Namespace,
                  inode: Inode) -> Generator[Event, Any, None]:
        yield from store.write_inode(inode.ino)

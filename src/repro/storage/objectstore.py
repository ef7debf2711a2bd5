"""Shared object-storage pool for long-term metadata (§2.1.3, §4.6).

Directory contents — dentries plus their embedded inodes — are stored
together as variably-sized objects spread over a pool of OSDs.  An OSD is
picked per object by hashing the directory inode number, mirroring the
deterministic pseudo-random placement the paper's data path uses [11].

The store supports two access grains:

* **directory-grain** (embedded inodes, §4.5): one read transaction fetches
  an entire directory's entries and inodes — this is what subtree and
  directory-hash strategies use, and what enables prefetching;
* **inode-grain**: one read transaction per inode — what full-path hashing
  and Lazy Hybrid are stuck with, since a directory's inodes are scattered
  across servers and on-disk objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List

from ..sim import Environment, Event
from .disk import DiskDevice


@dataclass(slots=True)
class ObjectStoreStats:
    dir_reads: int = 0
    inode_reads: int = 0
    dir_writes: int = 0
    inode_writes: int = 0


class ObjectStore:
    """A pool of OSD devices addressed by object (inode-number) hash."""

    def __init__(self, env: Environment, *, n_osds: int, read_s: float,
                 write_s: float) -> None:
        if n_osds < 1:
            raise ValueError("need at least one OSD")
        self.env = env
        self.stats = ObjectStoreStats()
        self.osds: List[DiskDevice] = [
            DiskDevice(env, read_s=read_s, write_s=write_s, name=f"osd{i}")
            for i in range(n_osds)
        ]

    def device_for(self, ino: int) -> DiskDevice:
        """OSD holding the object for ``ino`` (stable pseudo-random map)."""
        # Knuth multiplicative scramble decorrelates sequential inos.
        return self.osds[(ino * 2654435761) % len(self.osds)]

    # -- directory-grain ------------------------------------------------------
    def read_dir_object(self, dir_ino: int) -> Generator[Event, Any, None]:
        """Fetch a whole directory object (entries + embedded inodes)."""
        device = self.device_for(dir_ino)
        fast = device.read_event(1)  # single timeout when uncontended
        if fast is not None:
            yield fast
        else:
            yield from device.read(1)
        self.stats.dir_reads += 1

    def write_dir_object(self, dir_ino: int) -> Generator[Event, Any, None]:
        """Write back a directory object (one I/O, whatever changed)."""
        device = self.device_for(dir_ino)
        fast = device.write_event(1)
        if fast is not None:
            yield fast
        else:
            yield from device.write(1)
        self.stats.dir_writes += 1

    # -- inode-grain ------------------------------------------------------------
    def read_inode(self, ino: int) -> Generator[Event, Any, None]:
        """Fetch a single inode record (no prefetch possible)."""
        device = self.device_for(ino)
        fast = device.read_event(1)
        if fast is not None:
            yield fast
        else:
            yield from device.read(1)
        self.stats.inode_reads += 1

    def write_inode(self, ino: int) -> Generator[Event, Any, None]:
        """Write back a single inode record."""
        device = self.device_for(ino)
        fast = device.write_event(1)
        if fast is not None:
            yield fast
        else:
            yield from device.write(1)
        self.stats.inode_writes += 1

    @property
    def total_reads(self) -> int:
        return self.stats.dir_reads + self.stats.inode_reads

    @property
    def total_writes(self) -> int:
        return self.stats.dir_writes + self.stats.inode_writes

"""Metadata storage substrate (S3 in DESIGN.md).

Two-tier model from §4.6: a bounded per-MDS journal for fast commits, and a
shared OSD pool holding directory objects (embedded inodes) for long-term
storage.  Fidelity matches the paper's stated simplification: average
latencies with FIFO queueing.  A directory object is one I/O to fetch and
one to write back; its on-disk B-tree layout and snapshots are not
modelled, since no figure depends on them.
"""

from .disk import DiskDevice, DiskStats
from .journal import Journal, JournalStats
from .layout import (DirectoryGrainLayout, InodeGrainLayout, Layout,
                     container_ino)
from .objectstore import ObjectStore, ObjectStoreStats

__all__ = [
    "DirectoryGrainLayout",
    "DiskDevice",
    "DiskStats",
    "InodeGrainLayout",
    "Journal",
    "JournalStats",
    "Layout",
    "ObjectStore",
    "ObjectStoreStats",
    "container_ino",
]

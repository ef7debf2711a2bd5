"""Request/reply types exchanged between clients and the MDS cluster."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Optional, Union

from ..namespace.path import Path
from ..sim import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Trace

#: Location marker in distribution info: item is replicated on every node,
#: contact any of them (§4.4).
ANY_NODE = -1

#: Error string on replies shed by admission control (bounded inboxes).
#: Clients distinguish a deliberate drop from an FS error by this marker.
OVERLOAD_ERROR = "overloaded: inbox full"

#: Shared immutable empty distribution info.  Most replies carry no location
#: hints (the client already knew where to go), so allocating a fresh dict
#: per reply via ``default_factory`` was pure churn; every such reply now
#: shares this one read-only mapping.
EMPTY_LOCATIONS: Mapping[Path, int] = MappingProxyType({})


def _empty_locations() -> Mapping[Path, int]:
    # dataclasses treat a mappingproxy default as mutable (it is unhashable),
    # so the shared singleton is handed out through a factory instead.
    return EMPTY_LOCATIONS


class OpType(enum.Enum):
    """Metadata operations the cluster serves (§2.2)."""

    OPEN = "open"
    CLOSE = "close"
    STAT = "stat"
    READDIR = "readdir"
    CREATE = "create"
    MKDIR = "mkdir"
    UNLINK = "unlink"
    RENAME = "rename"
    CHMOD = "chmod"
    SETATTR = "setattr"
    LINK = "link"

    #: members are singletons compared by identity, so the C-level
    #: identity hash is exact and skips ``Enum.__hash__``'s Python frame
    #: (ops key the proxy cache and the mutation test on every request)
    __hash__ = object.__hash__


#: Operations that only read metadata — a replica may serve these without
#: consulting the authority.
READ_ONLY_OPS = frozenset({OpType.OPEN, OpType.CLOSE, OpType.STAT,
                           OpType.READDIR})

#: Operations that mutate metadata and must be serialized at the authority.
MUTATING_OPS = frozenset(OpType) - READ_ONLY_OPS


@dataclass(slots=True)
class MdsRequest:
    """One client request travelling through the cluster."""

    op: OpType
    path: Path
    client_id: int
    uid: int = 0
    dst_path: Optional[Path] = None   # for RENAME / LINK
    mode: Optional[int] = None        # for CHMOD / CREATE
    size: Optional[int] = None        # for SETATTR / CREATE
    #: inode handle for CLOSE: lets a client release a file whose name was
    #: unlinked while it was open (§4.5)
    ino: Optional[int] = None
    done: Optional[Event] = None      # completion event (set by the cluster)
    submitted_at: float = 0.0
    hops: int = 0                     # intra-cluster forwards so far
    #: when the request landed in its current node's inbox (set by the
    #: cluster on every delivery; feeds the queue-delay histograms)
    enqueued_at: float = 0.0
    #: span trace riding this request, when the tracer sampled it
    trace: "Optional[Trace]" = None
    #: client-known fact that ``path`` names a directory (a readdir target,
    #: the client's own cwd).  Directory-hash routing needs it: directories
    #: hash on their own path, files on their parent's.
    dir_hint: bool = False

    @property
    def is_mutation(self) -> bool:
        return self.op in MUTATING_OPS


@dataclass(slots=True)
class MdsReply:
    """What the serving MDS returns to the client."""

    ok: bool
    served_by: int
    op: OpType
    path: Path
    error: Optional[str] = None
    #: the inode number the op touched; an OPEN reply's value is the handle
    #: the client passes back on CLOSE (and the input to client-side data
    #: placement, §2.1.1)
    target_ino: Optional[int] = None
    #: distribution info (§4.4): path prefix -> MDS id or ANY_NODE.  Clients
    #: cache this to direct future requests.  Read-only by convention; the
    #: shared :data:`EMPTY_LOCATIONS` stands in when there are no hints.
    locations: Mapping[Path, int] = field(default_factory=_empty_locations)
    forwarded: int = 0                # hops this request took
    latency_s: float = 0.0

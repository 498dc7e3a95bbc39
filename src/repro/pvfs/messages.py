"""Wire protocol between CSAR clients and I/O daemons.

Requests are typed dataclasses; ``wire_size()`` is the number of bytes the
message occupies on the network (a fixed header plus any payload).  The
manager protocol (create/open) uses its own small message types.
Both daemons are a :class:`Server`: a request arrives as an ``Envelope``,
and the server answers through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.storage.payload import Payload

if TYPE_CHECKING:
    from repro.hw.link import NIC
    from repro.hw.node import Node

#: Fixed per-message header: request ids, file handle, offsets, flags.
HEADER = 64


@dataclass
class Request:
    """Base I/O daemon request."""

    file: str

    def wire_size(self) -> int:
        return HEADER

    def reply_size(self) -> int:
        return HEADER


@dataclass
class ReadReq(Request):
    """Read a contiguous local range of one of the file's local files.

    ``kind`` selects which local file: ``data`` (with Hybrid overflow
    resolution), ``red`` (mirror/parity file, used by recovery), ``ovf``
    or ``ovfm`` (overflow files, used by recovery).
    """

    kind: str = "data"
    offset: int = 0
    length: int = 0

    def reply_size(self) -> int:
        return HEADER + self.length


@dataclass
class WriteReq(Request):
    """Write a contiguous local range of the data or redundancy file.

    ``invalidate`` marks the written range as superseding any Hybrid
    overflow entries (set on full-stripe data writes).
    ``mirror_invalidate`` carries (origin, start, end) triples telling this
    server to drop overflow-*mirror* entries it holds on behalf of
    ``origin`` — piggybacked on Hybrid full-stripe writes so a failed
    origin's recovery never resurrects superseded overflow data.
    """

    kind: str = "data"
    offset: int = 0
    payload: Payload = field(default_factory=lambda: Payload.virtual(0))
    invalidate: bool = False
    mirror_invalidate: Tuple[Tuple[int, int, int], ...] = ()

    def wire_size(self) -> int:
        return HEADER + self.payload.length


@dataclass
class ParityReadReq(Request):
    """Read part of a parity block; acquires the block's lock (§5.1).

    ``intra`` is the byte range within the parity block; ``local_offset``
    locates the block in the server's redundancy file.
    """

    group: int = 0
    local_offset: int = 0
    intra: Tuple[int, int] = (0, 0)
    #: the read-modify-write transaction the lock is taken for
    xid: int = field(default=0, kw_only=True)

    def reply_size(self) -> int:
        return HEADER + (self.intra[1] - self.intra[0])


@dataclass
class ParityWriteReq(Request):
    """Write part of a parity block.

    With ``unlock`` set (the read-modify-write path) the write releases
    the lock this xid acquired with its earlier :class:`ParityReadReq`.
    Full-stripe parity writes never locked, so they leave ``unlock``
    False.
    """

    group: int = 0
    local_offset: int = 0
    intra: Tuple[int, int] = (0, 0)
    payload: Payload = field(default_factory=lambda: Payload.virtual(0))
    unlock: bool = False
    xid: int = field(default=0, kw_only=True)

    def wire_size(self) -> int:
        return HEADER + self.payload.length


@dataclass
class OverflowWriteReq(Request):
    """Append updated byte ranges to an overflow region (Hybrid partials).

    ``ranges`` are (local_start, local_end) in data-file byte space; the
    payload is their concatenation.  With ``mirror`` set, the receiving
    server stores the copy in its overflow-mirror file on behalf of
    ``origin`` (the failed-server recovery source).
    """

    ranges: List[Tuple[int, int]] = field(default_factory=list)
    payload: Payload = field(default_factory=lambda: Payload.virtual(0))
    mirror: bool = False
    origin: int = -1

    def wire_size(self) -> int:
        return HEADER + self.payload.length


@dataclass
class MirrorResolveReq(Request):
    """Recovery read: resolve ``origin``'s overflow from this server's
    mirror table, returning the covered ranges and their latest bytes.

    Used when server ``origin`` has failed and its own overflow table is
    gone; the mirror on ``origin + 1`` is the authoritative surviving copy.
    """

    origin: int = -1
    offset: int = 0
    length: int = 0

    def reply_size(self) -> int:
        return HEADER + self.length


@dataclass
class FsyncReq(Request):
    """Flush one PVFS file's local files on this server."""


@dataclass
class CompactOverflowReq(Request):
    """Rewrite the overflow region keeping only live bytes (reclaimer).

    Applied to both the server's own overflow table and any mirror tables
    it holds for this file; superseded and invalidated versions are
    dropped and the overflow files shrink to the live footprint.
    """


@dataclass
class Response:
    """Reply from an I/O daemon."""

    payload: Optional[Payload] = None
    error: Optional[Exception] = None
    #: covered (start, end) ranges for MirrorResolveReq replies
    ranges: Tuple[Tuple[int, int], ...] = ()


@dataclass
class MgrResponse:
    """Reply from the metadata manager."""

    meta: object = None
    error: Optional[Exception] = None


# ---------------------------------------------------------------------------
# manager protocol
# ---------------------------------------------------------------------------
@dataclass
class MgrCreate:
    name: str
    #: per-file redundancy override (None = the deployment default) — an
    #: AutoRAID-flavoured extension: scratch data can run raid0 while
    #: checkpoints run hybrid, in one namespace
    scheme: Optional[str] = None

    def wire_size(self) -> int:
        return HEADER

    def reply_size(self) -> int:
        return HEADER


@dataclass
class MgrOpen:
    name: str

    def wire_size(self) -> int:
        return HEADER

    def reply_size(self) -> int:
        return HEADER + 64  # layout descriptor


# ---------------------------------------------------------------------------
# the server side of an RPC
# ---------------------------------------------------------------------------
#: a request as a server takes it off the wire: ``(request, reply_nic,
#: reply)``; ``reply(response)`` answers once the reply has crossed the
#: wire to ``reply_nic``
Envelope = Tuple[Any, "NIC", Callable[[Any], None]]


class Server:
    """What a client RPC needs of a daemon: an I/O daemon or the manager."""

    #: the I/O server number a client suspects when it fails (not the
    #: manager's); a failed server's node does no per-byte work
    index: Optional[int] = None
    failed: bool = False
    node: "Node"

    def deliver(self, envelope: Envelope) -> None:
        """Take one request off the wire."""
        raise NotImplementedError

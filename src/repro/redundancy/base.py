"""The redundancy-scheme interface and shared read/write plumbing.

A scheme is a *client-side* strategy object: given a file's layout it
decides which servers receive which bytes and what redundancy accompanies
them.  Reads are identical across schemes during normal operation —
redundancy is never read (Section 4) — so the striped read with
degraded-mode fallback lives here; each scheme supplies only its
reconstruction rule and its write path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import ConfigError, DataLoss, ServerFailed
from repro.pvfs import messages as msg
from repro.pvfs.layout import ServerRange
from repro.sim.engine import Event
from repro.storage.payload import Payload


class RedundancyScheme(ABC):
    """Strategy interface: how writes carry redundancy, how reads recover."""

    #: registry key ("raid0", "raid1", ...)
    name: str = ""

    def __init__(self, config) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # write path (scheme-specific)
    # ------------------------------------------------------------------
    @abstractmethod
    def write(self, client, meta, offset: int,
              payload: Payload) -> Generator[Event, Any, None]:
        """Store ``payload`` at ``offset`` with this scheme's redundancy."""

    # ------------------------------------------------------------------
    # read path (shared striped read + degraded fallback)
    # ------------------------------------------------------------------
    def read(self, client, meta, offset: int,
             length: int) -> Generator[Event, Any, Payload]:
        ranges = meta.layout.map_range(offset, length)
        outcomes = yield from client.read_shares(meta.name, ranges)
        shares: List[Payload] = []
        for sr, (response, error) in zip(ranges, outcomes):
            if error is None:
                shares.append(response.payload)
                continue
            # A failed (or suspected: fail-fast) server's share is
            # reconstructed from the survivors.
            if not isinstance(error, ServerFailed):
                raise error
            client.metrics.add("client.degraded_reads")
            shares.append((yield from self.degraded_read(client, meta, sr)))
        return client.assemble(offset, length, ranges, shares)

    @abstractmethod
    def degraded_read(self, client, meta,
                      sr: ServerRange) -> Generator[Event, Any, Payload]:
        """Reconstruct a failed server's share ``sr`` from survivors.

        Returns a payload covering ``[sr.local_start, sr.local_end)`` of
        the failed server's data file.
        """

    # ------------------------------------------------------------------
    # degraded-write support
    # ------------------------------------------------------------------
    def _tolerant_parallel(self, client, targets: List[int], calls: List,
                           ) -> Generator[Event, Any, List[Tuple[Any, Optional[Exception]]]]:
        """Run calls concurrently, tolerating one failed *server*.

        ``targets[i]`` is the server index call ``i`` addresses.  All
        failures must come from a single server (the schemes' fault
        model); anything else re-raises.  Degraded writes keep the
        cluster available while a server is down: the redundancy carried
        by the surviving writes keeps every byte recoverable, and a
        rebuild folds the new data back in.
        """
        outcomes = yield from client.try_parallel(calls)
        failed_servers = set()
        for target, (_value, error) in zip(targets, outcomes):
            if error is None:
                continue
            if not isinstance(error, ServerFailed):
                raise error
            failed_servers.add(target)
        if len(failed_servers) > 1:
            raise DataLoss(
                f"servers {sorted(failed_servers)} failed during one "
                "write; this scheme tolerates a single failure")
        if failed_servers:
            client.metrics.add("client.degraded_writes")
        return outcomes

    # ------------------------------------------------------------------
    # shared write helpers
    # ------------------------------------------------------------------
    def _gather(self, payload: Payload, base_offset: int,
                sr: ServerRange) -> Payload:
        """The bytes of ``payload`` destined for one server, in local order."""
        if payload.is_virtual:
            # Extent mode: only the length travels, but the share must
            # still lie inside the payload (``slice`` raises otherwise).
            lo, hi = sr.logical_bounds()
            payload.slice(lo - base_offset, hi - base_offset)
            return Payload.virtual(sr.length)
        parts = []
        at = 0
        for p in sr.pieces:
            lo = p.logical_offset - base_offset
            parts.append((at, payload.slice(lo, lo + p.length)))
            at += p.length
        return Payload.assemble(sr.length, parts)

    def _data_write_requests(self, client, meta, offset: int,
                             payload: Payload, invalidate: bool = False,
                             ) -> List[Tuple[int, msg.WriteReq]]:
        """One data-file WriteReq per server for a logical range."""
        out = []
        for sr in meta.layout.map_range(offset, payload.length):
            out.append((sr.server, msg.WriteReq(
                meta.name, kind="data", offset=sr.local_start,
                payload=self._gather(payload, offset, sr),
                invalidate=invalidate, xid=client.next_xid())))
        return out


SCHEMES: Dict[str, type] = {}


def register(cls: type) -> type:
    """Class decorator adding a scheme to the registry."""
    SCHEMES[cls.name] = cls
    return cls


def make_scheme(name: str, config) -> RedundancyScheme:
    """Instantiate a redundancy scheme by registry name."""
    try:
        cls = SCHEMES[name]
    except KeyError:
        raise ConfigError(
            f"unknown redundancy scheme {name!r}; known: {sorted(SCHEMES)}"
        ) from None
    return cls(config)


# Import the concrete schemes so the registry is populated on package use.
from repro.redundancy import raid0, raid1, raid5, hybrid  # noqa: E402,F401

"""CSAR's RAID1: striped block mirroring.

Section 4: "each I/O daemon maintains two files per client file" — the
data file (identical to PVFS) and a redundancy file.  A write is one
:class:`~repro.redundancy.plan.Mirrored` portion: each server's data is
mirrored into the redundancy file of its successor
(:meth:`~repro.pvfs.layout.StripeLayout.successor`) at the same local
offsets, so any single server failure leaves a full copy of its data on
its neighbour.  Every write moves 2x the bytes, which is exactly what
saturates the client NIC in Figure 4(a) and overflows the server caches
in Figure 7.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.pvfs import messages as msg
from repro.pvfs.layout import ServerRange
from repro.redundancy import base
from repro.sim.engine import Event
from repro.storage.payload import Payload


@base.register
class Raid1(base.RedundancyScheme):
    """Striped mirroring (RAID10-style)."""

    name = "raid1"

    def degraded_read(self, client, meta,
                      sr: ServerRange) -> Generator[Event, Any, Payload]:
        mirror = meta.layout.successor(sr.server)
        response = yield from client.rpc(client.iods[mirror], msg.ReadReq(
            meta.name, kind="red", offset=sr.local_start, length=sr.length,
            xid=client.next_xid()))
        return response.payload

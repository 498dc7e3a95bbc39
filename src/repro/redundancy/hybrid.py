"""The Hybrid scheme — CSAR's contribution (Section 4).

Every write is decomposed (:func:`~repro.redundancy.plan.plan_write`)
into a leading partial-stripe portion, an integral number of full
stripes, and a trailing partial:

* the **full-stripe** portion is written exactly like RAID5 — parity
  from the data in hand, no reads, no locks — and also *invalidates* the
  overflow entries it supersedes ("a later full stripe write
  automatically moves this data back to RAID5");
* the **partial** portions are written RAID1-style, but never in place:
  the old blocks must survive for stripe reconstruction, so the new bytes
  are appended to an *overflow region* on their home server and mirrored
  to the successor's overflow-mirror file.

The payoff measured in the paper: RAID1's latency on small or unaligned
writes (no read-modify-write, no parity locks) with RAID5's bandwidth
parsimony on large ones.  The shared executor (:mod:`repro.redundancy.base`)
writes; this scheme adds its reconstruction rule.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.pvfs import messages as msg
from repro.pvfs.layout import ServerRange
from repro.redundancy import base
from repro.sim.engine import Event
from repro.storage.payload import Payload


@base.register
class Hybrid(base.RedundancyScheme):
    """Per-write dynamic RAID1/RAID5 selection with overflow regions."""

    name = "hybrid"

    def degraded_read(self, client, meta,
                      sr: ServerRange) -> Generator[Event, Any, Payload]:
        """Reconstruct in-place data via parity, then overlay the
        surviving overflow mirror (the latest copies)."""
        inplace = yield from self._reconstruct(client, meta, sr)
        mirror = meta.layout.successor(sr.server)
        response = yield from client.rpc(client.iods[mirror],
                                         msg.MirrorResolveReq(
            meta.name, origin=sr.server, offset=sr.local_start,
            length=sr.length, xid=client.next_xid()))
        out = inplace
        for lo, hi in response.ranges:
            out = out.overlay(lo - sr.local_start,
                              response.payload.slice(lo - sr.local_start,
                                                     hi - sr.local_start))
        return out

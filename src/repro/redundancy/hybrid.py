"""The Hybrid scheme — CSAR's contribution (Section 4).

Every write is decomposed into (1) a leading partial-stripe portion,
(2) an integral number of full stripes, and (3) a trailing partial:

* the **full-stripe** portion is written exactly like RAID5 — parity
  computed from the data in hand, no reads, no locks — and additionally
  *invalidates* any overflow entries it supersedes ("a later full stripe
  write automatically moves this data back to RAID5");
* the **partial** portions are written RAID1-style, but never in place:
  the old blocks must survive for stripe reconstruction, so the new bytes
  are appended to an *overflow region* on their home server and mirrored
  to the successor server's overflow-mirror file.

The payoff measured in the paper: no read-modify-write and no parity
locks on small or unaligned writes (RAID1's latency), with RAID5's
bandwidth parsimony on large writes.
"""

from __future__ import annotations

from typing import Any, Generator, List, Tuple

from repro.pvfs import messages as msg
from repro.pvfs.layout import ServerRange
from repro.redundancy import base
from repro.redundancy.raid5 import Raid5
from repro.sim.engine import Event
from repro.storage.payload import Payload


@base.register
class Hybrid(Raid5):
    """Per-write dynamic RAID1/RAID5 selection with overflow regions."""

    name = "hybrid"

    # ------------------------------------------------------------------
    def _write_inner(self, client, meta, offset: int,
                     payload: Payload) -> Generator[Event, Any, None]:
        head, full, tail = meta.layout.split_by_groups(offset, payload.length)
        procs = []
        if full[1] > full[0]:
            client.metrics.add("hybrid.full_stripe_bytes", full[1] - full[0])
            procs.append(client.env.process(self._write_full_groups(
                client, meta, full[0],
                payload.slice(full[0] - offset, full[1] - offset),
                invalidate=True)))
        for lo, hi in (head, tail):
            if hi > lo:
                client.metrics.add("hybrid.partial_stripe_bytes", hi - lo)
                procs.append(client.env.process(self._write_overflow(
                    client, meta, lo, payload.slice(lo - offset, hi - offset))))
        yield client.env.all_of(procs)

    # ------------------------------------------------------------------
    def _write_overflow(self, client, meta, start: int, payload: Payload,
                        ) -> Generator[Event, Any, None]:
        """RAID1-style partial-stripe write into overflow + mirror."""
        client.env.emit("hybrid.overflow.before_write", None)
        n = meta.layout.n
        calls: List = []
        targets: List[int] = []
        for sr in meta.layout.map_range(start, payload.length):
            chunk = self._gather(payload, start, sr)
            ranges: Tuple[Tuple[int, int], ...] = self._local_ranges(sr)
            calls.append(client.rpc(client.iods[sr.server],
                                    msg.OverflowWriteReq(
                meta.name, ranges=list(ranges), payload=chunk,
                xid=client.next_xid())))
            targets.append(sr.server)
            calls.append(client.rpc(client.iods[(sr.server + 1) % n],
                                    msg.OverflowWriteReq(
                meta.name, ranges=list(ranges), payload=chunk, mirror=True,
                origin=sr.server, xid=client.next_xid())))
            targets.append((sr.server + 1) % n)
        # Degraded mode: home and mirror are different nodes, so one
        # failed server still leaves one current copy of every byte.
        yield from self._tolerant_parallel(client, targets, calls)
        client.env.emit("hybrid.overflow.after_write", None)

    @staticmethod
    def _local_ranges(sr: ServerRange) -> Tuple[Tuple[int, int], ...]:
        """A server's share as (local_start, local_end) ranges.

        The share is contiguous in the local file, so this is one range;
        kept as a tuple-of-ranges because the overflow protocol allows
        scatter entries.
        """
        return ((sr.local_start, sr.local_end),)

    # ------------------------------------------------------------------
    def degraded_read(self, client, meta,
                      sr: ServerRange) -> Generator[Event, Any, Payload]:
        """Reconstruct in-place data via parity, then overlay the
        surviving overflow mirror (the latest copies)."""
        inplace = yield from super().degraded_read(client, meta, sr)
        mirror = (sr.server + 1) % meta.layout.n
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

"""CSAR's RAID5: rotating parity with client-driven read-modify-write.

Write path (Section 4):

* the client splits the write into full parity groups and at most two
  partial groups (head/tail);
* full groups: parity is computed from the data being written and both
  are written out — no locking needed because nothing is read;
* partial groups: the client reads the old data being overwritten and the
  old parity region, computes ``new_parity = old_parity ⊕ old ⊕ new``, and
  writes new data plus parity.  The parity *read* acquires the server-side
  block lock and the parity *write* releases it (Section 5.1); when both a
  head and a tail partial exist, the tail's parity read is only issued
  after the head's completes (ascending-group order, the paper's deadlock
  avoidance).

``config.compute_parity = False`` reproduces the *RAID5-npc* curve of
Figure 4(a) (identical traffic, no XOR cost); ``config.locking = False``
(on the I/O daemons) reproduces *R5 NO LOCK* from Figure 3.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import ServerFailed
from repro.pvfs import messages as msg
from repro.pvfs.layout import ServerRange
from repro.redundancy import base
from repro.sim.engine import Event
from repro.storage.payload import Payload


@base.register
class Raid5(base.RedundancyScheme):
    """Rotating-parity redundancy (Figure 2 layout)."""

    name = "raid5"

    # ------------------------------------------------------------------
    # write entry point
    # ------------------------------------------------------------------
    def write(self, client, meta, offset: int,
              payload: Payload) -> Generator[Event, Any, None]:
        emit = client.env.emit
        emit("write.start", meta.name)
        try:
            if self.config.strict_locking and self.config.locking:
                yield from self._strict_write(client, meta, offset, payload)
            else:
                yield from self._write_inner(client, meta, offset, payload)
        finally:
            emit("write.complete", meta.name)

    def _rmw_unlock(self, own_lock: bool) -> bool:
        """Whether the RMW's closing ParityWriteReq releases the group
        lock it took.  A seam for fault-injecting subclasses
        (:mod:`repro.analysis.seeded_bugs`); real schemes always
        release what they acquired."""
        return own_lock

    def _fold_parity(self, parity: Payload,
                     patches: List[Tuple[int, Payload]]) -> Payload:
        """Fold the RMW's old/new delta patches into the parity piece.

        A seam for fault-injecting subclasses
        (:mod:`repro.analysis.seeded_bugs`); the real scheme folds into
        a private writable copy (``xor_at_many``) and never touches the
        server response's frozen buffer."""
        return parity.xor_at_many(patches)

    def _strict_write(self, client, meta, offset: int,
                      payload: Payload) -> Generator[Event, Any, None]:
        """Section 5.1's stronger-consistency extension: take every
        touched group's lock (ascending, at the parity servers) around
        the whole write, serializing even overlapping concurrent writes.
        """
        lay = meta.layout
        first = lay.group_of(offset)
        last = lay.group_of(offset + payload.length - 1)
        xid = client.next_xid()
        for group in range(first, last + 1):
            yield from client.rpc(
                client.iods[lay.parity_server(group)],
                msg.GroupLockReq(meta.name, group=group, xid=xid))
        try:
            yield from self._write_inner(client, meta, offset, payload)
        finally:
            yield from client.parallel([
                client.rpc(client.iods[lay.parity_server(group)],
                           msg.GroupUnlockReq(meta.name, group=group,
                                              xid=xid))
                for group in range(first, last + 1)])

    def _write_inner(self, client, meta, offset: int,
                     payload: Payload) -> Generator[Event, Any, None]:
        head, full, tail = meta.layout.split_by_groups(offset, payload.length)
        procs = []
        if full[1] > full[0]:
            procs.append(client.env.process(self._write_full_groups(
                client, meta, full[0],
                payload.slice(full[0] - offset, full[1] - offset))))
        partials = [seg for seg in (head, tail) if seg[1] > seg[0]]
        if partials:
            procs.append(client.env.process(self._write_partials(
                client, meta, partials, payload, offset)))
        yield client.env.all_of(procs)

    # ------------------------------------------------------------------
    # full parity groups: compute parity from the new data, no locks
    # ------------------------------------------------------------------
    def _parity_for_group(self, lay, group: int, payload: Payload,
                          base_offset: int) -> Payload:
        lo, _hi = lay.group_range(group)
        if not self.config.compute_parity:
            return Payload.virtual(lay.unit) if payload.is_virtual \
                else Payload.zeros(lay.unit)
        blocks = [payload.slice(lo - base_offset + i * lay.unit,
                                lo - base_offset + (i + 1) * lay.unit)
                  for i in range(lay.group_width)]
        return Payload.xor(blocks, lay.unit)

    def _parity_write_requests(self, client, meta, start: int, end: int,
                               payload: Payload, base_offset: int,
                               ) -> Dict[int, msg.WriteReq]:
        """Batched per-server parity writes for groups covering [start,end).

        A server's parity blocks for consecutive groups pack densely in
        its redundancy file, so each server gets one contiguous write.
        """
        lay = meta.layout
        per_server: Dict[int, List[Tuple[int, Payload]]] = {}
        for group in range(lay.group_of(start), lay.group_of(end - 1) + 1):
            parity = self._parity_for_group(lay, group, payload, base_offset)
            per_server.setdefault(lay.parity_server(group), []).append(
                (lay.parity_local_offset(group), parity))
        out: Dict[int, msg.WriteReq] = {}
        for server, blocks in per_server.items():
            blocks.sort()
            first = blocks[0][0]
            parts = [(local - first, p) for local, p in blocks]
            length = parts[-1][0] + blocks[-1][1].length
            out[server] = msg.WriteReq(
                meta.name, kind="red", offset=first,
                # One parity message per server: assemble is zero-copy
                # (segment rope) and runs once per server, not per block.
                payload=Payload.assemble(length, parts),  # csar-lint: disable=CSAR012
                xid=client.next_xid())
        return out

    def _write_full_groups(self, client, meta, start: int, payload: Payload,
                           invalidate: bool = False,
                           ) -> Generator[Event, Any, None]:
        lay = meta.layout
        end = start + payload.length
        if self.config.compute_parity:
            yield from client.node.cpu.compute_parity(
                payload.length, bytewise=self.config.parity_bytewise)
        data_requests = self._data_write_requests(
            client, meta, start, payload, invalidate=invalidate)
        parity_requests = self._parity_write_requests(
            client, meta, start, end, payload, start)
        if invalidate:
            self._attach_mirror_invalidations(
                meta, start, payload.length,
                {server: req for server, req in data_requests},
                parity_requests)
        client.env.emit("raid5.full_stripe.before_write", None)
        calls = [client.rpc(client.iods[s], r) for s, r in data_requests]
        targets = [s for s, _r in data_requests]
        calls += [client.rpc(client.iods[s], r)
                  for s, r in parity_requests.items()]
        targets += list(parity_requests)
        # Degraded mode: parity is computed from the complete new data the
        # client holds, so a failed data server's block stays recoverable
        # (and a failed parity server just leaves parity for the rebuild).
        yield from self._tolerant_parallel(client, targets, calls)

    def _attach_mirror_invalidations(self, meta, start: int, length: int,
                                     data_by_server: Dict[int, msg.WriteReq],
                                     parity_by_server: Dict[int, msg.WriteReq],
                                     ) -> None:
        """Hybrid hook: full-stripe writes must also drop stale overflow
        *mirror* entries held by each data server's successor."""
        n = meta.layout.n
        for sr in meta.layout.map_range(start, length):
            holder = (sr.server + 1) % n
            target = data_by_server.get(holder) or parity_by_server.get(holder)
            if target is None:  # pragma: no cover - full groups hit all servers
                raise AssertionError("mirror holder got no request")
            target.mirror_invalidate += (
                (sr.server, sr.local_start, sr.local_end),)

    # ------------------------------------------------------------------
    # partial groups: locked read-modify-write
    # ------------------------------------------------------------------
    def _write_partials(self, client, meta,
                        segments: List[Tuple[int, int]], payload: Payload,
                        base_offset: int) -> Generator[Event, Any, None]:
        """Run the (≤2) partial-group RMWs, parity reads in ascending order."""
        segments = sorted(segments)
        procs = []
        gate: Optional[Event] = None
        for lo, hi in segments:
            read_done = client.env.event()
            procs.append(client.env.process(self._rmw(
                client, meta, lo, hi,
                payload.slice(lo - base_offset, hi - base_offset),
                gate, read_done)))
            gate = read_done
        yield client.env.all_of(procs)

    def _rmw(self, client, meta, lo: int, hi: int, new_data: Payload,
             gate: Optional[Event], parity_read_done: Event,
             ) -> Generator[Event, Any, None]:
        lay = meta.layout
        unit = lay.unit
        group = lay.group_of(lo)
        xid = client.next_xid()
        ranges = lay.map_range(lo, hi - lo)
        pieces = [p for sr in ranges for p in sr.pieces]
        intra_lo = min(p.local_offset % unit for p in pieces)
        intra_hi = max(p.local_offset % unit + p.length for p in pieces)
        p_server = lay.parity_server(group)
        p_local = lay.parity_local_offset(group)

        # Old-data reads proceed immediately; the parity read (which takes
        # the lock) waits for the lower-numbered group's read to finish.
        old_data_proc = client.env.process(client.try_parallel([
            client.rpc(client.iods[sr.server],
                       msg.ReadReq(meta.name, kind="data",
                                   offset=sr.local_start, length=sr.length,
                                   xid=xid))
            for sr in ranges]))
        # Under strict whole-group locking the writer already holds this
        # group's lock, so the RMW's parity read/write must not re-lock.
        own_lock = not (self.config.strict_locking and self.config.locking)
        if gate is not None:
            yield gate
        client.env.emit("raid5.rmw.before_parity_read", p_server)
        try:
            parity_response = yield from client.rpc(
                client.iods[p_server],
                msg.ParityReadReq(meta.name, group=group, local_offset=p_local,
                                  intra=(intra_lo, intra_hi), xid=xid,
                                  lock=own_lock))
        except ServerFailed:
            # Degraded mode, parity server down: no lock to take and no
            # parity to maintain — write the data in place; the rebuild
            # recomputes this group's parity from the in-place data.
            yield old_data_proc  # let the reads settle
            client.metrics.add("client.degraded_writes")
            calls = [client.rpc(client.iods[sr.server], msg.WriteReq(
                        meta.name, kind="data", offset=sr.local_start,
                        payload=self._gather(new_data, lo, sr), xid=xid))
                     for sr in ranges]
            yield from self._tolerant_parallel(
                client, [sr.server for sr in ranges], calls)
            return
        finally:
            # Always open the gate so a failure here cannot deadlock the
            # sibling partial-group RMW waiting on us.
            if not parity_read_done.triggered:
                parity_read_done.succeed()

        client.env.emit("raid5.rmw.after_parity_read", p_server)
        outcomes = yield old_data_proc
        old_chunks = []
        old_errors: List[Optional[Exception]] = [e for _v, e in outcomes]
        for sr, (response, error) in zip(ranges, outcomes):
            if error is None:
                old_chunks.append(response.payload)
            elif isinstance(error, ServerFailed):
                # Degraded mode, data server down: reconstruct the old
                # bytes from the surviving blocks + parity so the parity
                # update still implies the new data of the lost block.
                client.metrics.add("client.degraded_writes")
                piece = yield from Raid5.degraded_read(self, client, meta, sr)
                old_chunks.append(piece)
            else:
                raise error

        new_parity = parity_response.payload
        if self.config.compute_parity:
            # One in-place fold over the parity region: XOR-ing the old
            # and the new piece in directly is the delta fold without
            # allocating a delta (or a parity copy) per piece.
            patches: List[Tuple[int, Payload]] = []
            for sr, old_chunk in zip(ranges, old_chunks):
                for p in sr.pieces:
                    at = p.local_offset - sr.local_start
                    lo_l = p.logical_offset - lo
                    patch_at = p.local_offset % unit - intra_lo
                    patches.append((patch_at,
                                    old_chunk.slice(at, at + p.length)))
                    patches.append((patch_at,
                                    new_data.slice(lo_l, lo_l + p.length)))
            new_parity = self._fold_parity(new_parity, patches)
            yield from client.node.cpu.compute_parity(
                2 * (hi - lo), bytewise=self.config.parity_bytewise)
        else:
            new_parity = (Payload.virtual(intra_hi - intra_lo)
                          if new_parity.is_virtual
                          else Payload.zeros(intra_hi - intra_lo))

        client.env.emit("raid5.rmw.before_writeback", p_server)
        calls = [client.rpc(client.iods[sr.server], msg.WriteReq(
                    meta.name, kind="data", offset=sr.local_start,
                    payload=self._gather(new_data, lo, sr), xid=xid))
                 for sr in ranges]
        targets = [sr.server for sr in ranges]
        calls.append(client.rpc(client.iods[p_server], msg.ParityWriteReq(
            meta.name, group=group, local_offset=p_local,
            intra=(intra_lo, intra_hi), payload=new_parity,
            unlock=self._rmw_unlock(own_lock), xid=xid)))
        targets.append(p_server)
        wb_outcomes = yield from self._tolerant_parallel(client, targets,
                                                         calls)
        yield from self._writeback_outcome(
            client, meta, group, ranges, old_errors, old_chunks,
            new_data, lo, (intra_lo, intra_hi), wb_outcomes, xid)
        client.env.emit("raid5.rmw.after_writeback", p_server)

    def _writeback_outcome(self, client, meta, group: int, ranges,
                           old_errors, old_chunks, new_data: Payload,
                           base_lo: int, intra: Tuple[int, int], outcomes,
                           xid: int) -> Generator[Event, Any, None]:
        """Seam: inspect the RMW writeback's per-call outcomes.

        ``outcomes`` pairs up with the data writes (one per server
        range) followed by the parity write; ``old_errors`` /
        ``old_chunks`` are the per-range results of the old-data reads.
        The real scheme needs no reaction — a single failed data write
        is already covered by the folded parity — so this is a no-op; a
        seam for fault-injecting subclasses
        (:mod:`repro.analysis.seeded_bugs`)."""
        return
        yield  # pragma: no cover - makes this a generator

    # ------------------------------------------------------------------
    # degraded read: XOR the surviving blocks and the parity
    # ------------------------------------------------------------------
    def degraded_read(self, client, meta,
                      sr: ServerRange) -> Generator[Event, Any, Payload]:
        """Reconstruct ``sr`` by XOR-ing survivors + parity, batched.

        Every piece's survivor and parity reads are issued through one
        coalesced batch: a surviving server's blocks for consecutive
        groups sit on consecutive local rows (and so do a server's parity
        blocks), so a multi-piece recovery collapses to roughly one
        message per server per parity-duty gap instead of ``n`` messages
        per piece.
        """
        lay = meta.layout
        unit = lay.unit
        pairs: List[Tuple[Any, msg.ReadReq]] = []
        piece_slots: List[List[int]] = []
        for p in sr.pieces:
            group = lay.group_of(p.logical_offset)
            intra = p.local_offset % unit
            slots: List[int] = []
            for block in lay.blocks_of_group(group):
                server = lay.server_of_block(block)
                if server == sr.server:
                    continue
                local = lay.local_offset_of_block(block) + intra
                slots.append(len(pairs))
                pairs.append((client.iods[server], msg.ReadReq(
                    meta.name, kind="inplace", offset=local, length=p.length,
                    xid=client.next_xid())))
            slots.append(len(pairs))
            pairs.append((client.iods[lay.parity_server(group)], msg.ReadReq(
                meta.name, kind="red",
                offset=lay.parity_local_offset(group) + intra,
                length=p.length, xid=client.next_xid())))
            piece_slots.append(slots)
        outcomes = yield from client.rpc_coalesced(pairs)
        parts: List[Tuple[int, Payload]] = []
        for p, slots in zip(sr.pieces, piece_slots):
            blocks = []
            for i in slots:
                response, error = outcomes[i]
                if error is not None:
                    raise error
                blocks.append(response.payload)
            rebuilt = Payload.xor(blocks, p.length)
            parts.append((p.local_offset - sr.local_start, rebuilt))
        return Payload.assemble(sr.length, parts)

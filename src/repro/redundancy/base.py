"""The redundancy-scheme interface: one write executor, one read path.

A scheme is a *client-side* strategy object.  What a write does is a
pure :class:`~repro.redundancy.plan.WritePlan`; :meth:`RedundancyScheme.write`
runs any plan with one handler per portion kind, and the handlers
announce the protocol-step probes (:mod:`repro.probes`) a fault plan may
target.  Reads are identical across schemes during normal operation —
redundancy is never read (Section 4) — so each scheme supplies only its
reconstruction rule, :meth:`~RedundancyScheme.degraded_read`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Generator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, DataLoss, ServerFailed
from repro.pvfs import messages as msg
from repro.pvfs.layout import ServerRange, StripeLayout
from repro.redundancy.plan import (FullStripe, Mirrored, Portion, Rmw,
                                   Stripe, WritePlan, plan_write)
from repro.sim.engine import Event
from repro.storage.payload import Payload
from repro.util.parity import xor_segments


class RmwOutcome(NamedTuple):
    """What one read-modify-write learned (:meth:`RedundancyScheme._rmw`):
    the servers' shares of the range, per share the old bytes and the
    old-data read's error (or ``None``), the byte range within the parity
    block, the old parity the server returned for it, and ``(value,
    error)`` per writeback call — the data writes, then the parity one."""

    ranges: List[ServerRange]
    old_chunks: List[Payload]
    old_errors: List[Optional[Exception]]
    intra: Tuple[int, int]
    parity: Payload
    writeback: List[Tuple[Any, Optional[Exception]]]


def rmw_patches(ranges: List[ServerRange], old_chunks: List[Payload],
                new_data: Payload, lo: int, intra_lo: int,
                unit: int) -> List[Tuple[int, Payload]]:
    """The parity fold of a read-modify-write of ``[lo, ...)``: each
    piece's old and new bytes at its offset in the parity region — XOR-ing
    both in is the delta fold without allocating a delta per piece."""
    patches: List[Tuple[int, Payload]] = []
    for sr, old_chunk in zip(ranges, old_chunks):
        for p in sr.pieces:
            at = p.local_offset - sr.local_start
            lo_l = p.logical_offset - lo
            patch_at = p.local_offset % unit - intra_lo
            patches.append((patch_at, old_chunk.slice(at, at + p.length)))
            patches.append((patch_at, new_data.slice(lo_l, lo_l + p.length)))
    return patches


def _check_inside(lo: int, hi: int, length: int) -> None:
    """Raise unless ``[lo, hi)`` lies inside a payload of ``length``."""
    if lo < 0 or hi > length:
        raise ValueError(f"range [{lo},{hi}) outside payload of {length}")


class RedundancyScheme(ABC):
    """Strategy interface: how writes carry redundancy, how reads recover."""

    #: registry key ("raid0", "raid1", ...); also selects the write plan
    name: str = ""

    def __init__(self, config) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # write path: plan, then execute
    # ------------------------------------------------------------------
    def plan(self, layout: StripeLayout, offset: int,
             length: int) -> WritePlan:
        """This scheme's plan for writing ``[offset, offset + length)``."""
        config = self.config
        return plan_write(layout, self.name, offset, length,
                          strict=config.strict_locking and config.locking)

    def write(self, client, meta, offset: int,
              payload: Payload) -> Generator[Event, Any, None]:
        """Store ``payload`` at ``offset`` with this scheme's redundancy."""
        plan = self.plan(meta.layout, offset, payload.length)
        if plan.groups is None:
            yield from self._execute(client, meta, plan, offset, payload)
        else:
            yield from self._strict_write(client, meta, plan, offset,
                                          payload)

    def _strict_write(self, client, meta, plan: WritePlan, offset: int,
                      payload: Payload) -> Generator[Event, Any, None]:
        """Section 5.1's stronger-consistency extension: take every
        touched group's lock (ascending, at the parity servers) around
        the whole write, serializing even overlapping concurrent writes.
        """
        lay = meta.layout
        xid = client.next_xid()
        for group in plan.groups:
            yield from client.rpc(
                client.iods[lay.parity_server(group)],
                msg.GroupLockReq(meta.name, group=group, xid=xid))
        try:
            yield from self._execute(client, meta, plan, offset, payload)
        finally:
            yield from client.parallel([
                client.rpc(client.iods[lay.parity_server(group)],
                           msg.GroupUnlockReq(meta.name, group=group,
                                              xid=xid))
                for group in plan.groups])

    def _execute(self, client, meta, plan: WritePlan, offset: int,
                 payload: Payload) -> Generator[Event, Any, None]:
        """Run a plan's portions.

        A RAID0 or RAID1 write's one portion runs in the writer's own
        process.  A parity-scheme write runs each portion as a process
        and joins them, except that the partial groups' read-modify-writes
        share one process, which issues their parity reads in ascending
        group order (Section 5.1's deadlock avoidance).
        """
        if not plan.concurrent:
            (portion,) = plan.portions
            yield from self._portion(client, meta, portion, payload)
            return
        env = client.env
        procs, rmws = [], []
        for portion in plan.portions:
            if type(portion) is Rmw:
                rmws.append(portion)
                continue
            procs.append(env.process(self._portion(
                client, meta, portion,
                payload.slice(portion.lo - offset, portion.hi - offset))))
        if rmws:
            procs.append(env.process(self._rmw_chain(client, meta, rmws,
                                                     offset, payload)))
        yield env.all_of(procs)

    def _portion(self, client, meta, portion: Portion,
                 data: Payload) -> Generator[Event, Any, None]:
        """The handler writing one portion other than an :class:`Rmw`
        (those run chained, :meth:`_rmw_chain`); ``data`` holds its bytes."""
        if type(portion) is Stripe:
            return self._stripe(client, meta, portion, data)
        if type(portion) is Mirrored:
            return self._mirrored(client, meta, portion, data)
        return self._full_stripe(client, meta, portion, data)

    # ------------------------------------------------------------------
    # portion handlers
    # ------------------------------------------------------------------
    def _stripe(self, client, meta, portion: Stripe,
                data: Payload) -> Generator[Event, Any, None]:
        """Plain striping: the data in place, failing on any error."""
        requests = self._data_write_requests(client, meta, portion.lo, data)
        yield from client.parallel([
            client.rpc(client.iods[server], request)
            for server, request in requests])

    def _mirrored(self, client, meta, portion: Mirrored,
                  data: Payload) -> Generator[Event, Any, None]:
        """Each server's share to itself and to its successor: in place
        (data + redundancy file), or appended to the overflow region and
        the successor's overflow mirror."""
        lay = meta.layout
        if portion.overflow:
            client.metrics.add("hybrid.partial_stripe_bytes",
                               portion.hi - portion.lo)
            client.env.emit("hybrid.overflow.before_write", None)
        calls: List = []
        targets: List[int] = []
        for sr in lay.map_range(portion.lo, data.length):
            chunk = self._gather(data, portion.lo, sr)
            mirror = lay.successor(sr.server)
            if portion.overflow:
                # One range: a share is contiguous in the local file.
                ranges = [(sr.local_start, sr.local_end)]
                home = msg.OverflowWriteReq(
                    meta.name, ranges=ranges, payload=chunk,
                    xid=client.next_xid())
                copy = msg.OverflowWriteReq(
                    meta.name, ranges=list(ranges), payload=chunk,
                    mirror=True, origin=sr.server, xid=client.next_xid())
            else:
                home, copy = (msg.WriteReq(
                    meta.name, kind=kind, offset=sr.local_start,
                    payload=chunk, xid=client.next_xid())
                    for kind in ("data", "red"))
            calls += [client.rpc(client.iods[sr.server], home),
                      client.rpc(client.iods[mirror], copy)]
            targets += [sr.server, mirror]
        # Degraded mode: home and mirror are different nodes (n >= 2),
        # so one failed server still leaves one current copy of every
        # byte and the write remains fully recoverable.
        yield from self._tolerant_parallel(client, targets, calls)
        if portion.overflow:
            client.env.emit("hybrid.overflow.after_write", None)

    def _full_stripe(self, client, meta, portion: FullStripe,
                     data: Payload) -> Generator[Event, Any, None]:
        """Whole parity groups: parity from the new data, no locks."""
        start, end = portion.lo, portion.hi
        if portion.invalidate:
            client.metrics.add("hybrid.full_stripe_bytes", end - start)
        if self.config.compute_parity:
            yield from client.node.cpu.compute_parity(
                data.length, bytewise=self.config.parity_bytewise)
        data_requests = self._data_write_requests(
            client, meta, start, data, invalidate=portion.invalidate)
        parity_requests = self._parity_write_requests(
            client, meta, start, end, data, start)
        if portion.invalidate:
            # Also drop the stale overflow *mirror* entries each data
            # server's successor holds, on the request it gets anyway.
            lay = meta.layout
            to_holder = {**parity_requests, **dict(data_requests)}
            for sr in lay.map_range(start, data.length):
                to_holder[lay.successor(sr.server)].mirror_invalidate += (
                    (sr.server, sr.local_start, sr.local_end),)
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

    def _rmw_chain(self, client, meta, portions: List[Rmw], offset: int,
                   payload: Payload) -> Generator[Event, Any, None]:
        """Run the (at most two) partial-group RMWs concurrently, each
        one's parity read waiting for the lower group's to finish."""
        procs = []
        gate: Optional[Event] = None
        for portion in portions:
            read_done = client.env.event()
            procs.append(client.env.process(self._rmw(
                client, meta, portion,
                payload.slice(portion.lo - offset, portion.hi - offset),
                gate, read_done)))
            gate = read_done
        yield client.env.all_of(procs)

    def _rmw(self, client, meta, portion: Rmw, new_data: Payload,
             gate: Optional[Event], parity_read_done: Event,
             ) -> Generator[Event, Any, Optional[RmwOutcome]]:
        """One partial group's locked read-modify-write.

        Returns what it learned, or ``None`` when the parity server was
        down and the data went in place without a parity update.
        """
        lay = meta.layout
        unit = lay.unit
        lo, hi = portion.lo, portion.hi
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
        if gate is not None:
            yield gate
        client.env.emit("raid5.rmw.before_parity_read", p_server)
        try:
            parity_response = yield from client.rpc(
                client.iods[p_server],
                msg.ParityReadReq(meta.name, group=group, local_offset=p_local,
                                  intra=(intra_lo, intra_hi), xid=xid,
                                  lock=portion.lock))
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
            return None
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
                piece = yield from self._reconstruct(client, meta, sr)
                old_chunks.append(piece)
            else:
                raise error

        old_parity = parity_response.payload
        if self.config.compute_parity:
            # One fold into a private copy of the parity region; the
            # response's frozen buffer is never touched.
            new_parity = old_parity.xor_at_many(rmw_patches(
                ranges, old_chunks, new_data, lo, intra_lo, unit))
            yield from client.node.cpu.compute_parity(
                2 * (hi - lo), bytewise=self.config.parity_bytewise)
        else:
            new_parity = (Payload.virtual(intra_hi - intra_lo)
                          if old_parity.is_virtual
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
            unlock=portion.lock, xid=xid)))
        targets.append(p_server)
        # A single failed data write needs no reaction: the folded parity
        # already implies its new bytes.
        writeback = yield from self._tolerant_parallel(client, targets,
                                                       calls)
        client.env.emit("raid5.rmw.after_writeback", p_server)
        return RmwOutcome(ranges, old_chunks, old_errors,
                          (intra_lo, intra_hi), old_parity, writeback)

    # ------------------------------------------------------------------
    # shared write helpers
    # ------------------------------------------------------------------
    def _tolerant_parallel(self, client, targets: List[int], calls: List,
                           ) -> Generator[Event, Any, List[Tuple[Any, Optional[Exception]]]]:
        """Run calls concurrently, tolerating one failed *server*
        (``targets[i]`` is call ``i``'s): the redundancy the surviving
        writes carry keeps every byte recoverable until a rebuild folds
        the new data back in.  Any other failure re-raises."""
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

    def _gather(self, payload: Payload, base_offset: int,
                sr: ServerRange) -> Payload:
        """The bytes of ``payload`` destined for one server, in local order:
        views of the payload's own arrays, clipped to the share's pieces
        in one pass (:meth:`Payload.place`)."""
        if payload.is_virtual:
            # Extent mode: only the length travels, but the share must
            # still lie inside the payload.
            lo, hi = sr.logical_bounds()
            _check_inside(lo - base_offset, hi - base_offset, payload.length)
            return Payload.virtual(sr.length)
        start = sr.local_start
        return Payload.from_segments(sr.length, payload.place([
            (p.logical_offset - base_offset, p.length, p.local_offset - start)
            for p in sr.pieces]))

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

    def _parity_write_requests(self, client, meta, start: int, end: int,
                               payload: Payload, base_offset: int,
                               ) -> Dict[int, msg.WriteReq]:
        """Batched per-server parity writes for groups covering [start,end).

        A server's parity blocks for consecutive groups pack densely in
        its redundancy file, so each server gets one contiguous write.
        """
        lay = meta.layout
        unit = lay.unit
        groups = range(lay.group_of(start), lay.group_of(end - 1) + 1)
        lo = lay.group_range(groups[0])[0] - base_offset
        _check_inside(lo, lo + len(groups) * lay.group_span, payload.length)
        per_server: Dict[int, List[Tuple[int, Optional[np.ndarray]]]] = {}
        for group, block in zip(groups, self._parity_blocks(
                payload, lo, len(groups), lay)):
            per_server.setdefault(lay.parity_server(group), []).append(
                (lay.parity_local_offset(group), block))
        out: Dict[int, msg.WriteReq] = {}
        for server, blocks in per_server.items():
            # Ascending groups sit on ascending rows of a server's file.
            first = blocks[0][0]
            length = blocks[-1][0] + unit - first
            out[server] = msg.WriteReq(
                meta.name, kind="red", offset=first,
                payload=(Payload.virtual(length) if payload.is_virtual
                         else Payload.from_segments(length, [
                             (local - first, block)
                             for local, block in blocks])),
                xid=client.next_xid())
        return out

    def _parity_blocks(self, payload: Payload, lo: int, count: int,
                       lay: StripeLayout) -> List[Optional[np.ndarray]]:
        """The parity block of each of ``count`` whole groups whose data
        starts at ``payload[lo:]``: one fresh unit-sized array per group
        (``None`` each in extent mode)."""
        unit, span = lay.unit, lay.group_span
        if payload.is_virtual:
            return [None] * count
        if not self.config.compute_parity:
            return [np.zeros(unit, dtype=np.uint8) for _ in range(count)]
        # Clip the payload's segments to its units in one pass, then fold
        # each group's unit views; one-array data gives whole-unit views.
        operands: List[List[Tuple[int, np.ndarray]]] = [
            [] for _ in range(count)]
        for at, seg in payload.place([
                (lo + at, unit, at)
                for at in range(0, count * span, unit)]):
            operands[at // span].append((at % unit, seg))
        return [xor_segments((segments,), unit) for segments in operands]

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

    def _reconstruct(self, client, meta,
                     sr: ServerRange) -> Generator[Event, Any, Payload]:
        """A failed server's *in-place* share ``sr``: the XOR of each
        group's surviving blocks and its parity.  All reads go in one
        coalesced batch — a server's blocks (and its parity blocks) for
        consecutive groups sit on consecutive local rows — so a recovery
        costs about one message per server, not ``n`` per piece."""
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
        rebuilt: List[Tuple[int, np.ndarray]] = []
        virtual = False
        for p, slots in zip(sr.pieces, piece_slots):
            operands = []
            for i in slots:
                response, error = outcomes[i]
                if error is not None:
                    raise error
                virtual = virtual or response.payload.is_virtual
                operands.append(response.payload.iter_segments())
            if not virtual:
                rebuilt.append((p.local_offset - sr.local_start,
                                xor_segments(operands, p.length)))
        if virtual:
            return Payload.virtual(sr.length)
        return Payload.from_segments(sr.length, rebuilt)


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

"""Repair of one server's share of a file, and rebuild of a failed server.

The paper's long-term objective for CSAR is tolerance of single disk
failures; degraded reads (in each scheme's ``degraded_read``) cover the
online path, and this module covers repair.  :func:`repair` is the one
routine that writes rebuilt bytes: for logical extents of one file it
regenerates what server ``s`` stores for them, from the surviving
redundancy.  Each server-local range is rounded out to whole stripe
units.

* ``f.data`` — RAID1: copy from the mirror on ``s+1``;
  RAID5/Hybrid: XOR of each parity group's surviving in-place blocks and
  its parity block;
* ``f.red`` — RAID1: re-mirror from the data on ``s-1``;
  RAID5/Hybrid: recompute the parity blocks ``s`` is responsible for,
  for each group the extents touch;
* ``f.ovf`` + overflow table — Hybrid: replay from the overflow mirror on
  ``s+1``;
* ``f.ovfm`` + mirror table — Hybrid: replay from the overflow region on
  ``s-1``.

The overflow replays are clipped to the extents.  :func:`rebuild_server`
is :func:`repair` over every whole file, made safe under concurrent
writes.  Both run as simulation processes driven by a recovery client,
so they have realistic cost (a whole-server rebuild is essentially a
whole-file read plus a whole-file write).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import ConfigError, ServerFailed
from repro.pvfs import messages as msg
from repro.pvfs.iod import IOD, data_file, ovf_file, red_file
from repro.pvfs.layout import ServerRange, StripeLayout
from repro.sim.engine import Event
from repro.storage.payload import Payload
from repro.util.intervals import ExtentMap


class _RebuildTracker:
    """Collects the names of files written while a rebuild is copying.

    Registered as a :class:`~repro.pvfs.manager.WriteLedger` watcher;
    notifications arrive at write *completion*, when the survivors hold
    the settled bytes, so a re-copy of a dirty file always observes a
    state at least as new as the write that dirtied it.
    """

    def __init__(self) -> None:
        self.dirty: set = set()

    def note_write(self, name: str) -> None:
        self.dirty.add(name)

    def drain(self) -> set:
        dirty, self.dirty = self.dirty, set()
        return dirty


def rebuild_server(system, index: int,
                   recovery_client: int = 0) -> Generator[Event, Any, None]:
    """Process body: repair server ``index`` in place from survivors.

    The server must currently be failed; on return it is live again with
    all local files reconstructed, and if the rebuild raises it stays
    failed.  Raises
    :class:`~repro.errors.ConfigError` for RAID0 (nothing to rebuild
    from).

    The rebuild is safe under concurrent client traffic: writes issued
    while it runs go down the degraded path (they skip the failed
    server), and the cluster :class:`~repro.pvfs.manager.WriteLedger`
    reports every completed write to this rebuild, which then re-copies
    the dirtied files.  The loop converges because each re-copy reads a
    strictly newer settled state; the server is only brought live — a
    synchronous flip, with zero sim-time between the final clean check
    and the flip — once no file is dirty *and* no write is in flight
    (an in-flight write saw the server as failed and would leave it
    stale if it completed after the rejoin).
    """
    if all(meta.scheme == "raid0"
           for meta in system.manager.files.values()) \
            and system.config.scheme == "raid0":
        raise ConfigError("RAID0 stores no redundancy; cannot rebuild")
    iod: IOD = system.iods[index]
    if not iod.failed:
        raise ServerFailed(f"server {index} is not failed; refusing rebuild")
    client = system.clients[recovery_client]
    names = list(system.manager.files)
    ledger = system.manager.write_ledger
    tracker = _RebuildTracker()
    ledger.watchers.append(tracker)

    # Stage the reconstructed state while the daemon still rejects I/O.
    iod.rebuilding = True
    iod.repair(wipe=True)
    iod.fail()
    try:
        for name in names:
            yield from repair(system, client, name,
                              [(0, system.manager.files[name].size)], index)
        # Converge under concurrent traffic: re-copy files written while
        # we were copying, then wait out in-flight writes (which may
        # dirty more files when they complete), until both are clean.
        while True:
            dirty = tracker.drain()
            if dirty:
                system.metrics.add("recovery.dirty_passes")
                for name in sorted(dirty):
                    if name not in system.manager.files:
                        continue
                    # repair's replay appends to the overflow tables;
                    # a fresh table keeps no stale pass's allocation.
                    iod.overflow.pop(name, None)
                    iod.overflow_mirror.pop(
                        (name, system.layout.predecessor(index)), None)
                    yield from repair(system, client, name, [(
                        0, system.manager.files[name].size)], index)
                continue
            if ledger.active:
                yield ledger.quiesce_event(system.env)
                continue
            break
    finally:
        # A rebuild that raises leaves the server failed: its disk holds
        # a partial reconstruction no read may see.
        ledger.watchers.remove(tracker)
        iod.rebuilding = False
    iod.failed = False
    for c in system.clients:
        c.suspected.discard(index)
    system.metrics.add("failures.rebuilt")
    system.env.emit("recovery.done", index)


def _local_ranges(lay: StripeLayout, extents, server: int) -> ExtentMap:
    """Server ``server``'s share of the logical ``extents``, rounded out
    to whole stripe units."""
    unit = lay.unit
    out = ExtentMap()
    for start, end in extents:
        for sr in lay.map_range(start, end - start):
            if sr.server == server:
                out.add(sr.local_start // unit * unit,
                        -(-sr.local_end // unit) * unit)
    return out


def repair(system, client, name: str, extents,
           server: int) -> Generator[Event, Any, None]:
    """Process body: regenerate what ``server`` stores for the logical
    byte ranges ``extents`` (``(start, end)`` pairs) of file ``name``
    from the other servers, through ``client`` (see the module notes).
    Nothing else may write the extents meanwhile: the server is failed
    (:func:`rebuild_server`) or the caller has quiesced them.
    """
    lay = system.layout
    iod: IOD = system.iods[server]
    meta = system.manager.files[name]
    if meta.scheme == "raid0":
        # Nothing to rebuild from: the file's share on this server is
        # gone (PVFS semantics).  Reads will raise DataLoss.
        system.metrics.add("failures.raid0_files_lost")
        return
    scheme = client.scheme_for(meta)
    chunk = 64 * lay.unit

    # ---- data file -----------------------------------------------------
    # The data file must be rebuilt to its *in-place* content (what parity
    # covers), never the overflow-overlaid latest view — otherwise parity
    # would no longer match and a later failure would reconstruct garbage.
    own = _local_ranges(lay, extents, server)
    for lo, hi in own.iter_tuples():
        for start in range(lo, hi, chunk):
            sr = ServerRange(server, start, min(start + chunk, hi), lay)
            if meta.scheme == "raid1":
                payload = yield from scheme.degraded_read(client, meta, sr)
            else:
                payload = yield from scheme._reconstruct(client, meta, sr)
            yield from iod.fs.write(data_file(name), start, payload)

    # ---- redundancy file -------------------------------------------------
    predecessor = system.iods[lay.predecessor(server)]
    theirs = _local_ranges(lay, extents, predecessor.index)
    if meta.scheme == "raid1":
        for lo, hi in theirs.iter_tuples():
            for start in range(lo, hi, chunk):
                response = yield from client.rpc(predecessor, msg.ReadReq(
                    name, kind="data", offset=start,
                    length=min(chunk, hi - start)))
                yield from iod.fs.write(red_file(name), start,
                                        response.payload)
        return
    groups = sorted({group for start, end in extents if end > start
                     for group in range(lay.group_of(start),
                                        lay.group_of(end - 1) + 1)})
    for group in groups:
        if lay.parity_server(group) != server:
            continue
        parity = yield from recompute_parity(system, client, name, group)
        yield from iod.fs.write(red_file(name),
                                lay.parity_local_offset(group), parity)
    if meta.scheme != "hybrid":
        return

    # ---- overflow region + tables (Hybrid) -------------------------------
    # Own overflow region: the successor's mirror table is authoritative.
    successor = system.iods[lay.successor(server)]
    mtable = successor.overflow_mirror.get((name, server))
    if mtable is not None and mtable.covered:
        table, local = iod.overflow_region(name)
        for ext in mtable.covered:
            for lo, hi in own.overlap_iter(ext.start, ext.end):
                response = yield from client.rpc(
                    successor, msg.MirrorResolveReq(
                        name, origin=server, offset=lo, length=hi - lo))
                yield from iod.replay(table, local, lo, response.payload)

    # Overflow mirror held for the predecessor: replay from its live table.
    ptable = predecessor.overflow.get(name)
    if ptable is not None and ptable.covered:
        mirror, local = iod.overflow_region(name, predecessor.index)
        for ext in ptable.covered:
            for lo, hi in theirs.overlap_iter(ext.start, ext.end):
                content, _reads = yield from predecessor.read_latest(
                    ptable, ovf_file(name), lo, hi)
                yield from iod.replay(mirror, local, lo, content)


def recompute_parity(system, client, name: str,
                     group: int) -> Generator[Event, Any, Payload]:
    """Process body: one group's parity recomputed through ``client``.

    Reads the group's in-place blocks in parallel, XORs them and charges
    the client's CPU for the group (the rebuild and the online scrub).
    """
    lay = system.layout
    responses = yield from client.parallel([
        client.rpc(system.iods[lay.server_of_block(block)], msg.ReadReq(
            name, kind="inplace", offset=lay.local_offset_of_block(block),
            length=lay.unit))
        for block in lay.blocks_of_group(group)])
    parity = Payload.xor([r.payload for r in responses], lay.unit)
    yield from client.node.cpu.compute_parity(lay.group_span)
    return parity

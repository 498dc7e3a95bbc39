"""Full reconstruction of a failed I/O server.

The paper's long-term objective for CSAR is tolerance of single disk
failures; degraded reads (in each scheme's ``degraded_read``) cover the
online path, and this module covers repair: rebuilding every local file a
replacement server should hold, from the surviving redundancy.

For a failed server ``s`` holding files derived from PVFS file ``f``:

* ``f.data`` — RAID1: copy from the mirror on ``s+1``;
  RAID5/Hybrid: XOR of each parity group's surviving in-place blocks and
  its parity block;
* ``f.red`` — RAID1: re-mirror from the data on ``s-1``;
  RAID5/Hybrid: recompute the parity blocks ``s`` is responsible for;
* ``f.ovf`` + overflow table — Hybrid: replay from the overflow mirror on
  ``s+1``;
* ``f.ovfm`` + mirror table — Hybrid: replay from the overflow region on
  ``s-1``.

The rebuild runs as a simulation process driven by a recovery client, so
it has realistic cost (it is essentially a whole-file read plus a
whole-file write).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import ConfigError, ServerFailed
from repro.pvfs import messages as msg
from repro.pvfs.iod import IOD, data_file, ovf_file, red_file
from repro.pvfs.layout import ServerRange
from repro.sim.engine import Event
from repro.storage.payload import Payload


def _server_local_size(system, name: str, server: int) -> int:
    """Upper bound of the failed server's data-file size, derived from the
    logical file size (its own metadata is gone)."""
    meta = system.manager.files.get(name)
    if meta is None:
        return 0
    lay = system.layout
    total_blocks = -(-meta.size // lay.unit)
    # Blocks held by `server` are server, server+n, ... < total_blocks.
    if total_blocks <= server:
        return 0
    rows = (total_blocks - server + lay.n - 1) // lay.n
    return rows * lay.unit


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
            yield from _rebuild_file(system, client, iod, name)
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
                    _reset_local_overflow(system, iod, name)
                    yield from _rebuild_file(system, client, iod, name)
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


def _reset_local_overflow(system, iod: IOD, name: str) -> None:
    """Drop the rebuilt server's overflow state for one file before a
    re-copy: the replay in :func:`_rebuild_overflow` appends from a
    fresh table, so stale allocations from the previous pass must not
    survive (the table is authoritative — orphaned ``.ovf`` bytes past
    the new allocation are unreachable)."""
    iod.overflow.pop(name, None)
    predecessor = system.layout.predecessor(iod.index)
    iod.overflow_mirror.pop((name, predecessor), None)


def _rebuild_file(system, client, iod: IOD,
                  name: str) -> Generator[Event, Any, None]:
    lay = system.layout
    index = iod.index
    scheme = system.manager.files[name].scheme
    if scheme == "raid0":
        # Nothing to rebuild from: the file's share on this server is
        # gone (PVFS semantics).  Reads will raise DataLoss.
        system.metrics.add("failures.raid0_files_lost")
        return
    local_size = _server_local_size(system, name, index)
    chunk = 64 * lay.unit

    # ---- data file -----------------------------------------------------
    # The data file must be rebuilt to its *in-place* content (what parity
    # covers), never the overflow-overlaid latest view — otherwise parity
    # would no longer match and a later failure would reconstruct garbage.
    meta = system.manager.files[name]
    scheme_obj = client.scheme_for(meta)
    for start in range(0, local_size, chunk):
        length = min(chunk, local_size - start)
        sr = ServerRange(index, start, start + length, lay)
        if scheme == "raid1":
            payload = yield from scheme_obj.degraded_read(client, meta, sr)
        else:
            payload = yield from scheme_obj._reconstruct(client, meta, sr)
        yield from iod.fs.write(data_file(name), start, payload)

    # ---- redundancy file -------------------------------------------------
    if scheme == "raid1":
        source = system.iods[lay.predecessor(index)]
        src_size = _server_local_size(system, name, source.index)
        for start in range(0, src_size, chunk):
            length = min(chunk, src_size - start)
            response = yield from client.rpc(source, msg.ReadReq(
                name, kind="data", offset=start, length=length))
            yield from iod.fs.write(red_file(name), start, response.payload)
    else:
        yield from _rebuild_parity(system, client, iod, name)

    # ---- overflow region + tables (Hybrid) -------------------------------
    if scheme == "hybrid":
        yield from _rebuild_overflow(system, client, iod, name)


def _rebuild_parity(system, client, iod: IOD,
                    name: str) -> Generator[Event, Any, None]:
    """Recompute the parity blocks a rebuilt server must hold."""
    lay = system.layout
    meta = system.manager.files[name]
    groups = -(-meta.size // lay.group_span)
    for group in range(groups):
        if lay.parity_server(group) != iod.index:
            continue
        parity = yield from recompute_parity(system, client, name, group)
        yield from iod.fs.write(red_file(name),
                                lay.parity_local_offset(group), parity)


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


def _rebuild_overflow(system, client, iod: IOD,
                      name: str) -> Generator[Event, Any, None]:
    """Replay overflow (from the mirror) and the mirror (from the origin)."""
    index = iod.index

    # Own overflow region: the successor's mirror table is authoritative.
    successor = system.iods[system.layout.successor(index)]
    mtable = successor.overflow_mirror.get((name, index))
    if mtable is not None and mtable.covered:
        table, local = iod.overflow_region(name)
        for ext in mtable.covered:
            response = yield from client.rpc(successor, msg.MirrorResolveReq(
                name, origin=index, offset=ext.start, length=ext.length))
            yield from iod.replay(table, local, ext.start, response.payload)

    # Overflow mirror held for the predecessor: replay from its live table.
    predecessor = system.iods[system.layout.predecessor(index)]
    ptable = predecessor.overflow.get(name)
    if ptable is not None and ptable.covered:
        mirror, local = iod.overflow_region(name, predecessor.index)
        for ext in ptable.covered:
            content, _reads = yield from predecessor.read_latest(
                ptable, ovf_file(name), ext.start, ext.end)
            yield from iod.replay(mirror, local, ext.start, content)

"""Offline redundancy consistency checking (an fsck for CSAR).

Walks the I/O daemons' local files directly — no simulated time — and
verifies the invariants each scheme promises:

* **RAID1**: every server's data file equals the mirror stored in its
  successor's redundancy file.
* **RAID5**: every parity block equals the XOR of its group's in-place
  data blocks.
* **Hybrid**: the RAID5 parity invariant over *in-place* data, plus every
  valid overflow byte range matching its mirror copy.

Only meaningful in content mode; the functions return a list of
human-readable inconsistency descriptions (empty = clean).  These checks
double as the oracle for the test suite's property-based scheme tests and
let users verify a cluster after failure injection and rebuild.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigError
from repro.pvfs.iod import data_file, ovf_file, ovfm_file, red_file  # noqa: F401
from repro.storage.payload import Payload


def _file_size(system, name: str) -> int:
    meta = system.manager.files.get(name)
    if meta is not None and meta.size:
        return meta.size
    # Fall back to the servers' view.
    lay = system.layout
    size = 0
    for iod in system.iods:
        local = iod.fs.files.get(data_file(name))
        if local is not None and local.size:
            size = max(size, lay.logical_of_local(iod.index, local.size - 1) + 1)
    return size


def check_mirrors(system, name: str) -> List[str]:
    """RAID1 invariant: data on s == red on (s+1), byte for byte."""
    issues: List[str] = []
    for iod in system.iods:
        local = iod.fs.files.get(data_file(name))
        if local is None or local.size == 0:
            continue
        mirror_iod = system.iods[system.layout.successor(iod.index)]
        mirror = mirror_iod.fs.files.get(red_file(name))
        for ext in local.allocated:
            data = local.read(ext.start, ext.length)
            copy = (mirror.read(ext.start, ext.length) if mirror is not None
                    else Payload.zeros(ext.length))
            if data != copy:
                issues.append(
                    f"mirror mismatch: {name} server {iod.index} "
                    f"local [{ext.start}, {ext.end}) != mirror on "
                    f"server {mirror_iod.index}")
    return issues


def check_parity(system, name: str) -> List[str]:
    """RAID5/Hybrid invariant: parity == XOR of in-place group data."""
    issues: List[str] = []
    lay = system.layout
    unit = lay.unit
    size = _file_size(system, name)
    if size == 0:
        return issues
    groups = -(-size // lay.group_span)
    for group in range(groups):
        blocks = []
        for block in lay.blocks_of_group(group):
            server = lay.server_of_block(block)
            local = lay.local_offset_of_block(block)
            f = system.iods[server].fs.files.get(data_file(name))
            blocks.append(f.read(local, unit) if f is not None
                          else Payload.zeros(unit))
        expected = Payload.xor(blocks, unit)
        p_iod = system.iods[lay.parity_server(group)]
        pf = p_iod.fs.files.get(red_file(name))
        actual = (pf.read(lay.parity_local_offset(group), unit)
                  if pf is not None else Payload.zeros(unit))
        if expected != actual:
            issues.append(
                f"parity mismatch: {name} group {group} on server "
                f"{p_iod.index}")
    return issues


def check_overflow_mirrors(system, name: str) -> List[str]:
    """Hybrid invariant: valid overflow data matches its mirror copy."""
    issues: List[str] = []
    for iod in system.iods:
        table = iod.overflow.get(name)
        if table is None or not table.covered:
            continue
        mirror_iod = system.iods[system.layout.successor(iod.index)]
        mtable = mirror_iod.overflow_mirror.get((name, iod.index))
        for ext in table.covered:
            _gaps, reads = table.resolve(ext.start, ext.end)
            local = iod.fs.files.get(ovf_file(name))
            content = Payload.zeros(ext.length)
            for r in reads:
                content = content.overlay(
                    r.local_start - ext.start, local.read(r.ovf_offset,
                                                          r.length))
            if mtable is None:
                issues.append(
                    f"overflow unmirrored: {name} server {iod.index} "
                    f"[{ext.start}, {ext.end})")
                continue
            _mgaps, mreads = mtable.resolve(ext.start, ext.end)
            if _mgaps:
                issues.append(
                    f"overflow mirror missing bytes: {name} server "
                    f"{iod.index} [{ext.start}, {ext.end})")
                continue
            mlocal = mirror_iod.fs.files.get(ovfm_file(name, iod.index))
            mcontent = Payload.zeros(ext.length)
            for r in mreads:
                mcontent = mcontent.overlay(
                    r.local_start - ext.start, mlocal.read(r.ovf_offset,
                                                           r.length))
            if content != mcontent:
                issues.append(
                    f"overflow mirror mismatch: {name} server {iod.index} "
                    f"[{ext.start}, {ext.end})")
    return issues


def online_scrub(system, name: str, client_index: int = 0):
    """Process body: a *timed* verification pass through the normal
    protocol (what a production scrubber daemon would run).

    Reads every parity group's in-place data and parity (or each mirror
    pair under RAID1) through a client, recomputes, and compares.  Unlike
    :func:`scrub` this consumes simulated time — network, server CPU and
    (cold) disk — so experiments can measure scrubbing's interference
    with foreground traffic.  Returns the list of inconsistencies.
    """
    from repro.pvfs import messages as msg

    if not system.config.content_mode:
        raise ConfigError("online_scrub needs content_mode=True")
    client = system.clients[client_index]
    meta = yield from client.open(name)
    lay = system.layout
    unit = lay.unit
    issues: List[str] = []
    scheme = _scheme_of(system, name)
    if scheme == "raid0":
        return issues

    if scheme == "raid1":
        size = _file_size(system, name)
        blocks = -(-size // unit)
        for block in range(blocks):
            server = lay.server_of_block(block)
            local = lay.local_offset_of_block(block)
            data = yield from client.rpc(system.iods[server], msg.ReadReq(
                name, kind="inplace", offset=local, length=unit,
                xid=client.next_xid()))
            copy = yield from client.rpc(
                system.iods[lay.successor(server)],
                msg.ReadReq(name, kind="red", offset=local, length=unit,
                            xid=client.next_xid()))
            if data.payload != copy.payload:
                issues.append(f"mirror mismatch: {name} block {block}")
        return issues

    groups = -(-meta.size // lay.group_span)
    for group in range(groups):
        calls = []
        for block in lay.blocks_of_group(group):
            server = lay.server_of_block(block)
            calls.append(client.rpc(system.iods[server], msg.ReadReq(
                name, kind="inplace",
                offset=lay.local_offset_of_block(block), length=unit,
                xid=client.next_xid())))
        responses = yield from client.parallel(calls)
        expected = Payload.xor([r.payload for r in responses], unit)
        yield from client.node.cpu.compute_parity(lay.group_span)
        actual = yield from client.rpc(
            system.iods[lay.parity_server(group)],
            msg.ReadReq(name, kind="red",
                        offset=lay.parity_local_offset(group), length=unit,
                        xid=client.next_xid()))
        if expected != actual.payload:
            issues.append(f"parity mismatch: {name} group {group}")
    system.metrics.add("scrub.online_passes")
    return issues


def _scheme_of(system, name: str) -> str:
    meta = system.manager.files.get(name)
    return meta.scheme if meta is not None else system.config.scheme


def scrub(system, name: str) -> List[str]:
    """Run every invariant check appropriate for the file's scheme."""
    if not system.config.content_mode:
        raise ConfigError("scrub needs content_mode=True")
    scheme = _scheme_of(system, name)
    if scheme == "raid0":
        issues: List[str] = []
    elif scheme == "raid1":
        issues = check_mirrors(system, name)
    elif scheme == "raid5":
        issues = check_parity(system, name)
    elif scheme == "hybrid":
        issues = check_parity(system, name) \
            + check_overflow_mirrors(system, name)
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    system.env.emit("scrub.done", name, issues)
    return issues

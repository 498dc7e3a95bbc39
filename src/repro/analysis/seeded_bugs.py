"""Deliberately-buggy scheme variants for verifying the verifiers.

Each class re-introduces a bug the paper's protocol (or the zero-copy
buffer discipline) is designed to exclude, so tests can prove the
schedule explorer (:mod:`repro.analysis.explore`), the sanitizers, the
whole-program lint and the crash matrix catch it within a bounded
budget.  What convicts each one (the conviction matrix of
``tests/analysis/test_conviction.py``):

* :class:`DropReleaseRaid5` (a request mutator): the engine's deadlock,
  LockSan's leak check;
* :class:`InPlaceOverflowHybrid` (a plan mutator): ParitySan;
* :class:`HelperReleaseRaid5` (wraps ``write``): CSAR010, the engine's
  deadlock, LockSan's leak check;
* :class:`DescendingLockRaid5` (wraps ``write``): CSAR011, LockSan;
* :class:`ThawedViewRaid5` (wraps ``_rmw``): CSAR013, BufSan;
* :class:`ScratchLeakHybrid` (wraps ``_mirrored``): CSAR014, BufSan;
* :class:`CompensatingWritebackRaid5` (wraps ``_rmw``): crash matrix.

None needs a seam in the production write path: a plan mutator
overrides :meth:`~repro.redundancy.base.RedundancyScheme.plan`; a
handler wrap acts on what the real handler did (the RMW handler returns
an :class:`~repro.redundancy.base.RmwOutcome`, and both RMW wraps share
the production fold helper :func:`~repro.redundancy.base.rmw_patches`);
a request mutator (``mutate(request)``) is installed on each client's
``rpc`` by :func:`inject`.  No class is registered with the scheme
registry — they impersonate their parent's ``name`` so existing
metadata dispatch keeps working, and :func:`inject` swaps them into a
built :class:`System` explicitly.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Generator, Optional

import numpy as np

from repro.errors import ServerFailed
from repro.pvfs import messages as msg
from repro.redundancy.base import RmwOutcome, rmw_patches
from repro.redundancy.hybrid import Hybrid
from repro.redundancy.plan import Mirrored, Rmw, Stripe, WritePlan
from repro.redundancy.raid5 import Raid5
from repro.sim.engine import Event
from repro.storage.payload import Payload


class DropReleaseRaid5(Raid5):
    """RAID5 whose N-th read-modify-write unlock is lost on the way.

    The N-th ``ParityWriteReq(unlock=True)`` goes out as
    ``unlock=False``: the next writer to that group queues forever,
    which surfaces as the engine's :class:`~repro.errors.SimulationError`
    deadlock.  The heap has drained by then, so ``run.complete`` fires
    first and LockSan's leak check names the lock and its holder.
    """

    name = "raid5"  # impersonate: metadata still says "raid5"

    def __init__(self, config: Any, drop_release_number: int = 2) -> None:
        super().__init__(config)
        self.drop_release_number = drop_release_number
        self._unlocks = 0

    def mutate(self, request: Any) -> Any:
        """The request a client actually sends for ``request``."""
        if type(request) is msg.ParityWriteReq and request.unlock:
            self._unlocks += 1
            if self._unlocks == self.drop_release_number:
                # the bug: lock acquired, never released
                return dataclasses.replace(request, unlock=False)
        return request


class InPlaceOverflowHybrid(Hybrid):
    """Hybrid whose partial-stripe writes land on the home blocks.

    Exactly what Section 4 forbids: parity over the in-place blocks goes
    stale, which ParitySan's quiescent check reports.
    """

    name = "hybrid"  # impersonate: metadata still says "hybrid"

    def plan(self, layout: Any, offset: int, length: int) -> WritePlan:
        # The bug: partial-stripe data written in place, no overflow
        # entry, no mirror — and no parity update either, so the group's
        # parity no longer XORs to its data blocks.
        plan = super().plan(layout, offset, length)
        return plan._replace(portions=tuple(
            Stripe(p.lo, p.hi) if type(p) is Mirrored else p
            for p in plan.portions))


class HelperReleaseRaid5(Raid5):
    """RAID5 with a per-write lease split across acquire/release helpers.

    The N-th write's :meth:`_drop_lease` silently skips the release, so
    the lease lock leaks.  The leak is invisible to per-function
    analysis — :meth:`_take_lease` legitimately suppresses CSAR001 (its
    release is "protocol-carried", just like the real I/O daemon's) and
    :meth:`_drop_lease` releases a lock it never acquired — so only a
    whole-program pass that threads the lease through ``write`` can see
    that one caller path exits with a net-positive lock delta.
    """

    name = "raid5"  # impersonate: metadata still says "raid5"

    #: lease pseudo-group, far above any real parity group number
    LEASE_GROUP = 1 << 20

    def __init__(self, config: Any, drop_release_number: int = 2) -> None:
        super().__init__(config)
        self.drop_release_number = drop_release_number
        self._writes = 0

    def write(self, client, meta, offset: int,
              payload: Payload) -> Generator[Event, Any, None]:
        iod = client.iods[0]
        xid = client.next_xid()
        yield from self._take_lease(iod, meta.name, xid)
        yield from super().write(client, meta, offset, payload)
        self._drop_lease(iod, meta.name, xid)

    def _take_lease(self, iod, name: str,
                    xid: int) -> Generator[Event, Any, None]:
        yield from iod.locks.acquire(  # csar-lint: disable=CSAR001
            name, self.LEASE_GROUP, xid)

    def _drop_lease(self, iod, name: str, xid: int) -> None:
        self._writes += 1
        if self._writes == self.drop_release_number:
            return  # the bug: this write's lease is never released
        iod.locks.release(name, self.LEASE_GROUP, xid)


class DescendingLockRaid5(Raid5):
    """RAID5 that locks every group a write touches, highest-first.

    The descending ``range`` loop inverts the Section 5.1 ascending
    acquisition order.  Each acquire is matched by a release in the
    ``finally`` block, so the per-function leak checks stay quiet, and
    the loop bounds are symbolic, so no literal group order is visible
    in the source — only the global order graph (CSAR011) and
    LockSan's runtime inversion check see the bug.  The locks are taken
    directly on the parity servers' tables so the acquisition order is
    observable both statically and by the xid-keyed sanitizer.  The
    wrapped write's own read-modify-writes lock under their own xids,
    so a write with a partial group waits on itself: drive it with
    whole groups.
    """

    name = "raid5"  # impersonate: metadata still says "raid5"

    def write(self, client, meta, offset: int,
              payload: Payload) -> Generator[Event, Any, None]:
        return self._strict_write(client, meta, offset, payload)

    def _strict_write(self, client, meta, offset: int,
                      payload: Payload) -> Generator[Event, Any, None]:
        lay = meta.layout
        first = lay.group_of(offset)
        last = lay.group_of(offset + payload.length - 1)
        xid = client.next_xid()
        for group in range(last, first - 1, -1):  # the bug: descending
            # CSAR001 sees the zero-iteration exit of the release loop
            # below; first <= last always, so the loops pair up exactly.
            yield from client.iods[lay.parity_server(group)].locks.acquire(  # csar-lint: disable=CSAR001
                meta.name, group, xid)
        try:
            yield from super().write(client, meta, offset, payload)
        finally:
            for group in range(first, last + 1):
                client.iods[lay.parity_server(group)].locks.release(
                    meta.name, group, xid)


class ThawedViewRaid5(Raid5):
    """RAID5 that also folds each RMW's delta into the thawed response.

    The real RMW folds into a private copy (``xor_at_many``) and writes
    correct parity; this scheme then grabs the parity response's buffer,
    un-freezes it, and XORs the same delta in place.  The parity *bytes*
    written are correct, so the write completes, reads verify, and
    ParitySan's quiescent XOR check passes.  What breaks is aliasing:
    the response payload (and anything sharing its pages) mutates after
    capture.  Each helper is clean in isolation — the thaw touches an
    unannotated parameter and the caller never mutates anything itself —
    so only the interprocedural buffer summaries (CSAR013 with a
    ``_fold_parity -> _fold_piece`` chain) or BufSan's runtime
    fingerprints can see it.
    """

    name = "raid5"  # impersonate: metadata still says "raid5"

    def _rmw(self, client, meta, portion: Rmw, new_data: Payload,
             gate: Optional[Event], parity_read_done: Event,
             ) -> Generator[Event, Any, Optional[RmwOutcome]]:
        learned = yield from super()._rmw(client, meta, portion, new_data,
                                          gate, parity_read_done)
        if learned is not None and self.config.compute_parity:
            self._fold_parity(learned.parity, rmw_patches(
                learned.ranges, learned.old_chunks, new_data, portion.lo,
                learned.intra[0], meta.layout.unit))
        return learned

    def _fold_parity(self, parity: Payload, patches: list) -> Payload:
        buf = parity.data
        for at, piece in patches:
            self._fold_piece(buf, at, piece)
        return Payload(parity.length, buf)

    def _fold_piece(self, dst: np.ndarray, at: int,
                    piece: Payload) -> None:
        self._thaw(dst)
        for s_at, seg in piece.iter_segments():
            end = at + s_at + seg.size
            np.bitwise_xor(dst[at + s_at:end], seg,
                           out=dst[at + s_at:end])

    def _thaw(self, arr: np.ndarray) -> None:
        # A view of a frozen buffer can only be thawed once its base is
        # writable again, so walk to the owning allocation first.
        if arr.base is not None:
            self._thaw(arr.base)
        if not arr.flags.writeable:
            arr.flags.writeable = True  # the bug: shared bytes go soft


class ScratchLeakHybrid(Hybrid):
    """Hybrid whose mirrored portions leak their scratch staging.

    A mirrored portion's bytes are staged through a reusable scratch
    buffer kept on the scheme, and the buffer itself — not a copy — is
    captured into the staged :class:`Payload` that the home and mirror
    copies slice.  The next partial write of the same size thaws and
    refills the very same allocation, so the *first* write's bytes
    change long after every RPC carrying them completed.  Each helper is
    locally plausible (the allocator returns a fresh array, the filler
    writes into "its" buffer), so per-function reasoning sees
    nothing; interprocedurally CSAR014 flags the allocator's buffer
    escaping into ``self._scratch`` unfrozen, while BufSan catches the
    drift at the buffer's re-capture.
    """

    name = "hybrid"  # impersonate: metadata still says "hybrid"

    def __init__(self, config: Any) -> None:
        super().__init__(config)
        self._scratch: Optional[np.ndarray] = None

    def _mirrored(self, client, meta, portion: Mirrored,
                  data: Payload) -> Generator[Event, Any, None]:
        mirror_chunk = self._mirror_copy(data)
        yield from super()._mirrored(client, meta, portion, mirror_chunk)

    def _mirror_copy(self, chunk: Payload) -> Payload:
        buf = self._fold_buffer(chunk.length)
        for at, seg in chunk.iter_segments():
            buf[at: at + seg.size] = seg
        return Payload(chunk.length, buf)

    def _fold_buffer(self, length: int) -> np.ndarray:
        buf = self._scratch
        if buf is None or buf.size != length:
            buf = self._alloc_buffer(length)
        self._scratch = buf  # the bug: the staging buffer outlives the copy
        if not buf.flags.writeable:
            buf.flags.writeable = True
        return buf

    def _alloc_buffer(self, length: int) -> np.ndarray:
        return np.zeros(length, dtype=np.uint8)


class CompensatingWritebackRaid5(Raid5):
    """RAID5 that "compensates" parity when an RMW data write fails.

    The rationale a real implementer might give: "the data write never
    landed, so the parity fold for that block must be undone or the
    group won't XOR to its on-disk data".  That is exactly backwards —
    the folded parity is what makes the acked-but-unwritten block
    *reconstructible* — but the resulting state is self-consistent, so
    no sanitizer objects.  The bug only fires when a data server's
    old-data read succeeded and its writeback write failed, i.e. the
    server crashed *inside* the RMW window, which no between-ops fault
    (every pre-existing test) reaches: only the chaos campaign's
    durability oracle or the crash matrix, with a step-triggered crash,
    sees the acknowledged write lost after a rebuild.
    """

    name = "raid5"  # impersonate: metadata still says "raid5"

    def _rmw(self, client, meta, portion: Rmw, new_data: Payload,
             gate: Optional[Event], parity_read_done: Event,
             ) -> Generator[Event, Any, Optional[RmwOutcome]]:
        learned = yield from super()._rmw(client, meta, portion, new_data,
                                          gate, parity_read_done)
        if learned is None or not self.config.compute_parity:
            return learned
        lay = meta.layout
        group = lay.group_of(portion.lo)
        parity_iod = client.iods[lay.parity_server(group)]
        where = dict(group=group, local_offset=lay.parity_local_offset(group),
                     intra=learned.intra)
        for sr, old_error, old_chunk, (_value, error) in zip(
                learned.ranges, learned.old_errors, learned.old_chunks,
                learned.writeback):
            if not isinstance(error, ServerFailed) or old_error is not None:
                continue
            # The bug: XOR the old/new delta in again (self-inverse), so
            # the parity goes back to implying the *old* block content.
            cxid = client.next_xid()
            try:
                response = yield from client.rpc(parity_iod, msg.ParityReadReq(
                    meta.name, xid=cxid, **where))
                yield from client.rpc(parity_iod, msg.ParityWriteReq(
                    meta.name, payload=response.payload.xor_at_many(
                        rmw_patches([sr], [old_chunk], new_data, portion.lo,
                                    learned.intra[0], lay.unit)),
                    unlock=True, xid=cxid, **where))
            except ServerFailed:
                break
        return learned


def inject(system: Any, scheme: Any) -> Any:
    """Swap ``scheme`` in for every client of a built ``System``.

    The replacement must impersonate the configured scheme's ``name``
    (clients dispatch per-file via ``meta.scheme == self.scheme.name``).
    A scheme with a ``mutate(request)`` method also gets it installed on
    every client's ``rpc``.  Returns ``system`` for chaining.
    """
    expected = system.config.scheme
    if scheme.name != expected:
        raise ValueError(
            f"seeded scheme impersonates {scheme.name!r} but the system "
            f"is configured for {expected!r}")
    mutate = getattr(scheme, "mutate", None)
    for client in system.clients:
        client.scheme = scheme
        if mutate is not None:
            client.rpc = (lambda target, request, rpc=client.rpc:
                          rpc(target, mutate(request)))
    return system

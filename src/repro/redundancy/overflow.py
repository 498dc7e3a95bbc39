"""Server-side overflow tables for the Hybrid scheme.

Section 4: partial-stripe writes cannot update data blocks in place (the
old blocks are needed to reconstruct the rest of the stripe after a
failure), so their bytes go to a per-file overflow region, recorded in a
table; "the updated *blocks* are written to an overflow region".  A later
full-stripe write invalidates the entries it covers; reads return the
latest copy.

Allocation is **stripe-unit-block granular**, which is what Table 2's
storage numbers pin down:

* the overflow file is organized in stripe-unit-sized slots, one per
  *version* of a logical data block;
* bytes land inside a slot at their intra-block offset, so a slot can
  accumulate several disjoint updates (Hartree-Fock's sequential 16 KB
  writes fill one slot exactly — Hybrid = 2.0x RAID0, matching the
  paper's 299 vs 149 MB);
* overflow data is never overwritten: updating bytes a slot already
  holds allocates a fresh slot (FLASH's repeated small HDF5-metadata
  rewrites at a 64 KB stripe unit burn a slot per rewrite, which is why
  the paper measures Hybrid *above* RAID1 there).

Space is reclaimed only by compaction (:mod:`repro.redundancy.reclaim`,
the paper's Section 6.7 proposal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.util.intervals import Extent, ExtentMap


@dataclass
class _Slot:
    """One allocated stripe-unit slot holding a version of a block."""

    offset: int                     # slot start in the overflow file
    valid: ExtentMap = field(default_factory=ExtentMap)  # intra-block bytes


@dataclass(frozen=True)
class OverflowWritePiece:
    """Where one piece of an appended range must be written."""

    ovf_offset: int
    local_start: int  # data-file byte space
    local_end: int


@dataclass(frozen=True)
class OverflowRead:
    """One piece of a resolved read that comes from the overflow file."""

    ovf_offset: int
    length: int
    local_start: int  # where the piece lands in data-file byte space


class OverflowTable:
    """Block-granular overflow index for one file on one server."""

    def __init__(self, block_size: int) -> None:
        if block_size <= 0:
            raise ValueError(f"bad overflow block size {block_size}")
        self.block_size = block_size
        #: per logical block: versions, oldest first
        self._slots: Dict[int, List[_Slot]] = {}
        #: currently-valid coverage in data-file byte space
        self.covered = ExtentMap()
        self.next_offset = 0
        #: bumped by every change, so a reader that waited can tell
        self.version = 0

    # ------------------------------------------------------------------
    def append(self, start: int, end: int) -> List[OverflowWritePiece]:
        """Record a new version of ``[start, end)``.

        Returns the overflow-file pieces the server must write (one per
        touched logical block; a block reuses its newest slot when the
        update only touches bytes that slot does not yet hold).
        """
        if end <= start:
            raise ValueError(f"empty overflow range [{start}, {end})")
        self.version += 1
        bs = self.block_size
        pieces: List[OverflowWritePiece] = []
        cursor = start
        while cursor < end:
            block = cursor // bs
            intra_lo = cursor - block * bs
            take = min(bs - intra_lo, end - cursor)
            intra_hi = intra_lo + take
            versions = self._slots.setdefault(block, [])
            slot = versions[-1] if versions else None
            if slot is None or slot.valid.overlap(intra_lo, intra_hi):
                # First version, or rewriting bytes the newest slot holds:
                # overflow data is never overwritten, so allocate afresh.
                slot = _Slot(offset=self.next_offset)
                self.next_offset += bs
                versions.append(slot)
            slot.valid.add(intra_lo, intra_hi)
            pieces.append(OverflowWritePiece(
                ovf_offset=slot.offset + intra_lo,
                local_start=cursor, local_end=cursor + take))
            cursor += take
        self.covered.add(start, end)
        return pieces

    def invalidate(self, start: int, end: int) -> None:
        """A full-stripe write superseded ``[start, end)`` in place."""
        self.version += 1
        self.covered.remove(start, end)

    def truncate(self) -> None:
        """Forget everything (reclaimer rewrote the file as full stripes)."""
        self.version += 1
        self._slots.clear()
        self.covered.clear()
        self.next_offset = 0

    # ------------------------------------------------------------------
    def resolve(self, start: int, end: int,
                ) -> Tuple[List[Extent], List[OverflowRead]]:
        """Split a data-file read into in-place parts and overflow parts.

        Returns ``(data_parts, overflow_reads)``: the in-place byte ranges
        to read from the data file, and the overflow-file pieces (latest
        version per byte) sorted by data-file position.
        """
        if end <= start:
            return [], []
        bs = self.block_size
        reads: List[OverflowRead] = []
        for seg in self.covered.overlap(start, end):
            cursor = seg.start
            while cursor < seg.end:
                block = cursor // bs
                intra_lo = cursor - block * bs
                take = min(bs - intra_lo, seg.end - cursor)
                need = ExtentMap([(intra_lo, intra_lo + take)])
                for slot in reversed(self._slots.get(block, [])):
                    if not need:
                        break
                    for piece in need.overlap(0, bs):
                        for got in slot.valid.overlap(piece.start, piece.end):
                            reads.append(OverflowRead(
                                ovf_offset=slot.offset + got.start,
                                length=got.length,
                                local_start=block * bs + got.start))
                            need.remove(got.start, got.end)
                if need:  # pragma: no cover - defensive
                    raise AssertionError(
                        "covered bytes without a providing slot")
                cursor += take
        data_parts = self.covered.gaps(start, end)
        reads.sort(key=lambda r: r.local_start)
        return data_parts, reads

    # ------------------------------------------------------------------
    def check_invariants(self) -> List[str]:
        """Structural self-check (ParitySan's content-free oracle).

        Verifies that slots shadow — never alias — each other and their
        home blocks: every slot sits on its own block-aligned offset
        inside the allocated region, valid bytes stay inside the slot,
        and every currently-covered byte has a providing slot.
        """
        issues: List[str] = []
        bs = self.block_size
        seen_offsets: set = set()
        for block, versions in self._slots.items():
            for slot in versions:
                if slot.offset % bs != 0 \
                        or not 0 <= slot.offset < max(self.next_offset, 1):
                    issues.append(
                        f"slot for block {block} at unaligned or "
                        f"out-of-region offset {slot.offset}")
                if slot.offset in seen_offsets:
                    issues.append(
                        f"slot offset {slot.offset} allocated twice "
                        "(two versions alias the same storage)")
                seen_offsets.add(slot.offset)
                for ext in slot.valid:
                    if ext.start < 0 or ext.end > bs:
                        issues.append(
                            f"slot for block {block} marks bytes "
                            f"[{ext.start}, {ext.end}) outside the "
                            f"block size {bs}")
        for ext in self.covered:
            try:
                gaps, _reads = self.resolve(ext.start, ext.end)
            except AssertionError:
                issues.append(
                    f"covered range [{ext.start}, {ext.end}) has no "
                    "providing slot")
                continue
            if gaps:
                issues.append(
                    f"covered range [{ext.start}, {ext.end}) resolves "
                    "with gaps")
        return issues

    # ------------------------------------------------------------------
    @property
    def live_bytes(self) -> int:
        """Bytes an ideal byte-granular compaction would keep."""
        return self.covered.total()

    @property
    def allocated_bytes(self) -> int:
        """Bytes the overflow file occupies (slot padding + garbage)."""
        return self.next_offset

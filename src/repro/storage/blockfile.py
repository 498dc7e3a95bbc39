"""A sparse local file: extent map plus (optionally) real content.

Each I/O daemon keeps several of these per PVFS file — the data file, the
redundancy (mirror or parity) file, and under the Hybrid scheme the
overflow files.  ``BlockFile`` is purely functional state; all timing goes
through the :class:`repro.hw.cache.PageCache` in :class:`repro.storage.localfs.LocalFS`.

Content is stored in fixed-size pages allocated on first touch, like the
sparse files it models: a streaming append never copies old data (the
contiguous-buffer representation spent more time growing the buffer than
landing bytes), holes cost nothing, and page allocation is lazy calloc.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.storage.payload import Payload
from repro.util.intervals import ExtentMap

#: Content page size: allocation and copy granularity of the store.
_PAGE = 1 << 20


class BlockFile:
    """Sparse byte store with allocation tracking.

    Unwritten ("hole") ranges read back as zeros, exactly like a sparse
    Unix file; reads in extent mode return virtual payloads.
    """

    def __init__(self, name: str, content_mode: bool = True) -> None:
        self.name = name
        self.content_mode = content_mode
        self.allocated = ExtentMap()
        self._pages: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """What ``ls -l`` would report: the end of the last written byte."""
        return self.allocated.max_end()

    @property
    def allocated_bytes(self) -> int:
        """What ``du`` would report (ignoring holes)."""
        return self.allocated.total()

    def _page(self, index: int) -> np.ndarray:
        page = self._pages.get(index)
        if page is None:
            page = self._pages[index] = np.zeros(_PAGE, dtype=np.uint8)
        return page

    def _store(self, lo: int, arr: np.ndarray) -> None:
        """Copy ``arr`` into the page store at byte offset ``lo``."""
        cursor, apos, end = lo, 0, lo + arr.size
        while cursor < end:
            index, intra = divmod(cursor, _PAGE)
            take = min(_PAGE - intra, end - cursor)
            self._page(index)[intra: intra + take] = arr[apos: apos + take]
            cursor += take
            apos += take

    def _zero(self, lo: int, hi: int) -> None:
        """Zero ``[lo, hi)`` without allocating untouched pages."""
        cursor = lo
        while cursor < hi:
            index, intra = divmod(cursor, _PAGE)
            take = min(_PAGE - intra, hi - cursor)
            page = self._pages.get(index)
            if page is not None:
                page[intra: intra + take] = 0
            cursor += take

    # ------------------------------------------------------------------
    def write(self, offset: int, payload: Payload) -> None:
        """Store ``payload`` at ``offset``.

        Consumes the payload segment-wise, so scatter-gathered writes
        land without ever flattening; gaps between segments are written
        as zeros (they are part of the payload's content).
        """
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        if payload.length == 0:
            return
        end = offset + payload.length
        self.allocated.add(offset, end)
        if self.content_mode:
            if payload.is_virtual:
                raise ValueError(
                    f"virtual payload written to content-mode file {self.name}")
            cursor = offset
            for at, seg in payload.iter_segments():
                lo = offset + at
                if lo > cursor:
                    self._zero(cursor, lo)
                self._store(lo, seg)
                cursor = lo + seg.size
            if end > cursor:
                self._zero(cursor, end)

    def read(self, offset: int, length: int) -> Payload:
        if offset < 0 or length < 0:
            raise ValueError(f"bad read [{offset}, +{length})")
        if not self.content_mode:
            return Payload.virtual(length)
        end = offset + length
        out = np.zeros(length, dtype=np.uint8)
        cursor = offset
        while cursor < end:
            index, intra = divmod(cursor, _PAGE)
            take = min(_PAGE - intra, end - cursor)
            page = self._pages.get(index)
            if page is not None:
                out[cursor - offset: cursor - offset + take] = \
                    page[intra: intra + take]
            cursor += take
        # Mask out holes so punched/stale page content never leaks.
        for gap_start, gap_end in self.allocated.gaps_iter(offset, end):
            out[gap_start - offset: gap_end - offset] = 0
        return Payload(length, out)

    def punch_hole(self, offset: int, length: int) -> None:
        """Deallocate a range (used by the overflow reclaimer)."""
        self.allocated.remove(offset, offset + length)
        if self.content_mode:
            self._zero(offset, offset + length)

    def truncate(self) -> None:
        """Drop all contents."""
        self.allocated.clear()
        self._pages.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "content" if self.content_mode else "extent"
        return f"<BlockFile {self.name!r} {mode} size={self.size}>"

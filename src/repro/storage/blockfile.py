"""A sparse local file: extent map plus (optionally) real content.

Each I/O daemon keeps several of these per PVFS file — the data file, the
redundancy (mirror or parity) file, and under the Hybrid scheme the
overflow files.  ``BlockFile`` is purely functional state; all timing goes
through the :class:`repro.hw.cache.PageCache` in :class:`repro.storage.localfs.LocalFS`.

Content is an extent rope: sorted, disjoint frozen views of the very
buffers the written payloads captured, so a write copies no byte and
holes (never written, or the gaps of a scattered payload) are
simply absent and read back as zeros.  The store therefore *aliases*
caller buffers: it relies on :class:`~repro.storage.payload.Payload`'s
freeze and never writes a stored array in place, and a stored view keeps
its whole source buffer alive.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Sequence

import numpy as np

from repro.storage.payload import Payload, Segment
from repro.util.intervals import ExtentMap


class BlockFile:
    """Sparse byte store with allocation tracking.

    Unwritten ("hole") ranges read back as zeros, exactly like a sparse
    Unix file; reads in extent mode return virtual payloads.
    """

    def __init__(self, name: str, content_mode: bool = True) -> None:
        self.name = name
        self.content_mode = content_mode
        self.allocated = ExtentMap()
        #: The content rope: ``_views[i]`` holds the bytes at
        #: ``[_starts[i], _starts[i] + _views[i].size)``; ascending,
        #: disjoint, non-empty, read-only.
        self._starts: List[int] = []
        self._views: List[np.ndarray] = []

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """What ``ls -l`` would report: the end of the last written byte."""
        return self.allocated.max_end()

    @property
    def allocated_bytes(self) -> int:
        """What ``du`` would report (ignoring holes)."""
        return self.allocated.total()

    def _splice(self, lo: int, hi: int,
                segments: Sequence[Segment]) -> None:
        """Replace the content of ``[lo, hi)`` by ``segments`` (absolute
        offsets inside it), clipping the two straddling views into
        sub-views."""
        starts, views = self._starts, self._views
        i = bisect_right(starts, lo) - 1
        if i < 0 or starts[i] + views[i].size <= lo:
            i += 1
        j = bisect_left(starts, hi, i)
        new = list(segments)
        if i < j:
            head_at, head = starts[i], views[i]
            tail_at, tail = starts[j - 1], views[j - 1]
            if head_at < lo:
                new.insert(0, (head_at, head[: lo - head_at]))
            if tail_at + tail.size > hi:
                new.append((hi, tail[hi - tail_at:]))
        starts[i:j] = [at for at, _view in new]
        views[i:j] = [view for _at, view in new]

    # ------------------------------------------------------------------
    def write(self, offset: int, payload: Payload) -> None:
        """Store ``payload`` at ``offset``.

        Keeps the payload's own segment arrays, so neither flat nor
        scatter-gathered writes are ever copied; gaps between segments
        are zeros (they are part of the payload's content) and are
        stored as holes in the rope.
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
            self._splice(offset, end, [
                (offset + at, seg)
                for at, seg in payload.iter_segments() if seg.size])

    def read(self, offset: int, length: int) -> Payload:
        if offset < 0 or length < 0:
            raise ValueError(f"bad read [{offset}, +{length})")
        if not self.content_mode:
            return Payload.virtual(length)
        return Payload.from_segments(length, self.segments(offset, length))

    def segments(self, offset: int, length: int) -> List[Segment]:
        """The stored views of ``[offset, offset + length)``, at offsets
        relative to ``offset``; holes are absent (they read as zeros).

        What :meth:`read` wraps in a payload, for callers that only walk
        the bytes (the offline scrub): no payload is built, so nothing
        is captured or flattened.  Empty in extent mode.
        """
        end = offset + length
        starts, views = self._starts, self._views
        segments: List[Segment] = []
        for i in range(max(bisect_right(starts, offset) - 1, 0),
                       bisect_left(starts, end)):
            at, view = starts[i], views[i]
            lo, hi = max(at, offset), min(at + view.size, end)
            if hi - lo == view.size:
                # The stored array itself: BufSan then checks it against
                # the fingerprint taken when it was written.
                segments.append((lo - offset, view))
            elif lo < hi:
                segments.append((lo - offset, view[lo - at: hi - at]))
        return segments

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "content" if self.content_mode else "extent"
        return f"<BlockFile {self.name!r} {mode} size={self.size}>"

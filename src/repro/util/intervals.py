"""Half-open byte-range arithmetic.

Sparse files, page-cache residency, overflow tables and storage accounting
all need the same primitive: a set of non-overlapping, half-open intervals
``[start, end)`` over file offsets, with union/difference/intersection and
coverage queries.  :class:`ExtentMap` keeps the intervals sorted and merged
and offers those operations in ``O(log n + k)`` per call (``k`` = touched
intervals), which is what makes extent-mode simulation of multi-gigabyte
benchmark files cheap.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple


@dataclass(frozen=True, order=True)
class Extent:
    """A half-open byte range ``[start, end)``."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid extent [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.start},{self.end})"


class ExtentMap:
    """A mutable, always-merged set of disjoint half-open intervals.

    Internally two parallel lists of starts and ends, sorted ascending,
    with adjacent intervals coalesced (``[0,4)`` + ``[4,8)`` = ``[0,8)``).
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self, extents: Iterable[Tuple[int, int]] = ()) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        for start, end in extents:
            self.add(start, end)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, start: int, end: int) -> None:
        """Union ``[start, end)`` into the map."""
        if end < start:
            raise ValueError(f"invalid extent [{start}, {end})")
        if end == start:
            return
        # All intervals with end >= start can merge on the left; all with
        # start <= end can merge on the right.
        lo = bisect_left(self._ends, start)
        hi = bisect_right(self._starts, end)
        if lo < hi:
            start = min(start, self._starts[lo])
            end = max(end, self._ends[hi - 1])
        self._starts[lo:hi] = [start]
        self._ends[lo:hi] = [end]

    def remove(self, start: int, end: int) -> None:
        """Difference: delete ``[start, end)`` from the map."""
        if end < start:
            raise ValueError(f"invalid extent [{start}, {end})")
        if end == start or not self._starts:
            return
        lo = bisect_right(self._ends, start)
        hi = bisect_left(self._starts, end)
        if lo >= hi:
            return
        replacement_starts: List[int] = []
        replacement_ends: List[int] = []
        if self._starts[lo] < start:
            replacement_starts.append(self._starts[lo])
            replacement_ends.append(start)
        if self._ends[hi - 1] > end:
            replacement_starts.append(end)
            replacement_ends.append(self._ends[hi - 1])
        self._starts[lo:hi] = replacement_starts
        self._ends[lo:hi] = replacement_ends

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[Extent]:
        for start, end in zip(self._starts, self._ends):
            yield Extent(start, end)

    def iter_tuples(self) -> Iterator[Tuple[int, int]]:
        """All intervals as ``(start, end)`` tuples, in order.

        The allocation-free counterpart of ``__iter__`` for hot paths
        (no :class:`Extent` dataclass per interval).
        """
        return zip(self._starts, self._ends)

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtentMap):
            return NotImplemented
        return self._starts == other._starts and self._ends == other._ends

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ExtentMap(" + ", ".join(map(repr, self)) + ")"

    def total(self) -> int:
        """Total number of bytes covered."""
        return sum(e - s for s, e in zip(self._starts, self._ends))

    def max_end(self) -> int:
        """End of the last interval, or 0 when empty (sparse file size)."""
        return self._ends[-1] if self._ends else 0

    def contains(self, start: int, end: int) -> bool:
        """True when ``[start, end)`` is fully covered."""
        if end <= start:
            return True
        i = bisect_right(self._starts, start) - 1
        return i >= 0 and self._ends[i] >= end

    def overlap_iter(self, start: int, end: int) -> Iterator[Tuple[int, int]]:
        """Covered sub-ranges of ``[start, end)`` as ``(s, e)`` tuples.

        The batched, allocation-free form of :meth:`overlap`: one bisect
        up front, then a plain index walk — no list and no
        :class:`Extent` objects, which is what keeps extent-mode Class C
        runs cheap.
        """
        if end <= start:
            return
        starts = self._starts
        ends = self._ends
        n = len(starts)
        i = bisect_right(ends, start)
        while i < n and starts[i] < end:
            s = starts[i]
            if s < start:
                s = start
            e = ends[i]
            if e > end:
                e = end
            if e > s:
                yield (s, e)
            i += 1

    def gaps_iter(self, start: int, end: int) -> Iterator[Tuple[int, int]]:
        """Uncovered sub-ranges of ``[start, end)`` as ``(s, e)`` tuples."""
        cursor = start
        for s, e in self.overlap_iter(start, end):
            if s > cursor:
                yield (cursor, s)
            cursor = e
        if cursor < end:
            yield (cursor, end)

    def overlap_len(self, start: int, end: int) -> int:
        """Total covered bytes in ``[start, end)`` without materializing
        anything — the hot query of the page cache's bookkeeping."""
        total = 0
        for s, e in self.overlap_iter(start, end):
            total += e - s
        return total

    def overlap(self, start: int, end: int) -> List[Extent]:
        """Covered sub-ranges of ``[start, end)``, in order."""
        return [Extent(s, e) for s, e in self.overlap_iter(start, end)]

    def gaps(self, start: int, end: int) -> List[Extent]:
        """Uncovered sub-ranges of ``[start, end)``, in order."""
        return [Extent(s, e) for s, e in self.gaps_iter(start, end)]

    def copy(self) -> "ExtentMap":
        dup = ExtentMap()
        dup._starts = list(self._starts)
        dup._ends = list(self._ends)
        return dup

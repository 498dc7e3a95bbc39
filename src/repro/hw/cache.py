"""Linux-like page cache, extent-granular.

The cache mediates every local-file read and write on an I/O server and
reproduces the three behaviours the paper's evaluation hinges on:

* **read caching** — warm re-reads are free (Fig 4b's "old data and parity
  are found in the file system cache");
* **write-behind with dirty throttling** — writes are absorbed at memory
  speed until dirty data exceeds a limit, then writers are throttled to
  disk speed (the RAID1 collapse in Fig 7: twice the bytes overflow the
  server caches first);
* **partial-block read-before-write** — writing part of a block whose old
  contents exist on disk but not in cache forces a block read first
  (Section 5.2).  The write-buffering fix limits partial-block writes to
  the two edges of a request; without it, every network-chunk boundary can
  trigger one.

State is tracked as byte extents per file (not per-page dicts) so
multi-gigabyte Class C runs stay cheap; an OrderedDict over files provides
the LRU for eviction.  All extent queries on this path use the tuple
iterators (``overlap_iter``/``gaps_iter``/``overlap_len``) so no
:class:`~repro.util.intervals.Extent` objects are allocated per block.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple

from repro.sim.engine import Environment, Event
from repro.util.intervals import ExtentMap
from repro.hw.disk import Disk
from repro.hw.params import CacheParams

#: Largest single disk operation issued by writeback/readahead merging.
MAX_IO = 1 << 20


class _FileEntry:
    __slots__ = ("cached", "dirty")

    def __init__(self) -> None:
        self.cached = ExtentMap()
        self.dirty = ExtentMap()


class PageCache:
    """One node's unified page cache in front of one disk."""

    def __init__(self, env: Environment, node_name: str, params: CacheParams,
                 disk: Disk) -> None:
        self.env = env
        self.node_name = node_name
        self.params = params
        self.disk = disk
        self._files: "OrderedDict[object, _FileEntry]" = OrderedDict()
        self.usage = 0
        self.dirty_bytes = 0
        self._flusher_proc = None

    # ------------------------------------------------------------------
    # bookkeeping helpers
    # ------------------------------------------------------------------
    def _entry(self, file_id: object) -> _FileEntry:
        entry = self._files.get(file_id)
        if entry is None:
            entry = _FileEntry()
            self._files[file_id] = entry
        else:
            self._files.move_to_end(file_id)
        return entry

    def _cover(self, entry: _FileEntry, start: int, end: int) -> int:
        """Add ``[start, end)`` to the cached set; returns new bytes."""
        already = entry.cached.overlap_len(start, end)
        entry.cached.add(start, end)
        added = (end - start) - already
        self.usage += added
        return added

    def _mark_dirty(self, entry: _FileEntry, start: int, end: int) -> None:
        already = entry.dirty.overlap_len(start, end)
        entry.dirty.add(start, end)
        self.dirty_bytes += (end - start) - already

    def cached_extents(self, file_id: object) -> ExtentMap:
        entry = self._files.get(file_id)
        return entry.cached.copy() if entry else ExtentMap()

    def is_cached(self, file_id: object, start: int, end: int) -> bool:
        entry = self._files.get(file_id)
        return entry is not None and entry.cached.contains(start, end)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def read(self, file_id: object, start: int, end: int,
             allocated: ExtentMap) -> Generator[Event, Any, None]:
        """Bring ``[start, end)`` into cache, reading misses from disk.

        ``allocated`` is the file's on-disk extent map; holes are sparse
        zeros and cost nothing.
        """
        if end <= start:
            return
        entry = self._entry(file_id)
        bs = self.params.block_size
        hit = entry.cached.overlap_len(start, end)
        missing: List[Tuple[int, int]] = []
        for gap_start, gap_end in entry.cached.gaps_iter(start, end):
            missing.extend(allocated.overlap_iter(gap_start, gap_end))
        metrics = self.env.metrics
        metrics.add("cache.hit_bytes", hit)
        metrics.add("cache.miss_bytes", sum(e - s for s, e in missing))
        for miss_start, miss_end in missing:
            # Page-align the disk read, extend to the readahead window,
            # clip to allocation.
            lo = (miss_start // bs) * bs
            hi = -(-miss_end // bs) * bs
            if hi - lo < self.params.readahead:
                hi = lo + self.params.readahead
            hi = min(hi, max(allocated.max_end(), miss_end))
            offset = lo
            while offset < hi:
                step = min(MAX_IO, hi - offset)
                yield from self.disk.read(file_id, offset, step)
                offset += step
            self._cover(entry, lo, hi)
        # Everything requested (including sparse holes) now counts cached.
        self._cover(entry, start, end)
        yield from self._evict_if_needed(exclude=file_id)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def write(self, file_id: object, start: int, end: int,
              allocated: ExtentMap,
              cut_points: Iterable[int] = ()) -> Generator[Event, Any, None]:
        """Absorb a write of ``[start, end)``.

        ``cut_points`` are the file offsets at which the server's local
        write calls begin/end *inside* the request (chunked arrival without
        write buffering).  Every block containing an unaligned boundary —
        the request edges plus each cut point — is written partially at
        first touch; if its old contents are on disk and not cached, it
        must be read first (Section 5.2).
        """
        yield from self.write_many(file_id, ((start, end),), allocated,
                                   cut_points)

    def write_many(self, file_id: object,
                   ranges: Iterable[Tuple[int, int]],
                   allocated: ExtentMap,
                   cut_points: Iterable[int] = (),
                   ) -> Generator[Event, Any, None]:
        """Absorb several byte ranges of one request in a single pass.

        The vectored companion of :meth:`write`: a scatter-gathered
        server write (e.g. a multi-piece overflow append) charges all of
        its ranges with one throttle/eviction pass, the way one local
        ``writev`` would.  For a single range this is exactly
        :meth:`write`.
        """
        ranges = [(s, e) for s, e in ranges if e > s]
        if not ranges:
            return
        entry = self._entry(file_id)
        bs = self.params.block_size
        boundaries = set()
        for start, end in ranges:
            boundaries.add(start)
            boundaries.add(end)
        boundaries.update(cut_points)
        penalty_blocks: List[Tuple[int, int]] = []
        seen = set()
        for p in sorted(boundaries):
            if p % bs == 0:
                continue  # block-aligned boundary: no partial write
            block_lo = (p // bs) * bs
            if block_lo in seen:
                continue
            seen.add(block_lo)
            block_hi = block_lo + bs
            old = list(allocated.overlap_iter(block_lo, block_hi))
            if not old:
                continue  # no old data: allocator just zero-fills
            # Resident when every *allocated* byte of the block is cached
            # (holes within the block need no read).
            if all(entry.cached.contains(piece_start, piece_end)
                   for piece_start, piece_end in old):
                continue
            penalty_blocks.append((block_lo, block_hi))
        for block_lo, block_hi in penalty_blocks:
            hi = min(block_hi, max(allocated.max_end(), block_lo))
            if hi > block_lo:
                yield from self.disk.read(file_id, block_lo, hi - block_lo)
                self._cover(entry, block_lo, hi)
                self.env.metrics.add("cache.partial_block_reads")
                self.env.metrics.add("cache.partial_block_read_bytes",
                                     hi - block_lo)
        for start, end in ranges:
            self._cover(entry, start, end)
            self._mark_dirty(entry, start, end)
        self.env.metrics.add("cache.write_bytes",
                             sum(e - s for s, e in ranges))
        yield from self._throttle()
        yield from self._evict_if_needed(exclude=file_id)

    # ------------------------------------------------------------------
    # writeback / eviction
    # ------------------------------------------------------------------
    def _pick_dirty(self) -> Optional[Tuple[object, int, int]]:
        """Oldest file's lowest dirty extent (elevator-ish order)."""
        for file_id, entry in self._files.items():
            for ext_start, ext_end in entry.dirty.iter_tuples():
                return file_id, ext_start, ext_end
        return None

    def _writeback_some(self, target_bytes: int) -> Generator[Event, Any, int]:
        """Flush up to ``target_bytes`` of dirty data; returns bytes flushed."""
        flushed = 0
        while flushed < target_bytes:
            pick = self._pick_dirty()
            if pick is None:
                break
            file_id, ext_start, ext_end = pick
            entry = self._files[file_id]
            length = min(ext_end - ext_start, MAX_IO)
            # Claim the extent *before* the disk write so concurrent
            # flushers (fsync handlers, the background daemon, throttled
            # writers) never write the same bytes twice.
            entry.dirty.remove(ext_start, ext_start + length)
            self.dirty_bytes -= length
            yield from self.disk.write(file_id, ext_start, length)
            flushed += length
            self.env.metrics.add("cache.writeback_bytes", length)
        return flushed

    def _throttle(self) -> Generator[Event, Any, None]:
        """Synchronous writeback charged to the writer when over the limit."""
        limit = self.params.dirty_limit
        if self.dirty_bytes <= limit:
            return
        t0 = self.env.now
        while self.dirty_bytes > limit:
            done = yield from self._writeback_some(MAX_IO)
            if done == 0:
                break
        self.env.metrics.add("cache.throttle_time", self.env.now - t0)

    def _evict_if_needed(self, exclude: object = None) -> Generator[Event, Any, None]:
        """Drop clean extents (coldest file first) until under capacity."""
        while self.usage > self.params.capacity:
            evicted = False
            for file_id in list(self._files):
                if file_id == exclude and len(self._files) > 1:
                    continue
                entry = self._files[file_id]
                for ext_start, ext_end in list(entry.cached.iter_tuples()):
                    for clean_start, clean_end in list(
                            entry.dirty.gaps_iter(ext_start, ext_end)):
                        length = clean_end - clean_start
                        entry.cached.remove(clean_start, clean_end)
                        self.usage -= length
                        self.env.metrics.add("cache.evicted_bytes", length)
                        evicted = True
                        if self.usage <= self.params.capacity:
                            return
                if evicted:
                    break
            if not evicted:
                # Everything is dirty: reclaim must clean pages first.
                done = yield from self._writeback_some(MAX_IO)
                if done == 0:
                    return  # cache smaller than one in-flight write; give up

    # ------------------------------------------------------------------
    # external control
    # ------------------------------------------------------------------
    def fsync(self, file_id: object) -> Generator[Event, Any, None]:
        """Flush every dirty byte of one file to disk."""
        entry = self._files.get(file_id)
        if entry is None:
            return
        while entry.dirty:
            ext_start, ext_end = next(entry.dirty.iter_tuples())
            length = min(ext_end - ext_start, MAX_IO)
            # Claim before writing (see _writeback_some).
            entry.dirty.remove(ext_start, ext_start + length)
            self.dirty_bytes -= length
            yield from self.disk.write(file_id, ext_start, length)
            self.env.metrics.add("cache.writeback_bytes", length)

    def sync(self) -> Generator[Event, Any, None]:
        """Flush all dirty data on this node."""
        for file_id in list(self._files):
            yield from self.fsync(file_id)

    def drop(self) -> Generator[Event, Any, None]:
        """``echo 3 > drop_caches``: sync, then forget everything."""
        yield from self.sync()
        self._files.clear()
        self.usage = 0
        self.dirty_bytes = 0

    def start_flusher(self) -> None:
        """Launch the background flusher (idempotent)."""
        if self._flusher_proc is None or not self._flusher_proc.is_alive:
            self._flusher_proc = self.env.process(
                self._flusher(), name=f"flusher:{self.node_name}")

    def _flusher(self) -> Generator[Event, Any, None]:
        """pdflush-like daemon: keep dirty bytes near the background limit."""
        while True:
            yield self.env.timeout(self.params.flush_interval)
            limit = self.params.background_limit
            while self.dirty_bytes > limit:
                done = yield from self._writeback_some(MAX_IO)
                if done == 0:
                    break

"""The I/O server's local file system.

Combines functional state (:class:`BlockFile`) with timing
(:class:`~repro.hw.cache.PageCache` over :class:`~repro.hw.disk.Disk`) the
way PVFS I/O daemons use ext2 through the Linux page cache.  The write
path implements both arrival disciplines from Section 5.2:

* **buffered** (the paper's fix): data received from the network is
  accumulated into a connection-private buffer sized a multiple of the
  file-system block, so the local write call sees at most two partial
  blocks (the request edges);
* **unbuffered** (stock PVFS): each non-blocking network receive is
  written immediately, so every ``net_chunk`` boundary inside the request
  becomes a partial-block write.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, List

from repro.errors import FileNotFound
from repro.sim.engine import Event
from repro.storage.blockfile import BlockFile
from repro.storage.payload import Payload
from repro.util.intervals import ExtentMap
from repro.hw.node import Node

#: Shared allocation map for reads of files that were never written:
#: everything is a hole, and reading must not create server-side state.
_NO_EXTENTS = ExtentMap()


class LocalFS:
    """Per-node file namespace with cache-mediated timing."""

    def __init__(self, node: Node, content_mode: bool = True,
                 write_buffering: bool = True) -> None:
        self.node = node
        self.content_mode = content_mode
        self.write_buffering = write_buffering
        self.files: Dict[str, BlockFile] = {}
        #: Owning I/O server index (set by the daemon), so an injected
        #: torn write can target this server.
        self.owner = None

    # ------------------------------------------------------------------
    def _get(self, name: str, create: bool = False) -> BlockFile:
        f = self.files.get(name)
        if f is None:
            if not create:
                raise FileNotFound(f"{self.node.name}:{name}")
            f = BlockFile(name, self.content_mode)
            self.files[name] = f
        return f

    def exists(self, name: str) -> bool:
        return name in self.files

    def file_size(self, name: str) -> int:
        return self._get(name).size

    def listing(self) -> Dict[str, int]:
        """``ls -l`` of this node: name -> size."""
        return {name: f.size for name, f in self.files.items()}

    def _file_id(self, name: str) -> str:
        return f"{self.node.name}:{name}"

    # ------------------------------------------------------------------
    def _cut_points(self, offset: int, length: int) -> List[int]:
        """Local-write boundaries inside a request (empty when buffered)."""
        if self.write_buffering:
            return []
        chunk = self.node.profile.net_chunk
        return list(range(offset + chunk, offset + length, chunk))

    def _land(self, f: BlockFile, offset: int, payload: Payload) -> None:
        """Store ``payload`` in ``f`` — unless an armed torn-write fault
        (see :mod:`repro.faults`) decides that only a prefix persists
        (possibly nothing) and the write then raises."""
        faults = self.node.env.faults
        if faults is not None:
            tear = faults.torn_action(self.owner, payload)
            if tear is not None:
                prefix, abort = tear
                if prefix is not None:
                    f.write(offset, prefix)
                raise abort
        f.write(offset, payload)

    def write(self, name: str, offset: int, payload: Payload,
              ) -> Generator[Event, Any, None]:
        """Timed write; creates the file if needed."""
        f = self._get(name, create=True)
        if payload.length == 0:
            return
        end = offset + payload.length
        yield from self.node.cache.write(
            self._file_id(name), offset, end, f.allocated,
            cut_points=self._cut_points(offset, payload.length))
        self._land(f, offset, payload)

    def write_gather(self, name: str,
                     parts: List[tuple[int, Payload]],
                     ) -> Generator[Event, Any, None]:
        """Timed vectored write: several (offset, payload) pieces of one
        request charge the cache in a single pass (one throttle/eviction
        round, like a local ``writev``) before landing in the block file.
        """
        f = self._get(name, create=True)
        parts = [(off, p) for off, p in parts if p.length]
        if not parts:
            return
        ranges = [(off, off + p.length) for off, p in parts]
        cut_points = [c for off, p in parts
                      for c in self._cut_points(off, p.length)]
        yield from self.node.cache.write_many(
            self._file_id(name), ranges, f.allocated, cut_points)
        for off, p in parts:
            self._land(f, off, p)

    def read(self, name: str, offset: int, length: int,
             ) -> Generator[Event, Any, Payload]:
        """Timed read; sparse holes read back as zeros for free.

        Reading never creates the file: a read of a name this server has
        no data for (an unwritten stripe, or a speculative read racing
        the manager open) returns zeros without leaving state behind.
        """
        f = self.files.get(name)
        allocated = f.allocated if f is not None else _NO_EXTENTS
        yield from self.node.cache.read(
            self._file_id(name), offset, offset + length, allocated)
        if f is None:
            return (Payload.sparse(length) if self.content_mode
                    else Payload.virtual(length))
        return f.read(offset, length)

    def fsync(self, name: str) -> Generator[Event, Any, None]:
        yield from self.node.cache.fsync(self._file_id(name))

    def sync(self) -> Generator[Event, Any, None]:
        yield from self.node.cache.sync()

    def drop_caches(self) -> Generator[Event, Any, None]:
        yield from self.node.cache.drop()

    # ------------------------------------------------------------------
    def total_size(self, names: Iterable[str] | None = None) -> int:
        """Sum of file sizes (Table 2 accounting)."""
        if names is None:
            return sum(f.size for f in self.files.values())
        return sum(self.files[n].size for n in names if n in self.files)

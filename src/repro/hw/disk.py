"""Seek-plus-streaming disk model with sequential-access detection.

One :class:`Disk` serializes all operations (a single spindle / 3Ware
volume).  An operation is *sequential* when it continues exactly where the
previous operation on the same local file ended; sequential operations skip
the positioning cost.  This is what makes interleaved read-modify-write
traffic (cold-cache RAID5 overwrite, Figs 6b/7b) so much slower than
streaming writeback: every alternation between reading old stripes and
writing new data pays a seek.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Tuple

from repro.metrics import Metrics
from repro.sim.engine import Environment, Event, Timeout
from repro.sim.resources import Resource
from repro.hw.params import DiskParams


class Disk:
    """A node-local disk (or RAID0 volume presented as one device)."""

    def __init__(self, env: Environment, node_name: str, params: DiskParams,
                 metrics: Optional[Metrics] = None) -> None:
        self.env = env
        self.node_name = node_name
        self.params = params
        self.metrics = metrics
        self._resource = Resource(env, capacity=1)
        #: (file_id, end_offset) of the last completed operation
        self._head: Optional[Tuple[object, int]] = None
        self.reads = 0
        self.writes = 0
        self.seeks = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.busy_time = 0.0

    def io(self, file_id: object, offset: int, nbytes: int,
           write: bool) -> Generator[Event, Any, None]:
        """Process body for one disk operation."""
        if nbytes <= 0:
            return
        resource = self._resource
        req = resource.request()
        try:
            yield req
            sequential = self._head == (file_id, offset)
            duration = self.params.io_time(nbytes, sequential)
            faults = self.env.faults
            if faults is not None:
                action = faults.disk_action(self)
                if action is not None:
                    if action[0] == "error":
                        # Injected EIO: the injector has already panicked
                        # the owning server; abort the handler's request.
                        from repro.errors import DiskFault

                        raise DiskFault(
                            f"{self.node_name}: injected disk error")
                    duration *= action[1]
            yield Timeout(self.env, duration)
            self._head = (file_id, offset + nbytes)
            self.busy_time += duration
            if not sequential:
                self.seeks += 1
            if write:
                self.writes += 1
                self.bytes_written += nbytes
                ops_key, bytes_key = "disk.writes", "disk.bytes_written"
            else:
                self.reads += 1
                self.bytes_read += nbytes
                ops_key, bytes_key = "disk.reads", "disk.bytes_read"
            metrics = self.metrics
            if metrics is not None:
                metrics.add(ops_key)
                metrics.add(bytes_key, nbytes)
                if not sequential:
                    metrics.add("disk.seeks")
        finally:
            resource.release(req)

    def read(self, file_id: object, offset: int,
             nbytes: int) -> Generator[Event, Any, None]:
        yield from self.io(file_id, offset, nbytes, write=False)

    def write(self, file_id: object, offset: int,
              nbytes: int) -> Generator[Event, Any, None]:
        yield from self.io(file_id, offset, nbytes, write=True)

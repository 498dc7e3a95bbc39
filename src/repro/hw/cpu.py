"""Per-node CPU cost model.

Only the compute costs the paper quantifies are modeled: XOR parity
(Fig 4a's RAID5 vs RAID5-npc gap, ~8%), fixed per-request server
processing, and the extra kernel-module crossing cost that levels the
Hartree-Fock results in Section 6.6.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional

from repro.sim.engine import Environment, Event, Timeout
from repro.sim.resources import Resource, Store
from repro.hw.params import CpuParams


class Cpu:
    """One node's processor as a serialized compute resource."""

    def __init__(self, env: Environment, node_name: str,
                 params: CpuParams) -> None:
        self.env = env
        self.node_name = node_name
        self.params = params
        self._resource = Resource(env, capacity=1)
        self.busy_time = 0.0

    def _occupy(self, durations: Iterable[float],
                inbox: Optional[Store] = None, outbox: Optional[Store] = None,
                ) -> Generator[Event, Any, None]:
        """Hold the processor for each of ``durations`` in turn.

        As a pipeline stage (:meth:`process_stream`) it takes a token from
        ``inbox`` before each hold or puts one on ``outbox`` after it.
        """
        env = self.env
        resource = self._resource
        for duration in durations:
            if inbox is not None:
                yield inbox.get()
            if duration > 0:
                req = resource.request()
                try:
                    yield req
                    yield Timeout(env, duration)
                    self.busy_time += duration
                finally:
                    resource.release(req)
            if outbox is not None:
                outbox.put(None)

    def compute_parity(self, nbytes: int,
                       bytewise: bool = False) -> Generator[Event, Any, None]:
        """XOR ``nbytes`` of stripe data (word-wise unless ``bytewise``)."""
        rate = (self.params.parity_bandwidth_bytewise if bytewise
                else self.params.parity_bandwidth)
        yield from self._occupy((nbytes / rate,))

    def request_processing(self) -> Generator[Event, Any, None]:
        """Fixed server-side cost of handling one protocol request."""
        yield from self._occupy((self.params.request_overhead,))

    def process_bytes(self, nbytes: int) -> Generator[Event, Any, None]:
        """Per-byte data handling (TCP receive/send, copies, cache insert).

        The dominant server-side cost in 2003-era PVFS; this resource —
        one per node, shared by all concurrent request handlers — is what
        caps a single iod's delivered bandwidth.
        """
        yield from self._occupy((nbytes / self.params.byte_rate,))

    def process_stream(self, sizes: Iterable[int],
                       inbox: Optional[Store] = None,
                       outbox: Optional[Store] = None,
                       ) -> Generator[Event, Any, None]:
        """:meth:`process_bytes` for each segment of a streamed message.

        The CPU stage of :func:`repro.hw.link.stream`, one generator for
        the whole message: it follows the wire (``inbox``) on the
        receiving node and leads it (``outbox``) on the sending node.
        """
        byte_rate = self.params.byte_rate
        return self._occupy([size / byte_rate for size in sizes],
                            inbox, outbox)

    def kernel_module_crossing(self) -> Generator[Event, Any, None]:
        """Extra client-side cost when I/O goes through the kernel module."""
        yield from self._occupy((self.params.kernel_module_overhead,))

"""Per-node CPU cost model.

Only the compute costs the paper quantifies are modeled: XOR parity
(Fig 4a's RAID5 vs RAID5-npc gap, ~8%), fixed per-request server
processing, and the extra kernel-module crossing cost that levels the
Hartree-Fock results in Section 6.6.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.sim.engine import Environment, Event
from repro.sim.resources import FifoServer
from repro.hw.params import CpuParams


class Cpu:
    """One node's processor as a serialized compute resource.

    Every cost is known when it is requested, so the processor is a
    queue-free :class:`~repro.sim.resources.FifoServer`: one event per
    cost, at its end.
    """

    def __init__(self, env: Environment, node_name: str,
                 params: CpuParams) -> None:
        self.env = env
        self.node_name = node_name
        self.params = params
        self.server = FifoServer(env)
        self.busy_time = 0.0

    def _occupy(self, duration: float) -> Generator[Event, Any, None]:
        """Hold the processor for ``duration`` once it is our turn.

        A placed hold stands: when the waiting process is interrupted
        the processor still does (and is still charged) the work it
        accepted.
        """
        if duration > 0:
            hold = self.server.hold(duration)
            try:
                yield hold
            finally:
                self.busy_time += duration

    def compute_parity(self, nbytes: int,
                       bytewise: bool = False) -> Generator[Event, Any, None]:
        """XOR ``nbytes`` of stripe data (word-wise unless ``bytewise``)."""
        rate = (self.params.parity_bandwidth_bytewise if bytewise
                else self.params.parity_bandwidth)
        yield from self._occupy(nbytes / rate)

    def request_processing(self) -> Generator[Event, Any, None]:
        """Fixed server-side cost of handling one protocol request."""
        yield from self._occupy(self.params.request_overhead)

    def process_bytes(self, nbytes: int) -> Generator[Event, Any, None]:
        """Per-byte data handling (TCP receive/send, copies, cache insert).

        The dominant server-side cost in 2003-era PVFS; this resource —
        one per node, shared by all concurrent request handlers — is what
        caps a single iod's delivered bandwidth.
        """
        yield from self._occupy(nbytes / self.params.byte_rate)

    def kernel_module_crossing(self) -> Generator[Event, Any, None]:
        """Extra client-side cost when I/O goes through the kernel module."""
        yield from self._occupy(self.params.kernel_module_overhead)

"""Common workload plumbing: timing client processes and reporting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.csar.system import System
from repro.errors import FileExists
from repro.units import mbps


@dataclass
class WorkloadResult:
    """What one workload phase measured."""

    name: str
    elapsed: float
    bytes_written: int = 0
    bytes_read: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def write_bandwidth(self) -> float:
        """MB/s of application data written (not counting redundancy)."""
        return mbps(self.bytes_written, self.elapsed)

    @property
    def read_bandwidth(self) -> float:
        return mbps(self.bytes_read, self.elapsed)


def run_clients(system: System, generators: List, name: str,
                bytes_written: int = 0, bytes_read: int = 0,
                ) -> WorkloadResult:
    """Run client processes concurrently and time them."""
    elapsed, _ = system.timed(*generators)
    return WorkloadResult(name=name, elapsed=elapsed,
                          bytes_written=bytes_written, bytes_read=bytes_read)


def ensure_file(client, name: str):
    """Process body: create the file, or open it if it already exists."""
    try:
        yield from client.create(name)
    except FileExists:
        yield from client.open(name)

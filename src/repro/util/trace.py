"""I/O trace capture and replay.

Records every client read/write (simulated timestamp, client, file,
offset, length) so an application's access pattern can be inspected,
characterized the way Section 6.6/6.7 characterizes FLASH and
Hartree-Fock ("46% of requests under 2 KB", "most write requests of size
16K"), saved to a portable JSON-lines file, and replayed against a
different configuration — e.g. captured under RAID0, replayed under every
redundancy scheme.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, Generator, Iterable, List, TextIO

from repro.errors import ConfigError
from repro.storage.payload import Payload


@dataclass(frozen=True)
class TraceRecord:
    """One client I/O operation."""

    time: float
    client: int
    op: str           # "write" | "read"
    file: str
    offset: int
    length: int


class Trace:
    """An ordered collection of I/O records."""

    def __init__(self, records: Iterable[TraceRecord] = ()) -> None:
        self.records: List[TraceRecord] = list(records)

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # ------------------------------------------------------------------
    # persistence (JSON lines)
    # ------------------------------------------------------------------
    def dump(self, fp: TextIO) -> None:
        for record in self.records:
            fp.write(json.dumps(asdict(record)) + "\n")

    @classmethod
    def load(cls, fp: TextIO) -> "Trace":
        trace = cls()
        for line in fp:
            line = line.strip()
            if line:
                trace.append(TraceRecord(**json.loads(line)))
        return trace

    # ------------------------------------------------------------------
    # characterization (the paper's workload descriptions)
    # ------------------------------------------------------------------
    def stats(self, op: str = "write") -> Dict[str, Any]:
        """Request-size statistics for one operation type."""
        sizes = sorted(r.length for r in self.records if r.op == op)
        if not sizes:
            return {"count": 0, "bytes": 0}
        total = sum(sizes)
        return {
            "count": len(sizes),
            "bytes": total,
            "min": sizes[0],
            "median": sizes[len(sizes) // 2],
            "max": sizes[-1],
            "mean": total / len(sizes),
            "small_fraction_2k": sum(1 for s in sizes if s < 2048)
            / len(sizes),
        }

    def files(self) -> List[str]:
        seen: List[str] = []
        for r in self.records:
            if r.file not in seen:
                seen.append(r.file)
        return seen

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def replay(self, system, preserve_timing: bool = False,
               ) -> Generator[Any, Any, None]:
        """Process body: re-issue the trace against ``system``.

        Operations replay per client in record order (clients run
        concurrently, as they did at capture).  With ``preserve_timing``
        each client also waits out the recorded inter-arrival gaps —
        reproducing the original burstiness instead of running closed
        loop.  Payloads are virtual (a trace carries no data).
        """
        per_client: Dict[int, List[TraceRecord]] = {}
        for record in self.records:
            per_client.setdefault(record.client, []).append(record)
        for index in per_client:
            if index >= len(system.clients):
                raise ConfigError(
                    f"trace references client {index}; system has "
                    f"{len(system.clients)}")

        from repro.workloads.base import ensure_file

        def prepare():
            for name in self.files():
                yield from ensure_file(system.client(0), name)

        def client_proc(index: int, records: List[TraceRecord]):
            client = system.clients[index]
            start = system.env.now
            first = records[0].time if records else 0.0
            for record in records:
                if preserve_timing:
                    due = start + (record.time - first)
                    if due > system.env.now:
                        yield system.env.timeout(due - system.env.now)
                yield from client.open(record.file)
                if record.op == "write":
                    yield from client.write(record.file, record.offset,
                                            Payload.virtual(record.length))
                elif record.op == "read":
                    yield from client.read(record.file, record.offset,
                                           record.length)
                else:
                    raise ConfigError(f"unknown trace op {record.op!r}")

        yield system.env.process(prepare(), name="trace.prepare")
        procs = [system.env.process(client_proc(i, recs),
                                    name=f"trace.client{i}")
                 for i, recs in per_client.items()]
        if procs:
            yield system.env.all_of(procs)


class TraceRecorder:
    """Attach to a :class:`~repro.csar.system.System` to capture a trace.

    ::

        recorder = TraceRecorder(system)
        ... run workload ...
        trace = recorder.trace
    """

    def __init__(self, system) -> None:
        self.system = system
        self.trace = Trace()
        system.env.subscribe("client.op", self.record)

    def record(self, client: int, op: str, file: str, offset: int,
               length: int) -> None:
        self.trace.append(TraceRecord(
            time=self.system.env.now, client=client, op=op, file=file,
            offset=offset, length=length))

    def detach(self) -> Trace:
        self.system.env.probe("client.op").remove(self.record)
        return self.trace

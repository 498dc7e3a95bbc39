"""Two-phase collective I/O (ROMIO-style) over CSAR.

``MPIFile.collective_write`` implements the optimization the paper's
benchmarks rely on: the union of all ranks' (possibly tiny, strided)
accesses is partitioned into contiguous *file domains*, one per
aggregator rank; data is redistributed rank→aggregator over the network
in collective-buffer-sized rounds; each aggregator then issues one large
contiguous file-system write per round.  With ROMIO's default 4 MB
collective buffer this is exactly why "the PVFS layer sees large writes,
most of which are about 4 MB in size" for BTIO (Section 6.5).

The paper's workloads reach CSAR through collective *writes* only, so
there is no collective read: reads go straight to the PVFS client
(``system.clients[rank].read``), as does the independent ``write_at``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import ConfigError, FileExists
from repro.hw.link import send
from repro.mpiio.datatypes import AccessPattern, merge
from repro.sim.engine import Event
from repro.storage.payload import Payload
from repro.units import MiB


@dataclass(frozen=True)
class CollectiveConfig:
    """ROMIO-like tuning knobs."""

    #: collective buffer per aggregator (ROMIO default: 4 MiB)
    cb_buffer_size: int = 4 * MiB
    #: number of aggregator ranks (None = every rank aggregates)
    cb_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.cb_buffer_size <= 0:
            raise ConfigError("cb_buffer_size must be positive")
        if self.cb_nodes is not None and self.cb_nodes < 1:
            raise ConfigError("cb_nodes must be >= 1")


class MPIFile:
    """A shared file opened by a set of MPI ranks (CSAR clients)."""

    def __init__(self, system, name: str,
                 config: CollectiveConfig = CollectiveConfig()) -> None:
        self.system = system
        self.name = name
        self.config = config
        self.ranks = list(range(len(system.clients)))

    # ------------------------------------------------------------------
    def open(self, create: bool = True) -> Generator[Event, Any, None]:
        """Collective open (create if needed)."""
        client = self.system.clients[0]
        if create:
            try:
                yield from client.create(self.name)
            except FileExists:
                yield from client.open(self.name)
        else:
            yield from client.open(self.name)
        yield from client.parallel([
            self.system.clients[r].open(self.name)
            for r in self.ranks[1:]])

    # ------------------------------------------------------------------
    # independent operations
    # ------------------------------------------------------------------
    def write_at(self, rank: int, offset: int,
                 payload: Payload) -> Generator[Event, Any, None]:
        yield from self.system.clients[rank].write(self.name, offset,
                                                   payload)

    # ------------------------------------------------------------------
    # two-phase collective write
    # ------------------------------------------------------------------
    def _aggregators(self) -> List[int]:
        count = self.config.cb_nodes or len(self.ranks)
        return self.ranks[: min(count, len(self.ranks))]

    def _file_domains(self, region_lo: int, region_hi: int,
                      ) -> List[Tuple[int, int, int]]:
        """(aggregator rank, domain start, domain end) partitions."""
        aggs = self._aggregators()
        span = region_hi - region_lo
        share = -(-span // len(aggs))
        out = []
        for i, agg in enumerate(aggs):
            lo = region_lo + i * share
            hi = min(region_lo + (i + 1) * share, region_hi)
            if hi > lo:
                out.append((agg, lo, hi))
        return out

    def collective_write(self, contributions: Dict[int, Tuple[AccessPattern,
                                                              Optional[Payload]]],
                         ) -> Generator[Event, Any, None]:
        """``MPI_File_write_at_all``: every rank contributes its pattern.

        ``contributions[rank] = (pattern, payload)`` where ``payload``
        holds the pattern's bytes concatenated in file order (None =
        virtual/extent mode).
        """
        self._check_disjoint(contributions)
        region = merge(p for p, _buf in contributions.values())
        if not region:
            return
        region_lo = next(iter(region)).start
        domains = self._file_domains(region_lo, region.max_end())
        procs = [self.system.env.process(
                    self._write_domain(agg, lo, hi, contributions))
                 for agg, lo, hi in domains]
        yield self.system.env.all_of(procs)

    def _write_domain(self, agg: int, lo: int, hi: int,
                      contributions) -> Generator[Event, Any, None]:
        """One aggregator's rounds over its file domain."""
        env = self.system.env
        cb = self.config.cb_buffer_size
        agg_client = self.system.clients[agg]
        cursor = lo
        while cursor < hi:
            chunk_hi = min(cursor + cb, hi)
            # Phase 1: redistribute — every rank ships its overlap with
            # this round's window to the aggregator.
            arrivals: List[Event] = []
            pieces: List[Tuple[int, Optional[Payload]]] = []
            for rank, (pattern, buf) in contributions.items():
                clipped = pattern.clip(cursor, chunk_hi)
                nbytes = clipped.total_bytes
                if nbytes == 0:
                    continue
                if rank != agg:
                    arrivals.append(Event(env))
                    send(env, self.system.clients[rank].node.nic,
                         agg_client.node.nic, nbytes, arrivals[-1].succeed)
                pieces.extend(self._extract(pattern, buf, clipped))
            if arrivals:
                yield env.all_of(arrivals)
            # Phase 2: one contiguous write per covered extent in the
            # window (usually exactly one — the merged large request).
            covered = merge([AccessPattern(tuple((off, ln)
                             for off, ln in self._piece_ranges(pieces)))])
            for ext in covered.overlap(cursor, chunk_hi):
                payload = self._assemble(ext.start, ext.length, pieces)
                yield from agg_client.write(self.name, ext.start, payload)
            cursor = chunk_hi

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _check_disjoint(contributions) -> None:
        seen = None
        for _rank, (pattern, buf) in sorted(contributions.items()):
            if buf is not None and buf.length != pattern.total_bytes:
                raise ConfigError("payload does not match pattern size")
            pm = pattern.as_extent_map()
            if seen is None:
                seen = pm
                continue
            for off, length in pattern.pieces:
                if seen.overlap(off, off + length):
                    raise ConfigError(
                        "overlapping collective contributions are "
                        "undefined in PVFS semantics")
            for off, length in pattern.pieces:
                seen.add(off, off + length)

    @staticmethod
    def _extract(pattern: AccessPattern, buf: Optional[Payload],
                 clipped: AccessPattern,
                 ) -> List[Tuple[int, int, Optional[Payload]]]:
        """(file offset, length, bytes) for each clipped piece."""
        # Buffer offset of each original piece.
        prefix = []
        at = 0
        for off, length in pattern.pieces:
            prefix.append((off, off + length, at))
            at += length
        out = []
        for off, length in clipped.pieces:
            for p_off, p_end, p_buf in prefix:
                if p_off <= off and off + length <= p_end:
                    if buf is None:
                        out.append((off, length, None))
                    else:
                        start = p_buf + (off - p_off)
                        out.append((off, length,
                                    buf.slice(start, start + length)))
                    break
            else:  # pragma: no cover - defensive
                raise AssertionError("clipped piece outside pattern")
        return out

    @staticmethod
    def _piece_ranges(pieces) -> List[Tuple[int, int]]:
        return sorted((off, length) for off, length, _p in pieces)

    @staticmethod
    def _assemble(start: int, length: int, pieces) -> Payload:
        relevant = [(off, ln, p) for off, ln, p in pieces
                    if off >= start and off + ln <= start + length]
        if any(p is None for _o, _l, p in relevant):
            return Payload.virtual(length)
        return Payload.assemble(length, [(off - start, p)
                                         for off, _ln, p in relevant])

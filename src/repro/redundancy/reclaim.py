"""The background overflow reclaimer (the paper's Section 6.7 proposal).

"The storage used for overflow regions could be recovered by implementing
a simple process that reads files in their entirety and writes them in a
large chunk ... run in the background and activated when the system is
under a low load.  With such a mechanism, the long-term storage of the
Hybrid scheme would be the same as the RAID5 scheme."

Implementation: read the file's latest content, rewrite every *complete*
parity group through the normal Hybrid full-stripe path (which writes data
in place, computes fresh parity, and invalidates the superseded overflow
entries), then ask every server to compact its overflow files down to the
remaining live bytes (normally just the sub-group tail of the file).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import ConfigError
from repro.pvfs import messages as msg
from repro.sim.engine import Event


def reclaim_file(system, name: str,
                 client_index: int = 0) -> Generator[Event, Any, dict]:
    """Process body: fold one file's overflow data back into RAID5 form.

    Returns a report dict with overflow stats before/after.
    """
    client = system.clients[client_index]
    meta = yield from client.open(name)
    if meta.scheme != "hybrid":
        raise ConfigError("the reclaimer only applies to hybrid files")
    before = system.overflow_stats(name)
    span = system.layout.group_span
    full_end = (meta.size // span) * span
    chunk = 16 * span
    for start in range(0, full_end, chunk):
        length = min(chunk, full_end - start)
        content = yield from client.read(name, start, length)
        yield from client.write(name, start, content)
    yield from client.parallel([
        client.rpc(iod, msg.CompactOverflowReq(name))
        for iod in system.iods])
    after = system.overflow_stats(name)
    system.metrics.add("hybrid.reclaims")
    return {"before": before, "after": after}


def background_reclaimer(system, interval: float = 30.0,
                         fragmentation_threshold: int = 1 << 20,
                         client_index: int = 0,
                         ) -> Generator[Event, Any, None]:
    """A daemon that reclaims any file whose overflow garbage exceeds the
    threshold; runs forever (spawn with ``system.env.process``)."""
    while True:
        yield system.env.timeout(interval)
        for name in list(system.manager.files):
            stats = system.overflow_stats(name)
            if stats["fragmentation"] >= fragmentation_threshold \
                    or stats["live"] >= fragmentation_threshold:
                yield from reclaim_file(system, name, client_index)

"""Extension experiment: recovery cost per redundancy scheme.

Not a paper figure — the paper states fault tolerance as CSAR's long-term
objective and leaves recovery unevaluated.  This experiment completes the
story: time to rebuild a failed server as a function of stored data, per
scheme, plus the degraded-read penalty while the failure is outstanding.

Mechanics: RAID1 rebuilds by copying its mirror — two servers involved,
and the one source's per-byte CPU sets the pace; RAID5/Hybrid must read
*every* surviving server to re-XOR each lost block (the classic
parity-rebuild tax: five times the bytes), but the survivors stream in
parallel, one coalesced read each per chunk, so the rebuild is bound by
their CPUs together and ends sooner than the mirror copy; Hybrid adds
the overflow replay.
"""

from __future__ import annotations

from repro.experiments.base import ExpTable, register
from repro.experiments.common import build
from repro.redundancy.recovery import rebuild_server
from repro.storage.payload import Payload
from repro.units import MB

SCHEMES = ("raid1", "raid5", "hybrid")


@register("ext-recovery", "EXTENSION: server rebuild time per scheme")
def run(scale: float = 1.0) -> ExpTable:
    volumes = [int(v * scale) for v in (16 * MB, 64 * MB, 128 * MB)]
    table = ExpTable("ext-recovery",
                     "Rebuild time for one failed server (s, simulated)",
                     ["data_mb"] + [f"{s}_rebuild_s" for s in SCHEMES]
                     + ["hybrid_degraded_read_s", "hybrid_normal_read_s"])
    for volume in volumes:
        row: list = [volume / 1e6]
        degraded = normal = None
        for scheme in SCHEMES:
            system = build(scheme=scheme, clients=1)
            client = system.client()
            span = system.layout.group_span
            aligned = max(1, volume // span) * span

            def workload(client=client, aligned=aligned, span=span):
                yield from client.create("f")
                yield from client.write("f", 0, Payload.virtual(aligned))
                # A little overflow so Hybrid's replay path is exercised.
                yield from client.write("f", aligned + 100,
                                        Payload.virtual(span // 3))

            system.run(workload())
            system.sync_all()

            def read_all(client=client, aligned=aligned):
                yield from client.read("f", 0, aligned)

            if scheme == "hybrid":
                normal, _ = system.timed(read_all())
            system.fail_server(2)
            if scheme == "hybrid":
                degraded, _ = system.timed(read_all())
            elapsed, _ = system.timed(rebuild_server(system, 2))
            row.append(elapsed)
        row.extend([degraded, normal])
        table.add_row(*row)
    table.notes.append("RAID1 copies its mirror, one stream bound by one "
                       "server's CPU; parity schemes read every survivor "
                       "to re-XOR each lost block, 5x the bytes in five "
                       "parallel streams")
    return table

"""Table 2: storage requirement of the redundancy schemes per application.

The one evaluation artifact that is exactly computable rather than a
bandwidth measurement: the sum of local file sizes across the I/O servers
after each workload.  Expected ratios at 6 servers: RAID1 = 2.0x RAID0,
RAID5 = 1.2x; Hybrid is workload-dependent — near RAID5 for large-write
applications, *worse than RAID1* for FLASH I/O at a 64 KB stripe unit
(few full stripes plus overflow fragmentation), better at 16 KB.
"""

from __future__ import annotations

from typing import Callable

from repro.experiments.base import ExpTable, register
from repro.experiments.common import DEFAULT_UNIT, build
from repro.units import KiB
from repro.workloads.btio import btio_benchmark
from repro.workloads.cactus import cactus_benchio
from repro.workloads.flashio import flash_io_benchmark
from repro.workloads.hartree_fock import hartree_fock_argos

SCHEMES = ("raid0", "raid1", "raid5", "hybrid")


def _rows(scale: float):
    def btio(io_class):
        def run(sys_):
            btio_benchmark(sys_, io_class, scale=scale)
            return "btio"
        return run

    def flash(nprocs):
        def run(sys_):
            # FLASH totals are small (45/235 MB): always run full size so
            # the published request-size mix has enough samples.
            flash_io_benchmark(sys_, nprocs=nprocs, scale=1.0)
            return "flash"
        return run

    def hf(sys_):
        hartree_fock_argos(sys_, scale=scale)
        return "hf_argos"

    def cactus(sys_):
        cactus_benchio(sys_, scale=scale)
        return "cactus"

    # (label, clients, stripe unit, system scale, runner).  BTIO B/C use
    # 9 processes: the paper's Hybrid-to-RAID0 ratio for Class B
    # (2353/1698 = 1.386) pins the partial-stripe fraction to a ~4.7 MB
    # per-rank write.  Class A uses 4: its per-rank share (64³·40/40/4 =
    # 2,621,440 B) is then *exactly* 8 stripe spans, every write is
    # stripe-aligned, and Hybrid degenerates to pure RAID5 — which is why
    # the paper's Table 2 reports Hybrid = RAID5 = 503 MB for Class A.
    # FLASH rows run full-size (see above).
    return [
        ("BTIO Class A", 4, DEFAULT_UNIT, scale, btio("A")),
        ("BTIO Class B", 9, DEFAULT_UNIT, scale, btio("B")),
        ("BTIO Class C", 9, DEFAULT_UNIT, scale, btio("C")),
        ("FLASH 4p 16K", 4, 16 * KiB, 1.0, flash(4)),
        ("FLASH 4p 64K", 4, 64 * KiB, 1.0, flash(4)),
        ("FLASH 24p 16K", 24, 16 * KiB, 1.0, flash(24)),
        ("FLASH 24p 64K", 24, 64 * KiB, 1.0, flash(24)),
        ("Hartree-Fock", 1, DEFAULT_UNIT, scale, hf),
        ("CACTUS/BenchIO", 8, DEFAULT_UNIT, scale, cactus),
    ]


def _row(label: str, clients: int, unit: int, sys_scale: float,
         runner: Callable) -> list:
    """One table row: MB stored under each scheme after the workload."""
    row: list = [label]
    for scheme in SCHEMES:
        system = build(scheme=scheme, clients=clients, stripe_unit=unit,
                       scale=sys_scale)
        file_name = runner(system)
        row.append(system.storage_report(file_name)["total"] / 1e6)
    return row


@register("table2", "Storage requirement per scheme (MB)",
          default_scale=0.05)
def run(scale: float = 0.05) -> ExpTable:
    table = ExpTable("table2", "Storage requirement (MB of local files)",
                     ["benchmark"] + list(SCHEMES))
    for spec in _rows(scale):
        table.add_row(*_row(*spec))
    table.notes.append("expected at 6 iods: RAID1 = 2.0x RAID0, "
                       "RAID5 = 1.2x; Hybrid workload-dependent")
    return table

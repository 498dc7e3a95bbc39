"""The claims ledger: every statement of the paper this repo checks, once.

A claim is a *number* and an *interval*: ``measure(table)`` extracts a
value from one experiment's table and the claim holds when ``lo < value
< hi`` (both strict; ``±inf`` for a one-sided bound).  A measure that
returns a list means "for every row": the claim's value is then the
element nearest a bound, its worst case.  ``status`` says how the number
stands against the paper:

* ``reproduced`` — inside the interval, and the interval is the paper's.
* ``partial`` — inside the interval (the shape holds) but short of the
  paper's magnitude; ``mechanism`` names why.
* ``gap`` — *outside* an interval drawn around the paper's value;
  ``mechanism`` names why.  ``benchmarks/`` marks these strict-xfail, so a
  model change that closes one fails loudly until the entry is updated.

``csar-repro report``, ``benchmarks/test_claims.py``,
``docs/results/experiments.json`` and EXPERIMENTS.md are all derived
from ``CLAIMS``; nothing else states a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable, List, Optional, Sequence, Union

from repro.experiments.base import ExpTable

#: experiments that render the implementation rather than measure it
TABLE_ONLY = frozenset({"fig2"})


@dataclass(frozen=True)
class Claim:
    """One checkable statement from the paper, bound to an experiment."""

    id: str
    experiment: str
    paper: str
    measure: Callable[[ExpTable], Union[float, List[float]]]
    lo: float
    hi: float
    paper_value: Optional[float] = None
    status: str = "reproduced"
    mechanism: str = ""
    #: the smallest ``--scale`` the interval is calibrated for: below it
    #: ``csar-repro report --scale`` skips the claim (``None``: any scale)
    min_scale: Optional[float] = None

    def margin(self, value: float) -> float:
        """Distance to the nearer bound; negative outside the interval."""
        return min(value - self.lo, self.hi - value)

    def value(self, table: ExpTable) -> float:
        """The measured number; of a per-row measure, the worst row."""
        got = self.measure(table)
        return min(got, key=self.margin) if isinstance(got, list) else got

    def holds(self, value: float) -> bool:
        """Whether ``value`` lies strictly inside the accepted interval."""
        return self.lo < value < self.hi

    def verdict(self, value: float) -> str:
        """PASS/FAIL, or for a ``gap`` GAP (still open) / CLOSED (now
        holds: the entry is stale).  PASS and GAP agree with ``status``."""
        if self.status == "gap":
            return "CLOSED" if self.holds(value) else "GAP"
        return "PASS" if self.holds(value) else "FAIL"


def _ratio(num: str, den: str, rows: Optional[Sequence[object]] = None):
    """``num``/``den`` column ratio on each of ``rows`` (default: all)."""
    def measure(table: ExpTable) -> List[float]:
        keys = table.column(table.headers[0]) if rows is None else rows
        return [table.cell(k, num) / table.cell(k, den) for k in keys]
    return measure


def _rows(col: str, num: object, den: object):
    """Row ``num`` over row ``den`` within one column."""
    return lambda t: t.cell(num, col) / t.cell(den, col)


def _steps(col: str):
    """Ratio of each value in a column to the one above it."""
    def measure(table: ExpTable) -> List[float]:
        vals = table.column(col)
        return [b / a for a, b in zip(vals, vals[1:])]
    return measure


def _both(*measures):
    return lambda t: [v for m in measures for v in m(t)]


def _fig3_overhead(t: ExpTable) -> float:
    nolock = t.cell("R5 NO LOCK", "bandwidth_mbps")
    return (nolock - t.cell("RAID5", "bandwidth_mbps")) / nolock


def _fig8_vs_best(t: ExpTable) -> List[float]:
    return [hybrid / min(raid1, raid5)
            for _app, _raid0, raid1, raid5, hybrid in t.rows]


def _collective_gain(t: ExpTable) -> List[float]:
    mbps = {(mode, scheme): v for mode, scheme, v in t.rows}
    return [mbps["collective", s] / mbps["independent", s]
            for s in ("raid5", "hybrid")]


_BW = "bandwidth_mbps"
_LOCK_OVERLAP = (
    "lock wait grows superlinearly with process count, but a blocked "
    "client's wait overlaps other ranks' transfers, so the servers never "
    "idle the way the real system's did: RAID5 declines 9% from 4 to 25 "
    "processes, and removing the locks moves the 25-process bandwidth by "
    "under 0.01%")
_DRAIN_BOUND = (
    "Class C at scale 0.1 is writeback-drain-bound for every scheme: the "
    "dirty-limit throttle puts one disk-speed ceiling over RAID5 and "
    "Hybrid alike, where the real cluster's larger cache cushion let "
    "Hybrid run ahead (ROADMAP items 1(c), 17)")
_FLASH_SCRIPTED = (
    "the FLASH request mix is scripted (`workloads/flashio.py`): sub-2 KB "
    "writes rewrite one 8 KiB header region per rank, so overflow-slot "
    "churn per byte is set by construction, fitted to the 4-process 64 KB "
    "row, not by HDF5's real metadata layout (ROADMAP item 12(b))")

CLAIMS: List[Claim] = [
    # -- Figure 1 ---------------------------------------------------------
    Claim("fig1-fill-time-grows", "fig1",
          "the time to fill a disk to capacity grew with every generation",
          _steps("fill_minutes"), 1.0, inf),
    Claim("fig1-tenfold", "fig1",
          "fill time grew roughly tenfold over the last fifteen years",
          _rows("fill_minutes", 2003, 1990), 5.0, 15.0, 10.0, "partial",
          "substituted drive series (the Dahlin dataset is gone): 1990 to "
          "2003 is thirteen years; from 1987 the same series gives 12.6x"),
    Claim("fig1-capacity-outgrew-bandwidth", "fig1",
          "capacity grew ~1.6x/year, the data path ~1.2x/year",
          lambda t: _rows("capacity_gb", 2003, 1983)(t)
          / _rows(_BW, 2003, 1983)(t), 10.0, inf),
    # -- Figure 3 ---------------------------------------------------------
    Claim("fig3-rmw-hot-spot", "fig3",
          "both RAID5 variants sit far below RAID0: the parity server is a "
          "hot spot", _rows(_BW, "RAID0", "R5 NO LOCK"), 2.0, inf),
    Claim("fig3-locking-overhead", "fig3",
          "locking costs about 20% over R5 NO LOCK", _fig3_overhead,
          0.10, 0.35, 0.20),
    Claim("fig3-locks-wait", "fig3",
          "with locking, writers of one stripe serialize on the parity lock",
          lambda t: t.cell("RAID5", "lock_wait_s"), 0.0, inf),
    Claim("fig3-nolock-never-waits", "fig3",
          "R5 NO LOCK moves the same bytes without the locking protocol",
          lambda t: t.cell("R5 NO LOCK", "lock_wait_s"), -1e-12, 1e-12),
    # -- Figure 4(a) ------------------------------------------------------
    Claim("fig4a-striping-scales", "fig4a",
          "RAID0 scales with server count until the client link saturates",
          _rows("raid0", 6, 1), 3.0, inf),
    Claim("fig4a-raid1-half", "fig4a",
          "RAID1 writes twice the bytes through one link: half of RAID0",
          _ratio("raid1", "raid0", (2, 4, 6)), 0.425, 0.575, 0.5),
    Claim("fig4a-ordering", "fig4a",
          "RAID1 is the worst scheme and RAID0 the best at every width",
          _both(_ratio("raid1", "raid5", (4, 6)),
                _ratio("raid5", "raid0", (4, 6))), 0.0, 1.0),
    Claim("fig4a-hybrid-is-raid5", "fig4a",
          "Hybrid is identical to RAID5 on full-stripe writes",
          _ratio("hybrid", "raid5", (4, 6, 7)), 0.98, 1.02, 1.0),
    Claim("fig4a-parity-cost", "fig4a",
          "computing parity costs about 8% (RAID5 vs RAID5-npc)",
          lambda t: [r - 1 for r in _ratio("raid5_npc", "raid5", (6, 7))(t)],
          0.02, 0.15, 0.08, "partial",
          "`CpuParams.parity_bandwidth` (1000 MB/s on `osu8`) was sized for "
          "~8% and yields 5.5% at 6 iods, 5.8% at 7; left to the "
          "calibration search of ROADMAP item 1(c)"),
    Claim("fig4a-csar-vs-pvfs", "fig4a",
          "abstract: CSAR delivers ~73% of PVFS write bandwidth at 7 iods",
          _ratio("raid5", "raid0", (7,)), 0.65, 0.95, 0.73, "partial",
          "83%: RAID5 sends 7/6 of RAID0's bytes at 7 iods (86% if the "
          "client link binds), less the parity cost above; the paper's 73% "
          "implies per-stripe overheads the model does not charge (ROADMAP "
          "item 1(c))"),
    Claim("fig4a-raid0-peaks-near-8", "fig4a",
          "RAID0 is expected to peak at about 8 iods",
          _rows("raid0", 7, 6), 1.0, 1.05, min_scale=0.3),
    Claim("fig4a-raid1-plateau", "fig4a",
          "RAID1 shows no significant increase beyond 4 iods",
          _rows("raid1", 7, 4), 0.9, 1.1, 1.0, "gap",
          "the model keeps RAID1 server-CPU-bound through 5 iods, so the "
          "client link flattens it at 6-7 (+3% from 6 to 7) instead of 4; "
          "the paper's two anchors (RAID1 plateau at 4, RAID0 peak at ~8 "
          "on one link) over-constrain any single link/CPU rate "
          "assignment (ROADMAP item 1(c))"),
    # -- Figure 4(b) ------------------------------------------------------
    Claim("fig4b-raid1-is-hybrid", "fig4b",
          "RAID1 and Hybrid are identical on one-block writes",
          _ratio("hybrid", "raid1", (3, 4, 5, 6, 7)), 0.98, 1.02, 1.0),
    Claim("fig4b-raid5-rmw", "fig4b",
          "RAID5 is lower even with old data and parity in the server caches",
          _ratio("raid5", "raid1", (3, 4, 5, 6, 7)), 0.0, 0.7),
    # -- Figure 5 ---------------------------------------------------------
    Claim("fig5a-reads-equal", "fig5a",
          "all schemes read at the same bandwidth",
          _both(*(_ratio(s, "raid0") for s in ("raid1", "raid5", "hybrid"))),
          0.98, 1.02, 1.0),
    Claim("fig5b-parity-beats-mirroring", "fig5b",
          "4 MB writes: RAID5 and Hybrid are better than RAID1",
          _both(_ratio("raid5", "raid1"), _ratio("hybrid", "raid1")),
          1.2, inf, min_scale=0.5),
    Claim("fig5b-below-raid0", "fig5b",
          "redundancy is not free: RAID5 stays below RAID0",
          _ratio("raid5", "raid0"), 0.0, 1.0),
    # -- Figure 6(a) ------------------------------------------------------
    Claim("fig6a-raid1-worst", "fig6a",
          "RAID5 and Hybrid both outperform RAID1",
          _both(_ratio("raid1", "raid5"), _ratio("raid1", "hybrid")),
          0.0, 0.75),
    Claim("fig6a-raid5-tracks-hybrid", "fig6a",
          "Hybrid and RAID5 are comparable at 4 and 9 processes",
          _ratio("raid5", "hybrid", (4, 9)), 0.85, 1.15, 1.0),
    Claim("fig6a-raid5-behind-at-25", "fig6a",
          "at 25 processes RAID5 is below Hybrid",
          _ratio("raid5", "hybrid", (25,)), 0.0, 1.0),
    Claim("fig6a-raid5-declines", "fig6a",
          "RAID5 drops slightly at 16 processes and further at 25",
          _rows("raid5", 25, 4), 0.0, 0.92, None, "partial", _LOCK_OVERLAP),
    Claim("fig6a-raid5-collapse", "fig6a",
          "RAID5 drops dramatically at 25 processes (no figure in the "
          "text; read as a quarter or more below Hybrid)",
          _ratio("raid5", "hybrid", (25,)), 0.0, 0.75, None, "gap",
          _LOCK_OVERLAP),
    Claim("fig6a-locking-explains-drop", "fig6a",
          "the 25-process drop is mostly locking overhead (RAID5 vs a "
          "no-lock run)", lambda t: 1 - t.cell(25, "raid5")
          / t.cell(25, "r5_nolock"), 0.05, 1.0, None, "gap", _LOCK_OVERLAP),
    # -- Figure 6(b) ------------------------------------------------------
    Claim("fig6b-raid5-collapses", "fig6b",
          "overwrite: RAID5 drops much below the other schemes (cold-cache "
          "read-modify-write)", _rows("raid5", 25, 4), 0.0, 0.55),
    Claim("fig6b-raid5-below-raid1", "fig6b",
          "overwrite: RAID5 ends at or below even RAID1",
          _ratio("raid5", "raid1", (25,)), 0.0, 1.1),
    Claim("fig6b-hybrid-avoids-rmw", "fig6b",
          "Hybrid never read-modifies-writes: far above RAID5 at 16 and 25",
          _ratio("hybrid", "raid5", (16, 25)), 1.5, inf),
    Claim("fig6b-hybrid-holds", "fig6b",
          "the other schemes drop only slightly on overwrite",
          _rows("hybrid", 25, 4), 0.8, inf),
    # -- Figure 7 ---------------------------------------------------------
    Claim("fig7a-raid1-overflows-cache", "fig7a",
          "Class C: RAID1 is much lower than RAID5 (2x bytes overflow the "
          "server caches, writers throttle to disk)",
          _ratio("raid1", "raid5"), 0.0, 0.65),
    Claim("fig7a-raid1-below-hybrid", "fig7a",
          "Class C: RAID1 is much lower than Hybrid",
          _ratio("raid1", "hybrid"), 0.0, 0.85),
    Claim("fig7a-hybrid-near-raid5", "fig7a",
          "Hybrid stays in RAID5's neighbourhood",
          _ratio("hybrid", "raid5"), 0.55, inf),
    Claim("fig7b-hybrid-best", "fig7b",
          "overwrite: Hybrid is at least RAID5's equal at 16 and 25",
          _ratio("hybrid", "raid5", (16, 25)), 0.98, inf),
    Claim("fig7b-hybrid-over-raid1", "fig7b",
          "overwrite: Hybrid is far above RAID1 at 16 and 25",
          _ratio("hybrid", "raid1", (16, 25)), 1.5, inf),
    Claim("fig7b-raid5-drops", "fig7b",
          "overwrite: RAID5's big drop appears here too",
          _ratio("raid5", "raid0", (16, 25)), 0.0, 0.75),
    Claim("fig7b-hybrid-230-of-raid5", "fig7b",
          "overwrite: Hybrid is about 230% of RAID5",
          _ratio("hybrid", "raid5", (25,)), 2.0, 2.6, 2.3, "gap",
          _DRAIN_BOUND),
    Claim("fig7b-hybrid-230-of-raid1", "fig7b",
          "overwrite: Hybrid is about 230% of RAID1",
          _ratio("hybrid", "raid1", (25,)), 2.0, 2.6, 2.3, "gap",
          _DRAIN_BOUND),
    # -- Figure 8 ---------------------------------------------------------
    Claim("fig8-normalized", "fig8", "output time is normalized to RAID0",
          lambda t: t.column("raid0"), 1 - 1e-6, 1 + 1e-6, 1.0),
    Claim("fig8-hybrid-near-best", "fig8",
          "Hybrid performs comparably to or better than the best of RAID1 "
          "and RAID5 for every application", _fig8_vs_best, 0.0, 1.15),
    Claim("fig8-hf-levelled", "fig8",
          "Hartree-Fock: the kernel-module overhead puts all schemes "
          "within ~5%", lambda t: [t.cell("HartreeFock", s) for s in
                                    ("raid1", "raid5", "hybrid")],
          0.0, 1.3, 1.05, "partial",
          "RAID5 is +23%: the kernel-module cost dominates each 16 KB "
          "write but does not fully hide RAID5's read-modify-write round "
          "trip; RAID1 and Hybrid are at +2%"),
    Claim("fig8-hf-hybrid-is-raid1", "fig8",
          "Hartree-Fock's 16 KB writes all overflow: Hybrid behaves as RAID1",
          _ratio("hybrid", "raid1", ("HartreeFock",)), 0.95, 1.05, 1.0),
    Claim("fig8-large-writes-favour-parity", "fig8",
          "Cactus and BTIO: RAID1 is the worst scheme (large writes)",
          _both(_ratio("raid5", "raid1", ("Cactus", "BTIO-B")),
                _ratio("hybrid", "raid1", ("Cactus", "BTIO-B"))), 0.0, 0.8),
    Claim("fig8-flash-raid5-worst", "fig8",
          "FLASH: RAID5 is the worst scheme (small writes)",
          lambda t: t.cell("FLASH", "raid5")
          / max(t.cell("FLASH", "raid1"), t.cell("FLASH", "hybrid")),
          1.0, inf),
    # -- Table 2 ----------------------------------------------------------
    Claim("table2-raid1-doubles", "table2",
          "RAID1 stores exactly 2x RAID0", _ratio("raid1", "raid0"),
          1.98, 2.02, 2.0),
    Claim("table2-raid5-one-fifth", "table2",
          "RAID5 stores 1.2x RAID0 at 6 iods", _ratio("raid5", "raid0"),
          1.164, 1.236, 1.2),
    Claim("table2-hybrid-at-least-raid5", "table2",
          "Hybrid never stores less than RAID5: more on every row with "
          "partial-stripe writes (BTIO Class A writes whole stripes only, "
          "the equality table2-classA-hybrid-is-raid5 pins)",
          lambda t: [t.cell(k, "hybrid") / t.cell(k, "raid5")
                     for k in t.column("benchmark") if k != "BTIO Class A"],
          1.0, inf),
    Claim("table2-hybrid-bounded", "table2",
          "Hybrid is bounded by RAID1 plus overflow fragmentation",
          _ratio("hybrid", "raid0"), 0.0, 2.6),
    Claim("table2-classA-hybrid-is-raid5", "table2",
          "BTIO Class A: Hybrid = RAID5 exactly (503 = 503 MB; the per-rank "
          "share at 4 processes is exactly 8 stripe spans)",
          _ratio("hybrid", "raid5", ("BTIO Class A",)),
          1 - 1e-6, 1 + 1e-6, 1.0),
    Claim("table2-hf-hybrid-is-raid1", "table2",
          "Hartree-Fock: Hybrid lands on RAID1's footprint (299 vs 298 MB)",
          _ratio("hybrid", "raid1", ("Hartree-Fock",)), 0.99, 1.01, 1.0),
    Claim("table2-flash-64k-above-raid1", "table2",
          "FLASH at a 64 KB stripe unit: Hybrid costs more than RAID1",
          _ratio("hybrid", "raid1", ("FLASH 4p 64K",)), 1.0, inf),
    Claim("table2-flash-16k-cheaper", "table2",
          "a 16 KB stripe unit needs less Hybrid storage than 64 KB",
          _rows("hybrid", "FLASH 4p 16K", "FLASH 4p 64K"), 0.0, 1.0),
    Claim("table2-large-writes-near-raid5", "table2",
          "large-write applications (BTIO B/C, Cactus) sit near RAID5",
          _ratio("hybrid", "raid0", ("BTIO Class B", "BTIO Class C",
                                      "CACTUS/BenchIO")), 0.0, 1.45),
]

#: Table 2's Hybrid column as a ratio to RAID0, per row: the paper's
#: value, and for a row we miss by more than 5% the reason.
_TABLE2_HYBRID = {
    "BTIO Class A": (1.20, ""),
    "BTIO Class B": (1.39, ""),
    "BTIO Class C": (1.37, "the paper's partial-stripe fraction implies a "
                     "different (unpublished) process count for Class C "
                     "than Class B's; both rows run 9 processes here"),
    "FLASH 4p 16K": (1.64, _FLASH_SCRIPTED),
    "FLASH 4p 64K": (2.38, ""),
    "FLASH 24p 16K": (1.71, _FLASH_SCRIPTED),
    "FLASH 24p 64K": (2.75, _FLASH_SCRIPTED),
    "Hartree-Fock": (2.01, ""),
    "CACTUS/BenchIO": (1.36, ""),
}
CLAIMS += [
    Claim("table2-hybrid-" + label.lower().replace(" ", "-")
          .replace("/", "-"), "table2",
          f"{label}: Hybrid stores {paper:.2f}x RAID0",
          _ratio("hybrid", "raid0", (label,)), 0.95 * paper, 1.05 * paper,
          paper, "gap" if why else "reproduced", why)
    for label, (paper, why) in _TABLE2_HYBRID.items()]

CLAIMS += [
    # -- Ablations --------------------------------------------------------
    Claim("writebuf-recovers-bandwidth", "ablation-writebuf",
          "§5.2: write buffering fixes degraded writes to preexisting "
          "uncached files", _rows(_BW, "buffered", "unbuffered"),
          1.15, inf),
    Claim("writebuf-fewer-partial-reads", "ablation-writebuf",
          "§5.2: buffering removes most partial-block read-before-writes",
          _rows("partial_block_reads", "unbuffered", "buffered"), 2.0, inf),
    Claim("parity-bytewise-is-slow", "ablation-parity",
          "§3 (Swift lesson): byte-at-a-time parity costs a large share "
          "of write bandwidth",
          _rows(_BW, "byte-at-a-time", "word-at-a-time"), 0.0, 0.75),
    Claim("collective-merging-pays", "ablation-collective",
          "§6.5: ROMIO's merging is what hands CSAR large writes",
          _collective_gain, 3.0, inf, min_scale=1.0),
    Claim("stripe-unit-8k-below-raid1", "ablation-stripe-unit",
          "§6.7: a small stripe unit keeps Hybrid below RAID1 for FLASH",
          lambda t: t.cell(8, "hybrid_vs_raid1"), 0.0, 1.0),
    Claim("stripe-unit-64k-above-raid1", "ablation-stripe-unit",
          "§6.7: a 64 KB stripe unit pushes Hybrid above RAID1 for FLASH",
          lambda t: t.cell(64, "hybrid_vs_raid1"), 1.05, inf),
    # -- Extensions (our questions, not the paper's) ----------------------
    Claim("ext-recovery-parallel-survivors", "ext-recovery",
          "parity rebuild moves 5x the bytes over five parallel survivor "
          "streams: faster than the one-stream mirror copy, never 5x",
          _ratio("raid5_rebuild_s", "raid1_rebuild_s"), 0.2, 0.9),
    Claim("ext-recovery-hybrid-replays-overflow", "ext-recovery",
          "Hybrid's rebuild is RAID5's plus the overflow replay",
          _ratio("hybrid_rebuild_s", "raid5_rebuild_s"), 0.95, inf),
    Claim("ext-recovery-degraded-read-tax", "ext-recovery",
          "degraded reads pay for reconstruction but stay available",
          _ratio("hybrid_degraded_read_s", "hybrid_normal_read_s"),
          1.0, 20.0),
    Claim("ext-recovery-linear", "ext-recovery",
          "rebuild time grows with the data stored",
          _steps("hybrid_rebuild_s"), 1.0, inf),
    Claim("ext-scrub-bounded-interference", "ext-scrub",
          "an online scrub costs the foreground writer something, never "
          "half its bandwidth", lambda t: t.column("slowdown"), 1.0, 2.0),
    Claim("ext-scrub-terminates", "ext-scrub",
          "the scrub pass finishes in simulated time",
          lambda t: t.column("scrub_time_s"), 0.0, inf),
]

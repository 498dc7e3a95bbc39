"""Scheme advisor: the paper's insight as a decision procedure.

Given an I/O trace (or just a write-size histogram) and the stripe
geometry, predict each scheme's byte amplification — network and storage
— and recommend one.  This is exactly the reasoning Section 2 walks
through: RAID1 costs 2x always; RAID5 costs 1 + 1/(n-1) on full stripes
but pays read-modify-write on partial ones; Hybrid pays parity on the
full-stripe portion and mirrors the rest into overflow.

The advisor never simulates — it prices the same write plans the
schemes execute (:func:`~repro.redundancy.plan.plan_write`) in closed
form — but its estimates are validated against simulation in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.errors import ConfigError
from repro.pvfs.layout import StripeLayout
from repro.redundancy.plan import FullStripe, plan_write
from repro.util.trace import Trace


@dataclass(frozen=True)
class SchemeEstimate:
    """Predicted cost of one scheme for one workload."""

    scheme: str
    #: client-to-server bytes per application byte written
    network_amplification: float
    #: stored bytes per application byte (steady state, pre-reclaim)
    storage_amplification: float
    #: extra server round-trip phases per write (read-before-write)
    rmw_phases: float


def estimate(writes: Iterable[Tuple[int, int]],
             layout: StripeLayout) -> Dict[str, SchemeEstimate]:
    """Cost model over (offset, length) writes."""
    if layout.n < 2:
        raise ConfigError("the advisor needs at least 2 servers")
    total = full_total = rmw_writes = count = 0
    for offset, length in writes:
        if length <= 0:
            continue
        # RAID5's plan: its full-stripe portion is Hybrid's too, and its
        # RMW portions are the partial bytes Hybrid mirrors instead.
        plan = plan_write(layout, "raid5", offset, length, strict=False)
        full_bytes = sum(p.hi - p.lo for p in plan.portions
                         if type(p) is FullStripe)
        total += length
        full_total += full_bytes
        if full_bytes < length:
            rmw_writes += 1
        count += 1
    if total == 0:
        raise ConfigError("no write traffic to analyze")
    parity_rate = 1.0 / layout.group_width
    full_frac = full_total / total
    partial_frac = (total - full_total) / total

    raid1 = SchemeEstimate("raid1", 2.0, 2.0, 0.0)
    # RAID5: parity on everything; partial bytes additionally read old
    # data + parity first (≈ the same bytes again, coming back).
    raid5 = SchemeEstimate(
        "raid5",
        (1 + parity_rate) + partial_frac * (1 + parity_rate),
        1 + parity_rate,
        rmw_writes / max(count, 1))
    hybrid = SchemeEstimate(
        "hybrid",
        full_frac * (1 + parity_rate) + partial_frac * 2.0,
        # Storage (allocated bytes): full-stripe portions live in place
        # with parity; partial portions leave holes in the data file and
        # two overflow copies.  Matches Hartree-Fock's measured 2.0x
        # (all-partial) and BTIO's ~1.3x (mostly-full).
        full_frac * (1 + parity_rate) + partial_frac * 2.0,
        0.0)
    return {e.scheme: e for e in (raid1, raid5, hybrid)}


def estimate_from_trace(trace: Trace,
                        layout: StripeLayout) -> Dict[str, SchemeEstimate]:
    return estimate(((r.offset, r.length) for r in trace
                     if r.op == "write"), layout)


def recommend(estimates: Dict[str, SchemeEstimate],
              storage_weight: float = 0.25) -> str:
    """Pick a scheme: bandwidth cost first, storage as a tiebreaker.

    The score mirrors the paper's priorities ("we optimized performance
    seen by the applications ... at the expense of storage efficiency"):
    network amplification plus a phase penalty dominate; storage gets a
    configurable minor weight.
    """
    def score(e: SchemeEstimate) -> float:
        return (e.network_amplification + 0.5 * e.rmw_phases
                + storage_weight * e.storage_amplification)

    return min(estimates.values(), key=score).scheme


def advise(trace: Trace, layout: StripeLayout,
           storage_weight: float = 0.25) -> Tuple[str, List[SchemeEstimate]]:
    """One-call interface: (recommended scheme, all estimates)."""
    estimates = estimate_from_trace(trace, layout)
    choice = recommend(estimates, storage_weight)
    ordered = sorted(estimates.values(),
                     key=lambda e: e.network_amplification)
    return choice, ordered

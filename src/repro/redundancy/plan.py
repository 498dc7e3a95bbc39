"""The write plan: the portions a write is made of, and how each one
carries its redundancy.

Section 4's contribution is one decision per write — the full-stripe
portion RAID5-style, with parity computed from the data in hand, the
partial portions RAID1-style into the overflow region.
:func:`plan_write` makes it, and the plain RAID0/1/5 ones, as a pure
function of the layout and the byte range.
:meth:`RedundancyScheme.write <repro.redundancy.base.RedundancyScheme.write>`
executes a plan.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple, Union

from repro.errors import ConfigError
from repro.pvfs.layout import StripeLayout


class Stripe(NamedTuple):
    """Striped in place, no redundancy (RAID0); any error fails it."""

    lo: int
    hi: int


class FullStripe(NamedTuple):
    """Whole parity groups: data plus parity computed from it, no reads
    and no locks.  ``invalidate`` (Hybrid) also drops the overflow
    entries, and their mirrors, that the data supersedes."""

    lo: int
    hi: int
    invalidate: bool


class Rmw(NamedTuple):
    """One partially written parity group: read old data and parity,
    fold in the delta, write both back.  The parity read takes the group
    lock and the parity write releases it."""

    lo: int
    hi: int


class Mirrored(NamedTuple):
    """Each byte to its home server and to the successor: in place
    (RAID1), or with ``overflow`` (Hybrid) appended to the overflow
    region and its mirror, leaving the old blocks to their parity."""

    lo: int
    hi: int
    overflow: bool


Portion = Union[Stripe, FullStripe, Rmw, Mirrored]


class WritePlan(NamedTuple):
    """What one write does: its portions, the full-stripe one first."""

    portions: Tuple[Portion, ...]
    #: the portions run as concurrent processes joined at the end (RAID5,
    #: Hybrid); otherwise the one portion runs in the writer's process
    concurrent: bool


def plan_write(layout: StripeLayout, scheme: str, offset: int,
               length: int) -> WritePlan:
    """The plan of writing ``[offset, offset + length)`` under ``scheme``.

    A parity-scheme (RAID5, Hybrid) write splits into at most one
    full-stripe portion and two partial groups, the head and the tail
    (:meth:`StripeLayout.split_by_groups`).
    """
    end = offset + length
    if scheme == "raid0":
        return WritePlan((Stripe(offset, end),), False)
    if scheme == "raid1":
        return WritePlan((Mirrored(offset, end, False),), False)
    if scheme not in ("raid5", "hybrid"):
        raise ConfigError(f"no write plan for scheme {scheme!r}")
    hybrid = scheme == "hybrid"
    head, full, tail = layout.split_by_groups(offset, length)
    portions: list = []
    if full[1] > full[0]:
        portions.append(FullStripe(full[0], full[1], hybrid))
    for lo, hi in (head, tail):
        if hi > lo:
            portions.append(Mirrored(lo, hi, True) if hybrid
                            else Rmw(lo, hi))
    return WritePlan(tuple(portions), True)

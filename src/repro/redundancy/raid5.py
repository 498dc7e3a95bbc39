"""CSAR's RAID5: rotating parity with client-driven read-modify-write.

A write (Section 4) is at most one full-stripe portion and two partial
groups (:func:`~repro.redundancy.plan.plan_write`).  Full groups get
parity computed from the data being written — nothing is read, so
nothing is locked.  A partial group is a read-modify-write: the client
reads the old data and the old parity region, computes ``new_parity =
old_parity ⊕ old ⊕ new``, and writes both back; the parity *read* takes
the server-side group lock and the parity *write* releases it (Section
5.1), the tail's parity read waiting for the head's (ascending group
order, the paper's deadlock avoidance).  The shared executor
(:mod:`repro.redundancy.base`) runs all of it; this scheme adds its
reconstruction rule.  ``config.compute_parity = False`` is Figure 4(a)'s
*RAID5-npc* (same traffic, no XOR cost); ``config.locking = False`` on
the I/O daemons is Figure 3's *R5 NO LOCK*.
"""

from __future__ import annotations

from repro.redundancy import base


@base.register
class Raid5(base.RedundancyScheme):
    """Rotating-parity redundancy (Figure 2 layout)."""

    name = "raid5"

    #: XOR the surviving blocks and the parity
    degraded_read = base.RedundancyScheme._reconstruct

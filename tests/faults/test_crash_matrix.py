"""The crash-consistency matrix: every server × every protocol step.

Each cell crashes one server at one named step inside the RAID5
partial-stripe read-modify-write or the Hybrid overflow write, recovers
the cluster, and asserts the durability invariant: acknowledged bytes
survive.  The real schemes must pass every cell, and — the interrupt
rule of DESIGN.md §6 — leave no NIC's TX side held or queued for.
"""

import pytest

from repro.faults.matrix import MATRIX_STEPS, crash_matrix, run_cell

VICTIMS = tuple(range(5))


@pytest.mark.parametrize("step, nth", MATRIX_STEPS["raid5"])
def test_raid5_survives_a_crash_at_every_step(step, nth, tx_claims):
    for victim in VICTIMS:
        cell = run_cell("raid5", step, nth, victim)
        assert cell.ok, cell.format()
        assert tx_claims() == [], cell.format()


@pytest.mark.parametrize("step, nth", MATRIX_STEPS["hybrid"])
def test_hybrid_survives_a_crash_at_every_step(step, nth, tx_claims):
    for victim in VICTIMS:
        cell = run_cell("hybrid", step, nth, victim)
        assert cell.ok, cell.format()
        assert tx_claims() == [], cell.format()


def test_the_matrix_covers_every_rmw_and_overflow_step():
    raid5_steps = {s for s, _n in MATRIX_STEPS["raid5"]}
    assert {"raid5.rmw.before_parity_read", "raid5.rmw.after_parity_read",
            "raid5.rmw.before_writeback",
            "raid5.rmw.after_writeback"} <= raid5_steps
    hybrid_steps = {s for s, _n in MATRIX_STEPS["hybrid"]}
    assert {"hybrid.overflow.before_write", "hybrid.overflow.after_write",
            "iod.overflow.before_append",
            "iod.overflow.after_append"} <= hybrid_steps


def test_full_matrix_helper_enumerates_all_cells():
    cells = crash_matrix("raid5", victims=(0,))
    assert len(cells) == len(MATRIX_STEPS["raid5"])
    assert all(c.ok for c in cells)

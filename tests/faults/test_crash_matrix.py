"""The crash-consistency matrix: every server × every protocol step.

Each cell crashes one server at one named step inside the RAID5
partial-stripe read-modify-write, the full-stripe write, or the Hybrid
overflow write, recovers the cluster, and asserts the durability
invariant: acknowledged bytes survive.  The real schemes must pass every
cell, and — the interrupt rule of DESIGN.md §6 — leave no NIC's TX side
held or queued for.  The cells are a census of the steps a fault-free
run reaches (:func:`~repro.faults.matrix.matrix_steps`).
"""

import pytest

from repro.faults.matrix import crash_matrix, matrix_steps, run_cell
from repro.faults.plan import STEP_NAMES

VICTIMS = tuple(range(5))


@pytest.mark.parametrize("step, nth", matrix_steps("raid5"))
def test_raid5_survives_a_crash_at_every_step(step, nth, tx_claims):
    for victim in VICTIMS:
        cell = run_cell("raid5", step, nth, victim)
        assert cell.ok, cell.format()
        assert tx_claims() == [], cell.format()


@pytest.mark.parametrize("step, nth", matrix_steps("hybrid"))
def test_hybrid_survives_a_crash_at_every_step(step, nth, tx_claims):
    for victim in VICTIMS:
        cell = run_cell("hybrid", step, nth, victim)
        assert cell.ok, cell.format()
        assert tx_claims() == [], cell.format()


def test_the_matrix_covers_every_rmw_and_overflow_step():
    raid5, hybrid = matrix_steps("raid5"), matrix_steps("hybrid")
    assert {s for s, _n in raid5 + hybrid} == STEP_NAMES
    # The iod-side appends fire on the home and on the mirror server, and
    # Hybrid's prefill is a full-stripe write: 12 cells per victim.
    assert len(raid5) + len(hybrid) == 12
    assert ("raid5.full_stripe.before_write", 1) in hybrid
    assert ("iod.overflow.after_append", 2) in hybrid


def test_full_matrix_helper_enumerates_all_cells():
    cells = crash_matrix("raid5", victims=(0,))
    assert len(cells) == len(matrix_steps("raid5"))
    assert all(c.ok for c in cells)

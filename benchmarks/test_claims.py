"""The paper's claims, one test per entry of ``repro.experiments.claims``.

A ``gap`` claim is a strict xfail: it must fail, for the reason its
mechanism names, until a model change closes it — and then it fails
loudly (XPASS) so the registry entry gets updated rather than the
improvement lost.  The currency tests compare what the model produces
now with the committed ledger (``csar-repro report --ledger
docs/results/experiments.json`` re-records it).
"""

from pathlib import Path

import pytest

from repro.experiments import REGISTRY
from repro.experiments.claims import CLAIMS
from repro.experiments.report import diff_table, load_ledger

LEDGER = load_ledger(
    Path(__file__).resolve().parent.parent / "docs/results/experiments.json")


@pytest.mark.parametrize("claim", [
    pytest.param(c, id=c.id, marks=[pytest.mark.xfail(
        strict=True, reason=c.mechanism)] if c.status == "gap" else [])
    for c in CLAIMS])
def test_claim(claim, table_of):
    value = claim.value(table_of(claim.experiment))
    print(f"{claim.id}: {value:.6g} (margin {claim.margin(value):.3g})")
    assert claim.holds(value), claim.paper


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
def test_ledger_claim_is_current(claim, table_of):
    assert claim.value(table_of(claim.experiment)) == pytest.approx(
        LEDGER["claims"][claim.id]["measured"], rel=1e-9)


@pytest.mark.parametrize("exp_id", sorted(REGISTRY))
def test_ledger_table_is_current(exp_id, table_of):
    table = table_of(exp_id)
    assert diff_table(exp_id, LEDGER["experiments"][exp_id],
                      {"headers": table.headers, "rows": table.rows}) == []

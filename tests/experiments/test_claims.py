"""Well-formedness of the claims registry against the experiment
registry and the committed ledger (no simulation runs here; the claims
themselves are measured by ``benchmarks/test_claims.py``)."""

import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments import REGISTRY
from repro.experiments.claims import CLAIMS, TABLE_ONLY
from repro.experiments.report import load_ledger

ROOT = Path(__file__).resolve().parents[2]
LEDGER = load_ledger(str(ROOT / "docs" / "results" / "experiments.json"))


def test_ids_are_unique():
    assert [i for i, n in Counter(c.id for c in CLAIMS).items() if n > 1] \
        == []


def test_every_claim_names_a_registered_experiment():
    assert {c.experiment for c in CLAIMS} <= set(REGISTRY)


def test_every_experiment_carries_a_claim_or_is_table_only():
    claimed = {c.experiment for c in CLAIMS}
    assert TABLE_ONLY <= set(REGISTRY)
    assert not TABLE_ONLY & claimed
    assert set(REGISTRY) - claimed == TABLE_ONLY


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
def test_claim_is_well_formed_and_agrees_with_the_ledger(claim):
    assert claim.lo < claim.hi
    assert claim.paper
    assert claim.status in ("reproduced", "partial", "gap")
    assert bool(claim.mechanism) == (claim.status != "reproduced")
    measured = LEDGER["claims"][claim.id]["measured"]
    # A gap's committed value lies outside its interval, any other inside.
    assert claim.holds(measured) == (claim.status != "gap")
    assert LEDGER["claims"][claim.id]["status"] == claim.status


def test_ledger_holds_exactly_the_registry():
    assert set(LEDGER["claims"]) == {c.id for c in CLAIMS}
    assert set(LEDGER["experiments"]) == set(REGISTRY)
    for exp_id, entry in LEDGER["experiments"].items():
        assert entry["scale"] == REGISTRY[exp_id].default_scale


def test_no_claim_needs_more_than_its_default_scale():
    # The default-scale report, the ledger and benchmarks/ run every
    # claim: a min_scale above the default would silently skip one.
    for claim in CLAIMS:
        if claim.min_scale is not None:
            assert claim.min_scale <= REGISTRY[claim.experiment].default_scale


def test_the_recorded_gaps_are_the_honest_ones():
    gaps = {c.id for c in CLAIMS if c.status == "gap"}
    assert {"fig4a-raid1-plateau", "fig6a-raid5-collapse",
            "fig7b-hybrid-230-of-raid5", "table2-hybrid-btio-class-c",
            "table2-hybrid-flash-4p-16k",
            "table2-hybrid-flash-24p-64k"} <= gaps
    partial = {c.id for c in CLAIMS if c.status == "partial"}
    assert {"fig4a-parity-cost", "fig4a-csar-vs-pvfs",
            "fig8-hf-levelled"} <= partial


def test_a_closed_gap_fails_the_benchmarks_with_xpass_strict():
    """Widen one gap's interval until it contains the measured value:
    ``benchmarks/test_claims.py`` must fail, naming XPASS(strict)."""
    code = (
        "import sys, pytest\n"
        "from dataclasses import replace\n"
        "from math import inf\n"
        "from repro.experiments import claims\n"
        "claims.CLAIMS[:] = [\n"
        "    replace(c, lo=-inf, hi=inf) if c.id == 'fig4a-raid1-plateau'\n"
        "    else c for c in claims.CLAIMS]\n"
        "sys.exit(pytest.main(['benchmarks/test_claims.py', '-q', '-rX',\n"
        "    '-p', 'no:cacheprovider', '-k',\n"
        "    'test_claim and fig4a-raid1-plateau']))\n")
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                            capture_output=True, text=True)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "[XPASS(strict)]" in result.stdout
    assert "fig4a-raid1-plateau" in result.stdout

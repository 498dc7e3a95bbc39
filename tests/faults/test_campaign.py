"""The campaign engine: pinned chaos digests, composed perturbations, and
the one replay file.

``chaos_digests.json`` holds the ``run_chaos`` digests of seeds 0–11
under the four schemes, recorded before the chaos runner, the crash
matrix and the explorer were folded into :mod:`repro.faults.campaign`;
a change that moves one changes what a chaos run does.  ``fixtures/``
holds a failing plan written by ``chaos --plan-dir`` and a ``.sched``
written by ``explore --sched-dir`` before the fold, in their original
formats.  The plan is seed 53/hybrid, the
dropped-link suspicion defect of ROADMAP item 11: once that is fixed,
the plan stops failing and its fixture must be re-recorded.  Its digest
was re-recorded once already, when a run that raised began to keep its
fired faults and op rows.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.faults import campaign
from repro.faults.matrix import matrix_steps, run_cell
from repro.faults.runner import CHAOS_SCHEMES, run_chaos, run_plan
from repro.faults.plan import sample_plan

HERE = Path(__file__).parent
PLAN = HERE / "fixtures" / "seed53-hybrid.json"
SCHED = HERE / "fixtures" / "race-lock-order.sched"


def test_chaos_digests_are_pinned():
    pinned = json.loads((HERE / "chaos_digests.json").read_text())
    got = {seed: {scheme: run_chaos(int(seed), scheme).digest
                  for scheme in CHAOS_SCHEMES} for seed in pinned}
    assert got == pinned


def test_faults_and_tie_orders_compose():
    # The one capability the engine adds: a fault plan and a tie order
    # perturb the same run, and the schemes survive both together.
    bad = []
    for seed in range(4):
        for scheme in CHAOS_SCHEMES:
            plan = sample_plan(seed, scheme, 5, 10)
            for tie_seed in range(3):
                outcome = run_plan(
                    plan, ties=campaign.RandomTieBreaker(tie_seed))
                assert outcome.decisions, "no tie reached the breaker"
                if not outcome.ok:
                    bad.append((seed, scheme, tie_seed, outcome.failure))
    cells = 0
    for scheme in ("raid5", "hybrid"):
        for step, nth in matrix_steps(scheme):
            for victim in range(5):
                for tie_seed in range(2):
                    cells += 1
                    outcome = run_cell(
                        scheme, step, nth, victim,
                        ties=campaign.RandomTieBreaker(tie_seed))
                    if not outcome.ok:
                        bad.append((scheme, step, nth, victim, tie_seed,
                                    outcome.failure))
    assert cells == 120
    assert bad == []


def test_a_tie_order_changes_the_digest_not_the_verdict():
    plan = sample_plan(2, "raid5", 5, 10)
    plain = run_plan(plan)
    forced = run_plan(plan, ties=campaign.ForcedTieBreaker())
    # The default picks replay the plain schedule; only the recorded
    # decisions enter the digest.
    assert forced.ok and plain.ok
    assert forced.ops_acked == plain.ops_acked
    assert forced.digest != plain.digest


def test_a_pre_engine_plan_file_replays_by_digest():
    reproduced, outcome, recording = campaign.replay(str(PLAN))
    assert reproduced
    assert outcome.digest == recording["digest"]
    assert outcome.failure_kind == "exception:ServerFailed"


def test_a_run_that_raised_keeps_its_record():
    # Seed 53/hybrid raises (the suspicion defect); what happened before
    # the exception is still in the outcome and its digest.
    outcome = run_chaos(53, "hybrid")
    assert outcome.failure_kind == "exception:ServerFailed"
    assert outcome.fired and outcome.ops_acked >= 1
    assert "fault(s) fired, 0 acked" not in outcome.format()


def test_a_pre_engine_sched_file_replays_by_failure_kind():
    reproduced, outcome, recording = campaign.replay(str(SCHED))
    assert "digest" not in recording
    # The bare exception class of the old format reads with its prefix.
    assert recording["failure"]["kind"] == "exception:SimulationError"
    assert reproduced
    assert outcome.decisions == ((2, 0), (2, 1), (2, 0))


def test_both_verbs_replay_both_formats(capsys):
    for verb in ("chaos", "explore"):
        for path in (PLAN, SCHED):
            assert main([verb, "--replay", str(path)]) == 0
            assert "reproduced" in capsys.readouterr().out


def test_a_saved_outcome_round_trips(tmp_path):
    outcome = run_chaos(3, "hybrid")
    path = str(tmp_path / "plan.json")
    campaign.save(path, outcome)
    reproduced, again, recording = campaign.replay(path)
    assert reproduced and again.digest == outcome.digest
    assert "decisions" not in recording and "scenario" not in recording


@pytest.fixture
def drifted(tmp_path):
    """The fixture .sched with its second forced pick out of range: the
    clamp turns it back into the recorded pick, so the failure kind
    still matches."""
    data = json.loads(SCHED.read_text())
    data["decisions"][1] = [2, 5]
    path = tmp_path / "drifted.sched"
    path.write_text(json.dumps(data))
    return str(path)


def test_a_drifted_replay_is_not_reproduced(drifted):
    reproduced, outcome, recording = campaign.replay(drifted)
    assert outcome.failure_kind == recording["failure"]["kind"]
    assert outcome.drifted == 1
    assert not reproduced


def test_the_cli_reports_drift(drifted, capsys):
    assert main(["explore", "--replay", drifted]) == 1
    assert "drifted: 1 forced tie pick(s) out of range" \
        in capsys.readouterr().err

"""The campaign engine: pinned chaos digests, composed perturbations, and
the one replay file.

The ``chaos`` and ``matrix`` sections of the schedule manifest
(``docs/results/schedule.json``, written by ``tools/schedule.py``) pin
the ``run_chaos`` digests and every crash-matrix cell's verdict and
digest; seeds 0–11 of ``chaos`` were recorded before the chaos runner
and the crash matrix were folded into :mod:`repro.faults.campaign`.  A
change that moves one changes what a chaos run does.  ``fixtures/``
holds a failing plan written by ``chaos --plan-dir`` before the fold, in
its original format.  The plan is seed 53/hybrid, the
dropped-link suspicion defect of ROADMAP item 11: once that is fixed,
the plan stops failing and its fixture must be re-recorded.  Its digest
was re-recorded once already, when a run that raised began to keep its
fired faults and op rows.
"""

import importlib.util
import json
from pathlib import Path

from repro.cli import main
from repro.faults import campaign
from repro.faults.matrix import matrix_steps, run_cell
from repro.faults.runner import CHAOS_SCHEMES, run_chaos, run_plan
from repro.faults.plan import sample_plan

HERE = Path(__file__).parent
PLAN = HERE / "fixtures" / "seed53-hybrid.json"
TOOL = HERE.parent.parent / "tools" / "schedule.py"


def test_chaos_digests_are_pinned():
    spec = importlib.util.spec_from_file_location("schedule", TOOL)
    schedule = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(schedule)
    pinned = json.loads(schedule.MANIFEST.read_text())
    chaos = schedule.chaos(range(12))
    assert chaos == {seed: pinned["chaos"][seed] for seed in chaos}
    assert schedule.matrix() == pinned["matrix"]


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


class DefaultPicks:
    """A tie-breaker that records every decision and always picks the
    default (index 0)."""

    def __init__(self):
        self.decisions = []

    def choose(self, when, priority, events):
        self.decisions.append((len(events), 0))
        return 0


def test_a_tie_order_changes_the_digest_not_the_verdict():
    plan = sample_plan(2, "raid5", 5, 10)
    plain = run_plan(plan)
    forced = run_plan(plan, ties=DefaultPicks())
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


def test_both_verbs_replay_both_formats(capsys):
    assert main(["chaos", "--replay", str(PLAN)]) == 0
    assert "reproduced" in capsys.readouterr().out


def test_a_saved_outcome_round_trips(tmp_path):
    outcome = run_chaos(3, "hybrid")
    path = str(tmp_path / "plan.json")
    campaign.save(path, outcome)
    reproduced, again, _recording = campaign.replay(path)
    assert reproduced and again.digest == outcome.digest

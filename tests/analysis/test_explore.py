"""Schedule exploration (repro.analysis.explore): the engine tie-break
hook, the DFS/PCT drivers, .sched serialization, and the seeded-bug
scenarios CI gates on."""

import json

import pytest

from repro.analysis import explore
from repro.faults import campaign
from repro.faults.plan import PLAN_SCHEMA_VERSION
from repro.sim import engine
from repro.sim.engine import Environment


class TestEngineTieBreak:
    def test_default_order_without_tie_breaker(self):
        env = Environment()
        order = []

        def proc(tag):
            yield env.timeout(0)
            order.append(tag)

        env.process(proc("a"))
        env.process(proc("b"))
        env.run()
        assert order == ["a", "b"]

    def test_forced_tie_breaker_reorders_same_time_events(self):
        # Flip only the first tie (the two process-start events) and keep
        # defaults after: "b" starts first, so its timeout fires first.
        tb = explore.ForcedTieBreaker((1,))
        engine.attach("_tie_breaker", lambda env: tb)
        try:
            env = Environment()
            order = []

            def proc(tag):
                yield env.timeout(0)
                order.append(tag)

            env.process(proc("a"))
            env.process(proc("b"))
            env.run()
        finally:
            engine.detach("_tie_breaker")
        assert order == ["b", "a"]
        assert tb.decisions[0] == (2, 1)

    def test_unobservable_events_consume_no_decision(self):
        # Bare timeouts nobody waits on commute; only observed ties
        # reach the tie-breaker.
        decisions = []

        class Recorder:
            def choose(self, when, prio, events):
                decisions.append(len(events))
                return 0

        engine.attach("_tie_breaker", lambda env: Recorder())
        try:
            env = Environment()
            env.timeout(1.0)
            env.timeout(1.0)
            env.timeout(1.0)
            env.run()
        finally:
            engine.detach("_tie_breaker")
        assert decisions == []

    def test_explored_run_same_result_as_default_when_forced_default(self):
        tb = explore.ForcedTieBreaker(())
        engine.attach("_tie_breaker", lambda env: tb)
        try:
            env = Environment()
            order = []

            def proc(tag):
                yield env.timeout(0)
                order.append(tag)

            env.process(proc("a"))
            env.process(proc("b"))
            env.run()
        finally:
            engine.detach("_tie_breaker")
        assert order == ["a", "b"]


class TestExploration:
    def test_race_found_only_by_exploration(self):
        # The default schedule is clean …
        explore.SCENARIOS["race-lock-order"].run()
        # … but DFS flips the marker-race tie and hits the deadlock.
        schedules, outcome = explore.explore("race-lock-order", budget=32,
                                             depth=8)
        assert outcome is not None
        assert schedules > 1  # not the default schedule
        assert outcome.failure_kind == "exception:SimulationError"

    def test_clean_scenario_stays_clean(self):
        schedules, outcome = explore.explore("lock-ties", budget=10,
                                             depth=6)
        assert outcome is None
        # Budget is an upper bound; DFS may exhaust the tree first.
        assert 1 <= schedules <= 10

    def test_pct_is_reproducible_per_seed(self):
        a = explore.explore("race-lock-order", strategy="pct", budget=32,
                            seed=7)
        b = explore.explore("race-lock-order", strategy="pct", budget=32,
                            seed=7)
        assert a[0] == b[0]
        assert (a[1] is None) == (b[1] is None)
        if a[1] is not None:
            assert a[1].decisions == b[1].decisions
            assert a[1].digest == b[1].digest

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            explore.explore("no-such-scenario")


def caught(name):
    """The violating outcome of a seeded-bug scenario."""
    _schedules, outcome = explore.explore(name, budget=16)
    assert outcome is not None, f"{name} not caught"
    return outcome


class TestSeededBugs:
    def test_lock_leak_caught_within_smoke_budget(self):
        assert "deadlock" in caught("buggy-lock-leak").failure

    def test_overflow_inplace_caught_by_paritysan(self):
        outcome = caught("buggy-overflow-inplace")
        assert outcome.failure_kind == "paritysan:parity"
        assert "parity mismatch" in outcome.failure

    def test_helper_release_leak_caught_within_smoke_budget(self):
        assert "deadlock" in caught("buggy-helper-release-leak").failure

    def test_lock_order_caught_by_locksan(self):
        outcome = caught("buggy-lock-order")
        assert outcome.failure_kind == "locksan:order-inversion"
        assert "f:0 while holding f:1" in outcome.failure

    def test_thawed_view_caught_by_bufsan(self):
        outcome = caught("buggy-thawed-view")
        assert outcome.failure_kind == "bufsan:fingerprint-drift"
        assert "changed" in outcome.failure

    def test_scratch_leak_caught_by_bufsan(self):
        outcome = caught("buggy-scratch-leak")
        assert outcome.failure_kind == "bufsan:fingerprint-drift"

    def test_smoke_passes_and_replays(self, tmp_path):
        results = explore.explore_smoke(budget=32,
                                        sched_dir=str(tmp_path / "sched"))
        assert [name for name, _n, _o in results] \
            == ["buggy-lock-leak", "buggy-helper-release-leak",
                "buggy-lock-order", "buggy-overflow-inplace",
                "buggy-thawed-view", "buggy-scratch-leak"]
        assert all(not outcome.ok for _name, _n, outcome in results)
        assert sorted(p.name for p in (tmp_path / "sched").iterdir()) \
            == ["buggy-helper-release-leak.sched", "buggy-lock-leak.sched",
                "buggy-lock-order.sched", "buggy-overflow-inplace.sched",
                "buggy-scratch-leak.sched", "buggy-thawed-view.sched"]


class TestSchedFiles:
    @staticmethod
    def saved(tmp_path, name, budget=32):
        _schedules, outcome = explore.explore(name, budget=budget, depth=8)
        path = str(tmp_path / f"{name}.sched")
        campaign.save(path, outcome, scenario=name)
        return path, outcome

    def test_round_trip(self, tmp_path):
        path, outcome = self.saved(tmp_path, "race-lock-order")
        loaded = campaign.load(path)
        assert loaded["scenario"] == "race-lock-order"
        assert [tuple(d) for d in loaded["decisions"]] \
            == list(outcome.decisions)
        assert loaded["failure"] == {"kind": outcome.failure_kind,
                                     "description": outcome.failure}
        assert loaded["digest"] == outcome.digest

    def test_schema_version_field_present(self, tmp_path):
        path, _outcome = self.saved(tmp_path, "buggy-lock-leak", budget=4)
        with open(path) as fh:
            data = json.load(fh)
        assert data["schema_version"] == PLAN_SCHEMA_VERSION

    def test_unsupported_schema_version_rejected(self, tmp_path):
        path = tmp_path / "bad.sched"
        path.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(ValueError):
            campaign.load(str(path))

    def test_replay_reproduces_recorded_violation(self, tmp_path):
        path, outcome = self.saved(tmp_path, "race-lock-order")
        reproduced, again, _recording = campaign.replay(path)
        assert reproduced
        assert again.digest == outcome.digest

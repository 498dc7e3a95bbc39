"""Schedule exploration (repro.analysis.explore): the engine tie-break
hook, the DFS/PCT drivers, .sched serialization, and the seeded-bug
scenarios CI gates on."""

import json

import pytest

from repro.analysis import explore
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
        result = explore.explore("race-lock-order", budget=32, depth=8)
        assert result.found
        assert result.schedules > 1  # not the default schedule
        assert result.record.violation.kind == "SimulationError"

    def test_clean_scenario_stays_clean(self):
        result = explore.explore("lock-ties", budget=10, depth=6)
        assert not result.found
        # Budget is an upper bound; DFS may exhaust the tree first.
        assert 1 <= result.schedules <= 10

    def test_pct_is_reproducible_per_seed(self):
        a = explore.explore("race-lock-order", strategy="pct", budget=32,
                            seed=7)
        b = explore.explore("race-lock-order", strategy="pct", budget=32,
                            seed=7)
        assert a.found == b.found
        assert a.schedules == b.schedules
        if a.found:
            assert a.record.decisions == b.record.decisions

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            explore.explore("no-such-scenario")


class TestSeededBugs:
    def test_lock_leak_caught_within_smoke_budget(self):
        result = explore.explore("buggy-lock-leak", budget=16)
        assert result.found
        assert "deadlock" in result.record.violation.description

    def test_overflow_inplace_caught_by_paritysan(self):
        result = explore.explore("buggy-overflow-inplace", budget=16)
        assert result.found
        assert result.record.violation.kind == "paritysan:parity"
        assert "parity mismatch" in result.record.violation.description

    def test_helper_release_leak_caught_within_smoke_budget(self):
        result = explore.explore("buggy-helper-release-leak", budget=16)
        assert result.found
        assert "deadlock" in result.record.violation.description

    def test_lock_order_caught_by_locksan(self):
        explore.drain_witnesses()
        result = explore.explore("buggy-lock-order", budget=16)
        assert result.found
        assert result.record.violation.kind == "locksan:order-inversion"
        # The inversion also lands in the witness stream CSAR011 reads.
        witnesses = explore.drain_witnesses()
        assert {"file": "f", "group": 0, "held_group": 1} in witnesses

    def test_thawed_view_caught_by_bufsan(self):
        result = explore.explore("buggy-thawed-view", budget=16)
        assert result.found
        assert result.record.violation.kind == "bufsan:fingerprint-drift"
        assert "changed" in result.record.violation.description

    def test_scratch_leak_caught_by_bufsan(self):
        result = explore.explore("buggy-scratch-leak", budget=16)
        assert result.found
        assert result.record.violation.kind == "bufsan:fingerprint-drift"

    def test_smoke_passes_and_replays(self, tmp_path):
        witness_path = str(tmp_path / "witnesses.json")
        results = explore.explore_smoke(budget=32,
                                        sched_dir=str(tmp_path / "sched"),
                                        witness_path=witness_path)
        assert {r.scenario for r in results} \
            == {"buggy-lock-leak", "buggy-helper-release-leak",
                "buggy-lock-order", "buggy-overflow-inplace",
                "buggy-thawed-view", "buggy-scratch-leak"}
        assert all(r.found for r in results)
        assert sorted(p.name for p in (tmp_path / "sched").iterdir()) \
            == ["buggy-helper-release-leak.sched", "buggy-lock-leak.sched",
                "buggy-lock-order.sched", "buggy-overflow-inplace.sched",
                "buggy-scratch-leak.sched", "buggy-thawed-view.sched"]
        from repro.analysis import lint
        witnesses = lint.load_witnesses(witness_path)
        assert any(w["held_group"] == 1 and w["group"] == 0
                   for w in witnesses)


class TestSchedFiles:
    def test_round_trip(self, tmp_path):
        result = explore.explore("race-lock-order", budget=32, depth=8)
        assert result.found
        path = str(tmp_path / "race.sched")
        explore.save_schedule(result.record, path)
        loaded = explore.load_schedule(path)
        assert loaded == result.record

    def test_schema_version_field_present(self, tmp_path):
        result = explore.explore("buggy-lock-leak", budget=4)
        path = str(tmp_path / "leak.sched")
        explore.save_schedule(result.record, path)
        with open(path) as fh:
            data = json.load(fh)
        assert data["schema_version"] == explore.SCHED_SCHEMA_VERSION

    def test_unsupported_schema_version_rejected(self, tmp_path):
        path = tmp_path / "bad.sched"
        path.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(ValueError):
            explore.load_schedule(str(path))

    def test_replay_reproduces_recorded_violation(self, tmp_path):
        result = explore.explore("race-lock-order", budget=32, depth=8)
        path = str(tmp_path / "race.sched")
        explore.save_schedule(result.record, path)
        reproduced, violation = explore.replay(path)
        assert reproduced
        assert violation.kind == result.record.violation.kind

"""csar-repro profile: cProfile plus kernel counters."""

import pytest

from repro.errors import ConfigError
from repro.perf.profiler import profile_experiment
from repro.sim import engine


class TestProfileExperiment:
    def test_report_contains_profile_and_counters(self):
        report, table = profile_experiment("fig3", scale=0.05, top=5)
        assert "cProfile" in report
        assert "kernel counters" in report
        # fig3 runs real simulations: at least one environment with a
        # non-trivial event count must show up.
        assert "env#0" in report
        assert "scheduled=" in report
        assert table.rows

    def test_unknown_experiment_raises_config_error(self):
        with pytest.raises(ConfigError):
            profile_experiment("fig99")

    def test_observer_restored_after_profiling(self):
        sentinel_calls = []
        sentinel = sentinel_calls.append
        previous = engine.env_observer()
        engine.set_env_observer(sentinel)
        try:
            profile_experiment("fig2")
            assert engine.env_observer() is sentinel
        finally:
            engine.set_env_observer(previous)


class TestEnvironmentStats:
    def test_stats_track_schedule_and_dispatch(self):
        env = engine.Environment()

        def proc():
            yield env.timeout(1.0)
            yield env.timeout(1.0)

        env.process(proc())
        before = env.stats()
        assert before["scheduled"] == before["pending"] == 1  # Initialize
        assert before["dispatched"] == 0
        env.run()
        after = env.stats()
        # Initialize + 2 timeouts, all dispatched; nothing waits on the
        # process, so its end is not an event.
        assert after["scheduled"] == 3
        assert after["dispatched"] == 3
        assert after["pending"] == 0
        assert after["now"] == 2.0

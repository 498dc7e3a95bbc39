"""The parallel sweep runner (repro.perf.runner).

The load-bearing guarantees: a parallel sweep is *bit-identical* to the
sequential one (tables, CSV, kernel counters), results come back in
submission order as they finish, a worker crash surfaces the original
experiment exception labeled with its point, and an in-process sweep
leaves the caller's sanitizers as it found them.
"""

import pytest

from repro.errors import ConfigError
from repro.perf.runner import (SweepPoint, SweepPointError, SweepResult,
                               merge_counters, run_sweep)

#: A 4-point sweep of cheap, sim-exercising experiments.
POINTS = [
    SweepPoint("fig1"),
    SweepPoint("fig2"),
    SweepPoint("fig3", scale=0.05),
    SweepPoint("fig3", scale=0.1),
]


class TestDeterminism:
    def test_jobs4_bit_identical_to_jobs1(self):
        sequential = list(run_sweep(POINTS, jobs=1))
        parallel = list(run_sweep(POINTS, jobs=4))
        assert len(sequential) == len(parallel) == len(POINTS)
        for seq, par in zip(sequential, parallel):
            assert seq.ok and par.ok
            assert seq.point == par.point
            # Bit-identical CSV (the artifact --csv-dir would write) ...
            assert seq.table.to_csv() == par.table.to_csv()
            assert seq.table.format() == par.table.format()
            # ... and identical kernel counters (events are the metric
            # wall clock is not part of).
            assert seq.counters == par.counters

    def test_results_in_submission_order(self):
        results = run_sweep(POINTS, jobs=4)
        assert [r.point for r in results] == POINTS

    def test_in_process_sweep_yields_each_point_as_it_finishes(
            self, monkeypatch):
        # `csar-repro run all` prints table by table: a point runs when
        # its result is asked for, not before.
        from repro.experiments.base import REGISTRY, Experiment, ExpTable

        ran = []

        def make(name):
            def run(scale=None):
                ran.append(name)
                return ExpTable(name, name, ["col"])
            return Experiment(name, name, run)

        for name in ("first", "second"):
            monkeypatch.setitem(REGISTRY, name, make(name))
        results = run_sweep([SweepPoint("first"), SweepPoint("second")])
        assert ran == []
        assert next(results).point.exp_id == "first"
        assert ran == ["first"]
        assert [r.point.exp_id for r in results] == ["second"]

    def test_sequential_matches_direct_experiment_run(self):
        from repro.experiments import get_experiment

        [result] = run_sweep([SweepPoint("fig3", scale=0.05)], jobs=1)
        direct = get_experiment("fig3").run(scale=0.05)
        assert result.table.to_csv() == direct.to_csv()

    def test_merged_counters_identical_across_jobs(self):
        merged_seq = merge_counters(run_sweep(POINTS, jobs=1))
        merged_par = merge_counters(run_sweep(POINTS, jobs=4))
        for key in ("points_ok", "points_failed", "environments",
                    "events_scheduled", "events_dispatched", "sim_time"):
            assert merged_seq[key] == merged_par[key], key
        assert merged_seq["points_ok"] == len(POINTS)
        assert merged_seq["events_dispatched"] > 0


class TestErrorSurfacing:
    @pytest.fixture
    def failing_experiment(self, monkeypatch):
        from repro.experiments.base import REGISTRY, Experiment

        def boom(scale=None):
            raise RuntimeError("kaput")

        monkeypatch.setitem(
            REGISTRY, "boom", Experiment("boom", "always fails", boom))

    def test_worker_crash_surfaces_original_exception_with_label(
            self, failing_experiment):
        points = [SweepPoint("fig1"), SweepPoint("boom", scale=0.5)]
        results = list(run_sweep(points, jobs=2))
        assert results[0].ok
        failed = results[1]
        assert not failed.ok
        assert isinstance(failed.error, RuntimeError)
        assert str(failed.error) == "kaput"
        assert failed.label == "boom@0.5"
        with pytest.raises(SweepPointError) as excinfo:
            failed.raise_error()
        assert "boom@0.5" in str(excinfo.value)
        assert "kaput" in str(excinfo.value)
        assert excinfo.value.original is failed.error

    def test_failure_does_not_poison_other_points(self, failing_experiment):
        points = [SweepPoint("boom"), SweepPoint("fig1"), SweepPoint("fig2")]
        results = list(run_sweep(points, jobs=2))
        assert [r.ok for r in results] == [False, True, True]
        merged = merge_counters(results)
        assert merged["points_failed"] == 1
        assert merged["points_ok"] == 2

    def test_sequential_failure_surfaces_identically(
            self, failing_experiment):
        [result] = run_sweep([SweepPoint("boom")], jobs=1)
        assert isinstance(result.error, RuntimeError)
        assert str(result.error) == "kaput"

    def test_unknown_experiment_rejected_before_spawning(self):
        with pytest.raises(ConfigError):
            run_sweep([SweepPoint("fig1"), SweepPoint("no-such-fig")],
                      jobs=4)

    def test_raise_error_is_noop_on_success(self):
        result = SweepResult(point=SweepPoint("fig1"), table=None, wall=0.0)
        result.raise_error()  # must not raise


class TestSanitizerScope:
    """``run_sweep`` must not leak sanitizers into its caller."""

    @staticmethod
    def installed():
        from repro.analysis import SANITIZER_MODULES, sanitizer_module
        from repro.storage import payload

        state = {mode: sanitizer_module(mode).installed()
                 for mode in SANITIZER_MODULES}
        state["capture_hook"] = payload._capture_hook is not None
        return state

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_in_process_sweep_leaves_nothing_installed(self, jobs):
        # A single point runs in-process whatever --jobs says.
        before = self.installed()
        [result] = run_sweep([SweepPoint("fig1")], jobs=jobs,
                             sanitize="all")
        assert result.ok
        assert self.installed() == before

    def test_preinstalled_sanitizer_survives_the_sweep(self):
        from repro.analysis import paritysan

        if paritysan.installed():  # the CSAR_PARITYSAN=1 harness case
            list(run_sweep([SweepPoint("fig1")], sanitize="all"))
            assert paritysan.installed()
            return
        paritysan.install()
        try:
            before = self.installed()
            list(run_sweep([SweepPoint("fig1")], sanitize="all"))
            assert self.installed() == before
            assert paritysan.installed()
        finally:
            paritysan.uninstall()


class TestLabels:
    def test_default_labels(self):
        assert SweepPoint("fig3").resolved_label() == "fig3"
        assert SweepPoint("fig3", scale=0.25).resolved_label() == "fig3@0.25"
        assert SweepPoint("fig3", label="x").resolved_label() == "x"

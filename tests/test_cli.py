"""Tests for the command-line front end."""

import pytest

from repro.cli import main


class TestList:
    def test_list_prints_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4a" in out
        assert "table2" in out


class TestRun:
    def test_run_single_experiment(self, capsys):
        assert main(["run", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "fill_minutes" in out

    def test_run_with_scale(self, capsys):
        assert main(["run", "fig3", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "RAID5" in out
        assert "scale 0.1" in out

    def test_run_multiple(self, capsys):
        assert main(["run", "fig1", "ablation-parity"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "ablation-parity" in out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_failing_experiment_exits_nonzero(self, capsys, monkeypatch):
        from repro.experiments.base import REGISTRY, Experiment

        def boom(scale=None):
            raise RuntimeError("kaput")

        monkeypatch.setitem(
            REGISTRY, "boom", Experiment("boom", "always fails", boom))
        assert main(["run", "boom"]) == 1
        err = capsys.readouterr().err
        assert "boom" in err and "kaput" in err

    def test_failure_does_not_abort_later_experiments(self, capsys,
                                                      monkeypatch):
        from repro.experiments.base import REGISTRY, Experiment

        def boom(scale=None):
            raise RuntimeError("kaput")

        monkeypatch.setitem(
            REGISTRY, "boom", Experiment("boom", "always fails", boom))
        assert main(["run", "boom", "fig1"]) == 1
        captured = capsys.readouterr()
        assert "kaput" in captured.err
        assert "fig1" in captured.out  # later experiment still ran

    @staticmethod
    def register(monkeypatch, name, run):
        from repro.experiments.base import REGISTRY, Experiment, ExpTable

        def body(scale=None):
            run()
            table = ExpTable(name, f"{name} title", ["col"])
            table.add_row("value")
            return table

        monkeypatch.setitem(REGISTRY, name, Experiment(name, name, body))

    def test_a_table_prints_before_the_next_experiment_starts(
            self, capsys, monkeypatch):
        printed_before_second = []
        self.register(monkeypatch, "first", lambda: None)
        self.register(monkeypatch, "second", lambda: printed_before_second
                      .append(capsys.readouterr().out))
        assert main(["run", "first", "second"]) == 0
        [out] = printed_before_second
        assert "first title" in out and "second title" not in out
        assert "second title" in capsys.readouterr().out

    def test_an_unknown_id_is_rejected_before_any_experiment_runs(
            self, capsys, monkeypatch):
        ran = []
        self.register(monkeypatch, "first", lambda: ran.append("first"))
        assert main(["run", "first", "fig99"]) == 2
        assert ran == []
        assert "fig99" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "fig3", "--scale", "-1"],
        ["run", "fig3", "--scale", "0"],
        ["run", "fig3", "--scale", "nan"],
        ["report", "--scale", "-1"],
        ["chaos", "--seeds", "5:2"],
        ["chaos", "--seeds", "a:b"],
        ["chaos", "--seeds", ","],
        ["chaos", "--ops", "0"],
        ["chaos", "--schemes", "raid9"],
        ["chaos", "--schemes", "raid5,raid9"],
        ["explore", "lock-ties", "--budget", "0"],
    ])
    def test_scale_must_be_positive(self, argv, capsys):
        """An option value outside its domain is a usage error (exit 2)
        that names the option, before anything runs."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["chaos", "--replay", "{missing}"],
    ["explore", "--replay", "{missing}"],
    ["report", "--diff", "{missing}", "{missing}"],
])
def test_a_missing_input_file_is_a_usage_error(argv, tmp_path, capsys):
    missing = str(tmp_path / "no-such-file")
    assert main([arg.format(missing=missing) for arg in argv]) == 2
    assert "no such" in capsys.readouterr().err


class TestSanitize:
    @pytest.mark.locksan_expected
    def test_sanitize_reports_leak_and_fails(self, capsys, monkeypatch):
        from repro.experiments.base import REGISTRY, Experiment, ExpTable

        def leaky(scale=None):
            from repro.redundancy.locks import ParityLockTable
            from repro.sim import Environment

            env = Environment()
            table = ParityLockTable(env)

            def proc():
                yield from table.acquire("f", 0, xid=1)
                yield env.timeout(1.0)
                # ... and never releases.

            env.process(proc(), name="leaker")
            env.run()
            t = ExpTable("leaky", "leaky experiment", ["col"])
            t.add_row("value")
            return t

        monkeypatch.setitem(
            REGISTRY, "leaky", Experiment("leaky", "leaky", leaky))
        assert main(["run", "leaky", "--sanitize"]) == 1
        err = capsys.readouterr().err
        assert "leak" in err
        assert "leaker" in err

    def test_sanitize_clean_experiment_exits_zero(self, capsys):
        assert main(["run", "fig2", "--sanitize"]) == 0

    def test_sanitize_restores_prior_factory(self):
        from repro.sim import engine

        before = engine.attached("locksan")
        main(["run", "fig2", "--sanitize"])
        assert engine.attached("locksan") is before

    @staticmethod
    def ambient():
        """What a run could leave behind: each sanitizer's engine
        attachment and the payload capture hook, by identity."""
        from repro.analysis import SANITIZERS
        from repro.sim import engine
        from repro.storage import payload

        state = {mode: engine.attached(cls.__name__.lower())
                 for mode, cls in SANITIZERS.items()}
        state["capture_hook"] = payload._capture_hook
        return state

    def test_sanitize_all_leaves_every_sanitizer_as_it_found_it(self):
        before = self.ambient()
        assert main(["run", "fig1", "--sanitize=all"]) == 0
        assert self.ambient() == before

    def test_a_preinstalled_paritysan_survives(self):
        from repro.analysis import sanitizer_scope

        with sanitizer_scope(["parity"]):
            before = self.ambient()
            assert before["parity"] is not None
            assert main(["run", "fig1", "--sanitize=all"]) == 0
            assert self.ambient() == before

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestCsvExport:
    def test_csv_dir_writes_files(self, tmp_path, capsys):
        assert main(["run", "fig1", "--csv-dir", str(tmp_path)]) == 0
        csv = (tmp_path / "fig1.csv").read_text()
        assert csv.splitlines()[0].startswith("year,drive,")
        assert "Seagate ST-412" in csv

    def test_table_to_csv_quotes_commas(self):
        from repro.experiments.base import ExpTable

        t = ExpTable("x", "t", ["a", "b"])
        t.add_row('has,comma', 'has"quote')
        csv = t.to_csv()
        assert '"has,comma"' in csv
        assert '"has""quote"' in csv

    def test_fig2_layout_matches_paper(self):
        from repro.experiments import get_experiment

        table = get_experiment("fig2").run()
        assert table.cell(0, "iod2.red") == "P[0-1]"
        assert table.cell(0, "iod0.data") == "D0"
        assert table.cell(0, "iod1.red") == "P[2-3]"

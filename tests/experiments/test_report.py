"""Tests for ``csar-repro report``: verdicts, the ledger file, ``--diff``."""

import copy
import json
from dataclasses import replace
from math import inf
from pathlib import Path

from repro.cli import main
from repro.experiments import base
from repro.experiments.claims import CLAIMS, Claim
from repro.experiments.report import load_ledger, run_report

LEDGER_PATH = str(Path(__file__).resolve().parents[2]
                  / "docs" / "results" / "experiments.json")


def _fill_2003(table):
    return table.cell(2003, "fill_minutes")


class TestClaimMachinery:
    def test_claims_cover_every_figure_family(self):
        experiments = {c.experiment for c in CLAIMS}
        assert {"fig3", "fig4a", "fig4b", "fig5a", "fig6b", "fig7a",
                "fig8", "table2"} <= experiments

    def test_report_runs_each_experiment_once(self, monkeypatch):
        runs = []
        fig1 = base.REGISTRY["fig1"]

        def counted(scale):
            runs.append(scale)
            return fig1.run(scale=scale)

        monkeypatch.setitem(base.REGISTRY, "fig1", replace(fig1, run=counted))
        claims = [Claim("a", "fig1", "a", _fill_2003, 0, inf),
                  Claim("b", "fig1", "b", _fill_2003, 0, inf)]
        text, ok = run_report(claims=claims)
        assert ok
        assert text.count("[PASS]") == 2
        assert runs == [fig1.default_scale]

    def test_failing_claim_flips_verdict(self):
        claims = [Claim("never", "fig1", "always fails", _fill_2003, -2, -1)]
        text, ok = run_report(claims=claims)
        assert not ok
        assert "[FAIL] never: 48.48 in (-2, -1), margin -49.5" in text
        assert "SOME CLAIMS FAILED" in text

    def test_closed_gap_flips_verdict_too(self):
        # A gap whose interval now contains the value is a stale entry.
        claims = [Claim("stale", "fig1", "p", _fill_2003, 0, inf, None,
                        "gap", "why")]
        text, ok = run_report(claims=claims)
        assert not ok and "[CLOSED] stale" in text
        still_open = [replace(claims[0], hi=1.0)]
        text, ok = run_report(claims=still_open)
        assert ok and "[GAP] stale" in text

    def test_claim_below_its_min_scale_is_skipped(self, monkeypatch,
                                                  capsys):
        import repro.experiments.report as report_mod

        # Fails wherever it runs, so only the skip keeps the exit at 0.
        stub = Claim("scaled", "fig1", "p", _fill_2003, -2, -1,
                     min_scale=0.5)
        monkeypatch.setattr(report_mod, "CLAIMS", [stub])
        assert main(["report", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "[SKIP] scaled: needs --scale ≥ 0.5" in out
        assert "EVERY CLAIM STANDS AS RECORDED" in out
        assert main(["report", "--scale", "0.5"]) == 1
        assert "[FAIL] scaled" in capsys.readouterr().out

    def test_fast_claims_pass_at_default_scale(self):
        # The cheap microbenchmark claims run in seconds and must pass.
        fast = [c for c in CLAIMS if c.experiment in ("fig3", "fig4b")]
        text, ok = run_report(claims=fast)
        assert ok, text


class TestLedgerFile:
    def test_written_ledger_is_byte_stable_and_matches_the_committed_one(
            self, tmp_path, monkeypatch):
        import repro.experiments.report as report_mod

        # A two-experiment registry: one with claims, one table-only.
        small = {k: base.REGISTRY[k] for k in ("fig2", "fig3")}
        monkeypatch.setattr(report_mod, "REGISTRY", small)
        fast = [c for c in CLAIMS if c.experiment == "fig3"]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        run_report(claims=fast, ledger_path=str(first))
        run_report(claims=fast, ledger_path=str(second))
        assert first.read_bytes() == second.read_bytes()
        written, committed = load_ledger(str(first)), load_ledger(LEDGER_PATH)
        # --ledger runs the table-only experiments as well.
        assert set(written["experiments"]) == {"fig2", "fig3"}
        for claim in fast:
            assert written["claims"][claim.id] == committed["claims"][claim.id]
        assert written["experiments"] == {
            k: committed["experiments"][k] for k in small}
        assert "note" not in json.dumps(written)   # no host-timed text


class TestDiff:
    def test_identical_ledgers_print_nothing(self, capsys):
        assert main(["report", "--diff", LEDGER_PATH, LEDGER_PATH]) == 0
        assert capsys.readouterr().out == ""

    def test_edited_cell_and_claim_are_listed(self, tmp_path, capsys):
        committed = load_ledger(LEDGER_PATH)
        edited = copy.deepcopy(committed)
        cell = committed["experiments"]["fig4a"]["rows"][6][3]
        edited["experiments"]["fig4a"]["rows"][6][3] = cell * 1.5
        claim = edited["claims"]["fig4a-csar-vs-pvfs"]
        value = claim["measured"]
        claim.update(measured=value * 1.5, verdict="FAIL")
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(edited))
        assert main(["report", "--diff", LEDGER_PATH, str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"claim fig4a-csar-vs-pvfs: {value:.6g} -> {value * 1.5:.6g} "
            "(+50.00%); verdict PASS -> FAIL",
            f"table fig4a [7, raid5]: {cell:.6g} -> {cell * 1.5:.6g} "
            "(+50.00%)",
        ]


class TestCli:
    def test_report_command_wires_up(self, capsys, monkeypatch):
        import repro.experiments.report as report_mod

        monkeypatch.setattr(
            report_mod, "run_report",
            lambda scale=None, ledger_path=None, diff=None:
            ("# stub\n[PASS] x", True))
        assert main(["report"]) == 0
        assert "[PASS]" in capsys.readouterr().out

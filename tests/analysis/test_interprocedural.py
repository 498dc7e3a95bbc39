"""Whole-program lint findings: the ip_fixtures round-trip, the
seeded-bug regressions that need callee summaries, CSAR011 x LockSan
witness cross-referencing, baselines, SARIF, and the CLI flags."""

import json
import re
from pathlib import Path

import pytest

from repro.analysis import explore, lint

HERE = Path(__file__).resolve().parent
IP_FIXTURES = HERE / "ip_fixtures"
REPO_ROOT = HERE.parent.parent
SEEDED = REPO_ROOT / "src" / "repro" / "analysis" / "seeded_bugs.py"

_EXPECT = re.compile(r"#\s*expect:\s*(CSAR\d+(?:\s*,\s*CSAR\d+)*)")


def expected_ip_findings():
    expected = set()
    for path in sorted(IP_FIXTURES.rglob("*.py")):
        for lineno, text in enumerate(
                path.read_text().splitlines(), start=1):
            match = _EXPECT.search(text)
            if match:
                for code in re.split(r"\s*,\s*", match.group(1)):
                    expected.add((str(path), lineno, code))
    return expected


class TestFixtureRoundTrip:
    def test_interprocedural_findings_exactly_as_expected(self):
        expected = expected_ip_findings()
        findings = lint.lint_paths([str(IP_FIXTURES)])
        actual = {(f.path, f.line, f.code) for f in findings}
        missing = expected - actual
        surprise = actual - expected
        assert not missing, f"expected findings not produced: {missing}"
        assert not surprise, f"unexpected findings: {surprise}"

    def test_fixtures_exercise_the_new_rules(self):
        codes = {code for _p, _l, code in expected_ip_findings()}
        assert {"CSAR010", "CSAR011", "CSAR013", "CSAR014"} <= codes


class TestSeededBugRegression:
    """The helper-release leak only a callee summary exposes."""

    def test_interprocedural_pass_catches_it(self, src_findings):
        seeded = [f for f in src_findings
                  if f.path.endswith("seeded_bugs.py")]
        codes = {f.code for f in seeded}
        assert "CSAR010" in codes  # HelperReleaseRaid5's leaked lease
        assert "CSAR011" in codes  # DescendingLockRaid5's loop
        leak = next(f for f in seeded if f.code == "CSAR010")
        assert "_take_lease" in leak.message
        assert "->" in leak.message  # the witness call chain


class TestWitnessCrossReference:
    def test_every_locksan_inversion_is_part_of_a_static_cycle(
            self, src_findings):
        # Acceptance gate: run the seeded-bug suite, collect every
        # LockSan order-inversion, and require CSAR011 to name each one
        # as the dynamic witness of a static cycle.  The cycles live in
        # the seeded-bug module, so that file is linted with the
        # witnesses; the src-wide pass must report the same cycles.
        witnesses = []
        for scen in explore.smoke_scenarios():
            _schedules, outcome = explore.explore(scen.name, budget=16)
            witnesses += outcome.witnesses
        assert witnesses, "seeded-bug suite produced no order-inversions"
        findings = lint.lint_paths([str(SEEDED)], witnesses=witnesses)
        cycles = [f for f in findings if f.code == "CSAR011"]
        assert [f.line for f in cycles] == [
            f.line for f in src_findings if f.code == "CSAR011"]
        for witness in witnesses:
            note = (f"held group {witness['held_group']} while acquiring "
                    f"group {witness['group']}")
            assert any(note in f.witness for f in cycles), \
                f"no CSAR011 finding claims witness {witness}"

    def test_unwitnessed_cycle_says_so(self):
        findings = lint.lint_paths([str(IP_FIXTURES)], witnesses=[])
        cycle = next(f for f in findings if f.code == "CSAR011")
        assert "no dynamic witness recorded" in cycle.witness

    def test_witness_file_round_trip(self, tmp_path):
        path = str(tmp_path / "witnesses.json")
        witnesses = [{"file": "f", "group": 0, "held_group": 1}]
        lint.save_witnesses(witnesses, path)
        assert lint.load_witnesses(path) == witnesses

    def test_witness_schema_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(ValueError):
            lint.load_witnesses(str(path))


class TestBaseline:
    def findings(self):
        return lint.lint_paths([str(IP_FIXTURES)])

    def test_write_load_apply_round_trip(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        findings = self.findings()
        lint.write_baseline(findings, path)
        entries = lint.load_baseline(path)
        new, suppressed = lint.apply_baseline(findings, entries)
        assert new == []
        assert suppressed == len(findings)

    def test_baseline_keys_survive_line_drift(self, tmp_path):
        # Keys are (path, code, message) — moving a finding to another
        # line (code above it changed) must not resurface it.
        path = str(tmp_path / "baseline.json")
        findings = self.findings()
        lint.write_baseline(findings, path)
        drifted = [lint.Finding(f.path, f.line + 7, f.col, f.code,
                                f.message, f.witness)
                   for f in findings]
        new, suppressed = lint.apply_baseline(
            drifted, lint.load_baseline(path))
        assert new == []
        assert suppressed == len(findings)

    def test_baseline_keys_survive_a_shifted_witness_chain(self, tmp_path):
        # The messages quote `file.py:LINE` for every hop of a witness
        # chain; one blank line on top of each file moves all of them
        # (and the findings themselves) without changing what is wrong.
        import shutil

        tree = tmp_path / "fixtures"
        shutil.copytree(IP_FIXTURES, tree)
        findings = lint.lint_paths([str(tree)])
        assert any(".py:" in f.message for f in findings)
        path = str(tmp_path / "baseline.json")
        lint.write_baseline(findings, path)
        for source in tree.rglob("*.py"):
            source.write_text("\n" + source.read_text())
        shifted = lint.lint_paths([str(tree)])
        assert [f.line for f in shifted] == [f.line + 1 for f in findings]
        assert [f.message for f in shifted] != [f.message for f in findings]
        new, suppressed = lint.apply_baseline(
            shifted, lint.load_baseline(path))
        assert new == []
        assert suppressed == len(findings)

    def test_new_findings_are_not_suppressed(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        findings = self.findings()
        lint.write_baseline(findings[1:], path)
        new, suppressed = lint.apply_baseline(
            findings, lint.load_baseline(path))
        assert new == [findings[0]]
        assert suppressed == len(findings) - 1

    def test_schema_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(ValueError):
            lint.load_baseline(str(path))

    def test_repo_baseline_covers_the_seeded_bugs(self, src_findings):
        # The committed baseline is exactly why `csar-repro lint src`
        # exits 0 while the seeded-bug modules deliberately trip rules.
        entries = lint.load_baseline(
            str(REPO_ROOT / "tools" / "lint_baseline.json"))
        assert {lint.baseline_key(f) for f in src_findings} == entries


class TestDeduplication:
    def test_file_passed_twice_reports_once(self):
        once = lint.lint_paths([str(IP_FIXTURES / "leak_chain.py")])
        twice = lint.lint_paths([str(IP_FIXTURES / "leak_chain.py"),
                                 str(IP_FIXTURES / "leak_chain.py")])
        assert twice == once

    def test_file_and_parent_directory_report_once(self):
        tree = lint.lint_paths([str(IP_FIXTURES)])
        overlap = lint.lint_paths(
            [str(IP_FIXTURES), str(IP_FIXTURES / "leak_chain.py")])
        assert overlap == tree


class TestSarif:
    def test_sarif_document_structure(self):
        findings = lint.lint_paths([str(IP_FIXTURES)])
        doc = json.loads(lint.format_sarif(findings))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rule_ids = {r["id"] for r in
                    run["tool"]["driver"]["rules"]}
        assert {"CSAR010", "CSAR011"} <= rule_ids
        results = run["results"]
        assert len(results) == len(findings)
        for result, finding in zip(results, findings):
            assert result["ruleId"] == finding.code
            location = result["locations"][0]["physicalLocation"]
            assert location["region"]["startLine"] == finding.line

    def test_sarif_of_no_findings_is_valid(self):
        doc = json.loads(lint.format_sarif([]))
        assert doc["runs"][0]["results"] == []


class TestCli:
    def test_default_lint_is_interprocedural_and_baselined(
            self, capsys, monkeypatch, lint_src_stub):
        from repro.cli import main

        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "src"]) == 0
        assert lint_src_stub == [None]  # one lint, no witness file
        assert "suppressed" in capsys.readouterr().out

    def test_a_stale_baseline_entry_fails_the_lint(
            self, capsys, monkeypatch, lint_src_stub, tmp_path):
        from repro.cli import main

        monkeypatch.chdir(REPO_ROOT)
        data = json.loads((REPO_ROOT / "tools" / "lint_baseline.json")
                          .read_text())
        fixed = {"path": "src/repro/pvfs/iod.py", "code": "CSAR010",
                 "message": "a finding that was fixed"}
        outside = {"path": "tests/analysis/fixtures/x.py",
                   "code": "CSAR001", "message": "not linted here"}
        data["entries"] += [fixed, outside]
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(data))
        assert main(["lint", "src", "--baseline", str(baseline)]) == 1
        out, err = capsys.readouterr()
        assert "5 baselined findings suppressed" in out
        assert err.splitlines() == [
            "src/repro/pvfs/iod.py: CSAR010 stale baseline entry, "
            "matches no finding: a finding that was fixed"]

    def test_write_then_consume_baseline(self, capsys, monkeypatch,
                                         tmp_path):
        from repro.cli import main

        monkeypatch.chdir(REPO_ROOT)
        baseline = str(tmp_path / "baseline.json")
        assert main(["lint", str(IP_FIXTURES),
                     "--write-baseline", baseline]) == 0
        capsys.readouterr()
        assert main(["lint", str(IP_FIXTURES),
                     "--baseline", baseline]) == 0
        assert "suppressed" in capsys.readouterr().out

    def _missing_input(self, flag, capsys, monkeypatch):
        """A missing --baseline/--witnesses file is rejected up front."""
        from repro.cli import main

        def no_lint(*args, **kwargs):
            raise AssertionError("linted before checking its inputs")

        monkeypatch.setattr(lint, "lint_paths", no_lint)
        assert main(["lint", str(IP_FIXTURES), flag, "no/such.json"]) == 2
        return capsys.readouterr().err

    def test_missing_baseline_exits_two(self, capsys, monkeypatch):
        assert "no such baseline file" in self._missing_input(
            "--baseline", capsys, monkeypatch)

    def test_missing_witness_file_exits_two(self, capsys, monkeypatch):
        assert "no such witness file" in self._missing_input(
            "--witnesses", capsys, monkeypatch)

    def test_sarif_format(self, capsys, monkeypatch, tmp_path):
        from repro.cli import main

        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", str(IP_FIXTURES), "--format=sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"]

    def test_explore_witness_file_flag(self, capsys, monkeypatch,
                                       tmp_path):
        from repro.cli import main

        monkeypatch.chdir(REPO_ROOT)
        witness_file = str(tmp_path / "wit.json")
        assert main(["explore", "buggy-lock-order", "--budget", "8",
                     "--witness-file", witness_file]) == 1
        witnesses = lint.load_witnesses(witness_file)
        assert {"file": "f", "group": 0, "held_group": 1} in witnesses

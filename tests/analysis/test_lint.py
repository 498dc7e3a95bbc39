"""csar-lint: the static protocol checker (repro.analysis.lint).

The fixture files under ``fixtures/`` carry ``# expect: CSAR###``
comments on every line that must produce exactly that finding; the
round-trip test asserts the linter reports *all* of them and *nothing
else*.  The clean-tree test is the repo's own gate: ``src/`` must lint
clean modulo the committed baseline.
"""

import re
from pathlib import Path

from repro.analysis import lint
from repro.analysis.rules import RULES, all_codes

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
IP_FIXTURES = HERE / "ip_fixtures"
REPO_ROOT = HERE.parent.parent

_EXPECT = re.compile(r"#\s*expect:\s*(CSAR\d+(?:\s*,\s*CSAR\d+)*)")

#: a generator that takes a lock and never releases it (CSAR001, line 2)
LEAK = (
    "def p(table, env, xid) -> 'Generator[Event, Any, None]':\n"
    "    yield from table.acquire('f', 0, xid){comment}\n"
    "    yield env.timeout(1.0)\n")


def lint_text(source, path="<string>"):
    """Lint one module given as a string (a one-module program)."""
    return lint.lint_sources({path: source})


def expected_findings(root=FIXTURES):
    """(path, line, code) triples declared by fixture comments."""
    expected = set()
    for path in sorted(root.rglob("*.py")):
        for lineno, text in enumerate(
                path.read_text().splitlines(), start=1):
            match = _EXPECT.search(text)
            if match:
                for code in re.split(r"\s*,\s*", match.group(1)):
                    expected.add((str(path), lineno, code))
    return expected


class TestFixtureRoundTrip:
    def test_every_rule_fires_exactly_where_expected(self):
        expected = expected_findings()
        findings = lint.lint_paths([str(FIXTURES)])
        actual = {(f.path, f.line, f.code) for f in findings}
        missing = expected - actual
        surprise = actual - expected
        assert not missing, f"expected findings not produced: {missing}"
        assert not surprise, f"unexpected findings: {surprise}"

    def test_every_registered_rule_is_exercised(self):
        # fixtures/ holds one function per finding; ip_fixtures/ the
        # findings that exist only across function boundaries (CSAR010,
        # the symbolic CSAR011 shapes, the callee-summary variants of
        # the others) — together they cover the full registry.
        codes = {code for _p, _l, code in expected_findings()}
        codes |= {code for _p, _l, code in
                  expected_findings(IP_FIXTURES)}
        assert codes == set(all_codes())

    def test_findings_carry_fixits(self):
        for finding in lint.lint_paths([str(FIXTURES)]):
            assert f"[fix: {RULES[finding.code].fixit}]" in finding.message
            assert finding.code in finding.format()


class TestCleanTree:
    def test_repo_src_lints_clean(self, src_findings):
        new, _suppressed = lint.apply_baseline(
            list(src_findings),
            lint.load_baseline(str(REPO_ROOT / "tools"
                                   / "lint_baseline.json")))
        assert new == [], lint.format_text(new)


class TestSuppression:
    def test_line_suppression_by_code(self):
        source = LEAK.format(comment="  # csar-lint: disable=CSAR001")
        assert lint_text(source) == []

    def test_suppressing_one_code_keeps_others(self):
        source = LEAK.format(comment="  # csar-lint: disable=CSAR011")
        findings = lint_text(source)
        assert [f.code for f in findings] == ["CSAR001"]

    def test_bare_disable_suppresses_everything(self):
        source = LEAK.format(comment="  # csar-lint: disable")
        assert lint_text(source) == []

    def test_combined_pragma_comment(self):
        source = LEAK.format(
            comment="  # pragma: no cover - csar-lint: disable=CSAR001")
        assert lint_text(source) == []


class TestRuleEdges:
    def test_syntax_error_reported_not_raised(self):
        findings = lint_text("def broken(:\n", path="x.py")
        assert len(findings) == 1
        assert findings[0].code == "CSAR000"

    def test_buffer_rules_follow_the_bytes_into_storage(self):
        # The block store keeps payload arrays, so CSAR013/014 cover
        # ``storage/``; ``hw`` holds no content and stays out of scope.
        source = (FIXTURES / "storage" / "store_inplace.py").read_text()
        assert lint_text(source, path="src/repro/hw/x.py") == []
        findings = lint_text(source, path="src/repro/storage/x.py")
        assert [f.code for f in findings] == ["CSAR013"]

    def test_descending_kwarg_group_detected(self):
        source = (
            "def p(table, env, xid) -> 'Generator[Event, Any, None]':\n"
            "    try:\n"
            "        yield from table.acquire('f', group=7, xid=xid)\n"
            "        yield from table.acquire('f', group=2, xid=xid)\n"
            "    finally:\n"
            "        table.release('f', group=2, xid=xid)\n"
            "        table.release('f', group=7, xid=xid)\n")
        findings = lint_text(source)
        assert [f.code for f in findings] == ["CSAR011"]
        assert findings[0].line == 4

    def test_literal_descending_pair_is_an_order_cycle(self):
        source = (
            "def p(table, env, xid) -> 'Generator[Event, Any, None]':\n"
            "    try:\n"
            "        yield from table.acquire('f', 5, xid)\n"
            "        yield from table.acquire('f', 3, xid)\n"
            "        yield env.timeout(1.0)\n"
            "    finally:\n"
            "        table.release('f', 3, xid)\n"
            "        table.release('f', 5, xid)\n")
        findings = lint_text(source, path="mod.py")
        assert [(f.line, f.code) for f in findings] == [(4, "CSAR011")]
        assert "group 3 acquired while group 5 is held" \
            in findings[0].message

    def test_helper_leak_in_one_source(self):
        # Each function is clean in isolation; the source is one program,
        # so the helper's lock-effect summary reaches its caller, which
        # releases the lease on one branch only.
        source = (
            "def take(table, xid) -> 'Generator[Event, Any, None]':\n"
            "    yield from table.acquire('f', 0, xid)"
            "  # csar-lint: disable=CSAR001\n"
            "\n"
            "def caller(table, env, xid, ok) -> "
            "'Generator[Event, Any, None]':\n"
            "    yield from take(table, xid)\n"
            "    yield env.timeout(1.0)\n"
            "    if ok:\n"
            "        table.release('f', 0, xid)\n")
        findings = lint_text(source, path="mod.py")
        assert [(f.line, f.code) for f in findings] == [(5, "CSAR010")]
        assert "mod.caller (mod.py:5) -> mod.take (mod.py:2)" \
            in findings[0].message

    def test_format_text_counts(self):
        text = lint.format_text(
            lint_text(LEAK.format(comment=""), path="mod.py"))
        assert "mod.py:2" in text
        assert "1 finding" in text
        assert lint.format_text([]) == ""


class TestCli:
    def test_lint_clean_tree_exits_zero(self, capsys, monkeypatch):
        from repro.cli import main

        # The one real `csar-repro lint src` of the suite: whole-program
        # by default, clean modulo the auto-applied committed baseline.
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "src"]) == 0
        assert "suppressed" in capsys.readouterr().out

    def test_lint_fixture_tree_exits_one(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "CSAR001" in out and "CSAR013" in out

    def test_lint_missing_path_exits_two(self, capsys):
        from repro.cli import main

        assert main(["lint", "no/such/path"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] \
            == list(all_codes())

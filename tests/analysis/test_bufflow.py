"""The bufflow provenance domain (repro.analysis.bufflow): tag
propagation through aliases/views/branches, buffer summaries over the
ip_fixtures, and the seeded-bug regression — the two buffer-discipline
bugs are provably invisible to CSAR001-012, and caught by
CSAR013/014/015 with full call chains.
"""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint
from repro.analysis.bufflow import (FROZEN_VIEW, PRIVATE_WRITABLE,
                                    SHARED_SCRATCH, buffer_summaries)
from repro.analysis.callgraph import module_name_of
from repro.analysis.summaries import Program

HERE = Path(__file__).resolve().parent
IP_FIXTURES = HERE / "ip_fixtures"
REPO_ROOT = HERE.parent.parent
SEEDED = REPO_ROOT / "src" / "repro" / "analysis" / "seeded_bugs.py"
CHAINS = module_name_of(str(IP_FIXTURES / "buffer_chains.py"))

OLD_CODES = frozenset(f"CSAR{n:03d}" for n in range(1, 13))
BUF_CODES = frozenset(("CSAR013", "CSAR014", "CSAR015"))


def lint_inline(tmp_path, source, **kwargs):
    """Lint a source string from a path the bufflow scope accepts."""
    pkg = tmp_path / "redundancy"
    pkg.mkdir(exist_ok=True)
    path = pkg / "mod.py"
    path.write_text(textwrap.dedent(source))
    return lint.lint_paths([str(path)], **kwargs)


class TestProvenancePropagation:
    """Tag flow the fixtures don't already pin down line-by-line."""

    def test_alias_copies_carry_the_view_tag(self, tmp_path):
        findings = lint_inline(tmp_path, '''
            def f(payload, x):
                a = payload.data
                b = a
                b[0] = x
        ''')
        assert [(f.line, f.code) for f in findings] == [(5, "CSAR013")]

    def test_ifexp_unions_both_branches(self, tmp_path):
        findings = lint_inline(tmp_path, '''
            import numpy as np
            def f(payload, cond, x):
                arr = payload.data if cond else np.zeros(8, dtype=np.uint8)
                arr += x
        ''')
        assert [(f.line, f.code) for f in findings] == [(5, "CSAR013")]

    def test_subscript_views_inherit_base_provenance(self, tmp_path):
        findings = lint_inline(tmp_path, '''
            def f(payload, x):
                arr = payload.data
                v = arr[0:10]
                v += x
        ''')
        assert [(f.line, f.code) for f in findings] == [(5, "CSAR013")]

    def test_iter_segments_loop_var_is_frozen(self, tmp_path):
        findings = lint_inline(tmp_path, '''
            def f(payload):
                for at, seg in payload.iter_segments():
                    seg[0] = 1
        ''')
        assert [(f.line, f.code) for f in findings] == [(4, "CSAR013")]

    def test_payload_ctor_freezes_its_private_argument(self, tmp_path):
        # Payload.__init__ freezes the array in place before capturing
        # it, so the raw name is safely shareable after the wrap — and
        # the int argument must not inherit a buffer tag.
        findings = lint_inline(tmp_path, '''
            import numpy as np
            class C:
                def f(self, n):
                    buf = np.zeros(n, dtype=np.uint8)
                    pay = Payload(n, buf)
                    self._cache = buf
                    n += 1
                    return pay, n
        ''')
        assert findings == []

    def test_private_copies_are_freely_mutable(self, tmp_path):
        findings = lint_inline(tmp_path, '''
            def f(payload, x):
                buf = payload._writable_copy()
                buf ^= x
                dup = payload.data.copy()
                dup[0] = x
        ''')
        assert findings == []

    def test_reassignment_clears_the_scratch_tag(self, tmp_path):
        findings = lint_inline(tmp_path, '''
            class C:
                def f(self, env):
                    buf = self._scratch
                    buf[0] = 1
                    buf = None
                    yield env.timeout(1.0)
        ''')
        assert findings == []

    def test_yield_from_counts_as_a_yield_point(self, tmp_path):
        findings = lint_inline(tmp_path, '''
            class C:
                def f(self, env, calls):
                    buf = self._scratch
                    yield from self._fan_out(env, calls)
                    return buf
        ''')
        assert [(f.line, f.code) for f in findings] == [(5, "CSAR015")]


@pytest.fixture(scope="module")
def summaries():
    program = Program.from_sources(
        {path: Path(path).read_text()
         for path in lint.iter_python_files([str(IP_FIXTURES)])})
    return buffer_summaries(program)


class TestBufferSummaries:
    def test_allocator_returns_private(self, summaries):
        s = summaries[f"{CHAINS}.PrivateEscapesThroughHelpers._alloc"]
        assert [r.tag for r in s.returns] == [PRIVATE_WRITABLE]

    def test_scratch_lease_returns_scratch(self, summaries):
        s = summaries[f"{CHAINS}.ScratchSpansThroughHelpers._lease"]
        assert [r.tag for r in s.returns] == [SHARED_SCRATCH]

    def test_xor_helper_mutates_its_parameter(self, summaries):
        s = summaries[f"{CHAINS}.FrozenFoldsThroughHelpers._xor_into"]
        assert [(e.param, e.op) for e in s.params] == [("dst", "mutate")]

    def test_soften_helper_thaws_its_parameter(self, summaries):
        s = summaries[f"{CHAINS}.FrozenFoldsThroughHelpers._soften"]
        assert [(e.param, e.op) for e in s.params] == [("arr", "thaw")]

    def test_keep_helper_retains_unfrozen(self, summaries):
        s = summaries[f"{CHAINS}.PrivateEscapesThroughHelpers._keep"]
        assert [(e.param, e.op, e.frozen) for e in s.params] \
            == [("arr", "retain", False)]

    def test_effect_chains_name_their_own_site(self, summaries):
        s = summaries[f"{CHAINS}.FrozenFoldsThroughHelpers._xor_into"]
        (effect,) = s.params
        qnames = [link[0] for link in effect.chain]
        assert qnames == [f"{CHAINS}.FrozenFoldsThroughHelpers._xor_into"]


def _seeded_class_span(name):
    tree = ast.parse(SEEDED.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node.lineno, node.end_lineno
    raise AssertionError(f"class {name} not found in seeded_bugs.py")


class TestSeededBugRegression:
    """ThawedViewRaid5 / ScratchLeakHybrid: the static half of the
    acceptance gate — invisible to every pre-existing rule, caught with
    chains by the bufflow rules."""

    @pytest.fixture(scope="class")
    def spans(self):
        return {name: _seeded_class_span(name)
                for name in ("ThawedViewRaid5", "ScratchLeakHybrid")}

    def _within(self, finding, span):
        return span[0] <= finding.line <= span[1]

    def test_old_rules_cannot_see_them_even_interprocedurally(
            self, spans, src_findings):
        hits = [f for f in src_findings
                if f.code in OLD_CODES and f.path.endswith("seeded_bugs.py")
                and any(self._within(f, span) for span in spans.values())]
        assert hits == []

    def test_bufflow_rules_catch_both_with_chains(self, spans,
                                                  src_findings):
        seeded = [f for f in src_findings if f.code in BUF_CODES
                  and f.path.endswith("seeded_bugs.py")]
        assert {f.code for f in seeded} == BUF_CODES

        thawed = [f for f in seeded
                  if self._within(f, spans["ThawedViewRaid5"])]
        assert {f.code for f in thawed} == {"CSAR013"}
        assert any("_fold_parity" in f.message and "_thaw" in f.message
                   for f in thawed)

        leak = [f for f in seeded
                if self._within(f, spans["ScratchLeakHybrid"])]
        assert {f.code for f in leak} == {"CSAR014", "CSAR015"}
        scratch = next(f for f in leak if f.code == "CSAR015")
        assert "_mirror_copy" in scratch.message
        assert "_fold_buffer" in scratch.message
        for finding in thawed + leak:
            assert "->" in finding.message  # the witness call chain

    def test_every_seeded_finding_is_baselined(self, src_findings):
        baseline = lint.load_baseline(
            str(REPO_ROOT / "tools" / "lint_baseline.json"))
        new, suppressed = lint.apply_baseline(list(src_findings), baseline)
        assert new == []
        assert suppressed >= 4  # the two buffer bugs' four findings

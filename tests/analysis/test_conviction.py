"""The conviction matrix: which detector convicts which seeded bug.

One cell per pair of seeded bug (:mod:`repro.analysis.seeded_bugs`) and
detector, each ``convicts`` or ``blind``.  The detectors are:

* every registered ``csar-lint`` rule, from one lint of
  ``seeded_bugs.py`` with each finding attributed to its enclosing
  class;
* ``engine``: the bug's explorer scenario raises (a deadlock is the
  engine's :class:`~repro.errors.SimulationError`) with no sanitizer
  attached;
* ``locksan`` / ``bufsan`` / ``paritysan``: that sanitizer alone
  reports during the bug's explorer scenario;
* ``crash-matrix``: one crash-matrix cell of the bug's scheme ends in
  the ``differential`` oracle's verdict.  The cell runs under all three
  sanitizers and attributes an exception, then a sanitizer report,
  before the oracle, so ``differential`` means nothing else fired.

``CompensatingWritebackRaid5`` has no explorer scenario: only a crash
inside the read-modify-write window reaches it.

The matrix is committed as ``docs/results/conviction.json`` and rendered
into ``docs/ANALYSIS.md``; a change that makes a detector gain or lose a
bug fails here.  Re-record both with

    PYTHONPATH=src python tests/analysis/test_conviction.py --record
"""

import ast
import json
import sys
from pathlib import Path

import pytest

from repro.analysis import lint, sanitizer_scope, seeded_bugs
from repro.analysis.explore import SCENARIOS, SEEDED_BUGS
from repro.analysis.rules import all_codes
from repro.errors import ReproError
from repro.faults.matrix import run_cell

REPO_ROOT = Path(__file__).resolve().parents[2]
SEEDED = Path("src") / "repro" / "analysis" / "seeded_bugs.py"
RECORD = REPO_ROOT / "docs" / "results" / "conviction.json"
ANALYSIS_MD = REPO_ROOT / "docs" / "ANALYSIS.md"
BEGIN = "<!-- conviction matrix: rendered from docs/results/conviction.json -->"
END = "<!-- end conviction matrix -->"

BUGS = ("DropReleaseRaid5", "HelperReleaseRaid5", "DescendingLockRaid5",
        "InPlaceOverflowHybrid", "ThawedViewRaid5", "ScratchLeakHybrid",
        "CompensatingWritebackRaid5")
SANITIZERS = ("locksan", "bufsan", "paritysan")
DYNAMIC = ("engine",) + SANITIZERS + ("crash-matrix",)
#: the crash-matrix cell per impersonated scheme: a crash of server 0
#: inside the first RAID5 read-modify-write / Hybrid overflow write
CRASH_CELLS = {"raid5": ("raid5.rmw.before_writeback", 1, 0),
               "hybrid": ("hybrid.overflow.before_write", 1, 0)}
#: the bugs a static rule must keep convicting
STATICALLY_CONVICTED = ("HelperReleaseRaid5", "DescendingLockRaid5",
                        "ThawedViewRaid5", "ScratchLeakHybrid")

# The seeded bugs trip every sanitizer on purpose.
pytestmark = [pytest.mark.locksan_expected, pytest.mark.bufsan_expected,
              pytest.mark.paritysan_expected]


def static_convictions():
    """``{bug: {rule codes with a finding inside the bug's class}}``."""
    tree = ast.parse((REPO_ROOT / SEEDED).read_text())
    spans = {node.name: (node.lineno, node.end_lineno)
             for node in tree.body if isinstance(node, ast.ClassDef)}
    out = {bug: set() for bug in BUGS}
    for finding in lint.lint_paths([str(REPO_ROOT / SEEDED)]):
        (owner,) = [name for name, (lo, hi) in spans.items()
                    if lo <= finding.line <= hi]
        out[owner].add(finding.code)
    return out


def _scenario_run(bug):
    """One default-schedule run of ``bug``'s explorer scenario under
    each sanitizer alone: ``{detector: convicted}``."""
    (name,) = [row[0] for row in SEEDED_BUGS if row[2] is bug]
    convicted = {}
    for mode, detector in ((None, "engine"), ("lock", "locksan"),
                           ("buf", "bufsan"), ("parity", "paritysan")):
        with sanitizer_scope([mode] if mode else []) as drain:
            try:
                SCENARIOS[name].run()
                raised = False
            except (ReproError, AssertionError):
                raised = True
            reports = drain()
        convicted[detector] = raised if mode is None else bool(reports)
    return convicted


def dynamic_convictions():
    """``{bug: {dynamic detectors that convict it}}``."""
    out = {}
    for bug in BUGS:
        cls = getattr(seeded_bugs, bug)
        with_scenario = any(row[2] is cls for row in SEEDED_BUGS)
        convicted = (_scenario_run(cls) if with_scenario
                     else dict.fromkeys(("engine",) + SANITIZERS, False))
        cell = run_cell(cls.name, *CRASH_CELLS[cls.name], make_scheme=cls)
        convicted["crash-matrix"] = cell.failure_kind == "differential"
        out[bug] = {d for d, hit in convicted.items() if hit}
    return out


def compute_matrix():
    detectors = list(all_codes()) + list(DYNAMIC)
    static, dynamic = static_convictions(), dynamic_convictions()
    return {"detectors": detectors,
            "bugs": {bug: {d: "convicts" if d in static[bug] | dynamic[bug]
                           else "blind" for d in detectors}
                     for bug in BUGS}}


def render(matrix) -> str:
    """The markdown table docs/ANALYSIS.md carries."""
    detectors = matrix["detectors"]
    lines = ["| seeded bug | " + " | ".join(detectors) + " |",
             "|---|" + "---|" * len(detectors)]
    for bug, cells in matrix["bugs"].items():
        lines.append(f"| `{bug}` | " + " | ".join(
            "**convicts**" if cells[d] == "convicts" else "blind"
            for d in detectors) + " |")
    return "\n".join(lines)


def split_analysis_md(text: str):
    """``(before, table, after)`` around the rendered block."""
    head, found, rest = text.partition(BEGIN + "\n")
    assert found, f"{ANALYSIS_MD.name} has no conviction-matrix block"
    table, found, tail = rest.partition(END)
    assert found, f"{ANALYSIS_MD.name}'s conviction-matrix block is open"
    return head + BEGIN + "\n", table.rstrip("\n"), END + tail


@pytest.fixture(scope="module")
def matrix():
    return compute_matrix()


def test_matrix_matches_the_committed_record(matrix):
    assert matrix == json.loads(RECORD.read_text())


def test_every_seeded_bug_has_a_dynamic_conviction(matrix):
    blind = [bug for bug, cells in matrix["bugs"].items()
             if not any(cells[d] == "convicts" for d in DYNAMIC)]
    assert blind == []


def test_the_static_convictions_survive(matrix):
    blind = [bug for bug in STATICALLY_CONVICTED
             if not any(matrix["bugs"][bug][code] == "convicts"
                        for code in all_codes())]
    assert blind == []


def test_a_lock_order_inversion_is_convicted_statically_and_dynamically(
        matrix):
    # The descending-group acquisition is the one bug both the static
    # order graph and the runtime lock ledger see.
    cells = matrix["bugs"]["DescendingLockRaid5"]
    assert (cells["CSAR011"], cells["locksan"]) == ("convicts", "convicts")


def test_analysis_md_renders_the_record():
    _, table, _ = split_analysis_md(ANALYSIS_MD.read_text())
    assert table == render(json.loads(RECORD.read_text()))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    computed = compute_matrix()
    RECORD.write_text(json.dumps(computed, indent=1) + "\n")
    head, _, tail = split_analysis_md(ANALYSIS_MD.read_text())
    ANALYSIS_MD.write_text(head + render(computed) + "\n" + tail)

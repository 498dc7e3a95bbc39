"""``tools/mutants.py``'s catalogue still applies, and its record is
current: one row per mutant, rendered into docs/ANALYSIS.md.

Judging the mutants runs tier-1 once per mutant, so it is not a test;
re-record with ``python tools/mutants.py --record``.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mutants = load_mutants()


def test_every_mutant_matches_exactly_one_node():
    assert mutants.check() == []


def test_the_catalogue_covers_every_bug_class():
    assert {m.kind for m in mutants.CATALOGUE} == set(mutants.KINDS)
    assert len(mutants.CATALOGUE) >= 20


def test_the_record_has_one_row_per_mutant():
    rows = json.loads(mutants.RECORD.read_text())["mutants"]
    assert [{k: v for k, v in row.items() if k != "kills"}
            for row in rows] == [m._asdict() for m in mutants.CATALOGUE]


def test_analysis_md_renders_the_record():
    _, table, _ = mutants.split_analysis_md(mutants.ANALYSIS_MD.read_text())
    assert table == mutants.render(json.loads(mutants.RECORD.read_text()))

"""``tools/pairs.py`` refuses a comparison its numbers cannot support."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_pairs():
    spec = importlib.util.spec_from_file_location(
        "pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trees_of_unequal_path_length_are_refused(tmp_path, monkeypatch,
                                                  capsys):
    pairs = load_pairs()

    def run_once(*_args):
        raise AssertionError("a run started")

    monkeypatch.setattr(pairs, "run_once", run_once)
    (tmp_path / "par").mkdir()
    (tmp_path / "change").mkdir()
    with pytest.raises(SystemExit) as exit_:
        pairs.main([str(tmp_path / "par"), str(tmp_path / "change"),
                    "--workload", "degraded_rebuild", "--pairs", "1",
                    "--out", str(tmp_path / "runs.jsonl")])
    assert exit_.value.code == 2
    assert "differ in length" in capsys.readouterr().err
    assert not (tmp_path / "runs.jsonl").exists()

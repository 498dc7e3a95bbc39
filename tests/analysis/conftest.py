"""One lint of ``src`` per pass and session, shared by every test that
only reads its findings (``test_lint.py``'s CLI test keeps the one real
``csar-repro lint src`` run)."""

import os
from pathlib import Path

import pytest

from repro.analysis import lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def _lint_src(interprocedural):
    # From the repository root, so paths read "src/..." as the committed
    # baseline records them.
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        return tuple(lint.lint_paths(["src"],
                                     interprocedural=interprocedural))
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="session")
def src_findings():
    """The whole-program pass over ``src``, no baseline applied."""
    return _lint_src(True)


@pytest.fixture(scope="session")
def src_findings_intra():
    return _lint_src(False)


@pytest.fixture
def lint_src_stub(monkeypatch, src_findings, src_findings_intra):
    """Make ``lint_paths(["src"])`` answer from the session's findings, so
    a CLI test checks flags, baseline and exit code without linting again;
    returns the list of ``interprocedural`` values it was called with."""
    calls = []

    def fake(paths, enable=None, interprocedural=False, witnesses=None):
        assert list(paths) == ["src"]
        calls.append(interprocedural)
        return list(src_findings if interprocedural else src_findings_intra)

    monkeypatch.setattr(lint, "lint_paths", fake)
    return calls

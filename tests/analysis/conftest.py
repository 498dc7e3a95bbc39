"""One lint of ``src`` per session, shared by every test that only reads
its findings (``test_lint.py``'s CLI test keeps the one real
``csar-repro lint src`` run)."""

import os
from pathlib import Path

import pytest

from repro.analysis import lint

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def src_findings():
    """The lint of ``src``, no baseline applied.  Run from the repository
    root, so paths read "src/..." as the committed baseline records
    them."""
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        return tuple(lint.lint_paths(["src"]))
    finally:
        os.chdir(cwd)


@pytest.fixture
def lint_src_stub(monkeypatch, src_findings):
    """Make ``lint_paths(["src"])`` answer from the session's findings, so
    a CLI test checks flags, baseline and exit code without linting again;
    returns the list of ``witnesses`` values it was called with."""
    calls = []

    def fake(paths, witnesses=None):
        assert list(paths) == ["src"]
        calls.append(witnesses)
        return list(src_findings)

    monkeypatch.setattr(lint, "lint_paths", fake)
    return calls

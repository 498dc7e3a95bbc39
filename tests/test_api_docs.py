"""The checked-in API reference must match the code."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_api_docs_are_current():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gen_api_docs.py"),
         "--check"],
        capture_output=True, text=True, cwd=ROOT)
    assert result.returncode == 0, result.stdout + result.stderr


def test_api_docs_cover_the_public_surface():
    text = (ROOT / "docs" / "API.md").read_text()
    for symbol in ("class System", "class CSARConfig", "class Payload",
                   "class OverflowTable", "class ParityLockTable",
                   "class MPIFile", "def rebuild_server",
                   "def online_scrub", "def reclaim_file",
                   "class LockSan", "def sanitizer_scope",
                   "def attach"):
        assert symbol in text, f"{symbol} missing from docs/API.md"
    from repro.probes import PROBES

    for name, doc in PROBES.items():
        assert f"| `{name}` | {doc} |" in text, \
            f"probe {name} missing from docs/API.md"

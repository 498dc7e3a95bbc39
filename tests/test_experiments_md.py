"""The checked-in EXPERIMENTS.md must be what the generator renders from
the claims registry and the committed ledger."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_experiments_md_is_current():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gen_experiments_md.py"),
         "--check"],
        capture_output=True, text=True, cwd=ROOT)
    assert result.returncode == 0, result.stdout + result.stderr
    assert (ROOT / "EXPERIMENTS.md").read_text().startswith("<!-- Generated")

#!/usr/bin/env python3
"""Record which functions of ``src/repro`` run: the per-function census.

Run from the repository root::

    PYTHONPATH=src python tools/census.py          # re-record tools/census.json
    PYTHONPATH=src python tools/census.py --check  # exit 1 if it differs

Every root below runs in this process under a trace hook that notes the
code object of each Python frame as it starts (a call, or a generator
resuming).  A ``def`` of ``src/repro`` is *reached* when its code ran
at least once; ``tools/census.json`` keeps those as sorted
``module:qualname`` strings (``outer.<locals>.inner`` for a nested
function, as ``co_qualname`` spells it).  ``tests/test_census.py``
asserts that every other ``def`` is owned, with a reason.

The roots are what runs outside the tier-1 suite:

* every command ``.github/workflows/ci.yml`` runs except tier-1
  ``pytest tests/`` and the mutant step (which runs a copy of the
  tree): the examples, ``pytest benchmarks/``, the ParitySan row's
  ``run ... --sanitize=all``, the three ``chaos`` runs, ``pytest
  bench/``, ``bench/negative_control.py`` and ``bench/run.py``'s five
  workloads;
* ``report --ledger``.

``python tools/schedule.py --check`` (the ``bench-smoke`` job) is not a
root: its sections are the tier-1 golden scenarios, ``run_chaos`` and
crash-matrix runs and the bench workloads, all of which the census and
tier-1 already cover.

The hook is ``sys.settrace``, not ``sys.setprofile``: ``bench/run.py
--trace`` and the benchmark's smoke tests run cProfile, which takes the
profile slot and would blind a census that shared it.  Needs Python
3.11 or later (``co_qualname``).
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import runpy
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "tools" / "census.json"
for _path in (str(ROOT), str(SRC)):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def _cli(*argv: str) -> Callable[[str], int]:
    def run(tmp: str) -> int:
        from repro.cli import main

        return main([arg.format(tmp=tmp) for arg in argv])
    return run


def _pytest(path: str) -> Callable[[str], int]:
    def run(tmp: str) -> int:
        import pytest

        return int(pytest.main([path, "-q", "-p", "no:cacheprovider"]))
    return run


def _examples(tmp: str) -> int:
    argv = sys.argv
    try:
        for example in sorted((ROOT / "examples").glob("*.py")):
            sys.argv = [str(example)]  # as CI runs it: no arguments
            runpy.run_path(str(example), run_name="__main__")
    finally:
        sys.argv = argv
    return 0


def _negative_control(tmp: str) -> int:
    from bench import negative_control

    return negative_control.main()


def _bench_workloads(tmp: str) -> int:
    from bench import run

    status = 0
    for workload in run.load_spec()["workloads"]:
        status = status or run.main(["--workload", workload["name"],
                                     "--seconds", "0"])
    return status


#: (name, body) in the order ci.yml runs them; a body returns 0 when
#: the root succeeded as CI requires
ROOTS = [
    ("examples", _examples),
    ("pytest benchmarks/", _pytest("benchmarks/")),
    ("run ... --sanitize=all", _cli("run", "ext-recovery", "ext-scrub",
                                    "--scale", "0.05", "--sanitize=all")),
    ("chaos --smoke", _cli("chaos", "--smoke")),
    ("chaos --matrix", _cli("chaos", "--matrix")),
    ("chaos --seeds 0:8", _cli("chaos", "--seeds", "0:8", "--plan-dir",
                               "{tmp}/chaos-plans")),
    ("pytest bench/", _pytest("bench/")),
    ("bench/negative_control.py", _negative_control),
    ("bench/run.py workloads", _bench_workloads),
    ("report --ledger", _cli("report", "--ledger", "{tmp}/ledger.json")),
]


def _name(code) -> str:
    """``module:qualname`` of a code object under ``src/``."""
    rel = Path(code.co_filename).resolve().relative_to(SRC)
    parts = rel.with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return f"{'.'.join(parts)}:{code.co_qualname}"


def _is_def(code) -> bool:
    """A ``def``'s code: not a module or class body, lambda or
    comprehension, and in a file under ``src/repro``."""
    return (code.co_flags & inspect.CO_NEWLOCALS
            and not code.co_name.startswith("<")
            and Path(code.co_filename).resolve().is_relative_to(
                SRC / "repro"))


def record() -> List[str]:
    """Run every root under the trace hook; the reached defs, sorted."""
    seen: Dict[int, object] = {}

    def hook(frame, event, arg):
        code = frame.f_code
        if id(code) not in seen:
            seen[id(code)] = code  # kept alive, so the id stays unique

    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        for name, body in ROOTS:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                sys.settrace(hook)
                try:
                    status = body(tmp)
                finally:
                    hijacked = sys.gettrace() is not hook
                    sys.settrace(None)
            if hijacked:
                raise SystemExit(f"census: {name} replaced the trace hook")
            if status:
                raise SystemExit(f"census: {name} failed (status {status})")
            print(f"{name}: {time.perf_counter() - t0:.1f} s",
                  file=sys.stderr)
    return sorted({_name(code) for code in seen.values() if _is_def(code)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="re-record and exit 1 if the result differs "
                             "from the committed tools/census.json")
    args = parser.parse_args(argv)
    reached = record()
    if args.check:
        committed = set(json.loads(OUT.read_text())["reached"])
        now = set(reached)
        for name in sorted(now - committed):
            print(f"+ {name}  (reached now, not in {OUT.name})")
        for name in sorted(committed - now):
            print(f"- {name}  (in {OUT.name}, not reached now)")
        if now != committed:
            print(f"{OUT.name} is stale; re-record with "
                  "PYTHONPATH=src python tools/census.py")
            return 1
        print(f"{OUT.name} is current: {len(now)} reached defs")
        return 0
    OUT.write_text(json.dumps({"reached": reached}, indent=1) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)} ({len(reached)} reached defs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

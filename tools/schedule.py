#!/usr/bin/env python3
"""The schedule manifest, ``docs/results/schedule.json``: ``--check``
exits 1 naming each moved ``section/key: old -> new``, ``--record``
rewrites it.  ``golden`` holds the ``tests/test_golden_bitidentity.py``
scenarios as values (a diff names what moved), ``chaos`` the
``run_chaos`` digests of seeds 0-63, ``matrix`` each crash cell's
verdict and digest, ``bench`` per workload at seeds 1 and 7 a traced
``bench/run.py`` run's ``sim_digest`` and counts per op, recorded under
Python 3.11 (CI's; payload calls are Python calls).  A failed bench run,
or any exception, records nothing.
"""

import json
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "docs" / "results" / "schedule.json"
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from repro.faults.matrix import crash_matrix  # noqa: E402
from repro.faults.runner import CHAOS_SCHEMES, run_chaos  # noqa: E402
from tests.test_golden_bitidentity import SCENARIOS  # noqa: E402

BENCH_METRICS = ("sim.events_per_op", "pvfs.rpcs_per_op",
                 "storage.payload_calls_per_op")


def golden() -> dict:
    return {name: SCENARIOS[name]() for name in sorted(SCENARIOS)}


def chaos(seeds=range(64)) -> dict:
    return {str(seed): {scheme: run_chaos(seed, scheme).digest
                        for scheme in CHAOS_SCHEMES} for seed in seeds}


def matrix() -> dict:
    return {f"{scheme} {step}#{nth} victim={victim}":
            {"verdict": "ok" if o.ok else o.failure_kind, "digest": o.digest}
            for scheme in ("raid5", "hybrid")
            for step, nth, victim, o in crash_matrix(scheme)}


def bench() -> dict:
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    out: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "result.json"
        for workload, seed in product([w["name"] for w in workloads], "17"):
            code = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload,
                 "--seed", seed, "--seconds", "0", "--trace", "1",
                 "--result-file", str(path)],
                cwd=ROOT, stdout=subprocess.DEVNULL).returncode
            if code:
                raise SystemExit(f"bench {workload} seed {seed} failed "
                                 f"(exit {code}); nothing recorded")
            result = json.loads(path.read_text())
            out.setdefault(workload, {})[seed] = {
                "sim_digest": result["sim_digest"],
                **{m: result["metrics"][m] for m in BENCH_METRICS}}
    return out


def flatten(tree, prefix: str = "") -> dict:
    """``{"a/b/c": leaf}`` for a nested dict; an empty dict is a leaf."""
    if not isinstance(tree, dict) or not tree:
        return {prefix: tree}
    return {path: leaf for key, value in tree.items() for path, leaf
            in flatten(value, f"{prefix}/{key}".lstrip("/")).items()}


def diff(old: dict, new: dict) -> list:
    """One ``section/key: old -> new`` line per entry that differs."""
    old, new = flatten(old), flatten(new)
    return [f"{k}: {old.get(k, '(missing)')} -> {new.get(k, '(missing)')}"
            for k in sorted(old.keys() | new.keys())
            if old.get(k, ...) != new.get(k, ...)]


def main(argv) -> int:
    if argv not in (["--record"], ["--check"]):
        print("usage: tools/schedule.py --record|--check", file=sys.stderr)
        return 2
    now = json.loads(json.dumps({"golden": golden(), "chaos": chaos(),
                                 "matrix": matrix(), "bench": bench()}))
    if argv == ["--record"]:
        MANIFEST.write_text(json.dumps(now, indent=1, sort_keys=True) + "\n")
        return 0
    moved = diff(json.loads(MANIFEST.read_text()), now)
    print("\n".join(moved or [f"{MANIFEST.name} is current"]))
    return int(bool(moved))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

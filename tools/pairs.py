"""Alternating parent/change pairs of one benchmark workload.

Usage::

    python tools/pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N \\
        [--seed S] [--seconds T] [--out FILE]
    python tools/pairs.py --summarize FILE

Each pair runs ``bench/run.py --workload W`` once from each tree (a
checkout of the parent commit and one of the change), the parent first
in odd pairs and the change first in even ones, so a drift of the
machine's speed over the session hits both sides alike.  Every run is
appended to ``FILE`` as one JSON line (default
``pairs-W-seedS.jsonl``), and the summary is printed at the end: for
each side the median and quartiles of the four end-to-end metrics, the
change's wins (lower is better; a tie counts for neither side), the
median of the per-pair ratios change/parent, and whether the change won
at least 9 of 10 pairs with a median gap wider than the parent's
interquartile range.  ``--summarize`` prints the summary of an existing
file without running anything.

Give both trees paths of equal length: ``peak_rss_mb`` depends on it
(see ``bench/harness.py::pin_malloc_mmap_threshold``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from statistics import median, quantiles
from typing import Dict, List, Optional

METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
SIDES = ("parent", "change")


def run_once(tree: str, workload: str, seed: int,
             seconds: Optional[float]) -> dict:
    """One ``bench/run.py`` run from ``tree``: its last stdout line."""
    command = [sys.executable, "bench/run.py", "--workload", workload,
               "--seed", str(seed)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{tree}: bench/run.py exited {done.returncode} "
                         f"without a result\n{done.stderr}") from None


def run_pairs(trees: Dict[str, str], workload: str, pairs: int, seed: int,
              seconds: Optional[float], out: str) -> None:
    for pair in range(1, pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            result = run_once(trees[side], workload, seed, seconds)
            record = {"side": side, "pair": pair, "workload": workload,
                      "seed": seed, "first": side == order[0],
                      "result": result}
            with open(out, "a", encoding="utf-8") as fp:
                fp.write(json.dumps(record) + "\n")
            wall = result["metrics"]["wall_s"]["value"]
            print(f"pair {pair}/{pairs} {side:<6} wall_s {wall:.4f}",
                  flush=True)


def _quartiles(values: List[float]) -> List[float]:
    if len(values) == 1:
        return values * 3
    return quantiles(values, n=4, method="inclusive")


def summarize(path: str) -> str:
    """The summary table of a pairs file, one block per workload/seed."""
    runs: Dict[tuple, Dict[int, Dict[str, dict]]] = {}
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            record = json.loads(line)
            key = (record["workload"], record["seed"])
            runs.setdefault(key, {}).setdefault(
                record["pair"], {})[record["side"]] = record["result"]
    out: List[str] = []
    for (workload, seed), by_pair in sorted(runs.items()):
        pairs = [p for _n, p in sorted(by_pair.items()) if len(p) == 2]
        need = math.ceil(0.9 * len(pairs))
        out.append(f"## {workload}, seed {seed}: {len(pairs)} pairs")
        out.append("| metric | parent median [q1, q3] | change median "
                   "[q1, q3] | move | change wins | pair ratio "
                   "| parent IQR | gain (wins ≥ 9/10, gap > IQR) |")
        out.append("|---|---|---|---|---|---|---|---|")
        for metric in METRICS:
            value = {s: [p[s]["metrics"][metric]["value"] for p in pairs]
                     for s in SIDES}
            pq, cq = _quartiles(value["parent"]), _quartiles(value["change"])
            wins = sum(c < p for p, c in zip(value["parent"],
                                             value["change"]))
            ratio = median(c / p for p, c in zip(value["parent"],
                                                 value["change"]))
            iqr = pq[2] - pq[0]
            gain = wins >= need and pq[1] - cq[1] > iqr
            move = (f"{100 * (cq[1] / pq[1] - 1):+.1f}%" if pq[1]
                    else "n/a")
            out.append(f"| `{metric}` | {pq[1]:.4g} [{pq[0]:.4g}, "
                       f"{pq[2]:.4g}] | {cq[1]:.4g} [{cq[0]:.4g}, "
                       f"{cq[2]:.4g}] | {move} | {wins}/{len(pairs)} "
                       f"| {ratio:.3f} | {iqr:.3g} "
                       f"| {'yes' if gain else 'no'} |")
        failed = {s: sum(p[s]["failed"] for p in pairs) for s in SIDES}
        correct = all(p[s]["correct"] for p in pairs for s in SIDES)
        out.append(f"failed ops: parent {failed['parent']}, change "
                   f"{failed['change']}; every run correct: {correct}")
        out.append("")
    return "\n".join(out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", metavar="TREE",
                        help="PARENT_TREE CHANGE_TREE")
    parser.add_argument("--workload", help="the bench/run.py workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="bench/run.py --seconds (default: its own)")
    parser.add_argument("--out", help="the JSONL file runs are appended to")
    parser.add_argument("--summarize", metavar="FILE",
                        help="only print the summary of FILE")
    args = parser.parse_args(argv)
    if args.summarize:
        print(summarize(args.summarize))
        return 0
    if len(args.trees) != 2 or not args.workload or args.pairs < 1:
        parser.error("need PARENT_TREE CHANGE_TREE, --workload and "
                     "--pairs >= 1")
    trees = dict(zip(SIDES, map(os.path.abspath, args.trees)))
    out = args.out or f"pairs-{args.workload}-seed{args.seed}.jsonl"
    run_pairs(trees, args.workload, args.pairs, args.seed, args.seconds,
              out)
    print(summarize(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

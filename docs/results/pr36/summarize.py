"""Print the pairs table of README.md from pairs.json.

Usage: python3 docs/results/pr36/summarize.py [docs/results/pr36/pairs.json]

Per workload, seed and end-to-end metric: each side's median and
quartiles, the change's wins (lower is better; ties count for neither
side), the parent's IQR, and whether the medians differ by more than it.
"""
import json
import os
import statistics
import sys

METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(path):
    with open(path, encoding="utf-8") as fp:
        data = json.load(fp)
    print("| workload | seed (set) | metric | parent median [q1, q3] "
          "| change median [q1, q3] | move | change wins | parent IQR "
          "| median gap > IQR |")
    print("|---|---|---|---|---|---|---|---|---|")
    pooled = {}
    for entry in data["sets"]:
        pooled.setdefault((entry["workload"], entry["seed"]), []).extend(
            entry["pairs"])
    rows = [(e["workload"], e["seed"], e["note"], e["pairs"])
            for e in data["sets"]]
    rows += [(w, seed, "all rounds pooled", pairs)
             for (w, seed), pairs in pooled.items()
             if sum(e["workload"] == w and e["seed"] == seed
                    for e in data["sets"]) > 1]
    for workload, seed, note, pairs in rows:
        for metric in METRICS:
            side = {s: [p[s]["metrics"][metric]["value"] for p in pairs]
                    for s in ("parent", "change")}
            pq, cq = quartiles(side["parent"]), quartiles(side["change"])
            wins = sum(c < p for p, c in zip(side["parent"], side["change"]))
            iqr = pq[2] - pq[0]
            gap = pq[1] - cq[1]
            print(f"| `{workload}` | {seed} ({note}) | `{metric}` "
                  f"| {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}] "
                  f"| {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] "
                  f"| {100 * (cq[1] / pq[1] - 1):+.1f}% "
                  f"| {wins}/{len(pairs)} | {iqr:.3g} "
                  f"| {'yes' if gap > iqr else 'no'} |")
        failed = sum(p[s]["failed"] for p in pairs for s in ("parent", "change"))
        correct = all(p[s]["correct"] for p in pairs for s in ("parent", "change"))
        print(f"<!-- {workload} seed {seed} ({note}): "
              f"{failed} failed ops, all correct: {correct} -->")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1
         else os.path.join(os.path.dirname(__file__), "pairs.json"))

"""Compare two results files: ``python3 bench/compare.py A.json B.json``.

``A`` is the parent commit, ``B`` the change; both come from
``bench/run.py`` without ``--workload``, on the same seed.  Per workload
and end-to-end metric this prints the parent's value, the change, the
ratio with its base, and a verdict that uses only the bounds in
``BENCHMARK.json``:

* ``worse`` / ``better`` -- the median moved by more than the bound;
* ``within-bound`` -- it did not;
* ``unresolved`` -- the spread between the repeats of either side is
  wider than the bound, and the two sides' repeats overlap.

Simulated statistics and counts are exact for a fixed seed, so any
difference in one of them, or in ``sim_digest``, is reported as "model
changed": a change meant only to speed the simulator up must not print
it.  Exit status is 1 when anything is ``worse`` or the model changed.
"""

from __future__ import annotations

import json
import os
import sys
from statistics import median, quantiles
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_HOST_TIME_PREFIXES = ("host_self_s.", "phase_host_s.")
_HOST_TIME_NAMES = frozenset((
    "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "trace_overhead_ratio",
    "sim.host_us_per_event", "redundancy.rebuild_mb_per_host_s"))


def is_host_time(name: str) -> bool:
    """Host-time metrics vary run to run; every other metric is exact."""
    return name in _HOST_TIME_NAMES or name.startswith(_HOST_TIME_PREFIXES)


def _spread(samples: List[float]) -> float:
    if len(samples) < 2:
        return 0.0
    q1, _q2, q3 = quantiles(samples, n=4)
    return (q3 - q1) / median(samples)


def verdict(a: float, b: float, a_samples: List[float],
            b_samples: List[float], lower_is_better: bool,
            bound: float) -> str:
    worse_by = (b - a) / a if lower_is_better else (a - b) / a
    if max(_spread(a_samples), _spread(b_samples)) > bound:
        # still a gain if every repeat of B reads better than every one of A
        if lower_is_better:
            clear = max(b_samples) < min(a_samples)
        else:
            clear = min(b_samples) > max(a_samples)
        return "better" if clear else "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within-bound"


def compare(a_path: str, b_path: str, out=sys.stdout) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    with open(a_path, encoding="utf-8") as fp:
        a_file = json.load(fp)
    with open(b_path, encoding="utf-8") as fp:
        b_file = json.load(fp)
    status = 0
    print(f"A (parent) {a_path}\nB (change) {b_path}", file=out)
    for key, a in a_file["results"].items():
        b: Optional[dict] = b_file["results"].get(key)
        if b is None:
            print(f"\n== {key}: missing from B ==", file=out)
            status = 1
            continue
        print(f"\n== {key} ==", file=out)
        if a["input_digest"] != b["input_digest"]:
            print("  the two runs had different inputs (another seed or "
                  "another workload definition): not comparable", file=out)
            status = 1
            continue
        if not a["trace"]:
            for m in spec["end_to_end"]:
                name = m["name"]
                va, vb = a["metrics"][name], b["metrics"][name]
                word = verdict(va, vb, a["samples"].get(name, []),
                               b["samples"].get(name, []),
                               m["better"] == "lower", m["bound"])
                status |= word == "worse"
                print(f"  {name:<14} A {va:.6g} {m['unit']}  change "
                      f"{vb - va:+.6g}  B/A {vb / va:.4f} (base {va:.6g})  "
                      f"bound {m['bound']:.0%}  {word}", file=out)
            share_a = a["failed"] / a["attempted"]
            share_b = b["failed"] / b["attempted"]
            word = "worse" if share_b > share_a else "within-bound"
            status |= word == "worse"
            print(f"  {'op_fail_share':<14} A {share_a:.6g}  change "
                  f"{share_b - share_a:+.6g}  bound 0%  {word}", file=out)
        changed = [name for name in sorted(a["metrics"])
                   if not is_host_time(name)
                   and a["metrics"][name] != b["metrics"].get(name)]
        if a["sim_digest"] != b["sim_digest"] or changed:
            status = 1
            print("  model changed: sim_digest "
                  f"{a['sim_digest'][:12]} -> {b['sim_digest'][:12]}",
                  file=out)
            for name in changed:
                print(f"    {name}: {a['metrics'][name]} -> "
                      f"{b['metrics'].get(name)}", file=out)
    return status


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[0])
    sys.exit(compare(sys.argv[1], sys.argv[2]))

"""``csar-repro report``: measure every claim of ``claims.py``.

One ledger — ``{"experiments": tables, "claims": measured values}`` — is
built by running each experiment once; the printed verdicts, the
committed ``docs/results/experiments.json`` (``--ledger``) and
``--diff`` between two such files are all views of it.  The ledger holds
simulated numbers only (no wall times, no table notes), so writing it
twice gives the same bytes.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.base import REGISTRY, ExpTable, get_experiment
from repro.experiments.claims import CLAIMS, Claim

Ledger = Dict[str, Dict[str, dict]]


def _finite(bound: float) -> Optional[float]:
    return bound if math.isfinite(bound) else None


def build_ledger(claims: Sequence[Claim], scale: Optional[float] = None,
                 also: Iterable[str] = ()) -> Ledger:
    """Run every claim's experiment (and those in ``also``) once each, at
    its default scale unless ``scale`` is given, and measure the claims."""
    tables: Dict[str, ExpTable] = {}
    ledger: Ledger = {"experiments": {}, "claims": {}}
    for exp_id in [c.experiment for c in claims] + sorted(also):
        if exp_id in tables:
            continue
        exp = get_experiment(exp_id)
        used = exp.default_scale if scale is None else scale
        table = tables[exp_id] = exp.run(scale=used)
        ledger["experiments"][exp_id] = {
            "title": table.title, "scale": used,
            "headers": table.headers, "rows": table.rows}
    for claim in claims:
        value = claim.value(tables[claim.experiment])
        ledger["claims"][claim.id] = {
            "experiment": claim.experiment, "measured": value,
            "lo": _finite(claim.lo), "hi": _finite(claim.hi),
            "status": claim.status, "verdict": claim.verdict(value)}
    return ledger


def load_ledger(path: str) -> Ledger:
    with open(path) as fp:
        return json.load(fp)


def _moved(old: object, new: object) -> bool:
    if isinstance(old, float) and isinstance(new, float):
        return not math.isclose(old, new, rel_tol=1e-9, abs_tol=0.0)
    return old != new


def _change(old: object, new: object) -> str:
    if not (isinstance(old, float) and isinstance(new, float)):
        return f"{old} -> {new}"
    pct = f" ({(new - old) / abs(old):+.2%})" if old else ""
    return f"{old:.6g} -> {new:.6g}{pct}"


def diff_table(exp_id: str, old: dict, new: dict) -> List[str]:
    """Every cell that differs between two recordings of one table."""
    if (old["headers"], len(old["rows"])) != (new["headers"],
                                              len(new["rows"])):
        return [f"table {exp_id}: shape changed"]
    return [f"table {exp_id} [{row_a[0]}, {header}]: {_change(x, y)}"
            for row_a, row_b in zip(old["rows"], new["rows"])
            for header, x, y in zip(old["headers"], row_a, row_b)
            if _moved(x, y)]


def diff_ledgers(old: Ledger, new: Ledger) -> List[str]:
    """Every claim value, verdict or status and every table cell that
    differs between two ledgers (numbers: by more than 1e-9 relative)."""
    lines: List[str] = []
    for cid in sorted(old["claims"].keys() | new["claims"].keys()):
        a, b = old["claims"].get(cid), new["claims"].get(cid)
        if a is None or b is None:
            lines.append(f"claim {cid}: {'added' if a is None else 'removed'}")
            continue
        flips = [f"{key} {a[key]} -> {b[key]}"
                 for key in ("verdict", "status") if a[key] != b[key]]
        if _moved(a["measured"], b["measured"]) or flips:
            lines.append(f"claim {cid}: "
                         + _change(a["measured"], b["measured"])
                         + "".join(f"; {flip}" for flip in flips))
    for exp_id in sorted(old["experiments"].keys()
                         | new["experiments"].keys()):
        a = old["experiments"].get(exp_id)
        b = new["experiments"].get(exp_id)
        if a is None or b is None:
            lines.append(f"table {exp_id}: "
                         f"{'added' if a is None else 'removed'}")
        else:
            lines.extend(diff_table(exp_id, a, b))
    return lines


def run_report(scale: Optional[float] = None,
               claims: Optional[Sequence[Claim]] = None,
               ledger_path: Optional[str] = None,
               diff: Optional[Tuple[str, str]] = None) -> Tuple[str, bool]:
    """``csar-repro report``'s one entry: ``(text, ok)``.

    With ``diff`` no simulation runs: the two ledger files are compared
    and ``ok`` means "nothing moved".  Otherwise each claim prints its
    verdict, measured value, interval and distance to the nearer bound;
    ``ok`` means every verdict agrees with the claim's recorded status.
    A claim whose ``min_scale`` exceeds ``scale`` prints ``[SKIP]`` and
    does not count.
    ``ledger_path`` additionally runs the table-only experiments and
    writes the whole ledger there.
    """
    if diff is not None:
        lines = diff_ledgers(*map(load_ledger, diff))
        return "\n".join(lines), not lines
    claims = CLAIMS if claims is None else claims
    ledger = build_ledger(claims, scale,
                          also=REGISTRY if ledger_path is not None else ())
    lines = ["# Reproduction verification report", ""]
    all_ok = True
    for claim in claims:
        if (scale is not None and claim.min_scale is not None
                and scale < claim.min_scale):
            lines.append(f"[SKIP] {claim.id}: needs --scale ≥ "
                         f"{claim.min_scale:g}")
            continue
        entry = ledger["claims"][claim.id]
        all_ok &= entry["verdict"] in ("PASS", "GAP")
        paper = "" if claim.paper_value is None \
            else f" (paper {claim.paper_value:g})"
        lines.append(
            f"[{entry['verdict']}] {claim.id}: {entry['measured']:.4g} in "
            f"({claim.lo:.7g}, {claim.hi:.7g}), margin "
            f"{claim.margin(entry['measured']):.3g}  —  "
            f"{claim.paper}{paper}")
    lines += ["", "overall: " + (
        "EVERY CLAIM STANDS AS RECORDED" if all_ok
        else "SOME CLAIMS FAILED (or a gap closed: update claims.py)")]
    if ledger_path is not None:
        with open(ledger_path, "w") as fp:
            json.dump(ledger, fp, indent=1, sort_keys=True)
            fp.write("\n")
        lines.append(f"wrote {ledger_path}")
    return "\n".join(lines), all_ok

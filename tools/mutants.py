#!/usr/bin/env python3
"""Judge a fixed catalogue of one-line protocol mutants.

Run from the repository root::

    python tools/mutants.py --record          # judge all, rewrite the record
    python tools/mutants.py ID [ID ...]       # judge only these
    python tools/mutants.py ID --tests T ...  # judge by these tests alone

A mutant replaces the one node of a function in ``src/repro`` whose
``ast.unparse`` is ``old`` by the source ``new``: a dropped release, an
un-gated lock, an off-by-one at a boundary.  Every run (and
``tests/test_mutants.py``) first checks that each ``old`` still matches
exactly one node at HEAD, so the catalogue cannot rot silently.

Each mutant is judged on its own copy of the tree (``.git`` and caches
left out), two at a time; a judge *kills* it when it exits 1 (a failed
test or plan) or runs out of time, and so does a mutant that breaks
importing the module it changes.  Any other exit (a usage error, a test
id that no longer exists, no test collected) is the driver's fault, not
a verdict: the run stops and exits 2.  The judges are the tier-1 suite
without the pins (any schedule change fails a byte-identity pin, and
any mutant fails ``tests/test_mutants.py``, so their kills are not
evidence) and ``csar-repro chaos --seeds 0:32`` (all three sanitizers
armed).  A row records, per judge, ``null`` for a survivor or a short
reason: the first failing test or plan, the exception, or ``timeout``.

``--record`` writes ``docs/results/mutants.json`` and its table in
``docs/ANALYSIS.md``, keeping any column a judge no longer run left
there for each mutant unchanged since (``—`` for the others):
``lint``, the verdict of ``csar-repro lint src --baseline
tools/lint_baseline.json`` before that static checker was deleted.
Naming mutants prints their rows and exits 1 when one of them survives
every judge, which is how CI requires the Section 5.1 mutant to stay
killed.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "docs" / "results" / "mutants.json"
ANALYSIS_MD = ROOT / "docs" / "ANALYSIS.md"
BEGIN = "<!-- mutants: rendered from docs/results/mutants.json -->"
END = "<!-- end mutants -->"

#: the bug classes a mutant belongs to
KINDS = {
    "drop": "drop a release, a freeze, an invalidation or a mirror write",
    "lock": "un-gate or reorder lock acquisition",
    "boundary": "off by one at a unit, stripe or group boundary",
    "in-place": "write overflow in place",
    "degraded": "skip the parity update on a degraded path",
}


class Mutant(NamedTuple):
    id: str
    kind: str
    #: the module, relative to ``src/repro``
    path: str
    #: the qualified name of the function holding the node
    scope: str
    old: str
    new: str


CATALOGUE = [
    # -- drop ---------------------------------------------------------
    Mutant("parity-write-keeps-lock", "drop", "pvfs/iod.py",
           "IOD._parity_write",
           "self.locks.release(request.file, request.group, request.xid)",
           "pass"),
    Mutant("cancelled-acquire-leaks", "drop", "redundancy/locks.py",
           "ParityLockTable.acquire", "lock.release(request)", "pass"),
    Mutant("payload-unfrozen", "drop", "storage/payload.py",
           "Payload.__init__", "_freeze(data)", "pass"),
    Mutant("segments-unfrozen", "drop", "storage/payload.py",
           "SegmentedPayload.__init__", "_freeze(seg)", "pass"),
    Mutant("overflow-not-invalidated", "drop", "pvfs/iod.py", "IOD._write",
           "table.invalidate(request.offset, "
           "request.offset + request.payload.length)", "pass"),
    Mutant("mirror-not-invalidated", "drop", "pvfs/iod.py", "IOD._write",
           "mtable.invalidate(start, end)", "pass"),
    Mutant("full-stripe-keeps-overflow", "drop", "redundancy/plan.py",
           "plan_write", "FullStripe(full[0], full[1], hybrid)",
           "FullStripe(full[0], full[1], False)"),
    Mutant("full-stripe-keeps-mirror-overflow", "drop",
           "redundancy/base.py", "RedundancyScheme._full_stripe",
           "to_holder[lay.successor(sr.server)].mirror_invalidate += "
           "((sr.server, sr.local_start, sr.local_end),)", "pass"),
    Mutant("mirror-copy-dropped", "drop", "redundancy/base.py",
           "RedundancyScheme._mirrored",
           "calls += [client.rpc(client.iods[sr.server], home), "
           "client.rpc(client.iods[mirror], copy)]",
           "calls += [client.rpc(client.iods[sr.server], home)]"),
    Mutant("manager-turn-kept", "drop", "pvfs/manager.py",
           "Manager._handle.<locals>.answered",
           "self._turn.release(turn)", "pass"),
    Mutant("overflow-read-never-settles", "drop", "pvfs/iod.py",
           "IOD.read_latest", "self._settle(table)", "pass"),
    Mutant("lock-waiter-never-woken", "drop", "sim/resources.py",
           "Resource.release", "heappush(env._heap, (env._now, NORMAL, "
           "seq, nxt))", "pass"),
    Mutant("rebuild-skips-overflow-mirror", "drop", "redundancy/recovery.py",
           "repair", "yield from iod.replay(mirror, local, lo, content)",
           "pass"),
    # -- lock ---------------------------------------------------------
    Mutant("rmw-upper-parity-read-ungated", "lock", "redundancy/base.py",
           "RedundancyScheme._rmw_chain", "gate = read_done", "pass"),
    Mutant("rmw-groups-descending", "lock", "redundancy/base.py",
           "RedundancyScheme._rmw_chain", "portions", "reversed(portions)"),
    Mutant("parity-read-unlocked", "lock", "pvfs/iod.py",
           "IOD._parity_read", "yield from self.locks.acquire("
           "request.file, request.group, request.xid)", "pass"),
    Mutant("parity-locks-off", "lock", "redundancy/locks.py",
           "ParityLockTable.__init__", "self.enabled = enabled",
           "self.enabled = False"),
    # -- boundary -----------------------------------------------------
    Mutant("piece-crosses-unit", "boundary", "pvfs/layout.py",
           "ServerRange.pieces", "min(unit - intra, end - cursor)",
           "min(unit - intra + 1, end - cursor)"),
    Mutant("group-of-off-by-one", "boundary", "pvfs/layout.py",
           "StripeLayout.group_of", "offset // self.group_span",
           "(offset + 1) // self.group_span"),
    Mutant("overflow-slot-overrun", "boundary", "redundancy/overflow.py",
           "OverflowTable.append", "min(bs - intra_lo, end - cursor)",
           "min(bs - intra_lo + 1, end - cursor)"),
    Mutant("rmw-parity-region-short", "boundary", "redundancy/base.py",
           "RedundancyScheme._rmw",
           "max((p.local_offset % unit + p.length for p in pieces))",
           "max((p.local_offset % unit + p.length - 1 for p in pieces))"),
    Mutant("rebuild-misses-last-row", "boundary", "redundancy/recovery.py",
           "_local_ranges", "-(-sr.local_end // unit) * unit",
           "sr.local_end // unit * unit"),
    Mutant("rebuild-misses-last-group", "boundary",
           "redundancy/recovery.py", "repair",
           "lay.group_of(end - 1) + 1", "lay.group_of(end - 1)"),
    Mutant("repair-drops-round-out", "boundary", "redundancy/recovery.py",
           "_local_ranges", "out.add(sr.local_start // unit * unit, "
           "-(-sr.local_end // unit) * unit)",
           "out.add(sr.local_start, sr.local_end)"),
    Mutant("stored-tail-shifted", "boundary", "storage/blockfile.py",
           "BlockFile._splice", "tail[hi - tail_at:]",
           "tail[hi - tail_at + 1:]"),
    # -- in-place -----------------------------------------------------
    Mutant("partial-write-in-place", "in-place", "redundancy/plan.py",
           "plan_write", "Mirrored(lo, hi, True)", "Mirrored(lo, hi, False)"),
    Mutant("overflow-home-in-place", "in-place", "redundancy/base.py",
           "RedundancyScheme._mirrored",
           "msg.OverflowWriteReq(meta.name, ranges=ranges, payload=chunk)",
           "msg.WriteReq(meta.name, kind='data', offset=sr.local_start, "
           "payload=chunk)"),
    Mutant("overflow-append-to-data-file", "in-place", "pvfs/iod.py",
           "IOD._overflow_write", "self.fs.write_gather(name, parts)",
           "self.fs.write_gather(data_file(request.file), parts)"),
    # -- degraded -----------------------------------------------------
    Mutant("degraded-rmw-folds-zeros", "degraded", "redundancy/base.py",
           "RedundancyScheme._rmw",
           "(yield from self._reconstruct(client, meta, sr))",
           "Payload.zeros(sr.length)"),
    Mutant("rebuild-skips-parity", "degraded", "redundancy/recovery.py",
           "repair", "yield from iod.fs.write(red_file(name), "
           "lay.parity_local_offset(group), parity)", "pass"),
    Mutant("degraded-read-skips-overflow", "degraded", "redundancy/hybrid.py",
           "Hybrid.degraded_read", "out = out.overlay(lo - sr.local_start, "
           "response.payload.slice(lo - sr.local_start, "
           "hi - sr.local_start))", "pass"),
]

#: the tier-1 tests that pin bytes, the census or this catalogue's
#: source text, not behaviour
PINS = ["--ignore=tests/test_golden_bitidentity.py",
        "--ignore=tests/test_census.py", "--ignore=tests/test_mutants.py",
        "--deselect=tests/faults/test_campaign.py"
        "::test_chaos_digests_are_pinned"]
_PY = sys.executable
#: name -> (argv, seconds allowed, pattern of the line naming the kill)
JUDGES: Dict[str, Tuple[List[str], int, str]] = {
    "tier1": ([_PY, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "tests", *PINS], 300, r"^(FAILED|ERROR) "),
    "chaos": ([_PY, "-m", "repro", "chaos", "--seeds", "0:32"], 120,
              r"FAIL"),
}


# ----------------------------------------------------------------------
# locating and applying
# ----------------------------------------------------------------------
def _scope(tree: ast.Module, qualname: str) -> ast.AST:
    """The function ``qualname`` names (``A.f``, ``f.<locals>.g``)."""
    node: ast.AST = tree
    for part in qualname.replace(".<locals>", "").split("."):
        (node,) = [child for child in ast.iter_child_nodes(node)
                   if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                   and child.name == part]
    return node


def spans(mutant: Mutant, source: str) -> List[Tuple[int, int, int, int]]:
    """The distinct source spans inside the mutant's function whose node
    unparses to ``old`` (an expression statement and its expression
    share one span)."""
    scope = _scope(ast.parse(source), mutant.scope)
    return sorted({(node.lineno, node.col_offset, node.end_lineno,
                    node.end_col_offset)
                   for node in ast.walk(scope)
                   if isinstance(node, (ast.stmt, ast.expr))
                   and ast.unparse(node) == mutant.old})


def apply(mutant: Mutant, tree: Path) -> None:
    """Rewrite the mutant's one node in the copy of the tree at ``tree``."""
    path = tree / "src" / "repro" / mutant.path
    source = path.read_text()
    (span,) = spans(mutant, source)
    lines = source.encode().splitlines(keepends=True)
    # ast columns are UTF-8 byte offsets
    start = sum(map(len, lines[:span[0] - 1])) + span[1]
    end = sum(map(len, lines[:span[2] - 1])) + span[3]
    raw = source.encode()
    mutated = raw[:start] + mutant.new.encode() + raw[end:]
    ast.parse(mutated)
    path.write_bytes(mutated)


def check() -> List[str]:
    """Every catalogue problem: a kind outside :data:`KINDS`, a repeated
    id, or an ``old`` that does not match exactly one node."""
    problems = []
    ids = [m.id for m in CATALOGUE]
    problems += [f"{i}: repeated id" for i in set(ids) if ids.count(i) > 1]
    for mutant in CATALOGUE:
        if mutant.kind not in KINDS:
            problems.append(f"{mutant.id}: unknown kind {mutant.kind!r}")
        source = (ROOT / "src" / "repro" / mutant.path).read_text()
        try:
            found = len(spans(mutant, source))
        except ValueError:
            problems.append(f"{mutant.id}: no function {mutant.scope}")
            continue
        if found != 1:
            problems.append(f"{mutant.id}: {found} nodes match {mutant.old!r}")
    return problems


# ----------------------------------------------------------------------
# judging
# ----------------------------------------------------------------------
def _copy() -> Path:
    tree = Path(tempfile.mkdtemp(prefix="mutant-"))
    shutil.copytree(ROOT, tree, dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns(
                        ".git", "__pycache__", "*.pyc", ".pytest_cache",
                        ".hypothesis", "out"))
    return tree


class NoVerdict(Exception):
    """A judge failed in a way that says nothing about the mutant."""


def _verdict(argv: List[str], seconds: int, pattern: str, tree: Path,
             env: Dict[str, str]) -> Optional[str]:
    """``None`` when ``argv`` passes in ``tree``, else why it failed."""
    try:
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=seconds)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode == 0:
        return None
    out = done.stdout + done.stderr
    if done.returncode != 1:
        raise NoVerdict(f"{' '.join(argv[1:])} exited {done.returncode}, "
                        f"which is no verdict:\n{out[-2000:]}")
    lines = [line.strip() for line in out.splitlines() if line.strip()]
    named = [line for line in lines if re.search(pattern, line)]
    # else the last line: a traceback's exception
    return (named[:1] or lines[-1:] or ["exit 1"])[0][:160]


def judge(mutant: Mutant, judges: Dict[str, Tuple[List[str], int, str]],
          ) -> Dict[str, Optional[str]]:
    """Each judge's verdict on ``mutant``, on a private copy of the tree."""
    tree = _copy()
    try:
        apply(mutant, tree)
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("CSAR_")}
        env["PYTHONPATH"] = str(tree / "src")
        module = "repro." + mutant.path[:-len(".py")].replace("/", ".")
        probe = subprocess.run(
            [_PY, "-c", f"import repro, {module}; print(repro.__file__)"],
            cwd=tree, env=env, capture_output=True, text=True)
        if probe.returncode != 0:
            last = (probe.stderr.strip().splitlines() or ["no output"])[-1]
            return {name: f"import {module}: {last}"[:160] for name in judges}
        if not Path(probe.stdout.strip()).is_relative_to(tree):
            raise NoVerdict(f"the copy imports repro from "
                            f"{probe.stdout.strip()}, not from the mutated "
                            "tree")
        return {name: _verdict(argv, seconds, pattern, tree, env)
                for name, (argv, seconds, pattern) in judges.items()}
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def render(recorded: dict) -> str:
    """The markdown table docs/ANALYSIS.md carries."""
    judges = list(dict.fromkeys(
        judge for row in recorded["mutants"] for judge in row["kills"]))
    lines = ["| mutant | class | " + " | ".join(judges) + " |",
             "|---|---|" + "---|" * len(judges)]
    for row in recorded["mutants"]:
        kills = row["kills"]
        lines.append(f"| `{row['id']}` | {row['kind']} | " + " | ".join(
            "—" if judge not in kills else "misses" if kills[judge] is None
            else "**kills** (timeout)" if kills[judge] == "timeout"
            else "**kills**" for judge in judges) + " |")
    return "\n".join(lines)


def split_analysis_md(text: str) -> Tuple[str, str, str]:
    """``(before, table, after)`` around the rendered block."""
    head, found, rest = text.partition(BEGIN + "\n")
    table, closed, tail = rest.partition(END)
    if not (found and closed):
        raise ValueError(f"{ANALYSIS_MD.name} has no closed mutants block")
    return head + BEGIN + "\n", table.rstrip("\n"), END + tail


def record(rows: Dict[str, Dict[str, Optional[str]]]) -> None:
    """Rewrite :data:`RECORD` with ``rows`` over what it held, and the
    table of docs/ANALYSIS.md from it."""
    old = {}
    if RECORD.exists():
        old = {row["id"]: row
               for row in json.loads(RECORD.read_text())["mutants"]}
    recorded = {"kinds": KINDS, "mutants": []}
    for mutant in CATALOGUE:
        # A column no judge runs any more judged the mutant as it was
        # then: a new or changed mutant has none.
        row = old.get(mutant.id, {"kills": {}})
        same = {k: v for k, v in row.items() if k != "kills"} \
            == mutant._asdict()
        recorded["mutants"].append({**mutant._asdict(), "kills": {
            **(row["kills"] if same else {}), **rows[mutant.id]}})
    RECORD.write_text(json.dumps(recorded, indent=1) + "\n")
    head, _, tail = split_analysis_md(ANALYSIS_MD.read_text())
    ANALYSIS_MD.write_text(head + render(recorded) + "\n" + tail)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ids", nargs="*", metavar="ID",
                        help="judge these mutants; exit 1 if one survives")
    parser.add_argument("--record", action="store_true",
                        help="judge all and rewrite the record")
    parser.add_argument("--tests", nargs="+", metavar="T",
                        help="judge by these pytest node ids alone")
    args = parser.parse_args(argv)
    by_id = {m.id: m for m in CATALOGUE}
    unknown = [i for i in args.ids if i not in by_id]
    if unknown or args.record == bool(args.ids) or (args.record
                                                    and args.tests):
        parser.error(f"unknown mutant {unknown[0]}" if unknown else
                     "give mutant ids, or --record alone to judge the "
                     "whole catalogue by every judge")
    problems = check()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    mutants = [by_id[i] for i in args.ids] or CATALOGUE
    judges = JUDGES
    if args.tests:
        _argv, seconds, pattern = JUDGES["tier1"]
        judges = {"tests": ([_PY, "-m", "pytest", "-x", "-q", "-p",
                             "no:cacheprovider", *args.tests], seconds,
                            pattern)}
    rows: Dict[str, Dict[str, Optional[str]]] = {}
    with ThreadPoolExecutor(2) as pool:
        try:
            for mutant, kills in zip(mutants, pool.map(
                    lambda m: judge(m, judges), mutants)):
                rows[mutant.id] = kills
                print(f"{mutant.id}: " + "; ".join(
                    f"{name} " + ("survived" if why is None
                                  else f"killed: {why}")
                    for name, why in kills.items()), flush=True)
        except NoVerdict as err:
            pool.shutdown(cancel_futures=True)
            print(f"error: {err}", file=sys.stderr)
            return 2
    if args.record:
        record(rows)
        return 0
    survivors = [i for i, kills in rows.items()
                 if all(why is None for why in kills.values())]
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

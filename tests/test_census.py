"""The per-function census: every ``def`` under ``src/repro`` runs in
something outside the tier-1 suite, or it is owned, with a reason.

``tools/census.json`` is the recorded trace: the ``module:qualname`` of
every def that ran when ``tools/census.py`` drove the roots (the CI
commands other than tier-1 ``pytest tests/``, ``report --ledger`` and
``bench/run.py``'s five workloads).  This test parses ``src/`` and
asserts ``all defs - reached == OWNED``, so a new orphan, an owned def
that starts to run, and an entry of either set that names no def all
fail it; the next census is a diff.  Re-record with ``PYTHONPATH=src
python tools/census.py`` (CI runs it with ``--check``).
"""

import ast
import importlib
import inspect
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: the closed set of reasons a def may stay without a root
VIOLATION = "fires only on a violation"
PUBLIC = "public API listed in docs/API.md"
REASONS = (
    re.compile(r"ROADMAP item \d+(\([a-z]\))?"),
    re.compile(re.escape(VIOLATION)),
    re.compile(r"human tool: `[^`]+`"),
    re.compile(re.escape(PUBLIC)),
)


def item(number: str) -> str:
    return f"ROADMAP item {number}"


def human(command: str) -> str:
    return f"human tool: `{command}`"


#: def -> why it may stay unreached
OWNED = {
    # The analysis stack: item 5's conviction matrix decides what stays.
    "repro.analysis.bufsan:BufSan.on_run_complete": item("5"),
    "repro.analysis.callgraph:FunctionInfo.line": item("5"),
    "repro.analysis.cfg:CFG.reachable": item("5"),
    "repro.analysis.lint:FileLinter._defused_or_escapes": item("5"),
    "repro.analysis.lint:_names_in": item("5"),
    "repro.analysis.lint:lint_source": item("5"),
    "repro.analysis.locksan:LockSan.on_run_complete": item("5"),
    "repro.analysis.paritysan:ParitySan.on_run_complete": item("5"),
    "repro.analysis.summaries:LockEffectSummary.net_delta": item("5"),
    # Report paths.  A ``__repr__`` prints a failed assertion or an
    # exception; ``Payload.__hash__`` raises on misuse.
    "repro.analysis.lint:Finding.format": VIOLATION,
    "repro.analysis.lint:format_text": VIOLATION,
    "repro.analysis.locksan:LockSan._held_summary": VIOLATION,
    "repro.analysis.locksan:LockSan.on_double_release": VIOLATION,
    "repro.analysis.paritysan:ParitySan.on_scrub": VIOLATION,
    "repro.analysis.summaries:LockKey.format": VIOLATION,
    "repro.faults.plan:FaultPlan.dump": VIOLATION,
    "repro.faults.runner:save_failing_plan": VIOLATION,
    "repro.hw.node:Node.__repr__": VIOLATION,
    "repro.sim.engine:Event.__repr__": VIOLATION,
    "repro.storage.blockfile:BlockFile.__repr__": VIOLATION,
    "repro.storage.payload:Payload.__hash__": VIOLATION,
    "repro.storage.payload:Payload.__repr__": VIOLATION,
    "repro.storage.payload:SegmentedPayload.__repr__": VIOLATION,
    "repro.util.intervals:Extent.__repr__": VIOLATION,
    "repro.util.intervals:ExtentMap.__repr__": VIOLATION,
    # Commands a person runs; CI runs none of them.
    "repro.analysis.explore:ForcedTieBreaker.choose": human(
        "explore --replay"),
    "repro.analysis.explore:load_schedule": human("explore --replay"),
    "repro.analysis.explore:RandomTieBreaker.__init__": human(
        "explore --strategy pct"),
    "repro.analysis.explore:RandomTieBreaker.choose": human(
        "explore --strategy pct"),
    "repro.analysis.explore:_scenario_lock_ties": human(
        "explore lock-ties"),
    "repro.analysis.explore:_scenario_lock_ties.<locals>.body": human(
        "explore lock-ties"),
    "repro.analysis.explore:_scenario_lock_ties.<locals>.setup": human(
        "explore lock-ties"),
    "repro.analysis.explore:_SimLock.__init__": human(
        "explore race-lock-order"),
    "repro.analysis.explore:_SimLock.acquire": human(
        "explore race-lock-order"),
    "repro.analysis.explore:_SimLock.release": human(
        "explore race-lock-order"),
    "repro.analysis.explore:_scenario_race_lock_order": human(
        "explore race-lock-order"),
    "repro.analysis.explore:_scenario_race_lock_order.<locals>.reader":
        human("explore race-lock-order"),
    "repro.analysis.explore:_scenario_race_lock_order.<locals>.writer":
        human("explore race-lock-order"),
    "repro.analysis.lint:Finding.fixit": human("lint --format=json"),
    "repro.analysis.lint:format_json": human("lint --format=json"),
    "repro.analysis.lint:write_baseline": human("lint --write-baseline"),
    "repro.cli:_cmd_list": human("list"),
    "repro.experiments.base:list_experiments": human("list"),
    "repro.experiments.base:ExpTable.to_csv": human("run --csv-dir"),
    "repro.experiments.base:ExpTable.to_csv.<locals>.cell": human(
        "run --csv-dir"),
    "repro.experiments.report:_change": human("report --diff"),
    "repro.experiments.report:diff_ledgers": human("report --diff"),
    "repro.faults.plan:FaultPlan.from_json": human("chaos --replay"),
    "repro.faults.plan:FaultSpec.from_json": human("chaos --replay"),
    "repro.faults.plan:Trigger.from_json": human("chaos --replay"),
    "repro.faults.plan:load_plan": human("chaos --replay"),
    "repro.faults.runner:replay": human("chaos --replay"),
    # The chaos workload never misses the page cache, so no injected disk
    # fault reaches a disk (item 4, the boundary of the fault model).
    "repro.faults.injector:FaultInjector.disk_action": item("4"),
    # Item 1(b): the Poisson load generator of the operational-law check.
    "repro.workloads.synthetic:SyntheticSpec.__post_init__": item("1(b)"),
    "repro.workloads.synthetic:_offsets": item("1(b)"),
    "repro.workloads.synthetic:synthetic_benchmark": item("1(b)"),
    "repro.workloads.synthetic:synthetic_benchmark.<locals>.reader":
        item("1(b)"),
    "repro.workloads.synthetic:synthetic_benchmark.<locals>.setup":
        item("1(b)"),
    "repro.workloads.synthetic:synthetic_benchmark.<locals>.writer":
        item("1(b)"),
    # Item 12(c): the reclaimer and the iod compaction path it drives.
    "repro.pvfs.iod:IOD._truncate_overflow": item("12(c)"),
    "repro.redundancy.reclaim:background_reclaimer": item("12(c)"),
    "repro.storage.blockfile:BlockFile.punch_hole": item("12(c)"),
    # Item 13: the Section 5.1 strict-locking flag has no claim yet.
    "repro.redundancy.base:RedundancyScheme._strict_write": item("13"),
    # Public API that tests and library users call (item 13 names most).
    "repro.faults.injector:installed": PUBLIC,
    "repro.hw.cache:PageCache.cached_extents": PUBLIC,
    "repro.hw.cache:PageCache.is_cached": PUBLIC,
    "repro.hw.cpu:Cpu.process_bytes": PUBLIC,
    "repro.metrics:Metrics.bandwidth": PUBLIC,
    "repro.metrics:Metrics.diff": PUBLIC,
    "repro.metrics:Metrics.snapshot": PUBLIC,
    "repro.mpiio.datatypes:AccessPattern.extent": PUBLIC,
    "repro.mpiio.datatypes:contiguous": PUBLIC,
    "repro.pvfs.layout:StripeLayout.block_of": PUBLIC,
    "repro.pvfs.layout:StripeLayout.pieces": PUBLIC,
    "repro.pvfs.messages:Server.deliver": PUBLIC,
    "repro.redundancy.base:RedundancyScheme.degraded_read": PUBLIC,
    "repro.redundancy.locks:ParityLockTable.is_locked": PUBLIC,
    "repro.redundancy.locks:ParityLockTable.queue_length": PUBLIC,
    "repro.sim.engine:Environment.peek": PUBLIC,
    "repro.sim.engine:Environment.step": PUBLIC,
    "repro.sim.engine:Event.defused": PUBLIC,
    "repro.sim.resources:Resource.count": PUBLIC,
    "repro.storage.blockfile:BlockFile.allocated_bytes": PUBLIC,
    "repro.storage.localfs:LocalFS.drop_caches": PUBLIC,
    "repro.storage.localfs:LocalFS.file_size": PUBLIC,
    "repro.storage.localfs:LocalFS.listing": PUBLIC,
    "repro.storage.localfs:LocalFS.sync": PUBLIC,
    "repro.storage.localfs:LocalFS.total_size": PUBLIC,
    "repro.storage.payload:Payload.__len__": PUBLIC,
    "repro.storage.payload:Payload.assemble": PUBLIC,
    "repro.storage.payload:Payload.concat": PUBLIC,
    "repro.storage.payload:Payload.from_bytes": PUBLIC,
    "repro.storage.payload:Payload.xor_at": PUBLIC,
    "repro.util.intervals:Extent.contains": PUBLIC,
    "repro.util.intervals:Extent.intersect": PUBLIC,
    "repro.util.intervals:Extent.is_empty": PUBLIC,
    "repro.util.intervals:Extent.overlaps": PUBLIC,
    "repro.util.intervals:Extent.shift": PUBLIC,
    "repro.util.intervals:ExtentMap.__eq__": PUBLIC,
    "repro.util.intervals:ExtentMap.__len__": PUBLIC,
    "repro.util.intervals:ExtentMap.contains_offset": PUBLIC,
    "repro.util.intervals:ExtentMap.copy": PUBLIC,
    "repro.util.parity:parity_of_stripe": PUBLIC,
    "repro.workloads.flashio:request_mix": PUBLIC,
}


def _defs() -> set:
    """``module:qualname`` of every def under ``src/repro``, spelled the
    way ``co_qualname`` spells it."""
    out = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.add(f"{module}:{prefix}{child.name}")
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        visit(ast.parse(path.read_text(), str(path)), ".".join(parts), "")
    return out


def test_every_def_is_reached_or_owned():
    defs = _defs()
    reached = set(json.loads(
        (ROOT / "tools" / "census.json").read_text())["reached"])
    assert not reached - defs, (
        f"recorded as reached but no such def (re-record the census): "
        f"{sorted(reached - defs)}")
    unreached = defs - reached
    assert unreached == set(OWNED), (
        f"reached by nothing that runs: {sorted(unreached - set(OWNED))}; "
        f"owned but reached, or no such def: "
        f"{sorted(set(OWNED) - unreached)}")


def test_every_owner_gives_a_reason_from_the_closed_set():
    bad = {name: reason for name, reason in OWNED.items()
           if not any(p.fullmatch(reason) for p in REASONS)}
    assert not bad


def _listed_in_api(name: str) -> bool:
    """``docs/API.md`` lists the def: a function by its heading, a method
    by its line under its class (a property or a dunder, which the
    generator leaves out, by its class)."""
    module, qualname = name.split(":")
    api = (ROOT / "docs" / "API.md").read_text()
    _, found, section = api.partition(f"\n## `{module}`\n")
    section = section.split("\n## `")[0]
    *owner, last = qualname.split(".")
    if not found or len(owner) > 1:
        return False
    if not owner:
        return f"\n### `def {last}(" in section
    _, found, members = section.partition(f"\n### `class {owner[0]}(")
    members = members.split("\n### `")[0]
    cls = getattr(importlib.import_module(module), owner[0])
    unlisted = (last.startswith("__")
                or isinstance(inspect.getattr_static(cls, last), property))
    return bool(found) and (unlisted or f"\n- `{last}(" in members)


def test_public_api_owners_are_listed_in_the_api_reference():
    public = [name for name, reason in OWNED.items() if reason == PUBLIC]
    assert [name for name in public if not _listed_in_api(name)] == []

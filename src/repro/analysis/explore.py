"""Systematic schedule exploration for the CSAR protocol.

The event engine is deterministic: same-``(time, priority)`` events fire
in scheduling order.  Real clusters enjoy no such courtesy — message
arrivals race — so a protocol bug that only manifests under an unlucky
interleaving can hide behind the default schedule forever.  This module
drives the engine's tie-break hook
(``repro.sim.engine.attach("_tie_breaker", ...)``) to search over those
interleavings:

* **dfs** — bounded systematic exploration.  Run once with default
  tie-breaks, record every decision point ``(n_choices, chosen)``, then
  depth-first expand untried alternatives as forced prefixes.  The
  engine already prunes commuting events (only events somebody observes
  reach the tie-breaker — a sleep-set style reduction), so the tree
  stays small for protocol-sized scenarios.
* **pct** — PCT-flavoured randomized search: each schedule draws its
  tie-breaks from a seeded :class:`random.Random`, so large spaces get
  probabilistic coverage and every schedule is reproducible from its
  seed.

Every run executes under LockSan, BufSan, *and* ParitySan; a
**violation** is any raised
:class:`~repro.errors.ReproError`/`AssertionError` or any sanitizer
report (reported in that priority order: an exception beats a LockSan
report beats a BufSan report beats a ParitySan report, so an aliasing
bug is attributed to the buffer that drifted rather than to whatever
parity noise it caused downstream).  Violating schedules serialize to ``.sched`` JSON
files (``schema_version`` 1) and replay deterministically with
``csar-repro explore --replay FILE``.

Scenarios live in a registry; the seeded-bug scenarios (built on
:mod:`repro.analysis.seeded_bugs`) double as CI's proof that the
explorer and the sanitizers actually catch the bug classes they claim
to.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import ReproError

#: ``.sched`` file format version (bump on incompatible change).
SCHED_SCHEMA_VERSION = 1

#: LockSan order-inversion observations accumulated across every
#: explored schedule: ``{"file", "group", "held_group"}`` dicts, the
#: dynamic witnesses CSAR011 cross-references (see
#: :func:`repro.analysis.lint.save_witnesses`).
_WITNESSES: List[Dict[str, Any]] = []


def drain_witnesses() -> List[Dict[str, Any]]:
    """Collect (and clear) the dynamic lock-order witnesses."""
    out = list(_WITNESSES)
    _WITNESSES.clear()
    return out


# ----------------------------------------------------------------------
# tie-breakers
# ----------------------------------------------------------------------
class ForcedTieBreaker:
    """Follow a forced decision prefix, then the default (index 0).

    Records every decision as ``(n_choices, chosen)`` so the run's full
    schedule can be re-forced later (replay) or expanded (DFS).
    """

    strategy = "dfs"

    def __init__(self, forced: Tuple[int, ...] = ()) -> None:
        self.forced = tuple(forced)
        self.decisions: List[Tuple[int, int]] = []

    def choose(self, when: float, priority: int,
               events: List[Any]) -> Optional[int]:
        n = len(events)
        i = len(self.decisions)
        pick = self.forced[i] if i < len(self.forced) else 0
        if pick >= n:  # schedule drift: clamp rather than crash
            pick = n - 1
        self.decisions.append((n, pick))
        return pick


class RandomTieBreaker:
    """Pick uniformly among observable tied events, from a fixed seed."""

    strategy = "pct"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self.decisions: List[Tuple[int, int]] = []

    def choose(self, when: float, priority: int,
               events: List[Any]) -> Optional[int]:
        n = len(events)
        pick = self._rng.randrange(n)
        self.decisions.append((n, pick))
        return pick


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Violation:
    """What went wrong under one explored schedule."""

    kind: str         # exception class name or sanitizer report kind
    description: str

    def format(self) -> str:
        return f"[{self.kind}] {self.description}"


@dataclass(frozen=True)
class ScheduleRecord:
    """A reproducible violating schedule (what ``.sched`` files hold)."""

    scenario: str
    strategy: str
    seed: Optional[int]
    decisions: Tuple[Tuple[int, int], ...]
    violation: Violation

    def to_json(self) -> str:
        return json.dumps({
            "schema_version": SCHED_SCHEMA_VERSION,
            "scenario": self.scenario,
            "strategy": self.strategy,
            "seed": self.seed,
            "decisions": [list(d) for d in self.decisions],
            "violation": {"kind": self.violation.kind,
                          "description": self.violation.description},
        }, indent=2) + "\n"


@dataclass
class ExplorationResult:
    """Outcome of exploring one scenario."""

    scenario: str
    strategy: str
    schedules: int = 0
    record: Optional[ScheduleRecord] = None

    @property
    def found(self) -> bool:
        return self.record is not None


def save_schedule(record: ScheduleRecord, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(record.to_json())


def load_schedule(path: str) -> ScheduleRecord:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    version = data.get("schema_version")
    if version != SCHED_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported .sched schema_version {version!r} "
            f"(expected {SCHED_SCHEMA_VERSION})")
    return ScheduleRecord(
        scenario=data["scenario"],
        strategy=data["strategy"],
        seed=data.get("seed"),
        decisions=tuple((int(n), int(c)) for n, c in data["decisions"]),
        violation=Violation(kind=data["violation"]["kind"],
                            description=data["violation"]["description"]))


# ----------------------------------------------------------------------
# scenario registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """A self-contained workload the explorer can rerun per schedule.

    ``run`` builds everything fresh (Environment/System included) so the
    installed tie-breaker and sanitizer factories take effect; it either
    returns normally (clean) or raises.  ``seeded_bug`` marks scenarios
    that *must* produce a violation — they gate CI's explore-smoke job.
    """

    name: str
    description: str
    run: Callable[[], None]
    seeded_bug: bool = False


SCENARIOS: Dict[str, Scenario] = {}


def scenario(name: str, description: str, seeded_bug: bool = False):
    """Register a scenario function under ``name``."""
    def decorate(fn: Callable[[], None]) -> Callable[[], None]:
        SCENARIOS[name] = Scenario(name, description, fn, seeded_bug)
        return fn
    return decorate


def smoke_scenarios() -> List[Scenario]:
    """The seeded-bug scenarios CI must catch within its budget."""
    return [s for s in SCENARIOS.values() if s.seeded_bug]


# ----------------------------------------------------------------------
# built-in scenarios
# ----------------------------------------------------------------------
class _SimLock:
    """A minimal FIFO mutex over engine events (scenario-local)."""

    def __init__(self, env) -> None:
        self.env = env
        self._held = False
        self._waiters: List[Any] = []

    def acquire(self) -> Generator[Any, Any, None]:
        if self._held:
            gate = self.env.event()
            self._waiters.append(gate)
            yield gate
        else:
            self._held = True
            return
            yield  # pragma: no cover - makes this a generator

    def release(self) -> None:
        if self._waiters:
            self._waiters.pop(0).succeed()
        else:
            self._held = False


@scenario("lock-ties",
          "two clients, disjoint partial-stripe RMWs: lots of ties, "
          "no violation under any schedule")
def _scenario_lock_ties() -> None:
    from repro import CSARConfig, Payload, System

    system = System(CSARConfig(scheme="raid5", num_servers=4, num_clients=2,
                               stripe_unit=1024, content_mode=False,
                               background_flusher=False))
    span = system.layout.group_span

    def body(client, offset):
        yield from client.open("f")
        yield from client.write("f", offset, Payload.virtual(512))

    def setup():
        yield from system.client(0).create("f")

    system.run(setup())
    system.run(body(system.client(0), 0), body(system.client(1), span))


@scenario("race-lock-order",
          "a marker race decides lock order: ascending under the default "
          "schedule, descending (deadlock) when the reader wins the tie")
def _scenario_race_lock_order() -> None:
    from repro.sim.engine import Environment

    env = Environment()
    marker: List[bool] = []
    locks = {3: _SimLock(env), 5: _SimLock(env)}

    def writer():
        yield env.timeout(0)
        marker.append(True)  # publish "ascending" AFTER one scheduler tick
        yield from locks[3].acquire()
        try:
            yield env.timeout(1e-6)
            yield from locks[5].acquire()
            try:
                yield env.timeout(1e-6)
            finally:
                locks[5].release()
        finally:
            locks[3].release()

    def reader():
        yield env.timeout(0)
        # The race: if the writer's tick ran first the marker is visible
        # and both lock ascending; otherwise this process descends.
        first, second = (3, 5) if marker else (5, 3)
        yield from locks[first].acquire()
        try:
            yield env.timeout(1e-6)
            yield from locks[second].acquire()
            try:
                yield env.timeout(1e-6)
            finally:
                locks[second].release()
        finally:
            locks[first].release()

    done = env.all_of([env.process(writer()), env.process(reader())])
    env.run(until=done)


@scenario("buggy-lock-leak",
          "DropReleaseRaid5 drops its second RMW's group unlock: the "
          "next RMW on the group blocks forever",
          seeded_bug=True)
def _scenario_buggy_lock_leak() -> None:
    from repro import CSARConfig, Payload, System
    from repro.analysis import seeded_bugs

    config = CSARConfig(scheme="raid5", num_servers=4, num_clients=1,
                        stripe_unit=1024, content_mode=False,
                        background_flusher=False)
    system = seeded_bugs.inject(
        System(config), seeded_bugs.DropReleaseRaid5(config))
    client = system.client()

    def body():
        yield from client.create("f")
        for _ in range(3):  # third RMW needs the lock the second leaked
            yield from client.write("f", 0, Payload.virtual(512))

    system.run(body())


@scenario("buggy-helper-release-leak",
          "HelperReleaseRaid5 splits its lease acquire/release across "
          "helpers and drops the second release: the third write blocks "
          "on the leaked lease — the interprocedural leak CSAR010 flags",
          seeded_bug=True)
def _scenario_buggy_helper_release_leak() -> None:
    from repro import CSARConfig, Payload, System
    from repro.analysis import seeded_bugs

    config = CSARConfig(scheme="raid5", num_servers=4, num_clients=1,
                        stripe_unit=1024, content_mode=False,
                        background_flusher=False)
    system = seeded_bugs.inject(
        System(config), seeded_bugs.HelperReleaseRaid5(config))
    client = system.client()

    def body():
        yield from client.create("f")
        for _ in range(3):  # third lease blocks on the one #2 leaked
            yield from client.write("f", 0, Payload.virtual(512))

    system.run(body())


@scenario("buggy-lock-order",
          "DescendingLockRaid5 takes a write's group locks "
          "highest-first: LockSan witnesses the Section 5.1 "
          "order-inversion CSAR011 flags statically",
          seeded_bug=True)
def _scenario_buggy_lock_order() -> None:
    from repro import CSARConfig, Payload, System
    from repro.analysis import seeded_bugs

    config = CSARConfig(scheme="raid5", num_servers=4, num_clients=1,
                        stripe_unit=1024, content_mode=False,
                        background_flusher=False)
    system = seeded_bugs.inject(
        System(config), seeded_bugs.DescendingLockRaid5(config))
    client = system.client()
    span = system.layout.group_span

    def body():
        yield from client.create("f")
        # Two full groups: the seeded write locks group 1 first.
        yield from client.write("f", 0, Payload.virtual(2 * span))

    system.run(body())


@scenario("buggy-overflow-inplace",
          "InPlaceOverflowHybrid writes partial stripes onto the home "
          "blocks without a parity update: ParitySan flags stale parity",
          seeded_bug=True)
def _scenario_buggy_overflow_inplace() -> None:
    from repro import CSARConfig, Payload, System
    from repro.analysis import seeded_bugs

    config = CSARConfig(scheme="hybrid", num_servers=4, num_clients=1,
                        stripe_unit=1024, content_mode=True,
                        background_flusher=False)
    system = seeded_bugs.inject(
        System(config), seeded_bugs.InPlaceOverflowHybrid(config))
    client = system.client()
    span = system.layout.group_span

    def body():
        yield from client.create("f")
        # Full stripe first: establishes correct parity over group 0 …
        yield from client.write("f", 0, Payload.pattern(span, seed=1))
        # … then a partial overwrite the bug applies in place.
        yield from client.write("f", 100, Payload.pattern(300, seed=2))

    system.run(body())


@scenario("buggy-thawed-view",
          "ThawedViewRaid5 thaws the parity response's frozen buffer "
          "and XORs in place: the final parity bytes are correct "
          "(ParitySan quiet) but every alias of the buffer drifts — "
          "BufSan's fingerprints flag it",
          seeded_bug=True)
def _scenario_buggy_thawed_view() -> None:
    from repro import CSARConfig, Payload, System
    from repro.analysis import seeded_bugs

    config = CSARConfig(scheme="raid5", num_servers=4, num_clients=1,
                        stripe_unit=1024, content_mode=True,
                        background_flusher=False)
    system = seeded_bugs.inject(
        System(config), seeded_bugs.ThawedViewRaid5(config))
    client = system.client()
    span = system.layout.group_span

    def body():
        yield from client.create("f")
        # A full stripe seeds real parity, then a partial overwrite
        # drives the locked RMW whose fold thaws the response buffer.
        yield from client.write("f", 0, Payload.pattern(span, seed=1))
        yield from client.write("f", 100, Payload.pattern(300, seed=2))

    system.run(body())


@scenario("buggy-scratch-leak",
          "ScratchLeakHybrid stages its overflow mirror in a reused "
          "scratch buffer captured into the payload: the second "
          "same-size write rewrites the first mirror's bytes after the "
          "fact — BufSan catches the drift at re-capture",
          seeded_bug=True)
def _scenario_buggy_scratch_leak() -> None:
    from repro import CSARConfig, Payload, System
    from repro.analysis import seeded_bugs

    config = CSARConfig(scheme="hybrid", num_servers=4, num_clients=1,
                        stripe_unit=1024, content_mode=True,
                        background_flusher=False)
    system = seeded_bugs.inject(
        System(config), seeded_bugs.ScratchLeakHybrid(config))
    client = system.client()

    def body():
        yield from client.create("f")
        # Two partial writes of the same length with different content:
        # the second refills the scratch the first mirror still aliases.
        yield from client.write("f", 100, Payload.pattern(300, seed=1))
        yield from client.write("f", 100, Payload.pattern(300, seed=2))

    system.run(body())


# ----------------------------------------------------------------------
# running one schedule
# ----------------------------------------------------------------------
def _run_schedule(scen: Scenario, tie_breaker) \
        -> Tuple[Optional[Violation], Tuple[Tuple[int, int], ...]]:
    """Run ``scen`` once under ``tie_breaker`` with all sanitizers on.

    Returns ``(violation_or_None, decisions)``.
    """
    from repro.analysis import SANITIZER_MODULES, sanitizer_scope
    from repro.sim import engine

    violation: Optional[Violation] = None
    engine.attach("_tie_breaker", lambda env: tie_breaker)
    try:
        with sanitizer_scope(SANITIZER_MODULES) as drain:
            try:
                scen.run()
            except (ReproError, AssertionError) as exc:
                violation = Violation(type(exc).__name__, str(exc))
            reports = drain()
    finally:
        engine.detach("_tie_breaker")
    for tool, r in reports:
        if tool == "locksan" and r.kind == "order-inversion":
            _WITNESSES.append({"file": r.file, "group": r.group,
                               "held_group": r.held_group})
    # The scope's order is the attribution order: LockSan, then BufSan
    # (a mutated shared buffer is the root cause of whatever parity
    # mismatch it induces downstream), then ParitySan.
    if violation is None and reports:
        tool, r = reports[0]
        violation = Violation(f"{tool}:{r.kind}", r.format())
    return violation, tuple(tie_breaker.decisions)


# ----------------------------------------------------------------------
# exploration drivers
# ----------------------------------------------------------------------
def explore(scenario_name: str, strategy: str = "dfs", budget: int = 64,
            depth: int = 12, seed: int = 0,
            ) -> ExplorationResult:
    """Search for a violating schedule of one registered scenario.

    ``budget`` bounds the number of schedules executed; ``depth`` bounds
    (for dfs) how many leading decision points may be branched on;
    ``seed`` is the base seed for pct.  Stops at the first violation.
    """
    scen = SCENARIOS.get(scenario_name)
    if scen is None:
        raise KeyError(f"unknown scenario {scenario_name!r}; "
                       f"known: {', '.join(sorted(SCENARIOS))}")
    result = ExplorationResult(scenario_name, strategy)

    def record(tb, violation, decisions) -> ScheduleRecord:
        return ScheduleRecord(
            scenario=scenario_name, strategy=strategy,
            seed=getattr(tb, "seed", None),
            decisions=decisions, violation=violation)

    if strategy == "pct":
        for i in range(budget):
            tb = RandomTieBreaker(seed + i)
            violation, decisions = _run_schedule(scen, tb)
            result.schedules += 1
            if violation is not None:
                result.record = record(tb, violation, decisions)
                return result
        return result

    if strategy != "dfs":
        raise ValueError(f"unknown strategy {strategy!r} (dfs|pct)")

    # DFS over forced decision prefixes.  A prefix forces the first
    # len(prefix) decisions; the run records the rest, and every untried
    # alternative at indices >= len(prefix) (up to ``depth``) becomes a
    # new prefix.  Index 0's alternative ordering was already covered by
    # whichever run produced the prefix, so alternatives only branch
    # *forward* — each prefix is visited at most once.
    stack: List[Tuple[int, ...]] = [()]
    seen = {()}
    while stack and result.schedules < budget:
        prefix = stack.pop()
        tb = ForcedTieBreaker(prefix)
        violation, decisions = _run_schedule(scen, tb)
        result.schedules += 1
        if violation is not None:
            result.record = record(tb, violation, decisions)
            return result
        for i in range(len(prefix), min(len(decisions), depth)):
            n, chosen = decisions[i]
            base = tuple(d[1] for d in decisions[:i])
            for alt in range(n):
                if alt == chosen:
                    continue
                candidate = base + (alt,)
                if candidate not in seen:
                    seen.add(candidate)
                    stack.append(candidate)
    return result


def replay(record: "ScheduleRecord | str") -> Tuple[bool, Optional[Violation]]:
    """Re-run a saved violating schedule; returns (reproduced, violation).

    ``reproduced`` is True when the forced replay produces a violation of
    the same kind as the recording.
    """
    if isinstance(record, str):
        record = load_schedule(record)
    scen = SCENARIOS.get(record.scenario)
    if scen is None:
        raise KeyError(f".sched references unknown scenario "
                       f"{record.scenario!r}")
    forced = tuple(chosen for _n, chosen in record.decisions)
    violation, _decisions = _run_schedule(scen, ForcedTieBreaker(forced))
    reproduced = (violation is not None
                  and violation.kind == record.violation.kind)
    return reproduced, violation


def explore_smoke(budget: int = 64, depth: int = 12,
                  sched_dir: Optional[str] = None,
                  witness_path: Optional[str] = None,
                  ) -> List[ExplorationResult]:
    """CI gate: every seeded-bug scenario must violate within budget.

    Each violation is additionally replayed from its own record to prove
    the ``.sched`` round-trip is deterministic.  Raises
    :class:`AssertionError` on any miss, so the job fails loudly.  When
    ``witness_path`` is given, every LockSan order-inversion observed
    during the sweep is saved there for CSAR011 cross-referencing
    (``csar-repro lint --witnesses``).
    """
    import os

    drain_witnesses()  # start the sweep with a clean witness slate
    results: List[ExplorationResult] = []
    for scen in smoke_scenarios():
        result = explore(scen.name, strategy="dfs", budget=budget,
                         depth=depth)
        results.append(result)
        if not result.found:
            raise AssertionError(
                f"explore-smoke: seeded bug {scen.name!r} NOT caught "
                f"within {result.schedules} schedules")
        reproduced, _ = replay(result.record)
        if not reproduced:
            raise AssertionError(
                f"explore-smoke: {scen.name!r} violation did not replay "
                f"deterministically")
        if sched_dir is not None:
            os.makedirs(sched_dir, exist_ok=True)
            save_schedule(result.record,
                          os.path.join(sched_dir, f"{scen.name}.sched"))
    if witness_path is not None:
        from repro.analysis import lint

        lint.save_witnesses(drain_witnesses(), witness_path)
    return results

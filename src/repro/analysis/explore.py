"""Systematic schedule exploration for the CSAR protocol.

The event engine is deterministic: same-``(time, priority)`` events fire
in scheduling order.  Real clusters enjoy no such courtesy — message
arrivals race — so a protocol bug that only manifests under an unlucky
interleaving can hide behind the default schedule forever.  This module
searches those interleavings with the tie breakers of
:mod:`repro.faults.campaign`:

* **dfs** — bounded systematic exploration.  Run once with default
  tie-breaks, record every decision point ``(n_choices, chosen)``, then
  depth-first expand untried alternatives as forced prefixes.  Only
  events somebody observes reach the tie-breaker (a sleep-set style
  reduction), so the tree stays small for protocol-sized scenarios.
* **pct** — randomized search: schedule ``i`` draws its tie-breaks from
  ``Random(seed + i)``, so it is reproducible from its seed.

Every schedule is one :func:`repro.faults.campaign.run` under all three
sanitizers; a **violation** is a failed outcome.  It saves as a
``.sched`` replay file and replays with ``csar-repro explore --replay``.
The seeded-bug scenarios (:mod:`repro.analysis.seeded_bugs`) double as
CI's proof that the explorer and the sanitizers catch the bug classes
they claim to.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import seeded_bugs
from repro.faults import campaign
from repro.faults.campaign import ForcedTieBreaker, RandomTieBreaker


# ----------------------------------------------------------------------
# scenario registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """A self-contained workload the explorer can rerun per schedule.

    ``run`` builds everything fresh (Environment/System included) so the
    attached tie-breaker and sanitizers take effect; it either
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
    from repro.sim.resources import Resource

    env = Environment()
    marker: List[bool] = []
    locks = {3: Resource(env), 5: Resource(env)}

    def hold(first, second):
        with locks[first].request() as outer:
            yield outer
            yield env.timeout(1e-6)
            with locks[second].request() as inner:
                yield inner
                yield env.timeout(1e-6)

    def writer():
        yield env.timeout(0)
        marker.append(True)  # publish "ascending" AFTER one scheduler tick
        yield from hold(3, 5)

    def reader():
        yield env.timeout(0)
        # The race: if the writer's tick ran first the marker is visible
        # and both lock ascending; otherwise this process descends.
        yield from hold(*((3, 5) if marker else (5, 3)))

    done = env.all_of([env.process(writer()), env.process(reader())])
    env.run(until=done)


#: The seeded-bug scenarios: name, description, the bug class of
#: :mod:`repro.analysis.seeded_bugs`, scheme, content mode, and the
#: writes to file ``f`` as ``(offset, length, pattern seed)``.  Four
#: servers with 1 KiB units give a 3 KiB group span.
_SPAN = 3 * 1024
SEEDED_BUGS = (
    ("buggy-lock-leak",
     "DropReleaseRaid5 drops its second RMW's group unlock: the "
     "next RMW on the group blocks forever",
     seeded_bugs.DropReleaseRaid5, "raid5", False, ((0, 512, 0),) * 3),
    ("buggy-helper-release-leak",
     "HelperReleaseRaid5 splits its lease acquire/release across "
     "helpers and drops the second release: the third write blocks "
     "on the leaked lease — the interprocedural leak CSAR010 flags",
     seeded_bugs.HelperReleaseRaid5, "raid5", False, ((0, 512, 0),) * 3),
    ("buggy-lock-order",
     "DescendingLockRaid5 takes a write's group locks "
     "highest-first: LockSan witnesses the Section 5.1 "
     "order-inversion CSAR011 flags statically",
     seeded_bugs.DescendingLockRaid5, "raid5", False, ((0, 2 * _SPAN, 0),)),
    ("buggy-overflow-inplace",
     "InPlaceOverflowHybrid writes partial stripes onto the home "
     "blocks without a parity update: ParitySan flags stale parity",
     seeded_bugs.InPlaceOverflowHybrid, "hybrid", True,
     ((0, _SPAN, 1), (100, 300, 2))),
    ("buggy-thawed-view",
     "ThawedViewRaid5 thaws the parity response's frozen buffer "
     "and XORs in place: the final parity bytes are correct "
     "(ParitySan quiet) but every alias of the buffer drifts — "
     "BufSan's fingerprints flag it",
     seeded_bugs.ThawedViewRaid5, "raid5", True,
     ((0, _SPAN, 1), (100, 300, 2))),
    ("buggy-scratch-leak",
     "ScratchLeakHybrid stages its overflow mirror in a reused "
     "scratch buffer captured into the payload: the second "
     "same-size write rewrites the first mirror's bytes after the "
     "fact — BufSan catches the drift at re-capture",
     seeded_bugs.ScratchLeakHybrid, "hybrid", True,
     ((100, 300, 1), (100, 300, 2))),
)


def _run_seeded(bug, scheme: str, content: bool, writes) -> None:
    from repro import CSARConfig, Payload, System

    config = CSARConfig(scheme=scheme, num_servers=4, num_clients=1,
                        stripe_unit=1024, content_mode=content,
                        background_flusher=False)
    system = seeded_bugs.inject(System(config), bug(config))
    client = system.client()

    def body():
        yield from client.create("f")
        for offset, length, seed in writes:
            yield from client.write(
                "f", offset, Payload.pattern(length, seed=seed) if content
                else Payload.virtual(length))

    system.run(body())


for _name, _description, *_row in SEEDED_BUGS:
    SCENARIOS[_name] = Scenario(_name, _description,
                                partial(_run_seeded, *_row), seeded_bug=True)


# ----------------------------------------------------------------------
# exploration drivers
# ----------------------------------------------------------------------
def explore(scenario_name: str, strategy: str = "dfs", budget: int = 64,
            depth: int = 12, seed: int = 0,
            ) -> Tuple[int, Optional[campaign.Outcome]]:
    """Search for a violating schedule of one registered scenario.

    ``budget`` bounds the number of schedules executed; ``depth`` bounds
    (for dfs) how many leading decision points may be branched on;
    ``seed`` is the base seed for pct.  Stops at the first violation and
    returns ``(schedules run, violating outcome or None)``.
    """
    scen = SCENARIOS.get(scenario_name)
    if scen is None:
        raise KeyError(f"unknown scenario {scenario_name!r}; "
                       f"known: {', '.join(sorted(SCENARIOS))}")
    if strategy == "pct":
        for i in range(budget):
            outcome = campaign.run(scen.run, ties=RandomTieBreaker(seed + i))
            if not outcome.ok:
                return i + 1, outcome
        return budget, None
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
    schedules = 0
    while stack and schedules < budget:
        prefix = stack.pop()
        outcome = campaign.run(scen.run, ties=ForcedTieBreaker(prefix))
        schedules += 1
        if not outcome.ok:
            return schedules, outcome
        decisions = outcome.decisions
        for i in range(len(prefix), min(len(decisions), depth)):
            n, chosen = decisions[i]
            base = tuple(d[1] for d in decisions[:i])
            for alt in range(n):
                candidate = base + (alt,)
                if alt != chosen and candidate not in seen:
                    seen.add(candidate)
                    stack.append(candidate)
    return schedules, None


def explore_smoke(budget: int = 64, depth: int = 12,
                  sched_dir: Optional[str] = None,
                  ) -> List[Tuple[str, int, campaign.Outcome]]:
    """CI gate: every seeded-bug scenario must violate within budget.

    Each violation is re-run under its own forced decisions and must
    reproduce its digest.  Raises :class:`AssertionError` on any miss,
    so the job fails loudly.  Returns ``(scenario, schedules, outcome)``
    per scenario.
    """
    results = []
    for scen in smoke_scenarios():
        schedules, outcome = explore(scen.name, budget=budget, depth=depth)
        if outcome is None:
            raise AssertionError(
                f"explore-smoke: seeded bug {scen.name!r} NOT caught "
                f"within {schedules} schedules")
        again = campaign.run(scen.run, ties=ForcedTieBreaker(
            tuple(c for _n, c in outcome.decisions)))
        if again.digest != outcome.digest:
            raise AssertionError(
                f"explore-smoke: {scen.name!r} violation did not replay "
                f"deterministically")
        results.append((scen.name, schedules, outcome))
        if sched_dir is not None:
            os.makedirs(sched_dir, exist_ok=True)
            campaign.save(os.path.join(sched_dir, f"{scen.name}.sched"),
                          outcome, scenario=scen.name)
    return results

"""The campaign engine: one run under perturbations, judged one way.

A fault plan (:mod:`repro.faults.plan`) and a tie order
(:class:`RandomTieBreaker`) are perturbations of one run.  Both attach
through the engine's ambient registry, so :func:`run` applies either or
both, runs the workload under LockSan, BufSan and ParitySan, and
attributes the result in one order: a raised
:class:`~repro.errors.ReproError` or ``AssertionError``
(``exception:<Class>``), then the sanitizer reports in scope order
(``locksan:<kind>``, ``bufsan:<kind>``, ``paritysan:<kind>``; a
sanitizer points closer to the root cause than the bytes it let
through), then the acked-byte :class:`Oracle` (``differential``).

Its callers differ only in their workloads: :mod:`repro.faults.runner`
(sampled plans over a seeded op stream) and :mod:`repro.faults.matrix`
(a crash at every protocol step and victim).  Each run ends in one
:class:`Outcome`, faulted servers come back through one
:func:`recover`, and a failing chaos run saves to one replay file
(:func:`save`, :func:`replay`).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.errors import DataLoss, ReproError, ServerFailed
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sim import engine as _engine

Decisions = Tuple[Tuple[int, int], ...]


class RandomTieBreaker:
    """Pick uniformly among observable tied events, from a fixed seed.

    Records every decision as ``(n_choices, chosen)``; the decisions
    enter the run's digest."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self.decisions: List[Tuple[int, int]] = []

    def choose(self, when: float, priority: int,
               events: List[Any]) -> Optional[int]:
        pick = self._rng.randrange(len(events))
        self.decisions.append((len(events), pick))
        return pick


#: the oracles built since :func:`run` started its workload
_built: List["Oracle"] = []


class Oracle:
    """Per file, a flat reference and a mask of the bytes acknowledged
    writes pinned.  An unacknowledged write wildcards its extent: the
    servers may hold old, new or torn bytes there, all legal for a write
    that never completed.  ``outcomes`` has one row per op, its last
    item whether the op succeeded.  Building one hands it to the
    :func:`run` in progress."""

    def __init__(self, system, files: Tuple[str, ...], size: int) -> None:
        _built.append(self)
        self.system = system
        self.ref = {name: np.zeros(size, dtype=np.uint8) for name in files}
        self.mask = {name: np.zeros(size, dtype=bool) for name in files}
        self.diffs: List[str] = []
        self.outcomes: List[list] = []

    def record(self, name: str, offset: int, payload, acked: bool) -> None:
        """Pin ``payload``'s bytes at ``offset`` if acked, else wildcard."""
        end = offset + payload.length
        if acked:
            self.ref[name][offset:end] = payload.data
        self.mask[name][offset:end] = acked

    def check(self, name: str, offset: int, got: np.ndarray,
              what: str) -> None:
        """Note a diff if ``got``, read at ``offset``, breaks a pin."""
        end = offset + got.size
        pinned = self.mask[name][offset:end]
        bad = int(np.count_nonzero(
            got[pinned] != self.ref[name][offset:end][pinned]))
        if bad:
            self.diffs.append(f"{what}: {name}[{offset}:{end}] diverged "
                              f"from the flat reference ({bad} acked "
                              f"byte(s))")

    def write(self, client, name: str, offset: int, payload,
              row: list) -> Generator:
        """Write through ``client``; record the ack and the op's row."""
        try:
            yield from client.write(name, offset, payload)
            acked = True
        except (ServerFailed, DataLoss):
            acked = False
        self.record(name, offset, payload, acked)
        self.outcomes.append(row + [acked])

    def read(self, client, name: str, offset: int, length: int,
             row: list) -> Generator:
        """Read through ``client``; check the bytes, record the row."""
        try:
            data = yield from client.read(name, offset, length)
        except (ServerFailed, DataLoss):
            self.outcomes.append(row + [False])
        else:
            self.outcomes.append(row + [True])
            self.check(name, offset, data.data, f"op {row[0]}")

    def verify(self, client) -> Generator:
        """The durability check: after recovery every file reads back,
        unit by unit, with its acked bytes intact.  RAID0 keeps no
        redundancy, so its unreadable units are accepted losses and
        become wildcards instead."""
        unit = self.system.config.stripe_unit
        lossy = self.system.config.scheme == "raid0"
        for name, ref in self.ref.items():
            for start in range(0, ref.size, unit):
                end = min(start + unit, ref.size)
                try:
                    data = yield from client.read(name, start, end - start)
                except (ServerFailed, DataLoss) as exc:
                    if lossy:
                        self.mask[name][start:end] = False
                    else:
                        self.diffs.append(
                            f"durability: {name}[{start}:{end}] "
                            f"unreadable after recovery: {exc}")
                    continue
                self.check(name, start, data.data, "durability")


def recover(system) -> Generator:
    """Rebuild every server that is down, came back stale from a
    restart, or is only *suspected* (a timed-out RPC may have been
    dropped before or after taking effect) to a known-consistent state.
    A scheme without redundancy has nothing to rebuild from."""
    from repro.redundancy.recovery import rebuild_server

    if system.config.scheme == "raid0":
        return
    needs = {s for s, iod in enumerate(system.iods) if iod.failed}
    if system.env.faults is not None:
        needs |= system.env.faults.restarted
    for client in system.clients:
        needs |= set(client.suspected)
    for s in sorted(needs):
        if not system.iods[s].failed:
            system.iods[s].fail()
        yield from rebuild_server(system, s)


@dataclass
class Outcome:
    """The judged result of one run."""

    ok: bool
    failure_kind: Optional[str] = None
    failure: Optional[str] = None
    #: sha256 over the plan, the fired faults, the op rows, the final
    #: reference contents, the failure kind and, under a tie breaker,
    #: the decisions: the run's bit-identical-replay witness
    digest: str = ""
    fired: List[Tuple[float, str, int]] = field(default_factory=list)
    ops_acked: int = 0
    ops_failed: int = 0
    #: the tie decisions, ``None`` when no tie breaker was attached
    decisions: Optional[Decisions] = None
    plan: Optional[FaultPlan] = None

    def format(self) -> str:
        status = "ok" if self.ok else f"FAIL [{self.failure_kind}]"
        return (f"{status} ({len(self.fired)} fault(s) fired, "
                f"{self.ops_acked} acked / {self.ops_failed} failed ops, "
                f"digest {self.digest[:12]})")


def run(workload: Callable[[], Any], faults: Optional[FaultPlan] = None,
        ties=None) -> Outcome:
    """Run ``workload`` under ``faults`` and/or ``ties`` and judge it.

    The workload builds its own system(s) and, when it checks bytes, the
    :class:`Oracle` they are judged by; the engine holds the oracle as
    soon as it is built, so a run that raised keeps its fired faults,
    op rows and reference contents.
    """
    from repro.analysis import SANITIZERS, sanitizer_scope

    kind = failure = None
    _built.clear()
    if faults is not None:
        _engine.attach("faults", lambda env: FaultInjector(env, faults))
    if ties is not None:
        _engine.attach("_tie_breaker", lambda env: ties)
    try:
        with sanitizer_scope(SANITIZERS) as drain:
            try:
                workload()
            except (ReproError, AssertionError) as exc:
                kind, failure = f"exception:{type(exc).__name__}", str(exc)
            reports = drain()
    finally:
        if faults is not None:
            _engine.detach("faults")
        if ties is not None:
            _engine.detach("_tie_breaker")

    oracle = _built[-1] if _built else Oracle(None, (), 0)  # no bytes
    _built.clear()
    if kind is None and reports:
        tool, report = reports[0]
        kind, failure = f"{tool}:{report.kind}", report.format()
    if kind is None and oracle.diffs:
        kind, failure = "differential", "; ".join(oracle.diffs[:4])

    fired = list(oracle.system.env.faults.fired) \
        if oracle.system is not None and faults is not None else []
    decisions = tuple(ties.decisions) if ties is not None else None
    doc = {"plan": faults.to_json() if faults is not None else None,
           "fired": [[repr(t), k, s] for t, k, s in fired],
           "outcomes": oracle.outcomes, "failure_kind": kind,
           "contents": {name: hashlib.sha256(
               ref.tobytes() + oracle.mask[name].tobytes()).hexdigest()
               for name, ref in oracle.ref.items()}}
    if decisions is not None:
        doc["decisions"] = [list(d) for d in decisions]
    acked = sum(1 for row in oracle.outcomes if row[-1])
    return Outcome(
        ok=kind is None, failure_kind=kind, failure=failure,
        digest=hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()).hexdigest(),
        fired=fired, ops_acked=acked,
        ops_failed=len(oracle.outcomes) - acked, decisions=decisions,
        plan=faults)


def save(path: str, outcome: Outcome) -> None:
    """Write ``outcome`` as a replay file: its fault plan's JSON (the
    chaos op stream derives from the plan), the ``failure`` and the
    ``digest``."""
    data = outcome.plan.to_json()
    data["failure"] = {"kind": outcome.failure_kind,
                       "description": outcome.failure}
    data["digest"] = outcome.digest
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def replay(path: str) -> Tuple[bool, Outcome, Dict[str, Any]]:
    """Re-run a replay file: ``(reproduced, outcome, recording)``.

    With a recorded digest the run reproduces only if the digest
    matches; without one, if the failure kind does (or the run is clean
    when none was recorded).
    """
    from repro.faults.runner import workload

    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    plan = FaultPlan.from_json(data)
    outcome = run(workload(plan), faults=plan)
    if data.get("digest") is not None:
        reproduced = outcome.digest == data["digest"]
    else:
        reproduced = outcome.failure_kind == (data.get("failure")
                                              or {}).get("kind")
    return reproduced, outcome, data

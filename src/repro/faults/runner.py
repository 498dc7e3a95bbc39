"""The chaos campaign runner.

One chaos run is fully determined by a :class:`~repro.faults.plan.FaultPlan`
(itself determined by a seed): build a content-mode :class:`System` with
the plan armed and every sanitizer installed, drive a seeded workload of
writes and reads against a flat in-memory reference file, inject the
plan's faults, recover every crashed/restarted/suspected server, and
check two oracles:

* **differential** — every byte of every *acknowledged* write must read
  back exactly as written (unacknowledged writes become wildcard
  extents: the simulated servers may hold the old bytes, the new bytes,
  or a torn mixture, all of which are legal for a write that never
  completed);
* **durability** — after the post-fault recovery, the full file must be
  readable with every acknowledged byte intact, for every redundant
  scheme, under any single-server fault the plan injected (RAID0 keeps
  no redundancy, so bytes on a permanently crashed server are accepted
  losses there).

A run also fails on any raised :class:`~repro.errors.ReproError` /
``AssertionError`` or any LockSan/BufSan/ParitySan report, with the same
attribution priority as the schedule explorer.  Same seed, same plan,
same bit-identical outcome: the run's :attr:`~ChaosResult.digest` hashes
the plan, the fired-fault log, the per-op outcomes and the final file
contents, and ``--replay`` asserts the digest and failure reproduce.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.errors import DataLoss, ReproError, ServerFailed
from repro.faults import injector as _injector
from repro.faults.plan import FaultPlan, sample_plan
from repro.storage.payload import Payload

#: The schemes a chaos campaign sweeps.
CHAOS_SCHEMES = ("raid0", "raid1", "raid5", "hybrid")

#: Workload geometry: small stripes keep runs fast while still crossing
#: every protocol path (full stripes, head/tail partials, overflow).
_UNIT = 1024
_SERVERS = 5
_FILES = ("chaos0", "chaos1")


@dataclass
class ChaosResult:
    """Outcome of one chaos run (one plan, one system)."""

    plan: FaultPlan
    ok: bool
    #: ``kind`` is ``exception:<Class>``, ``locksan:<kind>``,
    #: ``bufsan:<kind>``, ``paritysan:<kind>``, or ``differential``
    failure_kind: Optional[str] = None
    failure: Optional[str] = None
    #: sha256 over plan + fired faults + op outcomes + final contents;
    #: the run's bit-identical-replay witness
    digest: str = ""
    fired: List[Tuple[float, str, int]] = field(default_factory=list)
    ops_acked: int = 0
    ops_failed: int = 0

    def format(self) -> str:
        status = "ok" if self.ok else f"FAIL [{self.failure_kind}]"
        return (f"seed {self.plan.seed} {self.plan.scheme}: {status} "
                f"({len(self.plan.faults)} fault(s), "
                f"{self.ops_acked} acked / {self.ops_failed} failed ops, "
                f"digest {self.digest[:12]})")


def _chaos_config(plan: FaultPlan):
    from repro.csar.config import CSARConfig

    return CSARConfig(
        scheme=plan.scheme, num_servers=plan.num_servers, num_clients=1,
        stripe_unit=_UNIT, content_mode=True,
        # Hardened RPCs: drops and silent hangs must surface as
        # RpcTimeout and ride the degraded machinery, not wedge the run.
        rpc_timeout=0.25, rpc_retries=2, rpc_jitter_seed=plan.seed)


def _op_stream(rng: Random, num_ops: int, span: int,
               size: int) -> List[tuple]:
    """The seeded op mix: writes (partial-heavy) and verifying reads."""
    ops: List[tuple] = []
    for _ in range(num_ops):
        name = _FILES[rng.randrange(len(_FILES))]
        if rng.random() < 0.7:
            if rng.random() < 0.3:
                # A full-stripe write: RAID5's lock-free path, Hybrid's
                # overflow invalidation path.
                offset, length = rng.randrange(3) * span, span
            else:
                offset = rng.randrange(size - 2 * _UNIT)
                length = rng.randint(1, 2 * _UNIT)
            ops.append(("write", name, offset, length, rng.randrange(1 << 30)))
        else:
            offset = rng.randrange(size - 2 * _UNIT)
            length = rng.randint(1, 2 * _UNIT)
            ops.append(("read", name, offset, length))
    return ops


def _drive(plan: FaultPlan, system) -> Dict[str, Any]:
    """Run the workload + recovery + verification inside one system.

    Everything happens in a single ``system.run`` so the sanitizers'
    quiescent checks fire only after recovery has restored the
    redundancy invariants the faults broke.
    """
    from repro.redundancy.recovery import rebuild_server

    client = system.client()
    injector = system.env.faults
    span = system.layout.group_span
    size = 3 * span + 2 * _UNIT
    rng = Random(plan.seed * 48271 + 11)
    ops = _op_stream(rng, plan.num_ops, span, size)

    ref = {name: np.zeros(size, dtype=np.uint8) for name in _FILES}
    mask = {name: np.zeros(size, dtype=bool) for name in _FILES}
    diffs: List[str] = []
    outcomes: List[list] = []

    def apply_write(name: str, offset: int, payload: Payload,
                    acked: bool) -> None:
        end = offset + payload.length
        if acked:
            ref[name][offset:end] = payload.data
            mask[name][offset:end] = True
        else:
            # The write never completed: the servers may hold any
            # mixture of old and new bytes there.  Wildcard the extent.
            mask[name][offset:end] = False

    def check(name: str, offset: int, got: np.ndarray, what: str) -> None:
        end = offset + got.size
        m = mask[name][offset:end]
        if not np.array_equal(got[m], ref[name][offset:end][m]):
            bad = int(np.count_nonzero(
                got[m] != ref[name][offset:end][m]))
            diffs.append(f"{what}: {name}[{offset}:{end}] diverged from "
                         f"the flat reference ({bad} acked byte(s))")

    def driver() -> Generator:
        # Prefill both files so every later read is well-defined.
        for name in _FILES:
            yield from client.create(name)
            payload = Payload.zeros(size)
            try:
                yield from client.write(name, 0, payload)
            except (ServerFailed, DataLoss):
                apply_write(name, 0, payload, acked=False)
                outcomes.append(["prefill", name, False])
            else:
                apply_write(name, 0, payload, acked=True)
                outcomes.append(["prefill", name, True])

        rebuilds: Dict[int, Any] = {}
        for i, op in enumerate(ops):
            if injector is not None:
                injector.note_op(i)
            kind, name, offset, length = op[:4]
            if kind == "write":
                payload = Payload.pattern(length, seed=op[4])
                try:
                    yield from client.write(name, offset, payload)
                except (ServerFailed, DataLoss):
                    apply_write(name, offset, payload, acked=False)
                    outcomes.append([i, "write", offset, length, False])
                else:
                    apply_write(name, offset, payload, acked=True)
                    outcomes.append([i, "write", offset, length, True])
            else:
                try:
                    data = yield from client.read(name, offset, length)
                except (ServerFailed, DataLoss):
                    outcomes.append([i, "read", offset, length, False])
                else:
                    outcomes.append([i, "read", offset, length, True])
                    check(name, offset, data.data, f"op {i}")
            # Online recovery: rebuild a crashed server while the
            # remaining ops keep writing (the concurrent-traffic path).
            if plan.scheme != "raid0" and i < len(ops) - 2:
                for s in range(plan.num_servers):
                    iod = system.iods[s]
                    if iod.failed and not iod.rebuilding \
                            and s not in rebuilds:
                        rebuilds[s] = system.env.process(
                            rebuild_server(system, s),
                            name="chaos.rebuild")
        for proc in rebuilds.values():
            yield proc

        # Post-fault recovery: every server that is still down, came
        # back stale from a restart, or is merely *suspected* (a timed-
        # out RPC may have been dropped before or after taking effect)
        # is rebuilt to a known-consistent state.
        if plan.scheme != "raid0":
            needs = {s for s in range(plan.num_servers)
                     if system.iods[s].failed}
            if injector is not None:
                needs |= injector.restarted
            for c in system.clients:
                needs |= set(c.suspected)
            for s in sorted(needs):
                if not system.iods[s].failed:
                    system.iods[s].fail()
                yield from rebuild_server(system, s)

        # Final verification sweep: the durability oracle.
        for name in _FILES:
            for start in range(0, size, _UNIT):
                length = min(_UNIT, size - start)
                try:
                    data = yield from client.read(name, start, length)
                except (ServerFailed, DataLoss) as exc:
                    if plan.scheme != "raid0":
                        diffs.append(
                            f"durability: {name}[{start}:{start + length}]"
                            f" unreadable after recovery: {exc}")
                    else:
                        # RAID0 keeps no redundancy: bytes on the lost
                        # server are accepted losses, not violations.
                        mask[name][start:start + length] = False
                    continue
                check(name, start, data.data, "durability")

    system.run(driver())
    contents = {name: hashlib.sha256(
        ref[name].tobytes() + mask[name].tobytes()).hexdigest()
        for name in _FILES}
    return {
        "diffs": diffs,
        "outcomes": outcomes,
        "contents": contents,
        "fired": list(injector.fired) if injector is not None else [],
    }


def run_plan(plan: FaultPlan, inject=None) -> ChaosResult:
    """Execute one fault plan under full sanitizer coverage.

    ``inject`` (tests only) receives the built :class:`System` before
    the workload starts — the hook the verify-the-verifier tests use to
    swap in :mod:`repro.analysis.seeded_bugs` schemes.
    """
    from repro.analysis import SANITIZER_MODULES, sanitizer_scope
    from repro.csar.system import System

    failure_kind: Optional[str] = None
    failure: Optional[str] = None
    data: Dict[str, Any] = {"diffs": [], "outcomes": [],
                            "contents": {}, "fired": []}
    _injector.install(plan)
    try:
        with sanitizer_scope(SANITIZER_MODULES) as drain:
            try:
                system = System(_chaos_config(plan))
                if inject is not None:
                    inject(system)
                data = _drive(plan, system)
            except (ReproError, AssertionError) as exc:
                failure_kind = f"exception:{type(exc).__name__}"
                failure = str(exc)
            reports = drain()
    finally:
        _injector.uninstall()

    # Attribution priority mirrors the explorer: an exception beats a
    # sanitizer report (the scope hands them back LockSan, then BufSan,
    # then ParitySan) beats a differential mismatch — the sanitizers
    # point closer to the root cause.
    if failure_kind is None and reports:
        tool, report = reports[0]
        failure_kind = f"{tool}:{report.kind}"
        failure = report.format()
    if failure_kind is None and data["diffs"]:
        failure_kind = "differential"
        failure = "; ".join(data["diffs"][:4])

    digest = hashlib.sha256(json.dumps({
        "plan": plan.to_json(),
        "fired": [[repr(t), k, s] for t, k, s in data["fired"]],
        "outcomes": data["outcomes"],
        "contents": data["contents"],
        "failure_kind": failure_kind,
    }, sort_keys=True).encode()).hexdigest()

    acked = sum(1 for o in data["outcomes"] if o[-1])
    return ChaosResult(
        plan=plan, ok=failure_kind is None, failure_kind=failure_kind,
        failure=failure, digest=digest, fired=data["fired"],
        ops_acked=acked, ops_failed=len(data["outcomes"]) - acked)


def run_chaos(seed: int, scheme: str, num_servers: int = _SERVERS,
              num_ops: int = 10) -> ChaosResult:
    """Sample the seed's fault plan for ``scheme`` and execute it."""
    plan = sample_plan(seed, scheme, num_servers, num_ops)
    return run_plan(plan)


# ---------------------------------------------------------------------------
# failing-plan serialization + replay
# ---------------------------------------------------------------------------
def save_failing_plan(result: ChaosResult, path: str) -> None:
    """Serialize a failing run: the plan plus the expected outcome."""
    data = result.plan.to_json()
    data["failure"] = {"kind": result.failure_kind,
                       "description": result.failure}
    data["digest"] = result.digest
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def replay(path: str) -> Tuple[bool, ChaosResult]:
    """Re-run a saved plan; ``reproduced`` is True when the outcome
    (digest, or at least the failure kind) matches the recording."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    plan = FaultPlan.from_json(data)
    result = run_plan(plan)
    expected = data.get("failure") or {}
    expected_digest = data.get("digest")
    if expected_digest is not None:
        reproduced = result.digest == expected_digest
    elif expected.get("kind"):
        reproduced = result.failure_kind == expected["kind"]
    else:
        reproduced = result.ok
    return reproduced, result


def run_campaign(seeds, schemes=CHAOS_SCHEMES, num_servers: int = _SERVERS,
                 num_ops: int = 10, plan_dir: Optional[str] = None,
                 ) -> List[ChaosResult]:
    """The seed × scheme sweep CI runs; failing plans land in plan_dir."""
    import os

    results: List[ChaosResult] = []
    for seed in seeds:
        for scheme in schemes:
            result = run_chaos(seed, scheme, num_servers=num_servers,
                               num_ops=num_ops)
            results.append(result)
            if not result.ok and plan_dir is not None:
                os.makedirs(plan_dir, exist_ok=True)
                save_failing_plan(result, os.path.join(
                    plan_dir, f"seed{seed}-{scheme}.json"))
    return results

"""The chaos campaign: sampled fault plans over a seeded op stream.

One chaos run is fully determined by a :class:`~repro.faults.plan.FaultPlan`
(itself determined by a seed): a content-mode :class:`System` drives a
seeded mix of writes and verifying reads over two files while the plan's
faults fire, rebuilds crashed servers online as the remaining ops keep
writing, then recovers every faulted server
(:func:`~repro.faults.campaign.recover`) and reads every byte back
(:meth:`~repro.faults.campaign.Oracle.verify`).
:func:`repro.faults.campaign.run` judges the run; same seed, same
:class:`~repro.faults.campaign.Outcome`, digest included.
"""

from __future__ import annotations

import os
from random import Random
from typing import Any, Callable, Generator, List, Optional

from repro.faults import campaign
from repro.faults.plan import FaultPlan, sample_plan
from repro.storage.payload import Payload

#: The schemes a chaos campaign sweeps.
CHAOS_SCHEMES = ("raid0", "raid1", "raid5", "hybrid")

#: Workload geometry: small stripes keep runs fast while still crossing
#: every protocol path (full stripes, head/tail partials, overflow).
_UNIT = 1024
_SERVERS = 5
_FILES = ("chaos0", "chaos1")


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


def _drive(plan: FaultPlan, system, oracle: campaign.Oracle) -> Generator:
    """Prefill, the op stream with online rebuilds, recovery, and the
    durability check, all in one ``system.run`` so the sanitizers'
    quiescent checks fire only after recovery has restored the
    redundancy invariants the faults broke."""
    from repro.redundancy.recovery import rebuild_server

    client = system.client()
    size = oracle.ref[_FILES[0]].size
    ops = _op_stream(Random(plan.seed * 48271 + 11), plan.num_ops,
                     system.layout.group_span, size)
    for name in _FILES:
        yield from client.create(name)
        yield from oracle.write(client, name, 0, Payload.zeros(size),
                                ["prefill", name])
    rebuilds = {}
    for i, op in enumerate(ops):
        system.env.faults.note_op(i)
        kind, name, offset, length = op[:4]
        if kind == "write":
            yield from oracle.write(client, name, offset,
                                    Payload.pattern(length, seed=op[4]),
                                    [i, kind, offset, length])
        else:
            yield from oracle.read(client, name, offset, length,
                                   [i, kind, offset, length])
        # Online recovery: rebuild a crashed server while the
        # remaining ops keep writing (the concurrent-traffic path).
        if plan.scheme != "raid0" and i < len(ops) - 2:
            for s, iod in enumerate(system.iods):
                if iod.failed and not iod.rebuilding and s not in rebuilds:
                    rebuilds[s] = system.env.process(
                        rebuild_server(system, s), name="chaos.rebuild")
    for proc in rebuilds.values():
        yield proc
    yield from campaign.recover(system)
    yield from oracle.verify(client)


def workload(plan: FaultPlan,
             make_scheme: Optional[Callable[[Any], Any]] = None,
             ) -> Callable[[], None]:
    """The chaos workload of ``plan``; ``make_scheme`` maps the config to
    a replacement scheme (the seeded-bug hook of the tests)."""
    def run() -> None:
        from repro.csar.system import System

        system = System(_chaos_config(plan))
        if make_scheme is not None:
            from repro.analysis.seeded_bugs import inject

            inject(system, make_scheme(system.config))
        oracle = campaign.Oracle(system, _FILES,
                                 3 * system.layout.group_span + 2 * _UNIT)
        system.run(_drive(plan, system, oracle))
    return run


def run_plan(plan: FaultPlan,
             make_scheme: Optional[Callable[[Any], Any]] = None,
             ties=None) -> campaign.Outcome:
    """Execute one fault plan, optionally under a tie breaker."""
    return campaign.run(workload(plan, make_scheme), faults=plan, ties=ties)


def run_chaos(seed: int, scheme: str, num_servers: int = _SERVERS,
              num_ops: int = 10) -> campaign.Outcome:
    """Sample the seed's fault plan for ``scheme`` and execute it."""
    return run_plan(sample_plan(seed, scheme, num_servers, num_ops))


def run_campaign(seeds, schemes=CHAOS_SCHEMES, num_servers: int = _SERVERS,
                 num_ops: int = 10, plan_dir: Optional[str] = None,
                 ) -> List[campaign.Outcome]:
    """The seed × scheme sweep CI runs; failing runs are saved as replay
    files ``seed<N>-<scheme>.json`` in ``plan_dir``."""
    outcomes: List[campaign.Outcome] = []
    for seed in seeds:
        for scheme in schemes:
            outcome = run_chaos(seed, scheme, num_servers=num_servers,
                                num_ops=num_ops)
            outcomes.append(outcome)
            if not outcome.ok and plan_dir is not None:
                os.makedirs(plan_dir, exist_ok=True)
                campaign.save(os.path.join(
                    plan_dir, f"seed{seed}-{scheme}.json"), outcome)
    return outcomes

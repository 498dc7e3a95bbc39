"""The crash-consistency matrix.

For a fixed two-write scenario — a full prefill followed by a victim
partial write — crash **every server** at **every named protocol step**
the scenario reaches (one run per cell), recover the cluster, and check
that every byte of every *acknowledged* write reads back intact.  Each
cell is a :func:`repro.faults.campaign.run` under all three sanitizers.

The cells come from a census (:func:`matrix_steps`): a fault-free run
of the scenario records every step it reaches, so a new probe is a new
cell without a table to keep.

Crashes *between* operations (what the pre-existing failure tests do)
never reach the windows inside the RAID5 read-modify-write or the Hybrid
overflow append, and :class:`~repro.analysis.seeded_bugs.\
CompensatingWritebackRaid5` is a bug class only visible inside such a
window.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.faults import campaign
from repro.faults.plan import STEP_NAMES, FaultPlan, FaultSpec, Trigger
from repro.storage.payload import Payload

_UNIT = 512
_SERVERS = 5
_NAME = "mtx"


def _system(scheme: str, make_scheme: Optional[Callable[[Any], Any]]):
    from repro.csar.config import CSARConfig
    from repro.csar.system import System

    system = System(CSARConfig(
        scheme=scheme, num_servers=_SERVERS, num_clients=1,
        stripe_unit=_UNIT, content_mode=True,
        rpc_timeout=0.25, rpc_retries=1, rpc_jitter_seed=7))
    if make_scheme is not None:
        from repro.analysis.seeded_bugs import inject

        inject(system, make_scheme(system.config))
    return system


def _scenario(system) -> None:
    """Prefill + victim partial write + recovery + durability check."""
    oracle = campaign.Oracle(system, (_NAME,), 2 * system.layout.group_span)
    client = system.client()

    def body() -> Generator:
        yield from client.create(_NAME)
        # The victim partial write: head-partial in group 0, small
        # enough to stay on one home server in the Hybrid overflow path.
        for offset, payload in (
                (0, Payload.pattern(oracle.ref[_NAME].size, seed=11)),
                (_UNIT // 4, Payload.pattern(_UNIT // 2, seed=22))):
            yield from oracle.write(client, _NAME, offset, payload,
                                    ["write", offset, payload.length])
        yield from campaign.recover(system)
        yield from oracle.verify(client)

    system.run(body())


def run_cell(scheme: str, step: str, nth: int, victim: int,
             make_scheme: Optional[Callable[[Any], Any]] = None,
             ties=None) -> campaign.Outcome:
    """Crash ``victim`` at the ``nth`` firing of ``step`` in a fresh
    system; ``make_scheme`` maps the config to a replacement scheme (the
    seeded-bug hook of ``csar-repro chaos --smoke`` and the tests)."""
    plan = FaultPlan(
        seed=0, scheme=scheme, num_servers=_SERVERS, num_ops=0,
        faults=[FaultSpec("crash", victim, Trigger("step", step, nth=nth))],
        note=f"crash matrix: {step}#{nth}, victim iod{victim}")
    plan.validate()
    return campaign.run(lambda: _scenario(_system(scheme, make_scheme)),
                        faults=plan, ties=ties)


def matrix_steps(scheme: str) -> List[Tuple[str, int]]:
    """Every ``(step, nth)`` the scenario reaches under ``scheme``: a
    census of one fault-free run, counting each protocol-step probe
    (:data:`~repro.faults.plan.STEP_NAMES`) as it fires — a step fired by
    both writes, or on the home and the mirror server, gives a cell per
    firing."""
    system = _system(scheme, None)
    counts: Dict[str, int] = {}

    def count(step: str, *_args: Any) -> None:
        counts[step] = counts.get(step, 0) + 1

    for step in STEP_NAMES:
        system.env.subscribe(step, partial(count, step))
    _scenario(system)
    return sorted((step, nth) for step, fired in counts.items()
                  for nth in range(1, fired + 1))


def crash_matrix(scheme: str,
                 make_scheme: Optional[Callable[[Any], Any]] = None,
                 victims: Optional[Tuple[int, ...]] = None,
                 ) -> List[Tuple[str, int, int, campaign.Outcome]]:
    """Every ``(step, nth, victim, outcome)`` cell of ``scheme``."""
    return [(step, nth, victim,
             run_cell(scheme, step, nth, victim, make_scheme=make_scheme))
            for step, nth in matrix_steps(scheme)
            for victim in (victims if victims is not None
                           else range(_SERVERS))]

"""The crash-consistency matrix.

For a fixed two-write scenario — a full prefill followed by a victim
partial write — crash **every server** at **every named protocol step**
the scenario reaches (one run per cell), recover the cluster, and
assert the durability invariant: every byte of every *acknowledged*
write reads back intact.  A write that raised is a wildcard (old, new,
or torn bytes are all legal), but an acked write lost after recovery is
a protocol bug.

The cells come from a census (:func:`matrix_steps`): a fault-free run
of the scenario records every step it reaches, so a new probe is a new
cell without a table to keep.

The matrix is the existential proof behind the chaos campaign: crashes
*between* operations (what the pre-existing failure tests do) never
reach the windows inside the RAID5 read-modify-write or the Hybrid
overflow append, and :class:`~repro.analysis.seeded_bugs.\
CompensatingWritebackRaid5` is a bug class that is only visible inside
such a window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.errors import DataLoss, ServerFailed
from repro.faults import injector as _injector
from repro.faults.plan import STEP_NAMES, FaultPlan, FaultSpec, Trigger
from repro.storage.payload import Payload

_UNIT = 512
_SERVERS = 5
_NAME = "mtx"


@dataclass
class MatrixCell:
    """One (step, nth, victim-server) crash experiment."""

    scheme: str
    step: str
    nth: int
    victim: int
    ok: bool
    detail: str = ""

    def format(self) -> str:
        status = "ok" if self.ok else f"FAIL ({self.detail})"
        return f"{self.scheme} {self.step}#{self.nth} victim={self.victim}: {status}"


def _matrix_config(scheme: str):
    from repro.csar.config import CSARConfig

    return CSARConfig(scheme=scheme, num_servers=_SERVERS, num_clients=1,
                      stripe_unit=_UNIT, content_mode=True,
                      rpc_timeout=0.25, rpc_retries=1, rpc_jitter_seed=7)


def run_cell(scheme: str, step: str, nth: int, victim: int,
             make_scheme: Optional[Callable[[Any], Any]] = None,
             ) -> MatrixCell:
    """Run one crash-matrix cell in a fresh system.

    ``make_scheme`` maps the built config to a replacement scheme object
    — the hook for seeded-bug verification (``csar-repro chaos --smoke``
    and tests).
    """
    plan = FaultPlan(
        seed=0, scheme=scheme, num_servers=_SERVERS, num_ops=0,
        faults=[FaultSpec("crash", victim, Trigger("step", step, nth=nth))],
        note=f"crash matrix: {step}#{nth}, victim iod{victim}")
    plan.validate()
    _injector.install(plan)
    try:
        from repro.csar.system import System

        system = System(_matrix_config(scheme))
        if make_scheme is not None:
            from repro.analysis.seeded_bugs import inject

            inject(system, make_scheme(system.config))
        diffs: List[str] = []
        system.run(_scenario(system, diffs))
    finally:
        _injector.uninstall()
    return MatrixCell(scheme=scheme, step=step, nth=nth, victim=victim,
                      ok=not diffs, detail="; ".join(diffs[:3]))


def _scenario(system, diffs: List[str]) -> Generator:
    """Prefill + victim partial write + recovery + durability check."""
    from repro.redundancy.recovery import rebuild_server

    client = system.client()
    span = system.layout.group_span
    size = 2 * span
    ref = np.zeros(size, dtype=np.uint8)
    mask = np.zeros(size, dtype=bool)

    # The victim partial write: head-partial in group 0, small enough
    # to stay on one home server in the Hybrid overflow path.
    writes = [
        (0, Payload.pattern(size, seed=11)),
        (_UNIT // 4, Payload.pattern(_UNIT // 2, seed=22)),
    ]

    yield from client.create(_NAME)
    for offset, payload in writes:
        end = offset + payload.length
        try:
            yield from client.write(_NAME, offset, payload)
        except (ServerFailed, DataLoss):
            mask[offset:end] = False  # torn extent: any content is legal
        else:
            ref[offset:end] = np.frombuffer(payload.to_bytes(),
                                            dtype=np.uint8)
            mask[offset:end] = True

    # Recover: rebuild every crashed and every suspected server.
    needs = {s for s in range(system.layout.n) if system.iods[s].failed}
    for c in system.clients:
        needs |= set(c.suspected)
    for s in sorted(needs):
        if not system.iods[s].failed:
            system.iods[s].fail()
        yield from rebuild_server(system, s)

    # Durability: the full file must read back with acked bytes intact.
    try:
        data = yield from client.read(_NAME, 0, size)
    except (ServerFailed, DataLoss) as exc:
        diffs.append(f"file unreadable after recovery: {exc}")
        return
    got = np.frombuffer(data.to_bytes(), dtype=np.uint8)
    if not np.array_equal(got[mask], ref[mask]):
        bad = int(np.count_nonzero(got[mask] != ref[mask]))
        diffs.append(f"{bad} acked byte(s) lost after recovery")


def matrix_steps(scheme: str) -> List[Tuple[str, int]]:
    """Every ``(step, nth)`` the scenario reaches under ``scheme``: a
    census of one fault-free run, counting each protocol-step probe
    (:data:`~repro.faults.plan.STEP_NAMES`) as it fires — a step fired by
    both writes, or on the home and the mirror server, gives a cell per
    firing."""
    from repro.csar.system import System

    system = System(_matrix_config(scheme))
    counts: Dict[str, int] = {}

    def count(step: str, *_args: Any) -> None:
        counts[step] = counts.get(step, 0) + 1

    for step in STEP_NAMES:
        system.env.subscribe(step, partial(count, step))
    system.run(_scenario(system, []))
    return sorted((step, nth) for step, fired in counts.items()
                  for nth in range(1, fired + 1))


def crash_matrix(scheme: str,
                 make_scheme: Optional[Callable[[Any], Any]] = None,
                 victims: Optional[Tuple[int, ...]] = None,
                 ) -> List[MatrixCell]:
    """Run the full (step × victim) crash matrix for ``scheme``."""
    cells: List[MatrixCell] = []
    for step, nth in matrix_steps(scheme):
        for victim in (victims if victims is not None
                       else range(_SERVERS)):
            cells.append(run_cell(scheme, step, nth, victim,
                                  make_scheme=make_scheme))
    return cells

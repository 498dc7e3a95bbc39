"""LockSan: a runtime sanitizer for the Section 5.1 parity-lock protocol.

Under :func:`repro.analysis.sanitizer_scope` (the CLI's ``run
--sanitize``, ``campaign.run``, or the ``CSAR_LOCKSAN=1`` environment
variable honored by the test suite's ``conftest``), every new
:class:`~repro.sim.engine.Environment` builds a :class:`LockSan` (kept
as ``env.locksan``) that subscribes itself to
the parity-lock probes (``parity_lock.*``, :mod:`repro.probes`) that
:class:`~repro.redundancy.locks.ParityLockTable` announces, keyed by
``xid`` with ``(file, group)`` labels; the lock table names no tool.
One ledger of held locks is the basis of both checks: the
*double-release* check, and the *leak* check (locks still held when
:meth:`Environment.run` drains the event heap, ``run.complete``).

Tracking is keyed by ``xid`` (the client transaction), not by the server
handler process: a parity lock is taken by the handler of the parity
read and given up by the handler of the parity write.  Every xid asks
for one lock and holds none while it waits, so there is no lock order
or wait-for cycle to check; ``tests/redundancy/test_locks.py::
TestOrderedAcquisition`` checks Section 5.1's ascending order.

Both checks *collect* :class:`LockSanReport` entries rather than
raising, so a full test run can finish and report everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

_Key = Tuple[str, int]  # (file, parity group)


@dataclass(frozen=True)
class LockSanReport:
    """One sanitizer observation."""

    kind: str                 # "double-release" | "leak"
    message: str
    file: Optional[str]
    group: Optional[int]
    processes: Tuple[str, ...]

    def format(self) -> str:
        procs = ", ".join(self.processes) or "<unknown>"
        return f"LockSan[{self.kind}] {self.message} (processes: {procs})"


class LockSan:
    """Per-:class:`Environment` lock-protocol sanitizer."""

    def __init__(self, env: Any) -> None:
        self.env = env
        self.reports: List[LockSanReport] = []
        #: xid -> {(file, group): name of the acquiring process}
        self._held_by_xid: Dict[int, Dict[_Key, str]] = {}
        env.subscribe("parity_lock.acquired", self.on_acquired)
        env.subscribe("parity_lock.released", self.on_released)
        env.subscribe("parity_lock.double_release", self.on_double_release)
        env.subscribe("run.complete", self.on_run_complete)

    def _proc_name(self) -> str:
        proc = self.env.active_process
        return proc.name if proc is not None else "<main>"

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _report(self, kind: str, message: str, file: Optional[str] = None,
                group: Optional[int] = None,
                processes: Tuple[str, ...] = ()) -> None:
        self.reports.append(
            LockSanReport(kind, message, file, group, processes))

    # ------------------------------------------------------------------
    # ParityLockTable instrumentation
    # ------------------------------------------------------------------
    def on_acquired(self, file: str, group: int, xid: int) -> None:
        self._held_by_xid.setdefault(xid, {})[(file, group)] = \
            self._proc_name()

    def on_released(self, file: str, group: int, xid: int) -> None:
        held = self._held_by_xid.get(xid)
        if held is not None:
            held.pop((file, group), None)
            if not held:
                del self._held_by_xid[xid]

    def on_double_release(self, file: str, group: int, xid: int) -> None:
        self._report(
            "double-release",
            f"xid {xid} released parity lock {file}:{group} it does not "
            "hold",
            file=file, group=group, processes=(self._proc_name(),))

    # ------------------------------------------------------------------
    # teardown (``run.complete``: Environment.run drained the heap)
    # ------------------------------------------------------------------
    def on_run_complete(self) -> None:
        """Report every lock still held — a leaked lock can never be
        granted to anyone else."""
        for xid_held in self._held_by_xid.values():
            for (file, group), proc_name in xid_held.items():
                self._report(
                    "leak",
                    f"parity lock {file}:{group} still held by "
                    f"{proc_name!r} when the simulation drained",
                    file=file, group=group, processes=(proc_name,))
        self._held_by_xid.clear()

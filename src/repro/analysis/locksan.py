"""LockSan: a runtime sanitizer for the Section 5.1 parity-lock protocol.

When installed (:func:`install`, the CLI's ``run --sanitize``, or the
``CSAR_LOCKSAN=1`` environment variable honored by the test suite's
``conftest``), every new :class:`~repro.sim.engine.Environment` builds a
:class:`LockSan` (kept as ``env.sanitizer``) that subscribes itself to
the parity-lock probes (``parity_lock.*``, :mod:`repro.probes`) that
:class:`~repro.redundancy.locks.ParityLockTable` announces, keyed by
``xid`` with ``(file, group)`` labels; the lock table names no tool.
One ledger of held locks is the basis of every check: the *lock-order
inversion* check (acquiring group *g₂ < g₁* while holding *g₁* on the
same file), the *wait-for cycle* check (true deadlock, raised as
:class:`DeadlockError` with the process names involved **before** the
simulation hangs), the *double-release* check, and the *leak* check
(locks still held when :meth:`Environment.run` drains the event heap,
``run.complete``).

Tracking is keyed by ``xid`` (the client transaction), not by the server
handler process: a client's two parity-group acquisitions arrive as
separate messages handled by separate server processes, possibly on
different servers, so only the xid view can see a cross-server
inversion or wait-for cycle.

All checks except deadlock *collect* :class:`LockSanReport` entries
rather than raising, so a full test run can finish and report
everything; pass ``strict=True`` to raise on the first report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis import SanitizerRegistry
from repro.errors import DeadlockError, LockSanError

_Key = Tuple[str, int]  # (file, parity group)


@dataclass(frozen=True)
class LockSanReport:
    """One sanitizer observation."""

    kind: str                 # "order-inversion" | "deadlock" |
                              # "double-release" | "leak"
    message: str
    file: Optional[str]
    group: Optional[int]
    processes: Tuple[str, ...]

    def format(self) -> str:
        procs = ", ".join(self.processes) or "<unknown>"
        return f"LockSan[{self.kind}] {self.message} (processes: {procs})"


class LockSan:
    """Per-:class:`Environment` lock-protocol sanitizer."""

    def __init__(self, env: Any, strict: bool = False,
                 raise_on_deadlock: bool = True) -> None:
        self.env = env
        self.strict = strict
        self.raise_on_deadlock = raise_on_deadlock
        self.reports: List[LockSanReport] = []
        #: xid -> {(file, group): (acquiring process, sim-time acquired)}
        self._held_by_xid: Dict[int, Dict[_Key, Tuple[str, float]]] = {}
        #: (file, group) -> xid currently holding the parity lock
        self._holder: Dict[_Key, int] = {}
        #: (file, group) -> xids queued FIFO behind the holder
        self._waiters: Dict[_Key, List[int]] = {}
        #: xid -> (file, group) it is blocked on
        self._waiting_on: Dict[int, _Key] = {}
        #: xid -> name of the process that last acted for it
        self._proc_of_xid: Dict[int, str] = {}
        _REGISTRY.register(self)
        env.subscribe("parity_lock.wait", self.on_wait)
        env.subscribe("parity_lock.cancel", self.on_cancel)
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
                processes: Tuple[str, ...] = ()) -> LockSanReport:
        report = LockSanReport(kind, message, file, group, processes)
        self.reports.append(report)
        if self.strict:
            raise LockSanError(report.format())
        return report

    # ------------------------------------------------------------------
    # ParityLockTable instrumentation
    # ------------------------------------------------------------------
    def on_wait(self, file: str, group: int, xid: int) -> None:
        """``xid`` queued behind the holder of ``(file, group)``."""
        key = (file, group)
        self._proc_of_xid[xid] = self._proc_name()
        self._waiters.setdefault(key, []).append(xid)
        self._waiting_on[xid] = key
        cycle = self._find_cycle(xid)
        if cycle is not None:
            names = tuple(self._proc_of_xid.get(x, f"xid {x}")
                          for x in cycle)
            chain = " -> ".join(
                f"{self._proc_of_xid.get(x, 'xid ' + str(x))}"
                f"(xid {x})" for x in cycle)
            report = self._report(
                "deadlock",
                f"wait-for cycle on parity locks: {chain} -> back to "
                f"start; blocked on {file}:{group}; "
                f"{self._held_summary(cycle)}",
                file=file, group=group, processes=names)
            if self.raise_on_deadlock and not self.strict:
                raise DeadlockError(report.format())

    def on_cancel(self, file: str, group: int, xid: int) -> None:
        """``xid``'s queued acquire was interrupted and cancelled."""
        key = (file, group)
        waiters = self._waiters.get(key, [])
        if xid in waiters:
            waiters.remove(xid)
        self._waiting_on.pop(xid, None)

    def on_acquired(self, file: str, group: int, xid: int) -> None:
        key = (file, group)
        proc_name = self._proc_of_xid[xid] = self._proc_name()
        waiters = self._waiters.get(key, [])
        if xid in waiters:
            waiters.remove(xid)
        self._waiting_on.pop(xid, None)
        held = self._held_by_xid.setdefault(xid, {})
        for (other_file, other_group), (holder_proc, _when) in held.items():
            if other_file == file and other_group > group:
                self._report(
                    "order-inversion",
                    f"xid {xid} acquired parity lock {file}:{group} while "
                    f"holding {other_file}:{other_group} — groups must be "
                    "taken in ascending order (Section 5.1)",
                    file=file, group=group,
                    processes=(proc_name, holder_proc))
        held[key] = (proc_name, self.env.now)
        self._holder[key] = xid

    def on_released(self, file: str, group: int, xid: int) -> None:
        key = (file, group)
        held = self._held_by_xid.get(xid)
        if held is not None:
            held.pop(key, None)
            if not held:
                del self._held_by_xid[xid]
        if self._holder.get(key) == xid:
            del self._holder[key]

    def on_double_release(self, file: str, group: int, xid: int) -> None:
        self._report(
            "double-release",
            f"xid {xid} released parity lock {file}:{group} it does not "
            "hold",
            file=file, group=group, processes=(self._proc_name(),))

    def _held_summary(self, cycle: List[int]) -> str:
        """Per-participant held locks (with acquisition sim-times) for
        deadlock reports — what each cycle member refuses to give up."""
        parts: List[str] = []
        for xid in cycle:
            name = self._proc_of_xid.get(xid, f"xid {xid}")
            held = self._held_by_xid.get(xid, {})
            if not held:
                parts.append(f"{name}(xid {xid}) holds nothing")
                continue
            locks = ", ".join(
                f"{f}:{g} (acquired t={when:.6g})"
                for (f, g), (_proc, when) in sorted(held.items()))
            parts.append(f"{name}(xid {xid}) holds [{locks}]")
        return "held: " + "; ".join(parts)

    # ------------------------------------------------------------------
    # wait-for cycle detection
    # ------------------------------------------------------------------
    def _find_cycle(self, start: int) -> Optional[List[int]]:
        """DFS over the xid wait-for graph; a waiter waits for the
        holder of its lock and for every xid queued ahead of it."""

        def edges(xid: int) -> List[int]:
            key = self._waiting_on.get(xid)
            if key is None:
                return []
            out: List[int] = []
            holder = self._holder.get(key)
            if holder is not None:
                out.append(holder)
            queue = self._waiters.get(key, [])
            if xid in queue:
                out.extend(queue[:queue.index(xid)])
            return out

        path: List[int] = []
        on_path: Set[int] = set()
        visited: Set[int] = set()

        def dfs(xid: int) -> Optional[List[int]]:
            if xid in on_path:
                return path[path.index(xid):]
            if xid in visited:
                return None
            visited.add(xid)
            path.append(xid)
            on_path.add(xid)
            for nxt in edges(xid):
                found = dfs(nxt)
                if found is not None:
                    return found
            path.pop()
            on_path.discard(xid)
            return None

        return dfs(start)

    # ------------------------------------------------------------------
    # teardown (``run.complete``: Environment.run drained the heap)
    # ------------------------------------------------------------------
    def on_run_complete(self) -> None:
        """Report every lock still held — a leaked lock can never be
        granted to anyone else."""
        for xid_held in self._held_by_xid.values():
            for (file, group), (proc_name, _when) in xid_held.items():
                self._report(
                    "leak",
                    f"parity lock {file}:{group} still held by "
                    f"{proc_name!r} when the simulation drained",
                    file=file, group=group, processes=(proc_name,))
        self._held_by_xid.clear()


#: Every live sanitizer; lets the CLI and the pytest hook sweep reports
#: across many Environments without threading the instances through.
_REGISTRY = SanitizerRegistry("sanitizer", LockSan)
install = _REGISTRY.install
uninstall = _REGISTRY.uninstall
installed = _REGISTRY.installed
drain_reports = _REGISTRY.drain

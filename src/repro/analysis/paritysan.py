"""ParitySan: a runtime sanitizer for the redundancy invariants.

LockSan (:mod:`repro.analysis.locksan`) checks the *protocol*; ParitySan
checks the *state* the protocol exists to protect.  When installed
(:func:`install`, the CLI's ``run --sanitize=parity``, or the
``CSAR_PARITYSAN=1`` environment variable honored by the test suite's
``conftest``), every new :class:`~repro.sim.engine.Environment` builds a
:class:`ParitySan` (kept as ``env.paritysan``) that subscribes itself to
the sync-point probes below (:mod:`repro.probes`); production code
announces them and names no tool.

At those sync points it asserts:

* **parity == XOR of live stripe blocks** for RAID5/Hybrid files (and
  mirror equality for RAID1) — reusing the offline scrub's oracles,
  only when the system runs in ``content_mode``;
* **overflow entries shadow, never alias, home blocks** — the
  structural :meth:`~repro.redundancy.overflow.OverflowTable.check_invariants`
  self-check on every overflow and overflow-mirror table (content mode
  not required);
* **post-recovery / post-scrub consistency** — at the end of
  :func:`~repro.redundancy.recovery.rebuild_server` and after every
  :func:`~repro.redundancy.scrub.scrub` pass.

Sync points, by probe:

========================  ==============================================
``system.built``          ``System.__init__`` is done: :meth:`attach`
                          lets the checks reach cluster state
``system.quiescent``      ``System.run()`` after the awaited processes
                          finish (the primary check; background flushers
                          keep the heap alive, so full drains are rare)
``run.complete``          ``Environment.run`` when the heap drains
``recovery.done``         end of ``rebuild_server``
``scrub.done``            every offline scrub pass (records the scrub's
                          own findings as violations)
========================  ==============================================

Checks are skipped while any client write is in flight (the manager's
:class:`~repro.pvfs.manager.WriteLedger`, which brackets every client
write under every scheme) or any server is failed — those windows are
legitimately inconsistent (that is what recovery is for).  Violations
*collect* as :class:`ParitySanReport` entries (swept by
:func:`drain_reports`); pass ``strict=True`` to raise
:class:`~repro.errors.ParitySanError` on the first one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.analysis import SanitizerRegistry
from repro.errors import ParitySanError


@dataclass(frozen=True)
class ParitySanReport:
    """One observed redundancy-invariant violation."""

    kind: str                 # "parity" | "mirror" | "overflow-mirror" |
                              # "overflow-structure" | "scrub"
    message: str
    file: Optional[str]
    sync_point: str

    def format(self) -> str:
        return (f"ParitySan[{self.kind}] at {self.sync_point}: "
                f"{self.message}")


class ParitySan:
    """Per-:class:`Environment` redundancy-invariant sanitizer."""

    def __init__(self, env: Any, strict: bool = False) -> None:
        self.strict = strict
        self.reports: List[ParitySanReport] = []
        self._system: Optional[Any] = None
        _REGISTRY.register(self)
        env.subscribe("system.built", self.attach)
        env.subscribe("system.quiescent", self.on_quiescent)
        env.subscribe("run.complete", self.on_run_complete)
        env.subscribe("recovery.done", self.on_recovery)
        env.subscribe("scrub.done", self.on_scrub)

    # ------------------------------------------------------------------
    def attach(self, system: Any) -> None:
        """A :class:`System` was built on this environment: checks can
        now reach cluster state."""
        self._system = system

    def _report(self, kind: str, message: str, file: Optional[str],
                sync_point: str) -> None:
        report = ParitySanReport(kind, message, file, sync_point)
        self.reports.append(report)
        if self.strict:
            raise ParitySanError(report.format())

    # ------------------------------------------------------------------
    # sync points
    # ------------------------------------------------------------------
    def on_quiescent(self) -> None:
        self._check_all("quiescent")

    def on_run_complete(self) -> None:
        self._check_all("run-complete")

    def on_recovery(self, index: int) -> None:
        self._check_all(f"post-recovery(server {index})")

    def on_scrub(self, name: str, issues: List[str]) -> None:
        for issue in issues:
            self._report("scrub", issue, name, f"scrub({name})")

    # ------------------------------------------------------------------
    # the checks
    # ------------------------------------------------------------------
    def _check_all(self, sync_point: str) -> None:
        system = self._system
        if system is None or system.manager.write_ledger.active:
            return
        self._check_overflow_structure(system, sync_point)
        if not system.config.content_mode:
            return
        if any(iod.failed for iod in system.iods):
            # Degraded state is legitimately inconsistent until rebuilt.
            return
        self._check_content(system, sync_point)

    def _check_overflow_structure(self, system: Any,
                                  sync_point: str) -> None:
        for iod in system.iods:
            for name, table in iod.overflow.items():
                for issue in table.check_invariants():
                    self._report(
                        "overflow-structure",
                        f"server {iod.index} overflow[{name}]: {issue}",
                        name, sync_point)
            for (name, origin), table in iod.overflow_mirror.items():
                for issue in table.check_invariants():
                    self._report(
                        "overflow-structure",
                        f"server {iod.index} overflow-mirror"
                        f"[{name} origin {origin}]: {issue}",
                        name, sync_point)

    def _check_content(self, system: Any, sync_point: str) -> None:
        from repro.redundancy import scrub

        for name, meta in system.manager.files.items():
            scheme = meta.scheme
            if scheme == "raid1":
                for issue in scrub.check_mirrors(system, name):
                    self._report("mirror", issue, name, sync_point)
            elif scheme in ("raid5", "hybrid"):
                for issue in scrub.check_parity(system, name):
                    self._report("parity", issue, name, sync_point)
                if scheme == "hybrid":
                    for issue in scrub.check_overflow_mirrors(system,
                                                              name):
                        self._report("overflow-mirror", issue, name,
                                     sync_point)


#: Every live sanitizer, and the module's installation surface.
_REGISTRY = SanitizerRegistry("paritysan", ParitySan)
install = _REGISTRY.install
uninstall = _REGISTRY.uninstall
installed = _REGISTRY.installed
drain_reports = _REGISTRY.drain

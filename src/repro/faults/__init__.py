"""Deterministic fault injection for the CSAR reproduction.

The package has three layers:

* :mod:`repro.faults.plan` — declarative, JSON-serializable **fault
  plans**: what to break (server crash, transient crash-with-restart,
  message drop/delay/duplication, slow/erroring disk, torn block
  write) and when (a sim time, an op ordinal, or a named protocol
  step).  Plans are sampled seed-deterministically and round-trip
  through the same ``schema_version``-guarded JSON convention as the
  explorer's ``.sched`` files.
* :mod:`repro.faults.injector` — the runtime that arms a plan inside a
  simulation.  It is installed through the engine's ambient registry
  (:func:`repro.sim.engine.attach`) and subscribes itself to the
  protocol-step probes (:mod:`repro.probes`), so nothing it injects
  into imports this package; the three places where a fault is a
  decision (``hw.link``, ``hw.disk``, ``storage.localfs``) query
  ``env.faults`` and cost one ``None``-check when no plan is armed.
* :mod:`repro.faults.runner` — the chaos campaign behind
  ``csar-repro chaos``: samples plans, runs content-mode workloads
  under all three sanitizers, and checks the differential oracle plus
  the durability invariant.
"""

from repro.faults.plan import (
    PLAN_SCHEMA_VERSION,
    STEP_NAMES,
    FaultPlan,
    FaultSpec,
    Trigger,
    load_plan,
    sample_plan,
)
from repro.faults.injector import FaultInjector, install, uninstall

__all__ = [
    "PLAN_SCHEMA_VERSION",
    "STEP_NAMES",
    "FaultPlan",
    "FaultSpec",
    "Trigger",
    "FaultInjector",
    "install",
    "uninstall",
    "load_plan",
    "sample_plan",
]

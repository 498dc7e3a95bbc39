"""Deterministic fault injection for the CSAR reproduction.

* :mod:`repro.faults.plan` — declarative, JSON-serializable **fault
  plans**: what to break (server crash, transient crash-with-restart,
  message drop/delay/duplication, slow/erroring disk, torn block
  write) and when (a sim time, an op ordinal, or a named protocol
  step), sampled seed-deterministically.
* :mod:`repro.faults.injector` — the runtime that arms a plan inside a
  simulation.  It is attached through the engine's ambient registry
  (:func:`repro.sim.engine.attach`) and subscribes itself to the
  protocol-step probes (:mod:`repro.probes`), so nothing it injects
  into imports this package; the three places where a fault is a
  decision (``hw.link``, ``hw.disk``, ``storage.localfs``) query
  ``env.faults`` and cost one ``None``-check when no plan is armed.
* :mod:`repro.faults.campaign` — the engine: runs a workload under a
  fault plan and/or a tie order with all three sanitizers, judges it in
  one attribution order against one acked-byte oracle, and saves and
  replays the one replay file.
* :mod:`repro.faults.runner` and :mod:`repro.faults.matrix` — its fault
  campaigns behind ``csar-repro chaos`` and ``chaos --matrix``: sampled
  plans over a seeded op stream, and a crash at every protocol step ×
  victim server.
"""

from repro.faults.plan import (
    PLAN_SCHEMA_VERSION,
    STEP_NAMES,
    FaultPlan,
    FaultSpec,
    Trigger,
    sample_plan,
)
from repro.faults.injector import FaultInjector

__all__ = [
    "PLAN_SCHEMA_VERSION",
    "STEP_NAMES",
    "FaultPlan",
    "FaultSpec",
    "Trigger",
    "FaultInjector",
    "sample_plan",
]

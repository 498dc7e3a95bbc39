"""The fault-injection runtime.

While :func:`repro.faults.campaign.run` has a plan armed, every new
:class:`~repro.sim.engine.Environment` builds a :class:`FaultInjector`
through the engine's ambient registry (``engine.attach("faults", …)``)
and keeps it as ``env.faults``.
The injector *hears* the probes it subscribes to (:mod:`repro.probes`):

* ``system.built`` arms the plan against the
  :class:`~repro.csar.system.System` (:meth:`FaultInjector.attach`);
* each named protocol step (:data:`repro.faults.plan.STEP_NAMES`) fires
  its step-triggered faults synchronously at exactly that point
  (:meth:`on_step`);

and is *asked*, as ``env.faults``, where a fault is a decision the
caller must act on, which no notification can return:

* :func:`repro.hw.link.send` calls :meth:`link_action` per message
  (drop / delay / duplicate);
* :meth:`repro.hw.disk.Disk.io` calls :meth:`disk_action` per operation
  (slow down, or inject an EIO that panics the serving daemon);
* :class:`repro.storage.localfs.LocalFS` calls :meth:`torn_action` per
  block-file write (persist a prefix, then panic the server);
* the chaos runner calls :meth:`note_op` before each workload op.

Crash semantics: a fired crash calls :meth:`IODaemon.fail`, which
rejects new requests, errors out in-flight handlers and replies, and
clears the parity-lock table (see ``pvfs/iod.py``).  ``restart_crash`` brings the
server back ``restart_after`` sim-seconds later with its (possibly
stale) disk intact; clients keep it *suspected* — reads reconstruct
around it — until a rebuild clears the suspicion.

Everything is driven by the armed plan and the sim clock: no wall
clock, no unseeded randomness, so a plan replays bit-identically.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Generator, List, Optional, Tuple

from repro.errors import DiskFault, FaultPlanError
from repro.faults.plan import STEP_NAMES, FaultPlan, FaultSpec


class FaultInjector:
    """Armed fault plan + live trigger state for one environment."""

    def __init__(self, env, plan: Optional[FaultPlan]) -> None:
        self.plan = plan
        self.system = None
        self.env = env
        #: ``(sim_time, kind, server)`` log of every fired fault — part
        #: of the chaos determinism digest.
        self.fired: List[Tuple[float, str, int]] = []
        self._step_counts: Dict[str, int] = {}
        self._pending_steps: Dict[str, List[FaultSpec]] = {}
        self._pending_ops: Dict[int, List[FaultSpec]] = {}
        self._link_active: List[dict] = []
        self._disk_active: List[dict] = []
        self._torn_active: List[FaultSpec] = []
        self._nic_owner: Dict[int, int] = {}
        self._disk_owner: Dict[int, int] = {}
        self.restarted: set = set()
        env.subscribe("system.built", self.attach)
        for name in STEP_NAMES:
            env.subscribe(name, partial(self.on_step, name))

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def attach(self, system) -> None:
        """Arm the plan against a freshly built :class:`System`."""
        self.system = system
        plan = self.plan
        if plan is None:
            return
        if plan.num_servers != system.config.num_servers:
            raise FaultPlanError(
                f"plan was sampled for {plan.num_servers} servers, "
                f"system has {system.config.num_servers}")
        if plan.needs_timeout and system.config.rpc_timeout is None:
            raise FaultPlanError(
                "plan drops messages, which strands RPCs forever unless "
                "CSARConfig.rpc_timeout is set")
        self._nic_owner = {id(node.nic): i
                          for i, node in enumerate(system.server_nodes)}
        self._disk_owner = {id(node.disk): i
                           for i, node in enumerate(system.server_nodes)}
        for spec in plan.faults:
            trigger = spec.trigger
            if trigger.kind == "time":
                self.env.process(self._timer(spec), name="faults.timer")
            elif trigger.kind == "op":
                self._pending_ops.setdefault(trigger.at, []).append(spec)
            else:
                self._pending_steps.setdefault(trigger.at, []).append(spec)

    def _timer(self, spec: FaultSpec) -> Generator:
        delay = spec.trigger.at - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        self._fire(spec)

    # ------------------------------------------------------------------
    # triggers
    # ------------------------------------------------------------------
    def note_op(self, ordinal: int) -> None:
        """The workload is about to issue op ``ordinal`` (0-based)."""
        for spec in self._pending_ops.pop(ordinal, ()):
            self._fire(spec)

    def on_step(self, name: str, server: Optional[int] = None) -> None:
        """The named protocol step's probe was emitted."""
        count = self._step_counts.get(name, 0) + 1
        self._step_counts[name] = count
        pending = self._pending_steps.get(name)
        if not pending:
            return
        for spec in list(pending):
            if spec.trigger.nth == count:
                pending.remove(spec)
                self._fire(spec)

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    def _fire(self, spec: FaultSpec) -> None:
        self.fired.append((self.env.now, spec.kind, spec.server))
        kind = spec.kind
        if kind in ("crash", "restart_crash"):
            self._crash(spec.server)
            if kind == "restart_crash":
                iod = self.system.iods[spec.server]
                self.env.process(self._restarter(spec, iod),
                                 name="faults.restarter")
        elif kind in ("link_drop", "link_delay", "link_dup"):
            self._link_active.append({"spec": spec, "left": spec.count})
        elif kind in ("disk_slow", "disk_error"):
            self._disk_active.append({"spec": spec, "left": spec.count})
        elif kind == "torn_write":
            self._torn_active.append(spec)

    def _crash(self, server: int) -> None:
        iod = self.system.iods[server]
        if not iod.failed:
            iod.fail()
            self.system.metrics.add("failures.injected")

    def _restarter(self, spec: FaultSpec, iod) -> Generator:
        yield self.env.timeout(spec.restart_after)
        if self.system.iods[spec.server] is iod and iod.failed \
                and not iod.rebuilding:
            # Disk contents survive the restart but may be stale; the
            # server serves again, yet stays suspected by every client
            # that saw it fail until a rebuild clears the suspicion.
            iod.repair(wipe=False)
            self.restarted.add(spec.server)
            self.fired.append((self.env.now, "restart", spec.server))

    # ------------------------------------------------------------------
    # hook-point queries
    # ------------------------------------------------------------------
    def link_action(self, src, dst, nbytes: int) -> Optional[tuple]:
        """Fault action for one message ``src -> dst``, or ``None``.

        Returns ``("drop",)``, ``("delay", seconds)`` or ``("dup",)``;
        each armed fault consumes ``count`` matching messages.
        """
        if not self._link_active:
            return None
        src_owner = self._nic_owner.get(id(src))
        dst_owner = self._nic_owner.get(id(dst))
        for entry in self._link_active:
            spec = entry["spec"]
            direction = spec.direction
            if not ((direction in ("req", "any") and dst_owner == spec.server)
                    or (direction in ("reply", "any")
                        and src_owner == spec.server)):
                continue
            entry["left"] -= 1
            if entry["left"] <= 0:
                self._link_active.remove(entry)
            self.fired.append((self.env.now, spec.kind, spec.server))
            if spec.kind == "link_drop":
                return ("drop",)
            if spec.kind == "link_delay":
                return ("delay", spec.delay)
            return ("dup",)
        return None

    def disk_action(self, disk) -> Optional[tuple]:
        """Fault action for one disk I/O, or ``None``.

        ``("slow", factor)`` stretches the operation; ``("error",)``
        makes it raise :class:`~repro.errors.DiskFault` *after* this
        injector has panicked the owning server (EIO is treated as
        fatal, like an ext2 remount-ro).  Errors only fire on I/O
        issued by the server's own request handlers, so background
        flusher processes never raise into unsupervised code.
        """
        if not self._disk_active:
            return None
        owner = self._disk_owner.get(id(disk))
        if owner is None:
            return None
        for entry in self._disk_active:
            spec = entry["spec"]
            if spec.server != owner:
                continue
            if spec.kind == "disk_error":
                active = self.env.active_process
                name = getattr(active, "name", "") if active else ""
                if not name.startswith(f"iod{owner}."):
                    continue
            entry["left"] -= 1
            if entry["left"] <= 0:
                self._disk_active.remove(entry)
            self.fired.append((self.env.now, spec.kind, spec.server))
            if spec.kind == "disk_slow":
                return ("slow", spec.factor)
            self._crash(owner)
            return ("error",)
        return None

    def torn_action(self, owner: Optional[int], payload):
        """Torn-write decision for one block-file write on server
        ``owner``, or ``None``.

        Returns ``(truncated_payload_or_None, exception)``: the block
        file persists only the prefix, then raises — and the owning
        server is panicked, so the write is never acknowledged.
        """
        for spec in self._torn_active:
            if spec.server != owner:
                continue
            self._torn_active.remove(spec)
            keep = int(payload.length * spec.frac)
            self.fired.append((self.env.now, spec.kind, spec.server))
            self._crash(owner)
            torn = payload.slice(0, keep) if keep else None
            return (torn, DiskFault(
                f"torn write on iod{owner}: {keep}/{payload.length} bytes "
                f"persisted"))
        return None

"""Declarative fault plans.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each a
fault *kind* plus a :class:`Trigger` saying when it fires.  Plans are
pure data: their ``schema_version``-guarded JSON is the head of a replay
file (:func:`repro.faults.campaign.save`), so a failing chaos run
replays bit-for-bit with ``csar-repro chaos --replay``.

Fault kinds
-----------

``crash``
    Permanent server failure: :meth:`IODaemon.fail` on ``server``.
``restart_crash``
    Transient failure: the server crashes, then restarts
    ``restart_after`` sim-seconds later with its disk contents intact
    (``repair(wipe=False)``).  The server stays *suspected* by clients
    until it is rebuilt, so restarted-but-stale state is never read.
``link_drop`` / ``link_delay`` / ``link_dup``
    The next ``count`` messages to/from ``server`` on ``hw.link`` are
    silently dropped / delayed by ``delay`` sim-seconds / transit the
    wire twice.  Drops require client RPC timeouts to be enabled.
``disk_slow`` / ``disk_error``
    The next ``count`` I/Os on ``server``'s disk take ``factor``×
    longer / raise :class:`~repro.errors.DiskFault` (the server treats
    EIO as fatal and crashes).
``torn_write``
    The next block-file write on ``server`` persists only a ``frac``
    prefix of its payload, then the server crashes — the classic torn
    partial write.

Triggers
--------

``time``  — fire at sim time ``at`` (float seconds).
``op``    — fire just before workload op ordinal ``at`` (0-based).
``step``  — fire synchronously at the ``nth`` occurrence of the named
            protocol step ``at`` (see :data:`STEP_NAMES`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Iterable, Optional, Sequence

from repro.errors import FaultPlanError
from repro.probes import PROBES

PLAN_SCHEMA_VERSION = 1

FAULT_KINDS = (
    "crash",
    "restart_crash",
    "link_drop",
    "link_delay",
    "link_dup",
    "disk_slow",
    "disk_error",
    "torn_write",
)

TRIGGER_KINDS = ("time", "op", "step")

#: Named protocol steps that accept ``step`` triggers: the protocol-step
#: probes of the registry (:mod:`repro.probes`, which describes them).
STEP_NAMES = frozenset(
    name for name in PROBES
    if name.startswith(("raid5.", "hybrid.", "iod.")))

_LINK_KINDS = ("link_drop", "link_delay", "link_dup")
_DISK_KINDS = ("disk_slow", "disk_error")


@dataclass(frozen=True)
class Trigger:
    """When a fault fires: a sim time, an op ordinal, or a named step."""

    kind: str
    at: object
    nth: int = 1

    def validate(self) -> None:
        if self.kind not in TRIGGER_KINDS:
            raise FaultPlanError(f"unknown trigger kind {self.kind!r}")
        if self.kind == "time" and not isinstance(self.at, (int, float)):
            raise FaultPlanError(f"time trigger needs a number, got {self.at!r}")
        if self.kind == "op" and not (isinstance(self.at, int) and self.at >= 0):
            raise FaultPlanError(f"op trigger needs an ordinal >= 0, got {self.at!r}")
        if self.kind == "step":
            if self.at not in STEP_NAMES:
                raise FaultPlanError(f"unknown protocol step {self.at!r}")
            if self.nth < 1:
                raise FaultPlanError(f"step trigger nth must be >= 1, got {self.nth}")

    def to_json(self) -> dict:
        out = {"kind": self.kind, "at": self.at}
        if self.nth != 1:
            out["nth"] = self.nth
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Trigger":
        trig = cls(kind=data["kind"], at=data["at"], nth=int(data.get("nth", 1)))
        trig.validate()
        return trig


@dataclass(frozen=True)
class FaultSpec:
    """One fault: kind, target server, trigger, kind-specific knobs."""

    kind: str
    server: int
    trigger: Trigger
    restart_after: Optional[float] = None  # restart_crash
    count: int = 1                         # link_* / disk_*
    delay: float = 0.0                     # link_delay
    factor: float = 1.0                    # disk_slow
    frac: float = 0.5                      # torn_write
    direction: str = "any"                 # link_*: "req" | "reply" | "any"

    def validate(self, num_servers: int) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(f"unknown fault kind {self.kind!r}")
        if not 0 <= self.server < num_servers:
            raise FaultPlanError(
                f"fault {self.kind} targets server {self.server}, "
                f"but the system has {num_servers} servers")
        self.trigger.validate()
        if self.kind == "restart_crash" and (
                self.restart_after is None or self.restart_after <= 0):
            raise FaultPlanError("restart_crash needs restart_after > 0")
        if self.kind in _LINK_KINDS or self.kind in _DISK_KINDS:
            if self.count < 1:
                raise FaultPlanError(f"{self.kind} needs count >= 1")
        if self.kind == "link_delay" and self.delay <= 0:
            raise FaultPlanError("link_delay needs delay > 0")
        if self.kind == "disk_slow" and self.factor <= 1.0:
            raise FaultPlanError("disk_slow needs factor > 1")
        if self.kind == "torn_write" and not 0.0 <= self.frac < 1.0:
            raise FaultPlanError("torn_write needs 0 <= frac < 1")
        if self.direction not in ("req", "reply", "any"):
            raise FaultPlanError(f"bad link direction {self.direction!r}")

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "server": self.server,
            "trigger": self.trigger.to_json(),
        }
        if self.kind == "restart_crash":
            out["restart_after"] = self.restart_after
        if self.kind in _LINK_KINDS:
            out["count"] = self.count
            out["direction"] = self.direction
        if self.kind == "link_delay":
            out["delay"] = self.delay
        if self.kind in _DISK_KINDS:
            out["count"] = self.count
        if self.kind == "disk_slow":
            out["factor"] = self.factor
        if self.kind == "torn_write":
            out["frac"] = self.frac
        return out

    @classmethod
    def from_json(cls, data: dict) -> "FaultSpec":
        return cls(
            kind=data["kind"],
            server=int(data["server"]),
            trigger=Trigger.from_json(data["trigger"]),
            restart_after=data.get("restart_after"),
            count=int(data.get("count", 1)),
            delay=float(data.get("delay", 0.0)),
            factor=float(data.get("factor", 1.0)),
            frac=float(data.get("frac", 0.5)),
            direction=data.get("direction", "any"),
        )

    @property
    def needs_timeout(self) -> bool:
        """Drops and long delays strand an RPC; the client must time out."""
        return self.kind == "link_drop"


@dataclass
class FaultPlan:
    """A full, replayable fault plan for one chaos run."""

    seed: int
    scheme: str
    num_servers: int
    num_ops: int
    faults: list = field(default_factory=list)
    note: str = ""

    def validate(self) -> None:
        for spec in self.faults:
            spec.validate(self.num_servers)

    @property
    def needs_timeout(self) -> bool:
        return any(spec.needs_timeout for spec in self.faults)

    def to_json(self) -> dict:
        return {
            "schema_version": PLAN_SCHEMA_VERSION,
            "seed": self.seed,
            "scheme": self.scheme,
            "num_servers": self.num_servers,
            "num_ops": self.num_ops,
            "note": self.note,
            "faults": [spec.to_json() for spec in self.faults],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FaultPlan":
        version = data.get("schema_version")
        if version != PLAN_SCHEMA_VERSION:
            raise ValueError(
                f"fault plan schema_version {version!r} is not supported "
                f"(this build reads version {PLAN_SCHEMA_VERSION})")
        plan = cls(
            seed=int(data["seed"]),
            scheme=data["scheme"],
            num_servers=int(data["num_servers"]),
            num_ops=int(data["num_ops"]),
            note=data.get("note", ""),
            faults=[FaultSpec.from_json(f) for f in data["faults"]],
        )
        plan.validate()
        return plan


# ---------------------------------------------------------------------------
# Seed-deterministic sampling
# ---------------------------------------------------------------------------

#: Steps that are only reached by the named scheme.
_SCHEME_STEPS = {
    "raid5": (
        "raid5.rmw.before_parity_read",
        "raid5.rmw.after_parity_read",
        "raid5.rmw.before_writeback",
        "raid5.rmw.after_writeback",
        "raid5.full_stripe.before_write",
    ),
    "hybrid": (
        "raid5.rmw.before_parity_read",
        "raid5.rmw.after_parity_read",
        "raid5.rmw.before_writeback",
        "raid5.rmw.after_writeback",
        "hybrid.overflow.before_write",
        "hybrid.overflow.after_write",
        "iod.overflow.before_append",
        "iod.overflow.after_append",
    ),
}


def _sample_trigger(rng: Random, scheme: str, num_ops: int) -> Trigger:
    steps = _SCHEME_STEPS.get(scheme)
    kinds = ["op", "time"] + (["step", "step"] if steps else [])
    kind = rng.choice(kinds)
    if kind == "op":
        return Trigger("op", rng.randrange(num_ops))
    if kind == "time":
        # Workload ops land in the first few sim seconds; spread over them.
        return Trigger("time", round(rng.uniform(0.0005, 2.0), 6))
    return Trigger("step", rng.choice(steps), nth=rng.randint(1, 3))


def sample_plan(seed: int, scheme: str, num_servers: int,
                num_ops: int) -> FaultPlan:
    """Sample a fault plan deterministically from ``seed``.

    At most one server is ever *permanently* lost (CSAR is single-fault
    tolerant; losing two servers is declared :class:`DataLoss` and the
    write is never acknowledged, so a two-crash plan proves nothing
    about durability).  Nuisance faults (link, slow disk) may target
    any server.
    """
    rng = Random(seed)
    plan = FaultPlan(seed=seed, scheme=scheme, num_servers=num_servers,
                     num_ops=num_ops)
    # One "lethal" fault: crash / restart / torn write / disk error.
    victim = rng.randrange(num_servers)
    lethal = rng.choice(("crash", "crash", "restart_crash", "torn_write",
                         "disk_error"))
    if scheme == "raid0" and rng.random() < 0.5:
        lethal = None  # raid0 has no redundancy; usually run fault-free
    if lethal is not None:
        trigger = _sample_trigger(rng, scheme, num_ops)
        if lethal == "crash":
            spec = FaultSpec("crash", victim, trigger)
        elif lethal == "restart_crash":
            spec = FaultSpec("restart_crash", victim, trigger,
                             restart_after=round(rng.uniform(0.01, 0.5), 6))
        elif lethal == "torn_write":
            spec = FaultSpec("torn_write", victim, trigger,
                             frac=round(rng.uniform(0.0, 0.9), 3))
        else:
            spec = FaultSpec("disk_error", victim, trigger,
                             count=rng.randint(1, 2))
        plan.faults.append(spec)
    # Zero or more nuisance faults on any server.
    for _ in range(rng.randint(0, 2)):
        server = rng.randrange(num_servers)
        kind = rng.choice(("link_delay", "link_dup", "disk_slow", "link_drop"))
        trigger = _sample_trigger(rng, scheme, num_ops)
        if kind == "link_delay":
            spec = FaultSpec(kind, server, trigger, count=rng.randint(1, 4),
                             delay=round(rng.uniform(0.001, 0.05), 6),
                             direction=rng.choice(("req", "reply", "any")))
        elif kind == "link_dup":
            spec = FaultSpec(kind, server, trigger, count=rng.randint(1, 4),
                             direction=rng.choice(("req", "reply", "any")))
        elif kind == "disk_slow":
            spec = FaultSpec(kind, server, trigger, count=rng.randint(1, 8),
                             factor=round(rng.uniform(2.0, 16.0), 3))
        else:
            spec = FaultSpec("link_drop", server, trigger,
                             count=1, direction="req")
        plan.faults.append(spec)
    plan.validate()
    return plan

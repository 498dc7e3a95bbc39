"""Golden bit-identity: host-side rewrites must not move the simulation.

Each scenario runs a fixed input and reports ``env.now``, ``env.stats()``,
``Metrics.snapshot()`` and a sha256 over the dispatched
``(time, type(event).__name__)`` sequence (a bare continuation is
labelled by the event kind it stands in for, :data:`BARE_KINDS`); the
expected values are the ``golden`` section of the schedule manifest,
``docs/results/schedule.json``.  A change that is meant to alter the
model re-records the manifest (``python tools/schedule.py --record``)
and explains its diff.

The scenarios cover what the benchmark's heaviest workload leans on:
extent-mode BTIO (stream pipeline, page cache, disk, parity locks), bare
``send`` flows contending for a NIC and a CPU in both ``cpu_at``
directions plus a loopback, and a content-mode small-write mix under
every scheme.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from pathlib import Path
from random import Random

import pytest

from repro import CSARConfig, System
from repro.errors import SimulationError
from repro.hw.cpu import Cpu
from repro.hw.link import NIC, send
from repro.hw.params import get_profile
from repro.sim.engine import Environment, Event
from repro.storage.payload import Payload
from repro.units import KiB
from repro.workloads import btio_benchmark

MANIFEST = (Path(__file__).resolve().parent.parent / "docs" / "results"
            / "schedule.json")


#: The event kind each bare heap entry replaces (docs/PERF.md, "The
#: events of one RPC"), by the qualified name of the function it calls.
BARE_KINDS = {
    "_Stream._receive": "Request",    # a server's TX grant wakes it
    "_Stream._sent": "Hold",          # end of the RX occupancy
    "_Stream._computed": "Hold",      # end of the CPU hold
    "_Stream._arrived": "Timeout",    # latency, or loopback overhead
    "_Stream.start": "Timeout",       # an injected link delay
    "_Reply._answer": "Event",        # a data-bearing reply is in
    "_Reply._crash": "Event",         # the crash interrupts a reply
    "Process._resume": "Initialize",  # a process starts
    "Process._resume_interrupt": "Event",  # an interrupt
    "_Call._expired": "Timeout",      # the RPC deadline
    "_Call._send": "Timeout",         # the retry backoff
}


def stream(env, src, dst, nbytes, **kwargs):
    """Process body: :func:`send` a message and wait for it to arrive."""
    done = Event(env)
    send(env, src, dst, nbytes, done.succeed, **kwargs)
    yield done


def entry_kind(entry) -> str:
    """The label one heap entry is hashed under; a bare entry calling a
    function missing from :data:`BARE_KINDS` fails the scenario."""
    if not callable(entry):
        return type(entry).__name__
    fn = entry.func if isinstance(entry, partial) else entry
    try:
        return BARE_KINDS[fn.__qualname__]
    except KeyError:
        raise AssertionError(
            f"unmapped bare heap entry {fn.__qualname__!r}") from None


class DispatchDigest:
    """Replaces ``Environment.run`` with a ``step()`` loop that hashes
    the ``(time, event type)`` of every dispatch.  Only the forms of
    ``run`` the scenarios use are supported."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._original = Environment.run

    def __enter__(self) -> "DispatchDigest":
        digest = self._hash

        def run(env, until=None):
            if not isinstance(until, Event) or until.callbacks is None:
                raise SimulationError("golden scenarios wait on a pending event")
            done = []
            until.callbacks.append(done.append)
            heap = env._heap
            while heap and not done:
                when, _prio, _seq, event = heap[0]
                digest.update(f"{when!r} {entry_kind(event)}\n".encode())
                env.step()
            if not done:
                raise SimulationError("simulation ended before the awaited event")
            if until._ok:
                return until._value
            until._defused = True
            raise until._value

        Environment.run = run
        return self

    def __exit__(self, *exc) -> None:
        Environment.run = self._original

    def report(self, env: Environment) -> dict:
        return {"now": env.now, "stats": env.stats(),
                "metrics": env.metrics.snapshot(),
                "dispatch_sha256": self._hash.hexdigest()}

    def report_system(self, system: System) -> dict:
        report = self.report(system.env)
        report["lock_wait_s"] = sum(iod.locks.total_wait_time
                                    for iod in system.iods)
        return report


def btio(scheme: str, overwrite: bool, ranks: int = 4,
         scale: float = 0.02) -> dict:
    with DispatchDigest() as digest:
        system = System(CSARConfig(scheme=scheme, num_servers=6,
                                   num_clients=ranks, content_mode=False,
                                   scale=scale))
        btio_benchmark(system, "A", scale=scale, overwrite=overwrite)
        return digest.report_system(system)


def stream_flows() -> dict:
    """Two flows through one NIC and one CPU per ``cpu_at`` direction,
    three segments each, plus a loopback."""
    with DispatchDigest() as digest:
        env = Environment()
        profile = get_profile("osu8")
        nic = {name: NIC(env, name, profile.network)
               for name in ("c0", "c1", "s0", "s1")}
        cpu = {name: Cpu(env, name, profile.cpu) for name in ("c0", "s0")}
        segment = profile.network.segment
        flows = [
            # two clients into one server: contend for s0's RX and CPU
            stream(env, nic["c0"], nic["s0"], 2 * segment + 4096,
                   cpu=cpu["s0"], cpu_at="dst"),
            stream(env, nic["c1"], nic["s0"], 3 * segment,
                   cpu=cpu["s0"], cpu_at="dst"),
            # one client out to two servers: contend for c0's CPU and TX
            stream(env, nic["c0"], nic["s0"], 3 * segment,
                   cpu=cpu["c0"], cpu_at="src"),
            stream(env, nic["c0"], nic["s1"], 2 * segment + 1,
                   cpu=cpu["c0"], cpu_at="src"),
            stream(env, nic["s0"], nic["s0"], 2 * segment + 512,
                   cpu=cpu["s0"], cpu_at="dst"),
        ]
        env.run(until=env.all_of([env.process(f) for f in flows]))
        report = digest.report(env)
        report["cpu_busy"] = {name: c.busy_time for name, c in cpu.items()}
        report["nic_wait"] = {
            name: [n.tx.total_waits, n.tx.total_wait_time,
                   n.rx.total_waits, n.rx.total_wait_time]
            for name, n in nic.items()}
        return report


def smallwrite_mix(scheme: str) -> dict:
    """200 partial-stripe ops (4 in 5 writes) from three clients, real
    bytes.  Each client keeps to its own third of four stripes (CSAR
    leaves overlapping concurrent writes undefined); the thirds are not
    stripe-aligned, so neighbours contend for the boundary parity groups."""
    clients, ops = 3, 200
    unit = 16 * KiB
    total = 4 * 5 * unit
    region = total // clients
    rng = Random(20030901)
    sizes = (512, 2 * KiB, 7 * KiB, unit, unit + 100, 3 * unit)
    plan = [[] for _ in range(clients)]
    for i in range(ops):
        k, size = i % clients, sizes[i // clients % len(sizes)]
        plan[k].append((rng.random() < 0.8,
                        k * region + rng.randrange(region - size), size, i))
    with DispatchDigest() as digest:
        system = System(CSARConfig(scheme=scheme, num_servers=6,
                                   num_clients=clients, stripe_unit=unit))

        def populate():
            yield from system.client(0).create("mix")
            yield from system.client(0).write(
                "mix", 0, Payload.pattern(total, seed=1))

        def client_proc(k):
            client = system.client(k)
            for write, offset, size, i in plan[k]:
                if write:
                    yield from client.write(
                        "mix", offset, Payload.pattern(size, seed=i))
                else:
                    yield from client.read("mix", offset, size)

        system.run(populate())
        system.run(*[client_proc(k) for k in range(clients)])
        return digest.report_system(system)


SCENARIOS = {
    "btio-A-raid5-initial": lambda: btio("raid5", False),
    "btio-A-raid5-overwrite": lambda: btio("raid5", True),
    "btio-A-hybrid-initial": lambda: btio("hybrid", False),
    "btio-A-hybrid-overwrite": lambda: btio("hybrid", True),
    # Class A on 4 ranks writes whole stripes only; 9 ranks share boundary
    # stripes, so the cold overwrite reads old data and parity from disk.
    "btio-A-raid5-overwrite-9-ranks": lambda: btio("raid5", True, 9, 0.05),
    "btio-A-hybrid-overwrite-9-ranks": lambda: btio("hybrid", True, 9, 0.05),
    "stream-flows": stream_flows,
    "smallwrite-mix-raid0": lambda: smallwrite_mix("raid0"),
    "smallwrite-mix-raid1": lambda: smallwrite_mix("raid1"),
    "smallwrite-mix-raid5": lambda: smallwrite_mix("raid5"),
    "smallwrite-mix-hybrid": lambda: smallwrite_mix("hybrid"),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simulation_is_bit_identical_to_the_recorded_run(name, tx_claims):
    expected = json.loads(MANIFEST.read_text())["golden"][name]
    # through JSON, so dict key types and int/float spelling match
    got = json.loads(json.dumps(SCENARIOS[name]()))
    assert got == expected
    assert tx_claims() == []  # no TX slot outlives the run

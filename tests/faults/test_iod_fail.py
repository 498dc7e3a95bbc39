"""Regression: :meth:`IOD.fail` must not strand in-flight state.

Before the fault harness, ``fail()`` only flipped the flag: requests
already inside a handler ran to completion against a "dead" server, and
parity-lock waiters queued behind a crashed lock holder hung forever.
Now a crash errors out every in-flight handler
(:class:`~repro.errors.ServerFailed` to the waiting client) and clears
the parity-lock table, waking queued waiters.
"""

import pytest

from repro.csar.config import CSARConfig
from repro.csar.system import System
from repro.errors import ServerFailed
from repro.hw.link import send
from repro.pvfs import messages as msg
from repro.storage.payload import Payload

UNIT = 1024


def make_system(scheme="raid5"):
    return System(CSARConfig(scheme=scheme, num_servers=5, num_clients=2,
                             stripe_unit=UNIT, content_mode=True))


def test_fail_errors_out_in_flight_requests():
    system = make_system()
    client = system.client()
    outcome = {}

    def writer():
        yield from client.create("f")
        try:
            yield from client.rpc(system.iods[1], msg.WriteReq(
                "f", kind="data", offset=0,
                payload=Payload.pattern(UNIT, seed=1)))
        except ServerFailed as exc:
            outcome["error"] = exc
        else:
            outcome["error"] = None

    def crasher():
        # Land the crash while the write is inside iod1's handler.
        yield system.env.timeout(1e-5)
        system.iods[1].fail()

    system.run(writer(), crasher())
    assert isinstance(outcome["error"], ServerFailed)


def test_fail_releases_parity_lock_queue():
    """A crashed lock holder must not wedge the next writer forever."""
    system = make_system()
    c0, c1 = system.clients
    done = {}

    def setup():
        yield from c0.create("f")
        yield from c0.write("f", 0,
                            Payload.pattern(8 * UNIT, seed=3))

    system.run(setup())
    group = 0
    p_server = system.layout.parity_server(group)
    iod = system.iods[p_server]

    def holder():
        # Take the group lock the way an RMW does, then "crash" while
        # holding it.
        yield from iod.locks.acquire("f", group, xid=1001)
        yield system.env.timeout(1e-4)
        iod.fail()

    def blocked_writer():
        # Queue behind the holder; must be woken with an error (or
        # acquire against the wiped table), never hang.
        yield system.env.timeout(1e-5)
        try:
            yield from c1.write("f", 128, Payload.pattern(256, seed=4))
        except ServerFailed:
            pass
        done["writer"] = True

    # system.run would hang (SimulationError: deadlock) if the queue
    # entry leaked; completing at all is the regression assertion.
    system.run(holder(), blocked_writer())
    assert done.get("writer")


def test_fail_is_idempotent_and_repair_restores_service():
    system = make_system(scheme="raid1")
    client = system.client()

    def driver():
        yield from client.create("f")
        yield from client.write("f", 0, Payload.pattern(UNIT, seed=5))

    system.run(driver())
    iod = system.iods[0]
    iod.fail()
    iod.fail()  # second fail must be a no-op, not a double-interrupt
    assert iod.failed
    iod.repair(wipe=False)
    assert not iod.failed

    def after():
        data = yield from client.read("f", 0, UNIT)
        assert data.to_bytes() == Payload.pattern(UNIT, seed=5).to_bytes()

    system.run(after())


def test_crash_withdraws_a_reply_queued_on_a_busy_tx():
    """A header-only reply queued behind a busy TX side is cancelled by
    the crash: the flow queued after it takes the slot as soon as the
    busy one ends, undelayed by the dead reply's occupancy."""
    system = make_system()
    env = system.env
    iod = system.iods[1]
    nic, other = iod.node.nic, system.clients[1].node.nic
    params = nic.params
    log = {}

    def arrived(name):
        return lambda: log.setdefault(name, env.now)

    def rpc():
        try:
            yield from system.client().rpc(iod, msg.FsyncReq("f"))
        except ServerFailed:
            log["rpc failed"] = env.now

    def traffic():
        # iod1's TX side is busy for ~50 ms moving 4 MB ...
        send(env, nic, other, 4_000_000, arrived("busy"))
        # ... so the fsync's reply queues behind it ...
        yield env.timeout(2e-3)
        assert len(nic.tx.queue) == 1
        # ... and so does a follower, behind the reply
        send(env, nic, other, 1000, arrived("follower"))
        yield env.timeout(1e-3)
        iod.fail()
        yield env.timeout(0.1)  # both flows are in by then

    system.run(rpc(), traffic())
    assert log["rpc failed"] == pytest.approx(3e-3)
    busy_end = log["busy"] - params.latency
    assert log["follower"] == pytest.approx(
        busy_end + params.per_message + 1000 / params.bandwidth
        + params.latency, abs=1e-12)
    assert not nic.tx.queue and nic.tx.count == 0

"""Tests for the parity lock table (Section 5.1 protocol), observed
through what production reads: its ``parity_lock.*`` probes, LockSan's
ledger, ``total_wait_time`` and the locks' ``users``."""

import pytest

from repro import CSARConfig, Payload, System
from repro.analysis import sanitizer_scope
from repro.errors import LockProtocolError
from repro.probes import PROBES
from repro.redundancy.locks import ParityLockTable
from repro.sim import Environment
from repro.units import KiB


@pytest.fixture
def env():
    with sanitizer_scope(["lock"]):
        yield Environment()


def heard(env):
    """Every ``parity_lock.*`` announcement, as ``(probe, xid)``."""
    out = []
    for name in PROBES:
        if name.startswith("parity_lock."):
            env.subscribe(name, lambda _f, _g, xid, name=name:
                          out.append((name[len("parity_lock."):], xid)))
    return out


class TestLockTable:
    def test_acquire_release(self, env):
        table = ParityLockTable(env)
        events = heard(env)

        def proc():
            yield from table.acquire("f", 0, xid=1)
            assert table._lock("f", 0).users
            assert list(env.locksan._held_by_xid) == [1]
            table.release("f", 0, xid=1)
            assert not table._lock("f", 0).users
            assert env.locksan._held_by_xid == {}

        env.process(proc())
        env.run()
        assert events == [("acquired", 1), ("released", 1)]
        assert table.total_wait_time == 0

    def test_fifo_contention(self, env):
        table = ParityLockTable(env)
        order = []

        def writer(xid, hold):
            yield from table.acquire("f", 0, xid=xid)
            order.append(xid)
            yield env.timeout(hold)
            table.release("f", 0, xid=xid)

        events = heard(env)
        for xid in range(3):
            env.process(writer(xid, hold=1.0))
        env.run()
        assert order == [0, 1, 2]
        assert [xid for what, xid in events if what == "acquired"] == [0, 1, 2]
        assert table.total_wait_time == pytest.approx(1.0 + 2.0)

    def test_independent_groups_do_not_contend(self, env):
        table = ParityLockTable(env)
        starts = []

        def writer(group):
            yield from table.acquire("f", group, xid=group)
            starts.append((group, env.now))
            yield env.timeout(1.0)
            table.release("f", group, xid=group)

        for g in range(4):
            env.process(writer(g))
        env.run()
        assert all(t == 0 for _g, t in starts)

    def test_independent_files_do_not_contend(self, env):
        table = ParityLockTable(env)
        starts = []

        def writer(name):
            yield from table.acquire(name, 0, xid=hash(name) & 0xFF)
            starts.append(env.now)
            yield env.timeout(1.0)
            table.release(name, 0, xid=hash(name) & 0xFF)

        env.process(writer("a"))
        env.process(writer("b"))
        env.run()
        assert starts == [0, 0]

    def test_double_acquire_same_xid_rejected(self, env):
        table = ParityLockTable(env)

        def proc():
            yield from table.acquire("f", 0, xid=7)
            with pytest.raises(LockProtocolError):
                yield from table.acquire("f", 0, xid=7)
            table.release("f", 0, xid=7)

        env.process(proc())
        env.run()

    @pytest.mark.locksan_expected
    def test_release_without_hold_rejected(self, env):
        table = ParityLockTable(env)
        with pytest.raises(LockProtocolError):
            table.release("f", 0, xid=9)

    def test_disabled_table_never_blocks(self, env):
        table = ParityLockTable(env, enabled=False)
        events = heard(env)
        starts = []

        def writer(xid):
            yield from table.acquire("f", 0, xid=xid)
            starts.append(env.now)
            yield env.timeout(1.0)
            table.release("f", 0, xid=xid)

        for xid in range(3):
            env.process(writer(xid))
        env.run()
        assert starts == [0, 0, 0]
        assert events == []

    def test_ascending_order_prevents_deadlock(self, env):
        # Two writers both needing groups {3, 5}: because each acquires in
        # ascending order (the paper's rule), the run completes.
        table = ParityLockTable(env)
        finished = []

        def writer(xid):
            for group in (3, 5):
                yield from table.acquire("f", group, xid=xid)
                yield env.timeout(0.1)
            for group in (3, 5):
                table.release("f", group, xid=xid)
            finished.append(xid)

        env.process(writer(1))
        env.process(writer(2))
        env.run()
        assert sorted(finished) == [1, 2]

    def test_interrupt_while_queued_cancels_request(self, env):
        # A process interrupted while queued must not leak the lock:
        # the queued Request is cancelled and later writers still get
        # the lock (the bug class LockSan's leak check formalizes).
        from repro.sim.engine import Interrupt

        table = ParityLockTable(env)
        order = []

        def holder():
            yield from table.acquire("f", 0, xid=1)
            yield env.timeout(5.0)
            table.release("f", 0, xid=1)

        def impatient():
            try:
                yield from table.acquire("f", 0, xid=2)
            except Interrupt:
                order.append("interrupted")
                return
            pytest.fail("expected an interrupt")

        def canceller(victim):
            yield env.timeout(1.0)
            victim.interrupt("give up")

        def late_writer():
            yield env.timeout(2.0)
            yield from table.acquire("f", 0, xid=3)
            order.append(("locked", env.now))
            table.release("f", 0, xid=3)

        env.process(holder())
        victim = env.process(impatient())
        env.process(canceller(victim))
        env.process(late_writer())
        env.run()
        # The cancelled request is gone: xid 3 is granted the moment the
        # holder releases at t=5, not behind a ghost queue entry.
        assert order == ["interrupted", ("locked", 5.0)]
        lock = table._lock("f", 0)
        assert not lock.users and not lock.queue
        assert env.locksan._held_by_xid == {}

    def test_interrupt_before_acquire_starts_does_not_leak(self, env):
        from repro.sim.engine import Interrupt

        table = ParityLockTable(env)

        def holder():
            yield from table.acquire("f", 0, xid=1)
            yield env.timeout(3.0)
            table.release("f", 0, xid=1)

        def victim():
            try:
                yield from table.acquire("f", 0, xid=2)
            except Interrupt:
                pass

        def canceller(proc):
            yield env.timeout(0.5)
            proc.interrupt()

        env.process(holder())
        v = env.process(victim())
        env.process(canceller(v))
        env.run()
        assert not table._lock("f", 0).users
        assert env.locksan._held_by_xid == {}


class TestOrderedAcquisition:
    def test_two_writers_spanning_two_groups_lock_them_ascending(self):
        # Section 5.1: a write's upper partial group sends its parity
        # read (which takes the lock) only once the lower group's has
        # returned.  Each partial group locks under its own xid, so
        # LockSan's per-xid ledger cannot see a write take its groups
        # out of order; the acquisitions announced per client can (a
        # client's xids count up from ``index << 32``).  Two
        # clients each write the tail of group 0 and the head of group
        # 1, the second started 0-1.5 ms later, so at many offsets one
        # queues behind the other on either group.
        unit = 4 * KiB
        out_of_order = []
        for step in range(16):
            with sanitizer_scope(["lock"]) as drain:
                system = System(CSARConfig(
                    scheme="raid5", num_servers=6, num_clients=2,
                    stripe_unit=unit, content_mode=False))
                env, span = system.env, system.layout.group_span
                groups = {0: [], 1: []}
                env.subscribe("parity_lock.acquired",
                              lambda _f, group, xid:
                              groups[xid >> 32].append(group))

                def setup():
                    yield from system.client(0).create("f")
                    yield from system.client(1).open("f")

                def write(client, delay):
                    yield env.timeout(delay)
                    yield from system.client(client).write(
                        "f", span - unit, Payload.virtual(2 * unit))
                    return client

                system.run(setup())
                done = system.run(write(0, 0.0), write(1, step * 1e-4))
                assert done == [0, 1]
                assert drain() == []
            if groups != {0: [0, 1], 1: [0, 1]}:
                out_of_order.append((step, groups))
        assert out_of_order == []

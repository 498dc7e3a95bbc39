"""LockSan: the runtime lock-protocol sanitizer (repro.analysis.locksan).

Covers the lock-protocol edge cases the sanitizer formalizes:
double-acquire by the same xid, release-without-hold, interrupt while
queued, and the leak check at the end of a run — plus a constructed
two-client ascending-order scenario that completes clean.
"""

import pytest

from repro.analysis import sanitizer_scope
from repro.errors import LockProtocolError
from repro.redundancy.locks import ParityLockTable
from repro.sim import Environment
from repro.sim.engine import Interrupt

# Many tests here construct deliberate protocol violations; opt out of
# the suite-wide zero-report check (clean tests assert [] themselves).
pytestmark = pytest.mark.locksan_expected


@pytest.fixture
def env():
    with sanitizer_scope(["lock"]):
        yield Environment()


def reports(env, kind=None):
    out = env.locksan.reports
    if kind is not None:
        out = [r for r in out if r.kind == kind]
    return out


class TestCleanProtocol:
    def test_clean_acquire_release_reports_nothing(self, env):
        table = ParityLockTable(env)

        def proc():
            yield from table.acquire("f", 0, xid=1)
            yield env.timeout(1.0)
            table.release("f", 0, xid=1)

        env.process(proc())
        env.run()
        assert reports(env) == []

    def test_two_clients_ascending_order_no_cycle(self, env):
        # Both clients need groups {2, 7} and follow the Section 5.1
        # rule (ascending): one serializes behind the other and the run
        # completes clean.
        table = ParityLockTable(env)
        finished = []

        def client(xid, start_delay):
            yield env.timeout(start_delay)
            for group in (2, 7):
                yield from table.acquire("f", group, xid=xid)
                yield env.timeout(0.5)
            yield env.timeout(1.0)
            for group in (2, 7):
                table.release("f", group, xid=xid)
            finished.append((xid, env.now))

        env.process(client(1, 0.0), name="client1")
        env.process(client(2, 0.1), name="client2")
        env.run()
        assert [x for x, _t in finished] == [1, 2]
        assert reports(env) == []
        assert env.locksan._held_by_xid == {}


class TestDoubleReleaseAndDoubleAcquire:
    def test_release_without_hold_reported(self, env):
        table = ParityLockTable(env)
        with pytest.raises(LockProtocolError):
            table.release("f", 0, xid=9)
        doubles = reports(env, "double-release")
        assert len(doubles) == 1
        assert doubles[0].file == "f"
        assert doubles[0].group == 0

    def test_double_release_reported(self, env):
        table = ParityLockTable(env)

        def proc():
            yield from table.acquire("f", 1, xid=4)
            table.release("f", 1, xid=4)
            with pytest.raises(LockProtocolError):
                table.release("f", 1, xid=4)

        env.process(proc())
        env.run()
        assert len(reports(env, "double-release")) == 1

    def test_double_acquire_same_xid_still_rejected(self, env):
        table = ParityLockTable(env)

        def proc():
            yield from table.acquire("f", 0, xid=7)
            with pytest.raises(LockProtocolError):
                yield from table.acquire("f", 0, xid=7)
            table.release("f", 0, xid=7)

        env.process(proc())
        env.run()
        assert reports(env) == []


class TestLeak:
    def test_leaked_parity_lock_reported_at_run_end(self, env):
        table = ParityLockTable(env)

        def leaker():
            yield from table.acquire("data.bin", 6, xid=11)
            yield env.timeout(1.0)
            # ... and never releases.

        env.process(leaker(), name="leaky-writer")
        env.run()
        leaks = reports(env, "leak")
        assert len(leaks) == 1
        assert leaks[0].file == "data.bin"
        assert leaks[0].group == 6
        assert leaks[0].processes == ("leaky-writer",)
        assert "data.bin:6" in leaks[0].message

    def test_lock_forgotten_by_a_crash_is_not_a_leak(self, env):
        table = ParityLockTable(env)

        def holder():
            yield from table.acquire("data.bin", 6, xid=11)
            yield env.timeout(1.0)
            table.crash()  # fail-stop: the server's lock state is gone

        env.process(holder(), name="crashing-iod")
        env.run()
        assert reports(env, "leak") == []
        assert env.locksan._held_by_xid == {}

    def test_interrupt_while_queued_leaves_no_leak(self, env):
        table = ParityLockTable(env)

        def holder():
            yield from table.acquire("f", 0, xid=1)
            yield env.timeout(5.0)
            table.release("f", 0, xid=1)

        def victim():
            try:
                yield from table.acquire("f", 0, xid=2)
            except Interrupt:
                pass

        def canceller(proc):
            yield env.timeout(1.0)
            proc.interrupt()

        env.process(holder())
        v = env.process(victim())
        env.process(canceller(v))
        env.run()
        assert reports(env) == []

    def test_held_at_deadline_is_not_a_leak(self, env):
        # Stopping at a deadline mid-simulation is not a drain: locks
        # legitimately held at that instant are not reported.
        table = ParityLockTable(env)

        def writer():
            yield from table.acquire("f", 0, xid=1)
            yield env.timeout(10.0)
            table.release("f", 0, xid=1)

        env.process(writer())
        env.run(until=5.0)
        assert reports(env, "leak") == []
        env.run()
        assert reports(env, "leak") == []


class TestSystemUnderLockSan:
    def test_hybrid_write_read_is_clean(self):
        # End-to-end: a real System run (RMW parity traffic included)
        # produces zero sanitizer reports.
        from repro import CSARConfig, Payload, System

        with sanitizer_scope(["lock"]) as drain:
            system = System(CSARConfig(scheme="raid5", num_servers=4,
                                       content_mode=True))
            client = system.client()

            def work():
                yield from client.create("demo")
                yield from client.write("demo", 0,
                                        Payload.pattern(1 << 16, seed=3))
                data = yield from client.read("demo", 0, 1 << 16)
                return data

            system.timed(work())
            # (No bare env.run(): the page-cache flusher keeps the heap
            # alive forever; reports accumulate as violations happen.)
            assert system.env.locksan is not None
            assert drain() == []

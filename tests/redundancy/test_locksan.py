"""LockSan: the runtime lock-protocol sanitizer (repro.analysis.locksan).

Covers the lock-protocol edge cases the sanitizer formalizes:
double-acquire by the same xid, release-without-hold, interrupt while
queued, order inversion, wait-for cycles (true deadlock), and the leak
check at the end of a run — plus a constructed two-client
ascending-order scenario proving no wait-for cycle forms.
"""

import pytest

from repro.analysis.locksan import LockSan
from repro.errors import DeadlockError, LockProtocolError, LockSanError
from repro.redundancy.locks import ParityLockTable
from repro.sim import Environment
from repro.sim.engine import Interrupt
from repro.sim.resources import FifoLock

# Many tests here construct deliberate protocol violations; opt out of
# the suite-wide zero-report check (clean tests assert [] themselves).
pytestmark = pytest.mark.locksan_expected


@pytest.fixture
def env():
    e = Environment()
    # Under CSAR_LOCKSAN=1 the environment already built its sanitizer.
    e.sanitizer = getattr(e, "sanitizer", None) or LockSan(e)
    return e


def reports(env, kind=None):
    out = env.sanitizer.reports
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
        # rule (ascending): one serializes behind the other, the
        # wait-for graph stays acyclic, and the run completes clean.
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
        assert env.sanitizer._holder == {}
        assert env.sanitizer._waiting_on == {}


class TestInversion:
    def test_descending_acquire_reports_inversion(self, env):
        table = ParityLockTable(env)

        def proc():
            yield from table.acquire("f", 5, xid=1)
            yield from table.acquire("f", 3, xid=1)
            table.release("f", 3, xid=1)
            table.release("f", 5, xid=1)

        env.process(proc(), name="descender")
        env.run()
        inversions = reports(env, "order-inversion")
        assert len(inversions) == 1
        report = inversions[0]
        assert report.file == "f"
        assert report.group == 3
        assert "5" in report.message
        assert "descender" in report.processes

    def test_ascending_acquire_is_clean(self, env):
        table = ParityLockTable(env)

        def proc():
            yield from table.acquire("f", 3, xid=1)
            yield from table.acquire("f", 5, xid=1)
            table.release("f", 3, xid=1)
            table.release("f", 5, xid=1)

        env.process(proc())
        env.run()
        assert reports(env, "order-inversion") == []

    def test_different_files_do_not_invert(self, env):
        table = ParityLockTable(env)

        def proc():
            yield from table.acquire("a", 5, xid=1)
            yield from table.acquire("b", 3, xid=1)
            table.release("a", 5, xid=1)
            table.release("b", 3, xid=1)

        env.process(proc())
        env.run()
        assert reports(env) == []

    def test_strict_mode_raises_on_inversion(self, env):
        env.sanitizer = LockSan(env, strict=True)
        table = ParityLockTable(env)

        def proc():
            yield from table.acquire("f", 5, xid=1)
            yield from table.acquire("f", 3, xid=1)

        env.process(proc())
        with pytest.raises(LockSanError):
            env.run()


class TestDeadlock:
    def test_wait_for_cycle_raises_before_hang(self, env):
        # xid 1 holds g3 and wants g5; xid 2 holds g5 and wants g3.
        # Without LockSan, env.run() would return with both processes
        # parked forever; with it, the second wait edge closes the
        # cycle and DeadlockError names both processes.
        table = ParityLockTable(env)

        def client(name, xid, first, second):
            yield from table.acquire("f", first, xid=xid)
            yield env.timeout(1.0)
            yield from table.acquire("f", second, xid=xid)
            table.release("f", first, xid=xid)
            table.release("f", second, xid=xid)

        env.process(client("c1", 1, 3, 5), name="c1")
        env.process(client("c2", 2, 5, 3), name="c2")
        with pytest.raises(DeadlockError) as exc:
            env.run()
        assert "c1" in str(exc.value)
        assert "c2" in str(exc.value)
        deadlocks = reports(env, "deadlock")
        assert len(deadlocks) == 1
        assert set(deadlocks[0].processes) == {"c1", "c2"}

    def test_deadlock_report_lists_held_locks_with_times(self, env):
        # The report must name what each participant already holds (and
        # when it took it), not just who is in the cycle — that's the
        # actionable half of a deadlock diagnosis.
        table = ParityLockTable(env)

        def client(xid, delay, first, second):
            yield env.timeout(delay)
            yield from table.acquire("f", first, xid=xid)
            yield env.timeout(1.0)
            yield from table.acquire("f", second, xid=xid)

        env.process(client(1, 0.0, 3, 5), name="c1")
        env.process(client(2, 0.25, 5, 3), name="c2")
        with pytest.raises(DeadlockError) as exc:
            env.run()
        message = str(exc.value)
        assert "held:" in message
        assert "c1(xid 1) holds [f:3 (acquired t=0)]" in message
        assert "c2(xid 2) holds [f:5 (acquired t=0.25)]" in message

    def test_cross_table_cycle_detected(self, env):
        # Each group's parity lives on a different server (its own
        # ParityLockTable); the wait-for graph must span tables.
        table_a = ParityLockTable(env)
        table_b = ParityLockTable(env)

        def client(xid, first, second):
            ft, fg = first
            st, sg = second
            yield from ft.acquire("f", fg, xid=xid)
            yield env.timeout(1.0)
            yield from st.acquire("f", sg, xid=xid)

        env.process(client(1, (table_a, 0), (table_b, 1)), name="west")
        env.process(client(2, (table_b, 1), (table_a, 0)), name="east")
        with pytest.raises(DeadlockError) as exc:
            env.run()
        assert "west" in str(exc.value) and "east" in str(exc.value)

    def test_fifo_contention_is_not_a_cycle(self, env):
        table = ParityLockTable(env)
        order = []

        def writer(xid):
            yield from table.acquire("f", 0, xid=xid)
            order.append(xid)
            yield env.timeout(1.0)
            table.release("f", 0, xid=xid)

        for xid in range(4):
            env.process(writer(xid))
        env.run()
        assert order == [0, 1, 2, 3]
        assert reports(env) == []


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

    def test_leaked_raw_fifolock_reported(self, env):
        lock = FifoLock(env)

        def leaker():
            req = lock.request()
            yield req

        env.process(leaker(), name="raw-leaker")
        env.run()
        leaks = reports(env, "leak")
        assert len(leaks) == 1
        assert leaks[0].file is None
        assert "FifoLock" in leaks[0].message
        assert leaks[0].processes == ("raw-leaker",)

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
    def test_hybrid_write_read_is_clean(self, env):
        # End-to-end: a real System run (RMW parity traffic included)
        # produces zero sanitizer reports.
        from repro import CSARConfig, Payload, System
        from repro.analysis import locksan

        locksan.install()
        try:
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
            assert system.env.sanitizer is not None
            assert system.env.sanitizer.reports == []
        finally:
            locksan.uninstall()
            locksan.drain_reports()

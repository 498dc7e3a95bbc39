"""Tests for Resource / FifoLock / Store."""

import pytest

from repro.errors import SimulationError
from repro.sim import (Environment, FifoLock, FifoServer, Interrupt, Resource,
                       Store)


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_enforced(self, env):
        res = Resource(env, capacity=2)
        spans = []

        def worker(k):
            with res.request() as req:
                yield req
                start = env.now
                yield env.timeout(10)
                spans.append((k, start, env.now))

        for k in range(4):
            env.process(worker(k))
        env.run()
        # Two run at a time: starts at 0,0,10,10.
        starts = sorted(s for _k, s, _e in spans)
        assert starts == [0, 0, 10, 10]

    def test_fifo_granting(self, env):
        res = Resource(env, capacity=1)
        order = []

        def worker(k):
            with res.request() as req:
                yield req
                order.append(k)
                yield env.timeout(1)

        for k in range(5):
            env.process(worker(k))
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_release_on_exception(self, env):
        res = Resource(env, capacity=1)
        got = []

        def crasher():
            with res.request() as req:
                yield req
                yield env.timeout(1)
                raise ValueError("die holding the resource")

        def waiter():
            with res.request() as req:
                yield req
                got.append(env.now)

        def supervisor(target):
            with pytest.raises(ValueError):
                yield target

        crash_proc = env.process(crasher())
        env.process(supervisor(crash_proc))
        env.process(waiter())
        env.run()
        assert got == [1]  # granted right after the crasher released

    def test_cancel_queued_request(self, env):
        res = Resource(env, capacity=1)
        holder_req = res.request()  # granted immediately
        queued = res.request()
        assert not queued.triggered
        res.release(queued)  # cancellation
        res.release(holder_req)
        assert res.count == 0

    def test_release_unknown_rejected(self, env):
        res = Resource(env, capacity=1)
        granted = res.request()
        res.release(granted)
        with pytest.raises(SimulationError):
            res.release(granted)

    def test_wait_time_statistics(self, env):
        res = Resource(env, capacity=1)

        def worker():
            with res.request() as req:
                yield req
                yield env.timeout(4)

        env.process(worker())
        env.process(worker())
        env.run()
        assert res.total_waits == 1
        assert res.total_wait_time == 4

    def test_free_slot_is_granted_on_the_spot(self, env):
        res = Resource(env, capacity=1)
        req = res.request()
        assert req.processed and res.users == [req]
        assert env.stats()["scheduled"] == 0  # no grant event

        def worker():
            with res.request() as mine:
                yield mine
                return env.now

        res.release(req)
        assert env.run(until=env.process(worker())) == 0

    def test_continuation_runs_at_the_grant_and_schedules_nothing(self, env):
        res = Resource(env, capacity=1)
        granted = []
        first = res.request(granted.append)
        assert granted == [first]  # free slot: called on the spot
        second = res.request(granted.append)
        third = res.request()  # a process would wait on this one
        assert granted == [first] and res.total_waits == 2
        res.release(first)
        assert granted == [first, second] and second.processed
        assert env.stats()["scheduled"] == 0
        res.release(second)
        assert third.triggered and not third.processed
        assert env.stats()["scheduled"] == 1  # the grant event of ``third``

    def test_continuation_of_a_withdrawn_claim_never_runs(self, env):
        res = Resource(env, capacity=1)
        granted = []
        holder = res.request()
        queued = res.request(granted.append)
        res.release(queued)  # withdrawn while queued
        res.release(holder)
        assert granted == [] and res.count == 0
        with pytest.raises(SimulationError):
            res.release(queued)

    def test_bad_capacity(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)


class TestFifoServer:
    def test_lindley_recursion(self, env):
        """Job n departs at max(arrival_n, departure_{n-1}) + service_n."""
        server = FifoServer(env)
        ends = []

        def job(arrival, service):
            yield env.timeout(arrival)
            yield server.hold(service)
            ends.append(env.now)

        for arrival, service in ((0, 3), (1, 2), (2, 1), (10, 4)):
            env.process(job(arrival, service))
        env.run()
        assert ends == [3, 5, 6, 14]
        # the second job waited 3-1, the third 5-2, the fourth found it idle
        assert server.total_waits == 2
        assert server.total_wait_time == 5

    def test_one_event_per_hold_however_long_the_line(self, env):
        server = FifoServer(env)
        holds = [server.hold(2.0) for _ in range(50)]
        assert env.stats()["scheduled"] == 50
        assert server.free_at == 100.0
        env.run()
        assert env.now == 100.0 and all(h.processed for h in holds)

    def test_a_placed_hold_stands_when_its_waiter_is_interrupted(self, env):
        server = FifoServer(env)

        def victim():
            yield server.hold(5)

        def bystander():
            yield env.timeout(1)
            proc.interrupt("crash")
            yield server.hold(1)
            return env.now

        proc = env.process(victim())
        supervisor = env.process(bystander())
        with pytest.raises(Interrupt):
            env.run(until=proc)
        assert env.run(until=supervisor) == 6  # still behind the 5 s hold

    def test_negative_hold_rejected(self, env):
        server = FifoServer(env)
        with pytest.raises(SimulationError):
            server.hold(-1e-9)
        assert server.free_at == 0.0 and env.stats()["scheduled"] == 0


class TestFifoLock:
    def test_locked_flag(self, env):
        lock = FifoLock(env)
        assert not lock.locked
        req = lock.request()
        assert lock.locked
        lock.release(req)
        assert not lock.locked


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        store.put("a")

        def consumer():
            item = yield store.get()
            return item

        p = env.process(consumer())
        assert env.run(until=p) == "a"

    def test_get_blocks_until_put(self, env):
        store = Store(env)

        def consumer():
            item = yield store.get()
            return (env.now, item)

        def producer():
            yield env.timeout(5)
            store.put("late")

        p = env.process(consumer())
        env.process(producer())
        assert env.run(until=p) == (5, "late")

    def test_fifo_order_of_items(self, env):
        store = Store(env)
        for i in range(3):
            store.put(i)
        out = []

        def consumer():
            for _ in range(3):
                out.append((yield store.get()))

        env.process(consumer())
        env.run()
        assert out == [0, 1, 2]

    def test_fifo_order_of_getters(self, env):
        store = Store(env)
        out = []

        def consumer(k):
            item = yield store.get()
            out.append((k, item))

        env.process(consumer(0))
        env.process(consumer(1))

        def producer():
            yield env.timeout(1)
            store.put("x")
            store.put("y")

        env.process(producer())
        env.run()
        assert out == [(0, "x"), (1, "y")]

    def test_len(self, env):
        store = Store(env)
        store.put(1)
        store.put(2)
        assert len(store) == 2

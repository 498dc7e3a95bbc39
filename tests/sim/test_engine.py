"""Tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Interrupt, engine


@pytest.fixture
def env():
    return Environment()


class TestTimeouts:
    def test_clock_advances(self, env):
        log = []

        def proc():
            yield env.timeout(1.5)
            log.append(env.now)
            yield env.timeout(2.0)
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [1.5, 3.5]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_timeout_carries_value(self, env):
        result = []

        def proc():
            value = yield env.timeout(1, value="ping")
            result.append(value)

        env.process(proc())
        env.run()
        assert result == ["ping"]

    def test_same_time_fifo_order(self, env):
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in range(5):
            env.process(proc(tag))
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_run_until_time(self, env):
        hits = []

        def proc():
            while True:
                yield env.timeout(1)
                hits.append(env.now)

        env.process(proc())
        env.run(until=3.5)
        assert hits == [1, 2, 3]
        assert env.now == 3.5

    def test_run_until_past_time_rejected(self, env):
        def proc():
            yield env.timeout(1)

        env.process(proc())
        env.run(until=5.0)
        assert env.now == 5.0
        with pytest.raises(SimulationError, match="in the past"):
            env.run(until=2.0)
        # The current instant is a valid (no-op) deadline.
        env.run(until=5.0)
        assert env.now == 5.0


class TestProcesses:
    def test_process_return_value(self, env):
        def child():
            yield env.timeout(2)
            return 42

        def parent():
            value = yield env.process(child())
            return value + 1

        p = env.process(parent())
        assert env.run(until=p) == 43

    def test_exception_propagates_to_waiter(self, env):
        def child():
            yield env.timeout(1)
            raise ValueError("boom")

        def parent():
            with pytest.raises(ValueError, match="boom"):
                yield env.process(child())
            return "handled"

        p = env.process(parent())
        assert env.run(until=p) == "handled"

    def test_unhandled_process_exception_surfaces_in_run(self, env):
        def proc():
            yield env.timeout(1)
            raise RuntimeError("lost error")

        env.process(proc())
        with pytest.raises(RuntimeError, match="lost error"):
            env.run()

    def test_yield_non_event_fails_process(self, env):
        def proc():
            yield 17  # type: ignore[misc]

        p = env.process(proc())
        with pytest.raises(SimulationError, match="not an Event"):
            env.run(until=p)

    def test_waiting_on_already_finished_process(self, env):
        def child():
            return "done"
            yield  # pragma: no cover

        def parent(ch):
            yield env.timeout(5)
            value = yield ch
            return value

        ch = env.process(child())
        p = env.process(parent(ch))
        assert env.run(until=p) == "done"

    def test_deadlock_detected(self, env):
        def proc():
            yield env.event()  # never triggered

        p = env.process(proc())
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(until=p)


class TestEvents:
    def test_manual_succeed(self, env):
        ev = env.event()
        got = []

        def waiter():
            got.append((yield ev))

        def trigger():
            yield env.timeout(3)
            ev.succeed("x")

        env.process(waiter())
        env.process(trigger())
        env.run()
        assert got == ["x"]

    def test_double_trigger_rejected(self, env):
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")  # type: ignore[arg-type]


class TestConditions:
    def test_all_of_collects_values(self, env):
        def parent():
            events = [env.timeout(d, value=d) for d in (3, 1, 2)]
            values = yield env.all_of(events)
            return (env.now, values)

        p = env.process(parent())
        now, values = env.run(until=p)
        assert now == 3
        assert values == [3, 1, 2]  # creation order preserved

    def test_all_of_empty(self, env):
        def parent():
            values = yield env.all_of([])
            return values

        p = env.process(parent())
        assert env.run(until=p) == []

    def test_all_of_fails_fast(self, env):
        def bad():
            yield env.timeout(1)
            raise KeyError("nope")

        def parent():
            with pytest.raises(KeyError):
                yield env.all_of([env.process(bad()), env.timeout(10)])
            return env.now

        p = env.process(parent())
        assert env.run(until=p) == 1


class TestInterrupts:
    def test_interrupt_wakes_sleeper(self, env):
        log = []

        def sleeper():
            try:
                yield env.timeout(100)
            except Interrupt as intr:
                log.append((env.now, intr.cause))

        def poker(target):
            yield env.timeout(2)
            target.interrupt("wake up")

        target = env.process(sleeper())
        env.process(poker(target))
        env.run()
        assert log == [(2, "wake up")]

    def test_interrupted_process_can_continue(self, env):
        def sleeper():
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(1)
            return env.now

        def poker(target):
            yield env.timeout(2)
            target.interrupt()

        target = env.process(sleeper())
        env.process(poker(target))
        assert env.run(until=target) == 3

    def test_cannot_interrupt_dead_process(self, env):
        def quick():
            yield env.timeout(1)

        p = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()


class TestDeterminism:
    def test_identical_runs(self):
        def trace():
            env = Environment()
            log = []

            def worker(k):
                for i in range(3):
                    yield env.timeout(0.5 * (k + 1))
                    log.append((env.now, k, i))

            for k in range(4):
                env.process(worker(k))
            env.run()
            return log

        assert trace() == trace()


class TestEnvironmentStats:
    def test_stats_track_schedule_and_dispatch(self, env):
        def proc():
            yield env.timeout(1.0)
            yield env.timeout(1.0)

        env.process(proc())
        before = env.stats()
        assert before["scheduled"] == before["pending"] == 1  # Initialize
        assert before["dispatched"] == 0
        env.run()
        after = env.stats()
        # Initialize + 2 timeouts, all dispatched; nothing waits on the
        # process, so its end is not an event.
        assert after["scheduled"] == 3
        assert after["dispatched"] == 3
        assert after["pending"] == 0
        assert after["now"] == 2.0


class Forced:
    """A tie-breaker stub: follows ``picks``, then the default (index 0),
    and records every decision as ``(n_choices, chosen)``."""

    def __init__(self, *picks):
        self.picks = picks
        self.decisions = []

    def choose(self, when, priority, events):
        i = len(self.decisions)
        pick = self.picks[i] if i < len(self.picks) else 0
        self.decisions.append((len(events), pick))
        return pick


class TestEngineTieBreak:
    @staticmethod
    def order_of_two_starts(tie_breaker=None):
        """Start processes "a" then "b" at time 0 under ``tie_breaker``;
        the order their zero timeouts fire in."""
        if tie_breaker is not None:
            engine.attach("_tie_breaker", lambda env: tie_breaker)
        try:
            env = Environment()
            order = []

            def proc(tag):
                yield env.timeout(0)
                order.append(tag)

            env.process(proc("a"))
            env.process(proc("b"))
            env.run()
        finally:
            if tie_breaker is not None:
                engine.detach("_tie_breaker")
        return order

    def test_default_order_without_tie_breaker(self):
        assert self.order_of_two_starts() == ["a", "b"]

    def test_forced_tie_breaker_reorders_same_time_events(self):
        # Flip only the first tie (the two process-start events) and keep
        # defaults after: "b" starts first, so its timeout fires first.
        tb = Forced(1)
        assert self.order_of_two_starts(tb) == ["b", "a"]
        assert tb.decisions[0] == (2, 1)

    def test_unobservable_events_consume_no_decision(self):
        # Bare timeouts nobody waits on commute; only observed ties
        # reach the tie-breaker.
        tb = Forced()
        engine.attach("_tie_breaker", lambda env: tb)
        try:
            env = Environment()
            for _ in range(3):
                env.timeout(1.0)
            env.run()
        finally:
            engine.detach("_tie_breaker")
        assert tb.decisions == []

    def test_explored_run_same_result_as_default_when_forced_default(self):
        assert self.order_of_two_starts(Forced()) == ["a", "b"]

"""Kernel fast paths: tombstone interrupt detach and inlined dispatch.

The hot-path rewrite (inlined ``_schedule``, the Timeout no-callback
lane, O(1) interrupt detach) must be behaviourally invisible; these
tests pin down the corners the rewrite could have bent.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Environment, Interrupt


@pytest.fixture
def env():
    return Environment()


class TestInterruptTombstone:
    def test_interrupted_waiter_not_resumed_when_target_fires(self, env):
        """The stale callback slot is tombstoned; the old target firing
        later must not resume the process a second time."""
        trigger = env.event()
        resumes = []

        def waiter():
            try:
                yield trigger
                resumes.append("value")
            except Interrupt:
                resumes.append("interrupt")
                yield env.timeout(5.0)
                resumes.append("slept")

        p = env.process(waiter())

        def driver():
            yield env.timeout(1.0)
            p.interrupt()
            yield env.timeout(1.0)
            trigger.succeed("late")  # fires while waiter sleeps

        env.process(driver())
        env.run()
        assert resumes == ["interrupt", "slept"]

    def test_rewaiting_same_event_after_interrupt(self, env):
        """Interrupt, then yield the *same* pending event again: only the
        fresh subscription may resume the process."""
        trigger = env.event()
        log = []

        def waiter():
            try:
                yield trigger
            except Interrupt:
                log.append("interrupted")
            value = yield trigger  # re-subscribe to the same event
            log.append(value)

        p = env.process(waiter())

        def driver():
            yield env.timeout(1.0)
            p.interrupt()
            yield env.timeout(1.0)
            trigger.succeed("finally")

        env.process(driver())
        env.run()
        assert log == ["interrupted", "finally"]

    def test_shared_event_other_waiters_unaffected(self, env):
        """Tombstoning one waiter's slot must not disturb the other
        subscribers of the same event (indices are positional)."""
        trigger = env.event()
        woken = []

        def waiter(name):
            try:
                value = yield trigger
                woken.append((name, value))
            except Interrupt:
                woken.append((name, "interrupted"))

        env.process(waiter("a"), name="a")
        victim = env.process(waiter("b"), name="b")
        env.process(waiter("c"), name="c")

        def driver():
            yield env.timeout(1.0)
            victim.interrupt()
            yield env.timeout(1.0)
            trigger.succeed("go")

        env.process(driver())
        env.run()
        assert sorted(woken) == [("a", "go"), ("b", "interrupted"),
                                 ("c", "go")]

    def test_interrupt_tombstones_the_slot_in_place(self, env):
        """The detach is literally ``callbacks[i] = None``: the list keeps
        its length, so the later subscriber's recorded index stays valid
        and its own interrupt tombstones too.  Relies on the process
        subscribing with one cached bound method: a fresh ``self._resume``
        is a new object each time and never matches by identity."""
        trigger = env.event()
        woken = []

        def waiter(name):
            try:
                woken.append((name, (yield trigger)))
            except Interrupt:
                woken.append((name, "interrupted"))
                yield env.timeout(10.0)

        first = env.process(waiter("first"))
        second = env.process(waiter("second"))
        third = env.process(waiter("third"))
        env.run(until=0)  # the three Initialize events: all subscribed
        assert len(trigger.callbacks) == 3

        first.interrupt()
        env.run(until=0)
        assert trigger.callbacks[0] is None
        assert len(trigger.callbacks) == 3
        assert trigger.callbacks[second._target_index] is second._resume_cb

        second.interrupt()
        env.run(until=0)
        assert trigger.callbacks[:2] == [None, None]
        assert len(trigger.callbacks) == 3

        trigger.succeed("go")
        env.run()
        assert woken == [("first", "interrupted"), ("second", "interrupted"),
                         ("third", "go")]

    def test_interrupt_delivered_at_current_time(self, env):
        times = []

        def sleeper():
            try:
                yield env.timeout(100.0)
            except Interrupt:
                times.append(env.now)

        p = env.process(sleeper())

        def driver():
            yield env.timeout(3.0)
            p.interrupt()

        env.process(driver())
        env.run()
        assert times == [3.0]


class TestDispatchFastLane:
    def test_unawaited_timeouts_advance_the_clock(self, env):
        """Callback-less timeouts take the no-callback lane but still
        drive time forward."""
        env.timeout(5.0)
        env.timeout(2.0)
        env.run()
        assert env.now == 5.0

    def test_failed_event_still_raises_after_fast_lane(self, env):
        ev = env.event()
        ev.fail(RuntimeError("lost"))
        with pytest.raises(RuntimeError, match="lost"):
            env.run()

    def test_negative_timeout_still_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_step_skips_tombstoned_callbacks(self, env):
        """Direct step() (not just run()) honours tombstones."""
        trigger = env.event()

        def waiter():
            try:
                yield trigger
            except Interrupt:
                yield env.timeout(10.0)

        p = env.process(waiter())
        env.step()  # Initialize: waiter now subscribed to trigger
        p.interrupt()
        env.step()  # deliver the interrupt; tombstones the slot
        trigger.succeed("x")
        env.step()  # dispatch trigger: only a tombstone remains
        assert p.is_alive  # still sleeping on the 10s timeout
        env.run()
        assert not p.is_alive


class TestSchedulingOrderUnchanged:
    def test_same_time_events_fire_in_scheduling_order(self, env):
        order = []

        def make(name):
            def proc():
                yield env.timeout(1.0)
                order.append(name)
            return proc

        for name in ("a", "b", "c"):
            env.process(make(name)())
        env.run()
        assert order == ["a", "b", "c"]

    def test_urgent_beats_normal_at_same_time(self, env):
        order = []

        def child():
            order.append("child-start")
            yield env.timeout(1.0)
            order.append("child-done")
            return "v"

        def parent():
            value = yield env.process(child())
            order.append(f"parent-got-{value}")

        env.process(parent())
        env.run()
        assert order == ["child-start", "child-done", "parent-got-v"]

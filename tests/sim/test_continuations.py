"""Bare heap entries and event-free process ends.

A heap entry is an :class:`Event` or a zero-argument callable
(:meth:`Environment.call_later`, :meth:`FifoServer.hold_then`).  A bare
entry must fire exactly where the ``Timeout``/``Hold`` carrying the same
function as its one callback would: same time, same ``seq``, under every
dispatch loop and under a seeded tie-breaker.  And a process
whose end nobody waits for is processed on the spot instead of
scheduling an end event.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.faults.campaign import RandomTieBreaker
from repro.sim import Environment
from repro.sim.engine import Timeout
from repro.sim.resources import FifoServer

# A schedule is a forest: each node fires, is logged, and schedules its
# children.  Delays come from a small set so that same-instant ties
# (and so ``seq`` order and tie-breaker decisions) are common.
delay = st.sampled_from([0.0, 0.25, 1.0])
leaf = st.tuples(st.sampled_from(["wait", "hold0", "hold1"]), delay,
                 st.just(()))
node = st.recursive(
    leaf,
    lambda children: st.tuples(st.sampled_from(["wait", "hold0", "hold1"]),
                               delay, st.lists(children, max_size=3)
                               .map(tuple)),
    max_leaves=12)
forest = st.lists(node, min_size=1, max_size=5)


def build(schedule, bare: bool):
    """An environment with ``schedule`` placed, the log it appends
    ``(now, label)`` to, and an event the node labelled ``"1"`` (if
    any) triggers."""
    env = Environment()
    servers = {"hold0": FifoServer(env), "hold1": FifoServer(env)}
    log = []
    stop = env.event()

    def place(path, spec):
        kind, amount, children = spec

        def fire():
            log.append((env.now, path))
            if path == "1" and not stop.triggered:
                stop.succeed(env.now)
            for i, child in enumerate(children):
                place(f"{path}.{i}", child)

        if bare:
            if kind == "wait":
                env.call_later(amount, fire)
            else:
                servers[kind].hold_then(amount, fire)
        else:
            event = (Timeout(env, amount) if kind == "wait"
                     else servers[kind].hold(amount))
            event.callbacks.append(lambda _event: fire())

    def driver():
        # a process among the bare entries: its events are the same in
        # both forms, and its end (awaited by nobody) is never an event
        yield env.timeout(0.25)
        yield servers["hold0"].hold(0.25)
        log.append((env.now, "process"))

    env.process(driver())
    for i, spec in enumerate(schedule):
        place(str(i), spec)
    return env, log, stop, servers


def outcome(env, log, servers):
    return (log, env.stats(),
            [(s.free_at, s.total_waits, s.total_wait_time)
             for s in servers.values()])


@settings(max_examples=80, deadline=None)
@given(forest)
def test_run_fires_the_same_callbacks_in_the_same_order(schedule):
    results = []
    for bare in (False, True):
        env, log, _stop, servers = build(schedule, bare)
        env.run()
        results.append(outcome(env, log, servers))
    assert results[0] == results[1]


@settings(max_examples=60, deadline=None)
@given(forest)
def test_run_until_an_event_stops_at_the_same_entry(schedule):
    results = []
    for bare in (False, True):
        env, log, stop, servers = build(schedule, bare)
        if len(schedule) > 1:
            value = env.run(until=stop)
            prefix = (value, list(log), env.stats())
        else:
            prefix = None  # no node "1": the run drains first
            with pytest.raises(SimulationError):
                env.run(until=stop)
        env.run()
        results.append((prefix, outcome(env, log, servers)))
    assert results[0] == results[1]


@settings(max_examples=60, deadline=None)
@given(forest)
def test_step_loop_pops_the_same_seq_order(schedule):
    results = []
    for bare in (False, True):
        env, log, _stop, servers = build(schedule, bare)
        popped = []
        while env._heap:
            when, prio, seq, _entry = env._heap[0]
            popped.append((when, prio, seq))
            env.step()
        results.append((popped, outcome(env, log, servers)))
    assert results[0] == results[1]


@settings(max_examples=60, deadline=None)
@given(forest, st.integers(min_value=0, max_value=2**16))
def test_seeded_tie_breaker_makes_the_same_decisions(schedule, seed):
    results = []
    for bare in (False, True):
        env, log, _stop, servers = build(schedule, bare)
        env._tie_breaker = chooser = RandomTieBreaker(seed)
        env.run()
        results.append((chooser.decisions, outcome(env, log, servers)))
    assert results[0] == results[1]


def test_a_bare_entry_takes_the_seq_of_the_event_it_replaces():
    env = Environment()
    server = FifoServer(env)
    env.call_later(1.0, lambda: None)
    server.hold_then(2.0, lambda: None)
    Timeout(env, 1.0)
    assert [entry[:3] for entry in sorted(env._heap)] == [
        (1.0, 1, 1), (1.0, 1, 3), (2.0, 1, 2)]
    with pytest.raises(SimulationError):
        env.call_later(-1.0, lambda: None)
    with pytest.raises(SimulationError):
        server.hold_then(-1.0, lambda: None)


class TestProcessExit:
    def test_an_unawaited_process_is_processed_at_its_end(self):
        env = Environment()

        def body():
            yield env.timeout(1.0)
            return "done"

        proc = env.process(body())
        env.step()  # Initialize
        env.step()  # the timeout: the body returns
        assert proc.processed and proc.value == "done"
        assert env.stats() == {"now": 1.0, "scheduled": 2,
                               "dispatched": 2, "pending": 0}

    def test_a_later_wait_resumes_at_once(self):
        env = Environment()

        def quick():
            yield env.timeout(1.0)
            return 42

        proc = env.process(quick())
        seen = []

        def late():
            yield env.timeout(2.0)
            seen.append((env.now, (yield proc), env.now))

        env.process(late())
        env.run()
        assert seen == [(2.0, 42, 2.0)]
        assert env.run(until=proc) == 42

    def test_an_awaited_end_is_still_an_event(self):
        env = Environment()

        def quick():
            yield env.timeout(1.0)

        proc = env.process(quick())
        proc.callbacks.append(lambda _proc: None)
        env.run()
        assert env.stats()["scheduled"] == 3  # Initialize, timeout, end

    def test_an_unawaited_failure_still_raises_out_of_run(self):
        env = Environment()

        def broken():
            yield env.timeout(1.0)
            raise ValueError("lost")

        proc = env.process(broken())
        with pytest.raises(ValueError, match="lost"):
            env.run()
        assert proc.processed and not proc.ok


def test_random_mix_of_exits_drains():
    """Many short processes, a random half awaited: every one is
    processed, and only the awaited ends were scheduled."""
    rng = random.Random(20030901)
    env = Environment()

    def worker(d):
        yield env.timeout(d)
        return d

    procs = [env.process(worker(rng.choice([0.0, 0.5, 1.0])))
             for _ in range(40)]
    awaited = [p for p in procs if rng.random() < 0.5]
    for p in awaited:
        p.callbacks.append(lambda _p: None)
    env.run()
    assert all(p.processed for p in procs)
    assert env.stats()["scheduled"] == 2 * len(procs) + len(awaited)

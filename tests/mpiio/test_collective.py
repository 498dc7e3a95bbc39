"""Tests for two-phase collective I/O over CSAR."""

import pytest

from repro import CSARConfig, Payload, System
from repro.errors import ConfigError
from repro.mpiio import CollectiveConfig, MPIFile, contiguous, strided
from repro.units import KiB

UNIT = 4 * KiB


def make_system(clients=4, scheme="hybrid", **kw):
    kw.setdefault("stripe_unit", UNIT)
    kw.setdefault("content_mode", True)
    return System(CSARConfig(scheme=scheme, num_servers=6,
                             num_clients=clients, **kw))


def payload_for(pattern, seed):
    return Payload.pattern(pattern.total_bytes, seed=seed)


class TestCollectiveWrite:
    def test_interleaved_strides_roundtrip(self):
        # 4 ranks each own every 4th record: the canonical case where
        # independent I/O would be thousands of tiny writes.
        system = make_system(clients=4)
        f = MPIFile(system, "bt")
        record = 512
        count = 32
        contribs = {}
        for rank in range(4):
            pattern = strided(rank * record, block=record,
                              stride=4 * record, count=count)
            contribs[rank] = (pattern, payload_for(pattern, seed=rank))

        def work():
            yield from f.open()
            yield from f.collective_write(contribs)
            out = yield from system.clients[0].read("bt", 0,
                                                    4 * record * count)
            return out

        out = system.run(work())
        # Build the reference image.
        expected = Payload.zeros(4 * record * count)
        for rank, (pattern, buf) in contribs.items():
            at = 0
            for off, length in pattern.pieces:
                expected = expected.overlay(off, buf.slice(at, at + length))
                at += length
        assert out == expected

    def test_collective_merges_into_large_requests(self):
        # The ROMIO effect the paper relies on: the file system sees a few
        # large writes, not per-record ones.
        system = make_system(clients=4, content_mode=False)
        f = MPIFile(system, "bt", CollectiveConfig(cb_nodes=2))
        record = 256
        contribs = {
            rank: (strided(rank * record, record, 4 * record, 64), None)
            for rank in range(4)}

        def work():
            yield from f.open()
            yield from f.collective_write(contribs)

        system.run(work())
        total = 4 * 64 * record
        writes = system.metrics.get("client.bytes_written")
        assert writes == total
        # With 2 aggregators and a contiguous union, the PVFS layer saw 2
        # large writes (one per file domain), mostly full stripes —
        # independent per-record writes would have been 100% partial.
        assert system.metrics.get("hybrid.full_stripe_bytes") > 0.5 * total

    def test_sparse_union_writes_only_covered_extents(self):
        system = make_system(clients=2)
        f = MPIFile(system, "sparse")
        a = contiguous(0, 1000)
        b = contiguous(50_000, 1000)
        contribs = {0: (a, payload_for(a, 1)), 1: (b, payload_for(b, 2))}

        def work():
            yield from f.open()
            yield from f.collective_write(contribs)

        system.run(work())
        assert system.metrics.get("client.bytes_written") == 2000
        # The hole was not written.
        assert system.manager.files["sparse"].size == 51_000

    def test_overlapping_contributions_rejected(self):
        system = make_system(clients=2)
        f = MPIFile(system, "x")
        a = contiguous(0, 100)
        b = contiguous(50, 100)
        contribs = {0: (a, payload_for(a, 1)), 1: (b, payload_for(b, 2))}

        def work():
            yield from f.open()
            with pytest.raises(ConfigError):
                yield from f.collective_write(contribs)

        system.run(work())

    def test_payload_size_mismatch_rejected(self):
        system = make_system(clients=1)
        f = MPIFile(system, "x")

        def work():
            yield from f.open()
            with pytest.raises(ConfigError):
                yield from f.collective_write(
                    {0: (contiguous(0, 100), Payload.zeros(5))})

        system.run(work())

    def test_empty_collective_is_noop(self):
        system = make_system(clients=1)
        f = MPIFile(system, "x")

        def work():
            yield from f.open()
            from repro.mpiio.datatypes import AccessPattern
            yield from f.collective_write({0: (AccessPattern(()), None)})

        system.run(work())
        assert system.metrics.get("client.bytes_written") == 0

    def test_aggregator_count_limits_domains(self):
        system = make_system(clients=4, content_mode=False)
        f = MPIFile(system, "x", CollectiveConfig(cb_nodes=1))
        contribs = {
            rank: (contiguous(rank * 10_000, 10_000), None)
            for rank in range(4)}

        def work():
            yield from f.open()
            yield from f.collective_write(contribs)

        system.run(work())
        # Only rank 0 aggregates: all file writes issued by client0.
        assert system.metrics.get("client.bytes_written") == 40_000


class TestTimingEffect:
    def test_collective_faster_than_independent_for_tiny_strides(self):
        # The reason ROMIO exists: per-record independent writes pay a
        # round trip each; two-phase I/O pays one redistribution plus a
        # few large writes.
        record = 512
        count = 64

        def collective_time():
            system = make_system(clients=4, content_mode=False)
            f = MPIFile(system, "w")
            contribs = {
                rank: (strided(rank * record, record, 4 * record, count),
                       None)
                for rank in range(4)}

            def work():
                yield from f.open()
                yield from f.collective_write(contribs)

            return system.timed(work())[0]

        def independent_time():
            system = make_system(clients=4, content_mode=False)
            f = MPIFile(system, "w")

            def opener():
                yield from f.open()

            system.run(opener())

            def rank_proc(rank):
                for i in range(count):
                    yield from f.write_at(
                        rank, (i * 4 + rank) * record,
                        Payload.virtual(record))

            return system.timed(*[rank_proc(r) for r in range(4)])[0]

        assert collective_time() < independent_time()


from hypothesis import given, settings
from hypothesis import strategies as st
from repro.mpiio.datatypes import AccessPattern


@settings(max_examples=10, deadline=None)
@given(
    layout=st.lists(st.integers(0, 3), min_size=8, max_size=40),
    cb_nodes=st.integers(1, 4),
)
def test_collective_write_read_roundtrip_property(layout, cb_nodes):
    """Random rank-ownership layouts roundtrip byte-exactly (read back
    through an independent read).

    ``layout[i]`` says which rank owns record i; each record is 64 bytes.
    """
    record = 64
    system = make_system(clients=4)
    f = MPIFile(system, "prop", CollectiveConfig(cb_nodes=cb_nodes,
                                                 cb_buffer_size=256))
    contribs = {}
    expected = Payload.zeros(len(layout) * record)
    for rank in range(4):
        pieces = tuple((i * record, record)
                       for i, owner in enumerate(layout) if owner == rank)
        if not pieces:
            continue
        pattern = AccessPattern(pieces)
        buf = Payload.pattern(pattern.total_bytes, seed=100 + rank)
        contribs[rank] = (pattern, buf)
        at = 0
        for off, length in pieces:
            expected = expected.overlay(off, buf.slice(at, at + length))
            at += length
    if not contribs:
        return

    def work():
        yield from f.open()
        yield from f.collective_write(contribs)
        out = yield from system.clients[0].read("prop", 0, expected.length)
        return out

    assert system.run(work()) == expected

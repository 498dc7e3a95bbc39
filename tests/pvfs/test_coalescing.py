"""RPC coalescing and open-pipelining: semantics must not change.

Coalescing merges a server's adjacent same-kind read fragments into one
vectored message — a wire-format optimisation, so every read returns the
bytes written and a recovery read saves one header per merged fragment.
Open-pipelining overlaps ``open()`` with the first read RPCs; a failed
open must leave no trace on any server.
"""

import pytest

from repro import CSARConfig, Payload, System
from repro.errors import FileNotFound
from repro.pvfs.messages import HEADER
from repro.redundancy.scrub import scrub
from repro.units import KiB

UNIT = 4 * KiB


def make_system(**kw):
    kw.setdefault("scheme", "raid5")
    kw.setdefault("num_servers", 4)
    kw.setdefault("stripe_unit", UNIT)
    kw.setdefault("content_mode", True)
    kw.setdefault("num_clients", 2)
    return System(CSARConfig(**kw))


def run_workload(system):
    """A deterministic mixed write/read workload on one file."""
    client = system.client()

    def work():
        yield from client.create("f")
        # Two full groups (3 data units per group at n=4).
        yield from client.write("f", 0, Payload.pattern(6 * UNIT, seed=1))
        # Unaligned partial overwrite (RMW on raid5, overflow on hybrid).
        yield from client.write("f", UNIT // 2,
                                Payload.pattern(UNIT, seed=2))
        # Append past the end, then rewrite the tail.
        yield from client.write("f", 6 * UNIT,
                                Payload.pattern(UNIT // 4, seed=3))
        yield from client.write("f", 5 * UNIT + 100,
                                Payload.pattern(300, seed=4))
        return (yield from client.read("f", 0, 6 * UNIT + UNIT // 4))

    data = system.run(work())
    system.sync_all()
    return data


def expected_bytes():
    ref = bytearray(6 * UNIT + UNIT // 4)
    for offset, payload in (
            (0, Payload.pattern(6 * UNIT, seed=1)),
            (UNIT // 2, Payload.pattern(UNIT, seed=2)),
            (6 * UNIT, Payload.pattern(UNIT // 4, seed=3)),
            (5 * UNIT + 100, Payload.pattern(300, seed=4))):
        ref[offset: offset + payload.length] = payload.to_bytes()
    return bytes(ref)


class TestCoalescingEquivalence:
    @pytest.mark.parametrize("scheme", ["raid5", "hybrid", "raid1"])
    def test_reads_back_expected_bytes(self, scheme):
        system = make_system(scheme=scheme)
        assert run_workload(system).to_bytes() == expected_bytes()
        assert scrub(system, "f") == []

    def test_degraded_read_identical_and_coalesced(self):
        system = make_system()
        run_workload(system)
        system.fail_server(1)

        def work():
            return (yield from system.client().read(
                "f", 0, 6 * UNIT + UNIT // 4))

        assert system.run(work()).to_bytes() == expected_bytes()
        # The multi-group recovery read merged fragments, and each one
        # merged away saved its request header.
        merged = system.metrics.get("client.coalesced_fragments")
        assert merged > 0
        assert system.metrics.get("client.coalesced_header_bytes") \
            == merged * HEADER

    def test_single_fragment_requests_never_merge(self):
        system = make_system()

        def work():
            client = system.client()
            yield from client.create("f")
            # One full stripe: exactly one data + one parity message per
            # server — nothing adjacent to merge.
            yield from client.write("f", 0, Payload.pattern(3 * UNIT, seed=7))

        system.run(work())
        assert system.metrics.get("client.coalesced_fragments") == 0


class TestOpenPipelining:
    def test_fresh_client_read_returns_correct_bytes(self):
        system = make_system()
        run_workload(system)
        # Client 1 never opened "f": its read speculates layout-mapped
        # fetches while the open() round-trips in parallel.
        fresh = system.client(1)

        def work():
            return (yield from fresh.read("f", 100, 2 * UNIT))

        data = system.run(work())
        assert data.to_bytes() == expected_bytes()[100: 100 + 2 * UNIT]

    def test_failed_open_leaves_no_server_state(self):
        system = make_system()

        def work():
            with pytest.raises(FileNotFound):
                yield from system.client().read("nope", 0, UNIT)

        system.run(work())
        for iod in system.iods:
            assert iod.fs.files == {}
            assert "nope" not in iod.overflow

    def test_fresh_client_write_opens_first(self):
        system = make_system()
        run_workload(system)
        fresh = system.client(1)

        def work():
            yield from fresh.write("f", 0, Payload.pattern(UNIT, seed=9))
            return (yield from fresh.read("f", 0, UNIT))

        data = system.run(work())
        assert data.to_bytes() == Payload.pattern(UNIT, seed=9).to_bytes()

"""End-to-end behaviour of the four redundancy schemes on real bytes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CSARConfig, DataLoss, Payload, System
from repro.redundancy import scrub
from repro.units import KiB

UNIT = 4 * KiB  # small stripe unit keeps content-mode tests fast


def make_system(scheme, servers=6, clients=1, **kw):
    return System(CSARConfig(scheme=scheme, num_servers=servers,
                             num_clients=clients, stripe_unit=UNIT,
                             content_mode=True, **kw))


def write_file(system, name, chunks, client=0):
    """chunks: list of (offset, Payload); creates the file if needed."""
    from repro.errors import FileExists

    c = system.client(client)

    def work():
        try:
            yield from c.create(name)
        except FileExists:
            yield from c.open(name)
        for offset, payload in chunks:
            yield from c.write(name, offset, payload)

    system.run(work())


def read_file(system, name, offset, length, client=0):
    c = system.client(client)

    def work():
        out = yield from c.read(name, offset, length)
        return out

    return system.run(work())


ALL_SCHEMES = ["raid0", "raid1", "raid5", "hybrid"]
REDUNDANT = ["raid1", "raid5", "hybrid"]


class TestRoundtrip:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_large_aligned_write(self, scheme):
        system = make_system(scheme)
        data = Payload.pattern(system.layout.group_span * 4, seed=1)
        write_file(system, "f", [(0, data)])
        assert read_file(system, "f", 0, data.length) == data

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_unaligned_write(self, scheme):
        system = make_system(scheme)
        data = Payload.pattern(3 * UNIT + 123, seed=2)
        write_file(system, "f", [(517, data)])
        assert read_file(system, "f", 517, data.length) == data

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_sparse_hole_reads_zero(self, scheme):
        system = make_system(scheme)
        write_file(system, "f", [(10 * UNIT, Payload.pattern(100, seed=3))])
        head = read_file(system, "f", 0, 10 * UNIT)
        assert head == Payload.zeros(10 * UNIT)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_overwrite_returns_latest(self, scheme):
        system = make_system(scheme)
        first = Payload.pattern(2 * system.layout.group_span, seed=4)
        write_file(system, "f", [(0, first)])
        patch = Payload.pattern(333, seed=5)
        write_file(system, "f", [(UNIT + 17, patch)])
        out = read_file(system, "f", 0, first.length)
        expected = first.overlay(UNIT + 17, patch)
        assert out == expected

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_tiny_write(self, scheme):
        system = make_system(scheme)
        write_file(system, "f", [(0, Payload.from_bytes(b"x"))])
        assert read_file(system, "f", 0, 1).to_bytes() == b"x"

    @pytest.mark.parametrize("scheme", ["raid5", "hybrid"])
    def test_exactly_one_group(self, scheme):
        system = make_system(scheme)
        data = Payload.pattern(system.layout.group_span, seed=6)
        write_file(system, "f", [(0, data)])
        assert read_file(system, "f", 0, data.length) == data

    @pytest.mark.parametrize("scheme", ["raid5", "hybrid"])
    def test_write_crossing_boundary_no_full_group(self, scheme):
        system = make_system(scheme)
        span = system.layout.group_span
        data = Payload.pattern(200, seed=7)
        write_file(system, "f", [(span - 100, data)])
        assert read_file(system, "f", span - 100, 200) == data


class TestInvariants:
    @pytest.mark.parametrize("scheme", REDUNDANT)
    def test_scrub_clean_after_mixed_writes(self, scheme):
        system = make_system(scheme)
        span = system.layout.group_span
        chunks = [
            (0, Payload.pattern(3 * span, seed=10)),        # aligned full
            (3 * span + 100, Payload.pattern(500, seed=11)),  # small
            (2 * span - 50, Payload.pattern(span + 100, seed=12)),  # mixed
            (0, Payload.pattern(span // 2, seed=13)),       # head overwrite
        ]
        write_file(system, "f", chunks)
        assert scrub.scrub(system, "f") == []

    def test_raid1_storage_is_double(self):
        system = make_system("raid1")
        data = Payload.pattern(100_000, seed=20)
        write_file(system, "f", [(0, data)])
        report = system.storage_report("f")
        assert report["data"] == 100_000
        assert report["red"] == 100_000

    def test_raid5_storage_overhead_one_over_width(self):
        # 6 servers -> parity adds 1/5 = 20% for full-group writes.
        system = make_system("raid5")
        span = system.layout.group_span
        write_file(system, "f", [(0, Payload.pattern(10 * span, seed=21))])
        report = system.storage_report("f")
        assert report["red"] == pytest.approx(report["data"] / 5, rel=0.01)

    def test_hybrid_full_stripe_matches_raid5_storage(self):
        span_data = None
        reports = {}
        for scheme in ("raid5", "hybrid"):
            system = make_system(scheme)
            span = system.layout.group_span
            span_data = span_data or Payload.pattern(8 * span, seed=22)
            write_file(system, "f", [(0, span_data)])
            reports[scheme] = system.storage_report("f")
        assert reports["hybrid"]["total"] == reports["raid5"]["total"]
        assert reports["hybrid"]["ovf"] == 0

    def test_hybrid_small_writes_are_mirrored_in_overflow(self):
        system = make_system("hybrid")
        write_file(system, "f", [(0, Payload.pattern(1000, seed=23))])
        report = system.storage_report("f")
        assert report["data"] == 0       # nothing written in place
        assert report["ovf"] == 1000
        assert report["ovfm"] == 1000

    def test_hybrid_full_stripe_invalidates_overflow(self):
        system = make_system("hybrid")
        span = system.layout.group_span
        write_file(system, "f", [(0, Payload.pattern(span // 2, seed=24))])
        assert system.overflow_stats("f")["live"] > 0
        write_file(system, "f", [(0, Payload.pattern(span, seed=25))])
        stats = system.overflow_stats("f")
        assert stats["live"] == 0
        assert stats["fragmentation"] > 0  # space is not reclaimed

    def test_hybrid_read_prefers_overflow_over_stale_data(self):
        system = make_system("hybrid")
        span = system.layout.group_span
        base = Payload.pattern(span, seed=26)
        write_file(system, "f", [(0, base)])           # in place via RAID5
        patch = Payload.pattern(777, seed=27)
        write_file(system, "f", [(100, patch)])        # to overflow
        out = read_file(system, "f", 0, span)
        assert out == base.overlay(100, patch)
        # In-place data still holds the OLD bytes (needed for recovery).
        from repro.pvfs.iod import data_file
        lay = system.layout
        piece = lay.pieces(100, 1)[0]
        raw = system.iods[piece.server].fs.files[data_file("f")] \
            .read(piece.local_offset, 1)
        assert raw == base.slice(100, 101)


class TestTraffic:
    def _bytes_sent_by_client(self, scheme, payload_len):
        system = make_system(scheme)
        data = Payload.pattern(payload_len, seed=30)
        write_file(system, "f", [(0, data)])
        return system.metrics.node_tx_bytes["client0"]

    def test_raid1_sends_twice_the_bytes(self):
        span_len = 20 * 5 * UNIT
        raid0 = self._bytes_sent_by_client("raid0", span_len)
        raid1 = self._bytes_sent_by_client("raid1", span_len)
        assert raid1 / raid0 == pytest.approx(2.0, rel=0.05)

    def test_raid5_sends_one_fifth_extra(self):
        span_len = 20 * 5 * UNIT  # aligned full groups at 6 servers
        raid0 = self._bytes_sent_by_client("raid0", span_len)
        raid5 = self._bytes_sent_by_client("raid5", span_len)
        assert raid5 / raid0 == pytest.approx(1.2, rel=0.05)

    def test_hybrid_full_stripes_cost_like_raid5(self):
        span_len = 20 * 5 * UNIT
        raid5 = self._bytes_sent_by_client("raid5", span_len)
        hybrid = self._bytes_sent_by_client("hybrid", span_len)
        assert hybrid == pytest.approx(raid5, rel=0.05)

    def test_hybrid_small_writes_cost_like_raid1(self):
        small = UNIT  # single block: partial stripe
        raid1 = self._bytes_sent_by_client("raid1", small)
        hybrid = self._bytes_sent_by_client("hybrid", small)
        assert hybrid == pytest.approx(raid1, rel=0.05)


class TestConcurrency:
    def test_disjoint_writers_same_stripe_raid5_consistent(self):
        # Five clients write the five distinct blocks of one stripe (the
        # Fig 3 scenario); parity must come out consistent with locking on.
        system = make_system("raid5", clients=5)
        lay = system.layout

        def writer(k):
            c = system.client(k)
            if k == 0:
                yield from c.create("f")
            else:
                yield from c.open("f")
            yield from c.write("f", k * UNIT, Payload.pattern(UNIT, seed=40 + k))

        system.run(writer(0))  # create first
        system.run(*[writer(k) for k in range(1, 5)])
        # Rewrite block 0 concurrently with nothing; then scrub.
        assert scrub.check_parity(system, "f") == []

    @pytest.mark.paritysan_expected
    def test_disjoint_writers_without_locking_corrupt_parity(self):
        # The R5 NO LOCK configuration from Fig 3: same traffic, but
        # concurrent read-modify-writes race on the parity block.
        system = make_system("raid5", clients=5, locking=False)

        def writer(k):
            c = system.client(k)
            yield from c.open("f")
            yield from c.write("f", k * UNIT,
                               Payload.pattern(UNIT, seed=50 + k))

        def creator():
            yield from system.client(0).create("f")

        system.run(creator())
        system.run(*[writer(k) for k in range(5)])
        assert scrub.check_parity(system, "f") != []

    @pytest.mark.parametrize("scheme", REDUNDANT)
    def test_concurrent_disjoint_regions_roundtrip(self, scheme):
        system = make_system(scheme, clients=4)
        region = 3 * UNIT + 77
        payloads = [Payload.pattern(region, seed=60 + k) for k in range(4)]

        def creator():
            yield from system.client(0).create("f")

        def writer(k):
            c = system.client(k)
            yield from c.open("f")
            yield from c.write("f", k * region, payloads[k])

        system.run(creator())
        system.run(*[writer(k) for k in range(4)])
        for k in range(4):
            assert read_file(system, "f", k * region, region) == payloads[k]

    def _overlapping_writers(self, system, rounds=4):
        """Two clients repeatedly rewrite the SAME partial-stripe range."""
        span = system.layout.group_span
        write_file(system, "f", [(0, Payload.pattern(2 * span, seed=0))])

        def writer(k):
            c = system.client(k)
            yield from c.open("f")
            for i in range(rounds):
                yield from c.write("f", UNIT // 2,
                                   Payload.pattern(UNIT, seed=10 * k + i))

        system.run(*[writer(k) for k in range(2)])

    @pytest.mark.paritysan_expected
    def test_overlapping_writers_corrupt_raid5_parity(self):
        # The gap Section 5.1 acknowledges: CSAR, like PVFS, leaves
        # overlapping concurrent writes undefined, and RAID5 parity can
        # go inconsistent under them.
        system = make_system("raid5", clients=2)
        self._overlapping_writers(system)
        assert scrub.check_parity(system, "f") != []

    def test_single_writer_reads_back_and_scrubs_clean(self):
        system = make_system("raid5")
        data = Payload.pattern(3 * system.layout.group_span + 77, seed=42)
        write_file(system, "f", [(13, data)])
        assert read_file(system, "f", 13, data.length) == data
        assert scrub.scrub(system, "f") == []

    def test_disjoint_writers_across_groups_scrub_clean(self):
        system = make_system("hybrid", clients=4)
        region = system.layout.group_span + 99
        payloads = [Payload.pattern(region, seed=k) for k in range(4)]

        def creator():
            yield from system.client(0).create("f")

        def writer(k):
            c = system.client(k)
            yield from c.open("f")
            yield from c.write("f", k * region, payloads[k])

        system.run(creator())
        system.run(*[writer(k) for k in range(4)])
        for k in range(4):
            assert read_file(system, "f", k * region, region) == payloads[k]
        assert scrub.scrub(system, "f") == []

    def test_degraded_partial_write_releases_every_lock(self):
        # Locks live on parity servers; a failed *data* server degrades
        # the read-modify-writes but every lock still cycles.
        system = make_system("raid5")
        span = system.layout.group_span
        write_file(system, "f", [(0, Payload.pattern(2 * span, seed=1))])
        system.fail_server(0)
        patch = Payload.pattern(span + 500, seed=2)
        write_file(system, "f", [(UNIT, patch)])
        assert system.metrics.get("client.degraded_writes") > 0
        assert read_file(system, "f", UNIT, patch.length) == patch
        for iod in system.iods:
            assert not iod.locks._held


class TestDegradedReads:
    @pytest.mark.parametrize("scheme", REDUNDANT)
    def test_single_failure_survivable(self, scheme):
        system = make_system(scheme)
        span = system.layout.group_span
        data = Payload.pattern(4 * span + 333, seed=70)
        write_file(system, "f", [(0, data)])
        system.fail_server(2)
        assert read_file(system, "f", 0, data.length) == data
        assert system.metrics.get("client.degraded_reads") > 0

    def test_raid0_failure_loses_data(self):
        system = make_system("raid0")
        data = Payload.pattern(10 * UNIT, seed=71)
        write_file(system, "f", [(0, data)])
        system.fail_server(1)
        with pytest.raises(DataLoss):
            read_file(system, "f", 0, data.length)

    @pytest.mark.parametrize("failed", range(6))
    def test_hybrid_survives_any_single_failure(self, failed):
        system = make_system("hybrid")
        span = system.layout.group_span
        chunks = [
            (0, Payload.pattern(2 * span, seed=80)),
            (2 * span + 100, Payload.pattern(600, seed=81)),   # overflow
            (span // 3, Payload.pattern(span // 2, seed=82)),  # overwrite->ovf
        ]
        write_file(system, "f", chunks)
        expected = Payload.zeros(3 * span)
        for offset, payload in chunks:
            expected = expected.overlay(offset, payload)
        expected = expected.slice(0, 3 * span)
        system.fail_server(failed)
        assert read_file(system, "f", 0, 3 * span) == expected

    def test_hybrid_failure_does_not_resurrect_invalidated_overflow(self):
        system = make_system("hybrid")
        span = system.layout.group_span
        old = Payload.pattern(span // 2, seed=90)
        write_file(system, "f", [(0, old)])                 # overflow
        new = Payload.pattern(span, seed=91)
        write_file(system, "f", [(0, new)])                 # full stripe
        system.fail_server(0)
        assert read_file(system, "f", 0, span) == new

    def test_raid1_failure_of_every_server(self):
        for failed in range(4):
            system = make_system("raid1", servers=4)
            data = Payload.pattern(8 * UNIT + 99, seed=92)
            write_file(system, "f", [(0, data)])
            system.fail_server(failed)
            assert read_file(system, "f", 0, data.length) == data


@settings(max_examples=15, deadline=None)
@given(
    scheme=st.sampled_from(REDUNDANT),
    writes=st.lists(
        st.tuples(st.integers(0, 6 * 5 * UNIT),
                  st.integers(1, 2 * 5 * UNIT),
                  st.integers(0, 10_000)),
        min_size=1, max_size=6),
)
def test_random_write_sequences_roundtrip_and_scrub(scheme, writes):
    system = make_system(scheme)
    limit = 8 * system.layout.group_span
    reference = Payload.zeros(limit)
    chunks = []
    for offset, length, seed in writes:
        payload = Payload.pattern(min(length, limit - offset), seed=seed)
        if payload.length == 0:
            continue
        chunks.append((offset, payload))
        reference = reference.overlay(offset, payload).slice(0, limit)
    if not chunks:
        return
    write_file(system, "f", chunks)
    assert read_file(system, "f", 0, limit) == reference
    assert scrub.scrub(system, "f") == []

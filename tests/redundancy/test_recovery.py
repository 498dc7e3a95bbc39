"""Failure injection, extent repair, full server rebuild, scrub, and the
reclaimer."""

import pytest

from repro import CSARConfig, Payload, System
from repro.errors import ConfigError, DataLoss, ServerFailed
from repro.pvfs.iod import data_file, ovfm_file, red_file
from repro.pvfs.messages import HEADER
from repro.redundancy import scrub
from repro.redundancy.recovery import rebuild_server, repair
from repro.redundancy.reclaim import background_reclaimer, reclaim_file
from repro.units import KiB, MiB

UNIT = 4 * KiB


def make_system(scheme, servers=6, **kw):
    return System(CSARConfig(scheme=scheme, num_servers=servers,
                             num_clients=1, stripe_unit=UNIT,
                             content_mode=True, **kw))


def populate(system, name="f", seeds=(1, 2, 3)):
    """Mixed full/partial writes; returns the expected logical content."""
    span = system.layout.group_span
    client = system.client()
    chunks = [
        (0, Payload.pattern(3 * span, seed=seeds[0])),
        (3 * span + 50, Payload.pattern(700, seed=seeds[1])),
        (span + 13, Payload.pattern(span // 3, seed=seeds[2])),
    ]

    def work():
        yield from client.create(name)
        for offset, payload in chunks:
            yield from client.write(name, offset, payload)

    system.run(work())
    size = max(off + p.length for off, p in chunks)
    expected = Payload.zeros(size)
    for offset, payload in chunks:
        expected = expected.overlay(offset, payload).slice(0, size)
    return expected


def read_all(system, name, length):
    client = system.client()

    def work():
        out = yield from client.read(name, 0, length)
        return out

    return system.run(work())


class TestRebuild:
    @pytest.mark.parametrize("scheme", ["raid1", "raid5", "hybrid"])
    @pytest.mark.parametrize("failed", [0, 2, 5])
    def test_rebuild_restores_content_and_invariants(self, scheme, failed):
        system = make_system(scheme)
        expected = populate(system)
        system.fail_server(failed)
        system.run(rebuild_server(system, failed))
        assert read_all(system, "f", expected.length) == expected
        assert scrub.scrub(system, "f") == []
        assert system.metrics.get("failures.rebuilt") == 1

    def test_rebuild_survives_second_failure_elsewhere(self, ):
        # After rebuilding server 1, server 4 can fail and reads still work:
        # proof the rebuild restored real redundancy, not just a facade.
        system = make_system("hybrid")
        expected = populate(system)
        system.fail_server(1)
        system.run(rebuild_server(system, 1))
        system.fail_server(4)
        assert read_all(system, "f", expected.length) == expected

    def test_rebuild_requires_failed_server(self):
        system = make_system("raid1")
        populate(system)
        with pytest.raises(ServerFailed):
            system.run(rebuild_server(system, 0))

    def test_raid0_rebuild_rejected(self):
        system = make_system("raid0")
        populate(system)
        system.fail_server(0)
        with pytest.raises(ConfigError):
            system.run(rebuild_server(system, 0))

    def test_rebuild_takes_simulated_time(self):
        system = make_system("raid5")
        populate(system)
        t0 = system.env.now
        system.fail_server(3)
        system.run(rebuild_server(system, 3))
        assert system.env.now > t0

    @pytest.mark.parametrize("delay", [0.001, 0.01, 0.05])
    def test_a_rebuild_that_raises_leaves_the_server_failed(self, delay):
        # A second failure mid-rebuild aborts it.  The half-built server
        # must not come back live: its wiped disk would answer reads of
        # its blocks with wrong bytes and no error.
        system = make_system("raid5", servers=4)
        lay = system.layout
        client = system.client()
        size = 4 * MiB

        def setup():
            yield from client.create("f")
            yield from client.write("f", 0, Payload.pattern(size, seed=5))

        system.run(setup())
        system.fail_server(0)

        def second_failure():
            yield system.env.timeout(delay)
            system.fail_server(2)

        with pytest.raises(ServerFailed):
            system.run(rebuild_server(system, 0), second_failure())
        assert system.iods[0].failed
        blocks = [b for b in range(size // UNIT)
                  if lay.server_of_block(b) == 0][:16]
        for block in blocks:
            def read(block=block):
                yield from client.read("f", block * UNIT, UNIT)

            with pytest.raises((ServerFailed, DataLoss)):
                system.run(read())


def corrupt(blockfile, offset=0, n=4):
    old = blockfile.read(offset, n)
    flipped = Payload.from_bytes(bytes(b ^ 0xFF for b in old.to_bytes()))
    blockfile.write(offset, flipped)


def block_extent(lay, block):
    return [(block * lay.unit, (block + 1) * lay.unit)]


def overflow_mirror_block(system):
    """The first overflow byte range's mirror copy: the blockfile and
    offset holding it, its logical block, and the mirror server."""
    lay = system.layout
    origin = next(iod for iod in system.iods
                  if "f" in iod.overflow and iod.overflow["f"].covered)
    ext = next(iter(origin.overflow["f"].covered))
    mirror = system.iods[lay.successor(origin.index)]
    _gaps, reads = mirror.overflow_mirror[("f", origin.index)].resolve(
        ext.start, ext.end)
    blockfile = mirror.fs.files[ovfm_file("f", origin.index)]
    block = lay.logical_of_local(origin.index, ext.start) // lay.unit
    return blockfile, reads[0].ovf_offset, block, mirror.index


def damaged_block(system, kind):
    """``(blockfile, offset, logical extent, server)`` of one stored
    block of each kind: data block 2 on server 2, the mirror of block 1
    on server 2, group 0's parity on server 5, or an overflow mirror."""
    iods, lay = system.iods, system.layout
    if kind == "data":
        return iods[2].fs.files[data_file("f")], 0, block_extent(lay, 2), 2
    if kind == "mirror":
        return iods[2].fs.files[red_file("f")], 0, block_extent(lay, 1), 2
    if kind == "parity":
        return (iods[5].fs.files[red_file("f")], 0,
                [lay.group_range(0)], 5)
    blockfile, offset, block, server = overflow_mirror_block(system)
    return blockfile, offset, block_extent(lay, block), server


# Corrupting stored blocks makes ParitySan report at the next quiescent
# point under CSAR_PARITYSAN=1.
@pytest.mark.paritysan_expected
class TestRepair:
    @pytest.mark.parametrize("scheme,kind", [
        ("raid1", "data"), ("raid1", "mirror"),
        ("raid5", "data"), ("raid5", "parity"),
        ("hybrid", "data"), ("hybrid", "parity"),
        ("hybrid", "overflow-mirror")])
    def test_repair_heals_one_block_from_its_extent(self, scheme, kind):
        system = make_system(scheme)
        populate(system)
        size = system.manager.files["f"].size
        blockfile, offset, extents, server = damaged_block(system, kind)
        corrupt(blockfile, offset)
        assert scrub.scrub(system, "f")
        before = system.metrics.get("net.bytes")
        system.run(repair(system, system.client(), "f", extents, server))
        assert scrub.scrub(system, "f") == []
        # The peers' bytes read are proportional to the extent: at most
        # one unit from each server, each read a request and a reply.
        n = system.layout.n
        assert system.metrics.get("net.bytes") - before \
            <= n * (UNIT + 2 * HEADER)
        # A whole-server rebuild moves at least the server's share.
        before = system.metrics.get("net.bytes")
        system.fail_server(server)
        system.run(rebuild_server(system, server))
        assert system.metrics.get("net.bytes") - before >= size / n

    def test_repair_rounds_out_to_whole_units(self):
        # An extent naming a few bytes of a unit repairs the whole unit.
        system = make_system("raid5")
        populate(system)
        corrupt(system.iods[2].fs.files[data_file("f")], offset=0)
        start = 2 * UNIT + 100
        system.run(repair(system, system.client(), "f",
                          [(start, start + 100)], 2))
        assert scrub.scrub(system, "f") == []

    @pytest.mark.parametrize("scheme", ["raid1", "raid5", "hybrid"])
    def test_repair_past_the_end_keeps_every_file_size(self, scheme):
        # The extent runs two groups past the end of a two-group file:
        # only the file's bytes are repaired, so no file grows.
        system = make_system(scheme)
        span = system.layout.group_span
        client = system.client()

        def work():
            yield from client.create("f")
            yield from client.write("f", 0, Payload.pattern(2 * span, seed=1))

        system.run(work())

        def sizes():
            return [{name: size for name, size in iod.fs.listing().items()
                     if name in (data_file("f"), red_file("f"))}
                    for iod in system.iods]

        before = sizes()
        for server in range(system.layout.n):
            system.run(repair(system, client, "f", [(0, 4 * span)], server))
        assert sizes() == before
        assert scrub.scrub(system, "f") == []

    def test_repair_of_an_intact_extent_changes_no_byte(self):
        system = make_system("hybrid")
        expected = populate(system)
        span = system.layout.group_span
        for server in range(system.layout.n):
            system.run(repair(system, system.client(), "f",
                              [(0, 2 * span)], server))
        assert scrub.scrub(system, "f") == []
        assert read_all(system, "f", expected.length) == expected


def race_stale_parity(delay):
    """Two clients overwrite the same 1000 bytes of a full RAID5 group,
    the second ``delay`` seconds later.  Each read-modify-write reads
    the old data before it takes the group's parity lock, so the second
    folds data the first is replacing, and the parity goes stale."""
    system = System(CSARConfig(scheme="raid5", num_servers=6,
                               num_clients=2, stripe_unit=UNIT,
                               content_mode=True))
    span = system.layout.group_span
    first, second = system.clients

    def fill():
        yield from first.create("f")
        yield from first.write("f", 0, Payload.pattern(span, seed=1))

    def overwrite(client, seed, wait):
        if wait:
            yield system.env.timeout(wait)
        yield from client.write("f", 100, Payload.pattern(1000, seed=seed))

    system.run(fill())
    system.run(overwrite(first, 2, 0), overwrite(second, 3, delay))
    return system


# The race leaves the parity stale at a quiescent point, which ParitySan
# reports under CSAR_PARITYSAN=1.
@pytest.mark.paritysan_expected
class TestStaleParityRace:
    @pytest.mark.xfail(strict=True, reason=(
        "_rmw reads the old data before it takes the parity lock; "
        "fixing it moves the schedule (ROADMAP, stale-parity race)"))
    @pytest.mark.parametrize("delay", [0.0, 1e-4])
    def test_overlapping_rmws_keep_parity(self, delay):
        system = race_stale_parity(delay)
        assert scrub.scrub(system, "f") == []

    @pytest.mark.parametrize("delay", [0.0, 1e-4])
    def test_repair_clears_the_stale_parity(self, delay):
        system = race_stale_parity(delay)
        assert scrub.scrub(system, "f") == [
            "parity mismatch: f group 0 on server 5"]
        data = [iod.fs.files[data_file("f")].read(0, UNIT)
                for iod in system.iods[:5]]
        system.run(repair(system, system.client(), "f",
                          [system.layout.group_range(0)], 5))
        assert scrub.scrub(system, "f") == []
        assert [iod.fs.files[data_file("f")].read(0, UNIT)
                for iod in system.iods[:5]] == data


class TestReclaimer:
    def _hybrid_with_overflow(self):
        system = make_system("hybrid")
        span = system.layout.group_span
        client = system.client()

        def work():
            yield from client.create("f")
            # Full groups first, then lots of small overwrites -> overflow
            # with superseded versions (fragmentation).
            yield from client.write("f", 0, Payload.pattern(4 * span, seed=1))
            for k in range(6):
                yield from client.write("f", 100 + 37 * k,
                                        Payload.pattern(900, seed=10 + k))

        system.run(work())
        return system

    def test_reclaim_reduces_storage_to_raid5_form(self):
        system = self._hybrid_with_overflow()
        before = system.storage_report("f")
        assert before["ovf"] > 0
        report = system.run(reclaim_file(system, "f"))
        after = system.storage_report("f")
        assert report["after"]["allocated"] <= report["before"]["allocated"]
        # File size is group-aligned here, so overflow drains completely.
        assert after["ovf"] == 0
        assert after["ovfm"] == 0
        assert scrub.scrub(system, "f") == []

    def test_reclaim_preserves_content(self):
        system = self._hybrid_with_overflow()
        expected = read_all(system, "f", 4 * system.layout.group_span)
        system.run(reclaim_file(system, "f"))
        assert read_all(system, "f", expected.length) == expected

    def test_reclaim_keeps_subgroup_tail_in_overflow(self):
        system = make_system("hybrid")
        span = system.layout.group_span
        client = system.client()

        def work():
            yield from client.create("f")
            yield from client.write("f", 0,
                                    Payload.pattern(2 * span + 500, seed=3))

        system.run(work())
        system.run(reclaim_file(system, "f"))
        stats = system.overflow_stats("f")
        assert stats["live"] == 500     # the unaligned tail stays mirrored
        # Compaction leaves only slot padding (allocation is block-granular),
        # never whole superseded versions.
        assert stats["fragmentation"] < 2 * UNIT
        assert scrub.scrub(system, "f") == []

    @pytest.mark.parametrize("role", ["origin", "mirror"])
    def test_rebuild_after_reclaim(self, role):
        # Compaction rewrites the overflow regions and their mirrors; a
        # server lost afterwards rebuilds both from the rewritten copies.
        system = make_system("hybrid")
        expected = populate(system)
        system.run(reclaim_file(system, "f"))
        origin = next(iod.index for iod in system.iods
                      if "f" in iod.overflow and iod.overflow["f"].covered)
        failed = (origin if role == "origin"
                  else system.layout.successor(origin))
        system.fail_server(failed)
        system.run(rebuild_server(system, failed))
        assert scrub.scrub(system, "f") == []
        assert read_all(system, "f", expected.length) == expected
        assert system.overflow_stats("f")["live"] > 0

    def test_reclaim_rejected_for_non_hybrid(self):
        system = make_system("raid5")
        populate(system)
        with pytest.raises(ConfigError):
            system.run(reclaim_file(system, "f"))

    def test_background_reclaimer_fires(self):
        system = self._hybrid_with_overflow()
        system.env.process(background_reclaimer(
            system, interval=5.0, fragmentation_threshold=1))
        system.env.run(until=system.env.now + 20.0)
        assert system.metrics.get("hybrid.reclaims") >= 1
        assert system.overflow_stats("f")["fragmentation"] == 0

"""The scrubber must actually detect corruption, not just pass clean
states — these tests inject damage directly into server state."""

import pytest

from repro import CSARConfig, Payload, System

# These tests corrupt server state and then scrub it; under
# CSAR_PARITYSAN=1 the scrub hook records those (intended) findings.
pytestmark = pytest.mark.paritysan_expected
from repro.errors import ConfigError
from repro.pvfs.iod import data_file, ovf_file, ovfm_file, red_file
from repro.redundancy import scrub
from repro.storage.payload import _MAX_SEGMENTS, SegmentedPayload
from repro.units import KiB

UNIT = 4 * KiB


def make_system(scheme):
    return System(CSARConfig(scheme=scheme, num_servers=6, num_clients=1,
                             stripe_unit=UNIT, content_mode=True))


def populate(system, name="f"):
    client = system.client()
    span = system.layout.group_span

    def work():
        yield from client.create(name)
        yield from client.write(name, 0, Payload.pattern(2 * span, seed=1))
        yield from client.write(name, 2 * span + 17,
                                Payload.pattern(500, seed=2))

    system.run(work())


def corrupt(blockfile, offset=0, n=4):
    old = blockfile.read(offset, n)
    flipped = Payload.from_bytes(bytes(b ^ 0xFF for b in old.to_bytes()))
    blockfile.write(offset, flipped)


class TestDetection:
    def test_clean_state_passes(self):
        for scheme in ("raid1", "raid5", "hybrid"):
            system = make_system(scheme)
            populate(system)
            assert scrub.scrub(system, "f") == []

    def test_raid1_detects_mirror_rot(self):
        system = make_system("raid1")
        populate(system)
        corrupt(system.iods[1].fs.files[red_file("f")])
        issues = scrub.scrub(system, "f")
        assert issues
        assert "mirror mismatch" in issues[0]

    def test_raid1_detects_data_rot(self):
        system = make_system("raid1")
        populate(system)
        corrupt(system.iods[0].fs.files[data_file("f")])
        assert scrub.scrub(system, "f")

    def test_raid5_detects_parity_rot(self):
        system = make_system("raid5")
        populate(system)
        corrupt(system.iods[5].fs.files[red_file("f")])  # parity of group 0
        issues = scrub.scrub(system, "f")
        assert any("parity mismatch" in i and "group 0" in i
                   for i in issues)

    def test_raid5_detects_data_rot(self):
        system = make_system("raid5")
        populate(system)
        corrupt(system.iods[2].fs.files[data_file("f")])
        assert scrub.scrub(system, "f")

    def test_hybrid_detects_overflow_rot(self):
        system = make_system("hybrid")
        populate(system)
        # Corrupt the primary overflow copy of the small write — at the
        # slot offset actually holding valid bytes (slots are padded).
        span = system.layout.group_span
        piece = system.layout.pieces(2 * span + 17, 1)[0]
        iod = system.iods[piece.server]
        table = iod.overflow["f"]
        ext = next(iter(table.covered))
        _gaps, reads = table.resolve(ext.start, ext.end)
        corrupt(iod.fs.files[ovf_file("f")], offset=reads[0].ovf_offset)
        issues = scrub.scrub(system, "f")
        assert any("overflow mirror mismatch" in i for i in issues)

    def test_hybrid_detects_inplace_rot(self):
        system = make_system("hybrid")
        populate(system)
        corrupt(system.iods[0].fs.files[data_file("f")])
        assert any("parity mismatch" in i
                   for i in scrub.scrub(system, "f"))

    def test_scrub_requires_content_mode(self):
        system = System(CSARConfig(scheme="raid5", num_servers=6,
                                   content_mode=False))
        with pytest.raises(ConfigError):
            scrub.scrub(system, "f")

    def test_raid0_always_clean(self):
        system = make_system("raid0")
        populate(system)
        corrupt(system.iods[0].fs.files[data_file("f")])
        assert scrub.scrub(system, "f") == []  # nothing to cross-check

    def test_scrub_then_rebuild_heals(self):
        # Full repair story: detect rot, rebuild the rotten server from
        # redundancy, verify clean.
        from repro.redundancy.recovery import rebuild_server

        system = make_system("raid5")
        populate(system)
        corrupt(system.iods[2].fs.files[data_file("f")])
        assert scrub.scrub(system, "f")
        system.fail_server(2)
        system.run(rebuild_server(system, 2))
        assert scrub.scrub(system, "f") == []


class TestOneFlippedByte:
    """The copy-free checks still see a single flipped byte in each
    shape of stored range they walk."""

    def test_raid1_extent_of_many_segments(self):
        # 8-byte writes leave the first unit a rope of 512 stored views
        # on both sides, more than a payload keeps before flattening.
        system = make_system("raid1")
        client = system.client()

        def work():
            yield from client.create("f")
            for at in range(0, UNIT, 8):
                yield from client.write("f", at, Payload.pattern(8, at))

        system.run(work())
        local = system.iods[0].fs.files[data_file("f")]
        mirror = system.iods[1].fs.files[red_file("f")]
        assert len(local.segments(0, UNIT)) > _MAX_SEGMENTS
        assert scrub.scrub(system, "f") == []
        corrupt(mirror, offset=UNIT // 2 + 3, n=1)
        assert scrub.scrub(system, "f") == [
            f"mirror mismatch: f server 0 local [0, {UNIT}) != mirror "
            f"on server 1"]

    def test_parity_of_the_last_partial_group(self):
        system = make_system("raid5")
        populate(system)  # group 2 holds only [17, 517) of its first unit
        lay = system.layout
        server = lay.parity_server(2)
        corrupt(system.iods[server].fs.files[red_file("f")],
                offset=lay.parity_local_offset(2) + 100, n=1)
        assert scrub.scrub(system, "f") == [
            f"parity mismatch: f group 2 on server {server}"]

    def test_overflow_mirror_range(self):
        system = make_system("hybrid")
        populate(system)
        span = system.layout.group_span
        piece = system.layout.pieces(2 * span + 17, 1)[0]
        origin = system.iods[piece.server]
        ext = next(iter(origin.overflow["f"].covered))
        holder = system.iods[system.layout.successor(origin.index)]
        _gaps, mreads = holder.overflow_mirror[("f", origin.index)].resolve(
            ext.start, ext.end)
        corrupt(holder.fs.files[ovfm_file("f", origin.index)],
                offset=mreads[0].ovf_offset + 5, n=1)
        assert scrub.scrub(system, "f") == [
            f"overflow mirror mismatch: f server {origin.index} "
            f"[{ext.start}, {ext.end})"]


@pytest.mark.parametrize("scheme", ["raid1", "raid5", "hybrid"])
def test_scrub_builds_no_payload(scheme, monkeypatch):
    """A scrub pass walks the stored views: it builds no payload (so no
    rope, no capture and no flattening) and copies nothing to compare."""
    system = make_system(scheme)
    populate(system)
    corrupt(system.iods[2].fs.files[data_file("f")])

    def refuse(*_args, **_kwargs):
        raise AssertionError("scrub built or flattened a payload")

    monkeypatch.setattr(Payload, "__init__", refuse)
    monkeypatch.setattr(SegmentedPayload, "__init__", refuse)
    monkeypatch.setattr(Payload, "_writable_copy", refuse)
    assert scrub.scrub(system, "f")


class TestOnlineScrub:
    def test_clean_pass_costs_time(self):
        from repro.redundancy.scrub import online_scrub

        system = make_system("raid5")
        populate(system)
        t0 = system.env.now
        issues = system.run(online_scrub(system, "f"))
        assert issues == []
        assert system.env.now > t0
        assert system.metrics.get("scrub.online_passes") == 1

    def test_detects_parity_rot_online(self):
        from repro.redundancy.scrub import online_scrub

        system = make_system("raid5")
        populate(system)
        corrupt(system.iods[5].fs.files[red_file("f")])
        issues = system.run(online_scrub(system, "f"))
        assert any("group 0" in i for i in issues)

    def test_raid1_online_scrub(self):
        from repro.redundancy.scrub import online_scrub

        system = make_system("raid1")
        populate(system)
        assert system.run(online_scrub(system, "f")) == []
        corrupt(system.iods[1].fs.files[red_file("f")])
        assert system.run(online_scrub(system, "f"))

    def test_raid0_online_scrub_trivially_clean(self):
        from repro.redundancy.scrub import online_scrub

        system = make_system("raid0")
        populate(system)
        assert system.run(online_scrub(system, "f")) == []

    def test_online_agrees_with_offline(self):
        from repro.redundancy.scrub import online_scrub

        system = make_system("hybrid")
        populate(system)
        corrupt(system.iods[0].fs.files[data_file("f")])
        offline = scrub.scrub(system, "f")
        online = system.run(online_scrub(system, "f"))
        # Both find the same corrupted groups (message formats differ).
        off_groups = {i.split("group ")[1].split(" ")[0]
                      for i in offline if "parity" in i}
        on_groups = {i.split("group ")[1].split(" ")[0]
                     for i in online if "parity" in i}
        assert off_groups == on_groups != set()

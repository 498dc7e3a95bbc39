"""Per-file redundancy selection (AutoRAID-flavoured extension).

One namespace can hold raid0 scratch files next to hybrid checkpoints;
every downstream mechanism (storage accounting, scrub, recovery,
reclaimer) dispatches on the file's scheme.
"""

import pytest

from repro import CSARConfig, DataLoss, Payload, System
from repro.errors import ProtocolError
from repro.redundancy import scrub
from repro.redundancy.recovery import rebuild_server
from repro.units import KiB

UNIT = 4 * KiB


def make_system(default="hybrid"):
    return System(CSARConfig(scheme=default, num_servers=6, num_clients=1,
                             stripe_unit=UNIT, content_mode=True))


def write_file(system, name, data, scheme=None):
    client = system.client()

    def work():
        yield from client.create(name, scheme=scheme)
        yield from client.write(name, 0, data)

    system.run(work())


def read_file(system, name, length):
    client = system.client()

    def work():
        out = yield from client.read(name, 0, length)
        return out

    return system.run(work())


class TestPerFileSchemes:
    def test_mixed_namespace_storage(self):
        system = make_system()
        span = system.layout.group_span
        data = Payload.pattern(4 * span, seed=1)
        write_file(system, "scratch", data, scheme="raid0")
        write_file(system, "mirrored", data, scheme="raid1")
        write_file(system, "checkpoint", data)  # deployment default
        scratch = system.storage_report("scratch")
        mirrored = system.storage_report("mirrored")
        ckpt = system.storage_report("checkpoint")
        assert scratch["total"] == data.length
        assert mirrored["total"] == 2 * data.length
        assert ckpt["total"] == pytest.approx(1.2 * data.length, rel=0.01)

    def test_roundtrips_per_scheme(self):
        system = make_system()
        span = system.layout.group_span
        for scheme in ("raid0", "raid1", "raid5", None):
            name = f"f-{scheme}"
            data = Payload.pattern(2 * span + 333, seed=hash(name) & 0xFF)
            write_file(system, name, data, scheme=scheme)
            assert read_file(system, name, data.length) == data

    def test_failure_semantics_follow_the_file(self):
        system = make_system()
        span = system.layout.group_span
        protected = Payload.pattern(2 * span, seed=5)
        exposed = Payload.pattern(2 * span, seed=6)
        write_file(system, "safe", protected)           # hybrid
        write_file(system, "scratch", exposed, scheme="raid0")
        system.fail_server(1)
        assert read_file(system, "safe", protected.length) == protected
        with pytest.raises(DataLoss):
            read_file(system, "scratch", exposed.length)

    # Flips mirror bytes on purpose: the scrub's finding is a report.
    @pytest.mark.paritysan_expected
    def test_scrub_uses_file_scheme(self):
        system = make_system(default="raid5")
        span = system.layout.group_span
        write_file(system, "m", Payload.pattern(span, seed=7),
                   scheme="raid1")
        # A raid1 file in a raid5-default system must be mirror-checked.
        assert scrub.scrub(system, "m") == []
        from repro.pvfs.iod import red_file

        mirror = system.iods[1].fs.files[red_file("m")]
        old = mirror.read(0, 4)
        mirror.write(0, Payload.from_bytes(
            bytes(b ^ 0xFF for b in old.to_bytes())))
        assert any("mirror" in i for i in scrub.scrub(system, "m"))

    def test_rebuild_heals_mixed_namespace(self):
        system = make_system()
        span = system.layout.group_span
        a = Payload.pattern(2 * span + 50, seed=8)
        b = Payload.pattern(span + 99, seed=9)
        write_file(system, "hy", a)
        write_file(system, "mir", b, scheme="raid1")
        system.fail_server(2)
        system.run(rebuild_server(system, 2))
        assert read_file(system, "hy", a.length) == a
        assert read_file(system, "mir", b.length) == b
        assert scrub.scrub(system, "hy") == []
        assert scrub.scrub(system, "mir") == []

    def test_unknown_scheme_rejected_at_create(self):
        system = make_system()
        client = system.client()

        def work():
            with pytest.raises(ProtocolError):
                yield from client.create("x", scheme="raid6")

        system.run(work())

    def test_reclaimer_respects_file_scheme(self):
        from repro.errors import ConfigError
        from repro.redundancy.reclaim import reclaim_file

        system = make_system()
        write_file(system, "r0", Payload.zeros(UNIT), scheme="raid0")
        with pytest.raises(ConfigError):
            system.run(reclaim_file(system, "r0"))


class TestMixedNamespaceRecovery:
    def test_rebuild_skips_raid0_files_and_heals_the_rest(self):
        system = make_system()
        span = system.layout.group_span
        protected = Payload.pattern(2 * span, seed=30)
        exposed = Payload.pattern(2 * span, seed=31)
        write_file(system, "safe", protected)
        write_file(system, "scratch", exposed, scheme="raid0")
        system.fail_server(2)
        system.run(rebuild_server(system, 2))
        # Redundant file fully healed...
        assert read_file(system, "safe", protected.length) == protected
        assert scrub.scrub(system, "safe") == []
        # ...while the raid0 file's share is acknowledged lost: the
        # rebuilt server comes back with an empty data file, so the lost
        # stripe blocks read as zeros (PVFS semantics — this is exactly
        # the vulnerability the paper's redundancy removes).
        assert system.metrics.get("failures.raid0_files_lost") == 1
        out = read_file(system, "scratch", exposed.length)
        assert out != exposed
        lost_piece = system.layout.pieces(0, exposed.length)
        zeroed = [p for p in lost_piece if p.server == 2]
        assert zeroed, "server 2 held no share?"
        p = zeroed[0]
        assert out.slice(p.logical_offset, p.logical_offset + p.length) \
            == Payload.zeros(p.length)

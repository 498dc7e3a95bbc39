"""ParitySan (repro.analysis.paritysan): the runtime redundancy-invariant
sanitizer — clean schemes stay silent, seeded/injected corruption is
reported, and recovery/scrub hold up under random tie orders."""

import pytest

from repro import CSARConfig, Payload, System
from repro.analysis import sanitizer_scope, seeded_bugs
from repro.analysis.paritysan import ParitySanReport
from repro.faults.campaign import RandomTieBreaker
from repro.pvfs.iod import red_file
from repro.redundancy import scrub
from repro.redundancy.recovery import rebuild_server
from repro.sim import engine
from repro.units import KiB

UNIT = 4 * KiB


@pytest.fixture
def drain():
    """ParitySan on for the test; ``drain()`` returns its new reports."""
    with sanitizer_scope(["parity"]) as drain_pairs:
        yield lambda: [report for _tool, report in drain_pairs()]


def make_system(scheme, **kw):
    kw.setdefault("content_mode", True)
    return System(CSARConfig(scheme=scheme, num_servers=6, num_clients=1,
                             stripe_unit=UNIT, **kw))


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


class TestReports:
    def test_report_format(self):
        report = ParitySanReport(kind="parity", message="boom", file="f",
                                 sync_point="quiescent")
        assert report.format() == "ParitySan[parity] at quiescent: boom"

    def test_install_round_trip(self):
        prev = engine.attached("paritysan")
        with sanitizer_scope(["parity"]):
            assert engine.attached("paritysan") is not None
        assert engine.attached("paritysan") is prev


class TestCleanSchemes:
    @pytest.mark.parametrize("scheme", ["raid1", "raid5", "hybrid"])
    def test_populated_system_is_silent(self, drain, scheme):
        system = make_system(scheme)
        populate(system)
        assert system.env.paritysan is not None
        assert drain() == []

    def test_scrub_hook_silent_on_clean_state(self, drain):
        system = make_system("hybrid")
        populate(system)
        assert scrub.scrub(system, "f") == []
        assert drain() == []


class TestDetection:
    def test_quiescent_check_flags_parity_rot(self, drain):
        system = make_system("raid5")
        populate(system)
        drain()
        corrupt(system.iods[5].fs.files[red_file("f")])  # group 0 parity
        system.env.paritysan.on_quiescent()
        reports = drain()
        assert any(r.kind == "parity" and "group 0" in r.message
                   for r in reports)

    def test_scrub_findings_become_reports(self, drain):
        system = make_system("raid1")
        populate(system)
        drain()
        corrupt(system.iods[1].fs.files[red_file("f")])
        assert scrub.scrub(system, "f")  # the scrub itself sees it …
        reports = drain()
        assert any(r.kind == "scrub" for r in reports)  # … and reports it

    def test_overflow_structure_check(self, drain):
        system = make_system("hybrid")
        populate(system)
        drain()
        # Force two overflow slot versions onto the same storage offset.
        for iod in system.iods:
            for table in iod.overflow.values():
                versions = next(iter(table._slots.values()))
                versions.append(type(versions[0])(offset=versions[0].offset))
                break
            else:
                continue
            break
        else:
            pytest.skip("populate produced no overflow entries")
        system.env.paritysan.on_quiescent()
        reports = drain()
        assert any(r.kind == "overflow-structure"
                   and "alias" in r.message for r in reports)

    def test_seeded_inplace_overflow_bug_is_caught(self, drain):
        config = CSARConfig(scheme="hybrid", num_servers=4, num_clients=1,
                            stripe_unit=1024, content_mode=True)
        system = seeded_bugs.inject(
            System(config), seeded_bugs.InPlaceOverflowHybrid(config))
        client = system.client()
        span = system.layout.group_span

        def body():
            yield from client.create("f")
            yield from client.write("f", 0, Payload.pattern(span, seed=1))
            yield from client.write("f", 100, Payload.pattern(300, seed=2))

        system.run(body())
        reports = drain()
        assert any(r.kind == "parity" and "parity mismatch" in r.message
                   for r in reports)


class TestDegradedWindows:
    def test_failed_server_suppresses_content_checks(self, drain):
        # A degraded array is legitimately inconsistent: no false alarms.
        system = make_system("raid5")
        populate(system)
        drain()
        system.fail_server(2)
        system.env.paritysan.on_quiescent()
        assert drain() == []

    @pytest.mark.parametrize("scheme", ["raid1", "raid5"])
    def test_write_in_flight_suppresses_checks(self, drain, scheme):
        # A large overwrite nobody awaits is still in flight when the
        # awaited small write finishes: its half-written mirror or parity
        # is no violation, under any scheme.
        system = System(CSARConfig(scheme=scheme, num_servers=4,
                                   num_clients=1, stripe_unit=UNIT,
                                   content_mode=True))
        client = system.client()
        system.run(client.create("f"))
        system.run(client.write("f", 0, Payload.pattern(128 * KiB, seed=1)))
        drain()
        system.env.process(client.write(
            "f", 0, Payload.pattern(128 * KiB, seed=2)))
        system.run(client.write("f", 64 * KiB, Payload.pattern(64, seed=3)))
        assert drain() == []


class TestExploredSchedules:
    """Satellite: recovery and scrub stay invariant-clean when message
    ties are broken adversarially (seeded random schedules)."""

    @pytest.mark.parametrize("scheme", ["raid5", "hybrid"])
    def test_rebuild_clean_under_random_ties(self, drain, scheme):
        for seed in range(3):
            engine.attach("_tie_breaker",
                          lambda env, seed=seed: RandomTieBreaker(seed))
            try:
                system = make_system(scheme)
                populate(system)
                system.fail_server(2)
                system.replace_server(2)
                system.run(rebuild_server(system, 2))
                # on_recovery already checked; scrub double-checks.
                assert scrub.scrub(system, "f") == []
            finally:
                engine.detach("_tie_breaker")
            assert drain() == [], \
                f"{scheme} rebuild dirty under tie seed {seed}"

    def test_scrub_clean_under_random_ties(self, drain):
        for seed in range(3):
            engine.attach("_tie_breaker",
                          lambda env, seed=seed: RandomTieBreaker(seed))
            try:
                system = make_system("hybrid")
                populate(system)
                assert scrub.scrub(system, "f") == []
            finally:
                engine.detach("_tie_breaker")
            assert drain() == [], \
                f"scrub dirty under tie seed {seed}"

    def test_buggy_scheme_still_caught_under_random_ties(self, drain):
        engine.attach("_tie_breaker", lambda env: RandomTieBreaker(1))
        try:
            config = CSARConfig(scheme="hybrid", num_servers=4,
                                num_clients=1, stripe_unit=1024,
                                content_mode=True)
            system = seeded_bugs.inject(
                System(config), seeded_bugs.InPlaceOverflowHybrid(config))
            client = system.client()
            span = system.layout.group_span

            def body():
                yield from client.create("f")
                yield from client.write("f", 0,
                                        Payload.pattern(span, seed=1))
                yield from client.write("f", 100,
                                        Payload.pattern(300, seed=2))

            system.run(body())
        finally:
            engine.detach("_tie_breaker")
        reports = drain()
        assert any(r.kind == "parity" for r in reports)

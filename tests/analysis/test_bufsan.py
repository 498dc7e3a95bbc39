"""BufSan, the buffer-immutability sanitizer (repro.analysis.bufsan),
and the sanitizer registry every mode routes through: clean schemes stay
report-free, the two buffer-discipline seeded bugs drift and are
attributed, and install/drain round-trips behave.
"""

import pytest

from repro import CSARConfig, Payload, System
from repro.analysis import (bufsan, sanitize_modes, sanitizer_module,
                            sanitizer_scope, seeded_bugs)


@pytest.fixture
def sanitizer():
    preinstalled = bufsan.installed()
    if not preinstalled:
        bufsan.install()
    bufsan.drain_reports()
    yield bufsan
    reports = bufsan.drain_reports()
    if not preinstalled:
        bufsan.uninstall()
    del reports


def _run_partial_overwrite(scheme_cls, scheme_name, **config_kwargs):
    config = CSARConfig(scheme=scheme_name, num_servers=4, num_clients=1,
                        stripe_unit=1024, content_mode=True,
                        background_flusher=False, **config_kwargs)
    system = System(config)
    if scheme_cls is not None:
        system = seeded_bugs.inject(system, scheme_cls(config))
    client = system.client()
    span = system.layout.group_span

    def body():
        yield from client.create("f")
        yield from client.write("f", 0, Payload.pattern(span, seed=1))
        yield from client.write("f", 100, Payload.pattern(300, seed=2))

    system.run(body())


def _run_overflow_writes(scheme_cls, scheme_name):
    config = CSARConfig(scheme=scheme_name, num_servers=4, num_clients=1,
                        content_mode=True, background_flusher=False)
    system = System(config)
    if scheme_cls is not None:
        system = seeded_bugs.inject(system, scheme_cls(config))
    client = system.client()

    def body():
        yield from client.create("f")
        yield from client.write("f", 100, Payload.pattern(300, seed=1))
        yield from client.write("f", 100, Payload.pattern(300, seed=2))

    system.run(body())


class TestCleanSchemes:
    @pytest.mark.parametrize("scheme", ["raid0", "raid1", "raid5", "hybrid"])
    def test_correct_schemes_produce_no_reports(self, sanitizer, scheme):
        _run_partial_overwrite(None, scheme)
        assert sanitizer.drain_reports() == []


@pytest.mark.bufsan_expected
class TestSeededBugTraps:
    def test_thawed_view_drifts_the_parity_fingerprint(self, sanitizer):
        _run_partial_overwrite(seeded_bugs.ThawedViewRaid5, "raid5")
        reports = sanitizer.drain_reports()
        assert reports
        assert {r.kind for r in reports} == {"fingerprint-drift"}
        # Attribution: who captured the buffer, and where the drift
        # surfaced — both with simulated-time coordinates.
        formatted = "\n".join(r.format() for r in reports)
        assert "captured" in formatted
        assert "changed" in formatted

    def test_scratch_leak_drifts_the_mirror_fingerprint(self, sanitizer):
        _run_overflow_writes(seeded_bugs.ScratchLeakHybrid, "hybrid")
        reports = sanitizer.drain_reports()
        assert reports
        assert {r.kind for r in reports} == {"fingerprint-drift"}

    def test_rot_in_a_stored_block_drifts_at_the_next_sync_point(
            self, sanitizer):
        # Bytes at rest are covered: the block store keeps the arrays
        # the written payloads captured, so they stay fingerprinted.
        system = System(CSARConfig(
            scheme="raid1", num_servers=4, num_clients=1, stripe_unit=1024,
            content_mode=True, background_flusher=False))
        client = system.client()

        def body():
            yield from client.create("f")
            yield from client.write("f", 0, Payload.pattern(4096, seed=1))

        system.run(body())
        stored = system.iods[0].fs.files["f.data"].read(0, 1024).data
        assert sanitizer.drain_reports() == []
        if stored.base is not None:  # a view thaws only after its owner
            stored.base.flags.writeable = True
        stored.flags.writeable = True
        stored[0] ^= 0xFF

        def idle():
            yield system.env.timeout(0)

        system.run(idle())
        reports = sanitizer.drain_reports()
        assert reports
        assert {r.kind for r in reports} == {"fingerprint-drift"}

    def test_reports_drain_once(self, sanitizer):
        _run_partial_overwrite(seeded_bugs.ThawedViewRaid5, "raid5")
        assert sanitizer.drain_reports()
        assert sanitizer.drain_reports() == []


class TestSanitizerRegistry:
    def test_mode_decoding(self):
        assert sanitize_modes(None) == ()
        assert sanitize_modes(False) == ()
        assert sanitize_modes("lock") == ("lock",)
        assert sanitize_modes("parity") == ("parity",)
        assert sanitize_modes("buf") == ("buf",)
        assert sanitize_modes("all") == ("buf", "lock", "parity")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            sanitize_modes("valgrind")

    def test_every_mode_resolves_to_a_module(self):
        for mode in sanitize_modes("all"):
            module = sanitizer_module(mode)
            assert callable(module.install)
            assert callable(module.uninstall)
            assert callable(module.drain_reports)

    def test_install_drain_uninstall_round_trip(self):
        modules = [sanitizer_module(m) for m in sanitize_modes("all")]
        already = [m for m in modules if m.installed()]
        with sanitizer_scope(sanitize_modes("all")) as drain:
            assert all(m.installed() for m in modules)
            assert drain() == []
        # The scope takes down what it put up, and nothing else (a
        # CSAR_*SAN=1 harness keeps its sanitizer).
        assert [m for m in modules if m.installed()] == already

    @pytest.mark.bufsan_expected
    @pytest.mark.locksan_expected
    def test_scope_labels_reports_in_attribution_order(self):
        from repro.redundancy.locks import ParityLockTable
        from repro.sim import Environment

        def leak_a_lock():
            env = Environment()
            table = ParityLockTable(env)
            env.process(table.acquire("f", 0, xid=1), name="leaker")
            env.run()

        # The buffer drift happens first and the lock leak second; the
        # scope still hands LockSan's report back ahead of BufSan's,
        # each under the tool label a failure_kind carries.
        with sanitizer_scope(sanitize_modes("all")) as drain:
            _run_partial_overwrite(seeded_bugs.ThawedViewRaid5, "raid5")
            leak_a_lock()
            reports = drain()
            assert drain() == []
        kinds = [(tool, report.kind) for tool, report in reports]
        assert kinds[0] == ("locksan", "leak")
        # (Under a CSAR_BUFSAN=1 harness the scope closes nothing, and
        # earlier tests' sanitizers see the same drift.)
        assert set(kinds[1:]) == {("bufsan", "fingerprint-drift")}


class TestFinishedSanitizersStopFingerprinting:
    def test_plan_cost_does_not_grow_with_the_plans_before_it(
            self, monkeypatch):
        # A chaos system has a background flusher, so its heap never
        # drains and on_run_complete never closes its BufSan; with the
        # cycle collector off, every earlier plan's sanitizer is still
        # alive when the next plan's captures fan out.
        import gc

        from repro.faults.runner import run_campaign

        if bufsan.installed():
            pytest.skip("a CSAR_BUFSAN=1 harness owns the sanitizer, so "
                        "run_plan's scope has nothing of its own to close")
        deliveries = [0]
        on_capture = bufsan.BufSan.on_capture

        def counting(self, payload, arr, kind):
            deliveries[0] += 1
            on_capture(self, payload, arr, kind)

        monkeypatch.setattr(bufsan.BufSan, "on_capture", counting)

        def totals():
            return (deliveries[0],
                    sum(s.bytes_fingerprinted
                        for s in bufsan._REGISTRY.live()))

        per_plan = []
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                before = totals()
                result, = run_campaign([3], ("raid5",), num_servers=6,
                                       num_ops=40)
                assert result.ok
                after = totals()
                per_plan.append((after[0] - before[0],
                                 after[1] - before[1]))
                assert all(s._closed for s in bufsan._REGISTRY.live())
        finally:
            gc.enable()
            gc.collect()
        assert per_plan[0][0] > 0 and per_plan[0][1] > 0
        assert per_plan == [per_plan[0]] * 10


class TestSnapshotsAreExact:
    """A captured buffer is compared with a copy of its bytes, whatever
    its layout: an unchanged re-capture is quiet, and one byte written
    through the writable base is convicted."""

    @pytest.mark.parametrize("view", [
        pytest.param(lambda a: a[:], id="contiguous"),
        pytest.param(lambda a: a[3:700], id="slice"),
        pytest.param(lambda a: a[::3], id="strided"),
        pytest.param(lambda a: a[::-1], id="reversed"),
        pytest.param(lambda a: a.view("<u4"), id="u4"),
        pytest.param(lambda a: a.reshape(32, 32).T, id="fortran"),
        pytest.param(lambda a: a.reshape(32, 32)[:, 5], id="column"),
    ])
    def test_one_byte_write_drifts(self, sanitizer, view):
        import numpy as np

        from repro.sim import Environment

        env = Environment()
        base = np.random.default_rng(7).integers(0, 256, 1024,
                                                 dtype=np.uint8)
        arr = view(base)
        arr.flags.writeable = False
        env.bufsan.on_capture(None, arr, "test")
        env.bufsan.on_capture(None, arr, "test")
        assert sanitizer.drain_reports() == []
        base[69] ^= 0xFF  # a byte every one of the seven views covers
        env.bufsan.on_capture(None, arr, "test")
        assert [r.kind for r in sanitizer.drain_reports()] == [
            "fingerprint-drift"]


class TestTrackingEndsWithTheBuffer:
    def test_a_dead_buffer_leaves_no_entry(self, sanitizer):
        from repro.sim import Environment

        env = Environment()
        payload = Payload.pattern(2048, seed=1)
        assert len(env.bufsan._tracked) == 1
        del payload  # before any sync point
        assert env.bufsan._tracked == {}

    def test_a_capture_reaches_only_open_sanitizers(self, sanitizer):
        from repro.sim import Environment

        closed, first, second = Environment(), Environment(), Environment()
        closed.bufsan.close()
        payload = Payload.pattern(2048, seed=1)
        assert closed.bufsan.bytes_fingerprinted == 0
        assert first.bufsan.bytes_fingerprinted == payload.length
        # The open sanitizers keep one snapshot between them, not one each.
        key = id(payload.data)
        assert (first.bufsan._tracked[key].snapshot
                is second.bufsan._tracked[key].snapshot)

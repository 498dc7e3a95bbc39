"""BufSan, the buffer-immutability sanitizer (repro.analysis.bufsan),
and the sanitizer scope every mode routes through: clean schemes stay
report-free, the two buffer-discipline seeded bugs drift and are
attributed, and scopes attach, drain and detach what they should.
"""

import pytest

from repro import CSARConfig, Payload, System
from repro.analysis import (SANITIZERS, bufsan, sanitize_modes,
                            sanitizer_scope, seeded_bugs)
from repro.sim import engine


@pytest.fixture
def drain():
    """BufSan on for the test; ``drain()`` returns its new reports."""
    with sanitizer_scope(["buf"]) as drain_pairs:
        yield lambda: [report for _tool, report in drain_pairs()]


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
    def test_correct_schemes_produce_no_reports(self, drain, scheme):
        _run_partial_overwrite(None, scheme)
        assert drain() == []


@pytest.mark.bufsan_expected
class TestSeededBugTraps:
    def test_thawed_view_drifts_the_parity_fingerprint(self, drain):
        _run_partial_overwrite(seeded_bugs.ThawedViewRaid5, "raid5")
        reports = drain()
        assert reports
        assert {r.kind for r in reports} == {"fingerprint-drift"}
        # Attribution: who captured the buffer, and where the drift
        # surfaced — both with simulated-time coordinates.
        formatted = "\n".join(r.format() for r in reports)
        assert "captured" in formatted
        assert "changed" in formatted

    def test_scratch_leak_drifts_the_mirror_fingerprint(self, drain):
        _run_overflow_writes(seeded_bugs.ScratchLeakHybrid, "hybrid")
        reports = drain()
        assert reports
        assert {r.kind for r in reports} == {"fingerprint-drift"}

    def test_rot_in_a_stored_block_drifts_at_the_next_sync_point(
            self, drain):
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
        assert drain() == []
        if stored.base is not None:  # a view thaws only after its owner
            stored.base.flags.writeable = True
        stored.flags.writeable = True
        stored[0] ^= 0xFF

        def idle():
            yield system.env.timeout(0)

        system.run(idle())
        reports = drain()
        assert reports
        assert {r.kind for r in reports} == {"fingerprint-drift"}

    def test_reports_drain_once(self, drain):
        _run_partial_overwrite(seeded_bugs.ThawedViewRaid5, "raid5")
        assert drain()
        assert drain() == []


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

    def test_every_mode_attaches_its_sanitizer(self):
        from repro.sim import Environment

        with sanitizer_scope(sanitize_modes("all")):
            env = Environment()
        for cls in SANITIZERS.values():
            assert isinstance(getattr(env, cls.__name__.lower()), cls)

    def test_install_drain_uninstall_round_trip(self):
        tools = ("locksan", "bufsan", "paritysan")
        already = [tool for tool in tools if engine.attached(tool)]
        with sanitizer_scope(sanitize_modes("all")) as drain:
            assert all(engine.attached(tool) for tool in tools)
            assert drain() == []
        # The scope takes down what it put up, and nothing else (a
        # CSAR_*SAN=1 harness keeps its sanitizer).
        assert [tool for tool in tools if engine.attached(tool)] == already

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

        if engine.attached("bufsan"):
            pytest.skip("a CSAR_BUFSAN=1 harness owns the sanitizer, so "
                        "run_plan's scope has nothing of its own to close")
        deliveries = [0]
        on_capture = bufsan.BufSan.on_capture
        init = bufsan.BufSan.__init__
        built = []

        def counting(self, payload, arr, kind):
            deliveries[0] += 1
            on_capture(self, payload, arr, kind)

        def recording(self, env):
            init(self, env)
            built.append(self)

        monkeypatch.setattr(bufsan.BufSan, "on_capture", counting)
        monkeypatch.setattr(bufsan.BufSan, "__init__", recording)

        def totals():
            return (deliveries[0],
                    sum(s.bytes_fingerprinted for s in built))

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
                assert all(s._closed for s in built)
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
    def test_one_byte_write_drifts(self, drain, view):
        import numpy as np

        from repro.sim import Environment

        env = Environment()
        base = np.random.default_rng(7).integers(0, 256, 1024,
                                                 dtype=np.uint8)
        arr = view(base)
        arr.flags.writeable = False
        env.bufsan.on_capture(None, arr, "test")
        env.bufsan.on_capture(None, arr, "test")
        assert drain() == []
        base[69] ^= 0xFF  # a byte every one of the seven views covers
        env.bufsan.on_capture(None, arr, "test")
        assert [r.kind for r in drain()] == [
            "fingerprint-drift"]


class TestTrackingEndsWithTheBuffer:
    def test_a_dead_buffer_leaves_no_entry(self, drain):
        from repro.sim import Environment

        env = Environment()
        payload = Payload.pattern(2048, seed=1)
        assert len(env.bufsan._tracked) == 1
        del payload  # before any sync point
        assert env.bufsan._tracked == {}

    def test_a_capture_reaches_only_open_sanitizers(self, drain):
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

    def test_a_death_during_the_fan_out_snapshot_is_survived(
            self, drain, monkeypatch):
        # A collection inside the snapshot of the open sanitizers can run
        # a dying one's callback, which shrinks the registry mid-iteration.
        from repro.sim import Environment

        dying, survivor = Environment(), Environment()
        victim = id(dying.bufsan)

        class DiesMidSnapshot(dict):
            died = False

            def values(self):
                for ref in super().values():
                    if not self.died:
                        self.died = True
                        self.pop(victim)
                    yield ref

        monkeypatch.setattr(bufsan, "_OPEN",
                            DiesMidSnapshot(bufsan._OPEN))
        payload = Payload.pattern(2048, seed=1)
        assert survivor.bufsan.bytes_fingerprinted == payload.length
        assert dying.bufsan.bytes_fingerprinted == 0

"""Tests for the metadata manager and client-library plumbing."""

import pytest

from repro import CSARConfig, Payload, System
from repro.errors import ProtocolError, ReproError, ServerFailed
from repro.pvfs import messages as msg
from repro.units import KiB


def make_system(**kw):
    kw.setdefault("scheme", "raid1")
    kw.setdefault("stripe_unit", 16 * KiB)
    kw.setdefault("content_mode", True)
    return System(CSARConfig(**kw))


class TestManager:
    def test_create_returns_meta_with_layout(self):
        system = make_system()
        client = system.client()

        def work():
            meta = yield from client.create("f")
            return meta

        meta = system.run(work())
        assert meta.name == "f"
        assert meta.layout is system.layout
        assert meta.scheme == "raid1"
        assert meta.size == 0

    def test_manager_rejects_unknown_request(self):
        system = make_system()
        client = system.client()

        class Bogus:
            def wire_size(self):
                return 64

            def reply_size(self):
                return 64

        def work():
            with pytest.raises(ProtocolError):
                yield from client.rpc(system.manager, Bogus())

        system.run(work())

    def test_manager_not_on_data_path(self):
        system = make_system()
        client = system.client()

        def work():
            yield from client.create("f")
            yield from client.write("f", 0, Payload.zeros(64 * KiB))

        system.run(work())
        # Only the open/create round trips touched the manager.
        assert system.metrics.node_tx_bytes.get("mgr", 0) <= 2 * 128


class TestClientPlumbing:
    def test_xids_unique_per_client(self):
        system = make_system(num_clients=2)
        a, b = system.client(0), system.client(1)
        xids = {a.next_xid() for _ in range(100)}
        xids |= {b.next_xid() for _ in range(100)}
        assert len(xids) == 200

    def test_try_parallel_collects_mixed_outcomes(self):
        system = make_system()
        client = system.client()

        def ok():
            yield system.env.timeout(1)
            return "fine"

        def bad():
            yield system.env.timeout(1)
            raise ReproError("nope")

        system.fail_server(0)

        def work():
            outcomes = yield from client.try_parallel([
                ok(), bad(),
                client.rpc(system.iods[1], msg.ReadReq("f", length=1)),
                client.rpc(system.iods[0], msg.FsyncReq("f")), ok()])
            return outcomes

        outcomes = system.run(work())
        assert outcomes[0] == ("fine", None)
        assert outcomes[4] == ("fine", None)
        assert isinstance(outcomes[1][1], ReproError)
        assert outcomes[2][0].payload.to_bytes() == b"\x00"
        assert outcomes[2][1] is None
        assert outcomes[3][0] is None
        assert isinstance(outcomes[3][1], ServerFailed)

    def test_parallel_fails_fast(self):
        system = make_system()
        client = system.client()

        def bad():
            yield system.env.timeout(1)
            raise ValueError("boom")

        def work():
            with pytest.raises(ValueError):
                yield from client.parallel([bad()])

        system.run(work())

    def test_metrics_count_client_io(self):
        system = make_system()
        client = system.client()

        def work():
            yield from client.create("f")
            yield from client.write("f", 0, Payload.zeros(10_000))
            yield from client.read("f", 0, 5_000)

        system.run(work())
        assert system.metrics.get("client.bytes_written") == 10_000
        assert system.metrics.get("client.bytes_read") == 5_000

    def test_kernel_module_adds_latency(self):
        fast = make_system()
        slow = make_system()
        slow.client(0).via_kernel_module = True

        def work(system):
            client = system.client()
            yield from client.create("f")
            for i in range(10):
                yield from client.write("f", i * 1024, Payload.zeros(1024))

        t_fast, _ = fast.timed(work(fast))
        t_slow, _ = slow.timed(work(slow))
        assert t_slow > t_fast

    def test_rpc_to_failed_server_raises(self):
        from repro.errors import ServerFailed

        system = make_system()
        system.fail_server(0)
        client = system.client()

        def work():
            with pytest.raises(ServerFailed):
                yield from client.rpc(system.iods[0],
                                      msg.ReadReq("f", offset=0, length=1))

        system.run(work())

    def test_fsync_reaches_every_server(self):
        system = make_system()
        client = system.client()

        def work():
            yield from client.create("f")
            yield from client.write("f", 0, Payload.zeros(96 * KiB))
            yield from client.fsync("f")

        system.run(work())
        for iod in system.iods:
            assert iod.node.cache.dirty_bytes == 0

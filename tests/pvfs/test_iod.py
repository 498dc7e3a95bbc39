"""Protocol-level tests of the I/O daemon."""

import pytest

from repro import CSARConfig, Payload, System
from repro.errors import ProtocolError, ServerFailed
from repro.pvfs import messages as msg
from repro.units import KiB

UNIT = 16 * KiB


def make_system(**kw):
    kw.setdefault("scheme", "hybrid")
    kw.setdefault("stripe_unit", UNIT)
    kw.setdefault("content_mode", True)
    return System(CSARConfig(**kw))


def rpc(system, iod, request):
    client = system.client()

    def work():
        response = yield from client.rpc(iod, request)
        return response

    return system.run(work())


class TestReadWrite:
    def test_write_then_read(self):
        system = make_system()
        iod = system.iods[0]
        rpc(system, iod, msg.WriteReq("f", kind="data", offset=64,
                                      payload=Payload.from_bytes(b"abc")))
        response = rpc(system, iod, msg.ReadReq("f", kind="data",
                                                offset=64, length=3))
        assert response.payload.to_bytes() == b"abc"

    def test_read_unwritten_returns_zeros(self):
        system = make_system()
        response = rpc(system, system.iods[2],
                       msg.ReadReq("f", kind="data", offset=0, length=4))
        assert response.payload.to_bytes() == b"\x00" * 4

    def test_kinds_address_separate_files(self):
        system = make_system()
        iod = system.iods[0]
        rpc(system, iod, msg.WriteReq("f", kind="data", offset=0,
                                      payload=Payload.from_bytes(b"DD")))
        rpc(system, iod, msg.WriteReq("f", kind="red", offset=0,
                                      payload=Payload.from_bytes(b"RR")))
        data = rpc(system, iod, msg.ReadReq("f", kind="data", offset=0,
                                            length=2))
        red = rpc(system, iod, msg.ReadReq("f", kind="red", offset=0,
                                           length=2))
        assert data.payload.to_bytes() == b"DD"
        assert red.payload.to_bytes() == b"RR"

    def test_unknown_kind_rejected(self):
        system = make_system()
        with pytest.raises(ProtocolError):
            rpc(system, system.iods[0],
                msg.ReadReq("f", kind="junk", offset=0, length=1))

    def test_unknown_request_type_rejected(self):
        system = make_system()

        class Bogus(msg.Request):
            pass

        with pytest.raises(ProtocolError):
            rpc(system, system.iods[0], Bogus("f"))


class TestOverflowProtocol:
    def test_overflow_write_resolves_on_data_read(self):
        system = make_system()
        iod = system.iods[0]
        rpc(system, iod, msg.WriteReq("f", kind="data", offset=0,
                                      payload=Payload.from_bytes(b"old!")))
        rpc(system, iod, msg.OverflowWriteReq(
            "f", ranges=[(1, 3)], payload=Payload.from_bytes(b"NE")))
        response = rpc(system, iod, msg.ReadReq("f", kind="data",
                                                offset=0, length=4))
        assert response.payload.to_bytes() == b"oNE!"
        assert response.overflow_bytes == 2

    def test_inplace_read_bypasses_overflow(self):
        system = make_system()
        iod = system.iods[0]
        rpc(system, iod, msg.WriteReq("f", kind="data", offset=0,
                                      payload=Payload.from_bytes(b"old!")))
        rpc(system, iod, msg.OverflowWriteReq(
            "f", ranges=[(0, 4)], payload=Payload.from_bytes(b"NEW!")))
        response = rpc(system, iod, msg.ReadReq("f", kind="inplace",
                                                offset=0, length=4))
        assert response.payload.to_bytes() == b"old!"

    def test_mismatched_overflow_payload_rejected(self):
        system = make_system()
        with pytest.raises(ProtocolError):
            rpc(system, system.iods[0], msg.OverflowWriteReq(
                "f", ranges=[(0, 10)], payload=Payload.from_bytes(b"xy")))

    def test_invalidate_flag_supersedes_overflow(self):
        system = make_system()
        iod = system.iods[0]
        rpc(system, iod, msg.OverflowWriteReq(
            "f", ranges=[(0, 4)], payload=Payload.from_bytes(b"OVFL")))
        rpc(system, iod, msg.WriteReq("f", kind="data", offset=0,
                                      payload=Payload.from_bytes(b"base"),
                                      invalidate=True))
        response = rpc(system, iod, msg.ReadReq("f", kind="data",
                                                offset=0, length=4))
        assert response.payload.to_bytes() == b"base"

    def test_mirror_table_separate_per_origin(self):
        system = make_system()
        iod = system.iods[1]
        rpc(system, iod, msg.OverflowWriteReq(
            "f", ranges=[(0, 2)], payload=Payload.from_bytes(b"AA"),
            mirror=True, origin=0))
        rpc(system, iod, msg.OverflowWriteReq(
            "f", ranges=[(0, 2)], payload=Payload.from_bytes(b"BB"),
            mirror=True, origin=5))
        a = rpc(system, iod, msg.MirrorResolveReq("f", origin=0, offset=0,
                                                  length=2))
        b = rpc(system, iod, msg.MirrorResolveReq("f", origin=5, offset=0,
                                                  length=2))
        assert a.payload.to_bytes() == b"AA"
        assert b.payload.to_bytes() == b"BB"
        assert a.ranges == ((0, 2),)

    def test_mirror_resolve_without_table_returns_nothing(self):
        system = make_system()
        response = rpc(system, system.iods[3],
                       msg.MirrorResolveReq("f", origin=2, offset=0,
                                            length=8))
        assert response.ranges == ()


class TestParityProtocol:
    def test_parity_read_locks_until_parity_write(self):
        system = make_system(scheme="raid5")
        iod = system.iods[0]
        rpc(system, iod, msg.ParityReadReq("f", group=5, local_offset=0,
                                           intra=(0, 8), xid=1))
        assert iod.locks.is_locked("f", 5)
        rpc(system, iod, msg.ParityWriteReq(
            "f", group=5, local_offset=0, intra=(0, 8),
            payload=Payload.zeros(8), unlock=True, xid=1))
        assert not iod.locks.is_locked("f", 5)

    def test_full_stripe_parity_write_does_not_need_lock(self):
        system = make_system(scheme="raid5")
        iod = system.iods[0]
        # unlock=False: a full-stripe parity write with no prior read.
        rpc(system, iod, msg.ParityWriteReq(
            "f", group=0, local_offset=0, intra=(0, 4),
            payload=Payload.zeros(4), unlock=False, xid=9))
        assert not iod.locks.is_locked("f", 0)

    def test_parity_payload_length_checked(self):
        system = make_system(scheme="raid5")
        with pytest.raises(ProtocolError):
            rpc(system, system.iods[0], msg.ParityWriteReq(
                "f", group=0, local_offset=0, intra=(0, 8),
                payload=Payload.zeros(4), xid=2))


class TestFailureBehaviour:
    def test_failed_server_rejects_everything(self):
        system = make_system()
        system.fail_server(0)
        with pytest.raises(ServerFailed):
            rpc(system, system.iods[0],
                msg.ReadReq("f", kind="data", offset=0, length=1))

    def test_repair_restores_service_with_wiped_state(self):
        system = make_system()
        iod = system.iods[0]
        rpc(system, iod, msg.WriteReq("f", kind="data", offset=0,
                                      payload=Payload.from_bytes(b"x")))
        iod.fail()
        iod.repair(wipe=True)
        response = rpc(system, iod, msg.ReadReq("f", kind="data",
                                                offset=0, length=1))
        assert response.payload.to_bytes() == b"\x00"  # fresh disk

    def test_repair_without_wipe_keeps_data(self):
        system = make_system()
        iod = system.iods[0]
        rpc(system, iod, msg.WriteReq("f", kind="data", offset=0,
                                      payload=Payload.from_bytes(b"x")))
        iod.fail()
        iod.repair(wipe=False)
        response = rpc(system, iod, msg.ReadReq("f", kind="data",
                                                offset=0, length=1))
        assert response.payload.to_bytes() == b"x"


class TestCrashUnderLoad:
    """``IOD.fail()`` interrupts the handlers in flight.  Whatever a
    handler was waiting for, no TX slot stays held or queued, the client
    is told at once, and timed holds already placed stand."""

    @staticmethod
    def start_rpc(system, iod, request, client=0):
        def work():
            try:
                return (yield from system.client(client).rpc(iod, request))
            except ServerFailed as exc:
                return exc

        return system.env.process(work())

    @staticmethod
    def step_until(system, condition):
        while not condition():
            assert system.env.now < 1.0, "never happened"
            system.env.step()

    def test_crash_inside_request_processing(self, tx_claims):
        system = make_system()
        iod, env = system.iods[0], system.env
        cpu = iod.node.cpu
        call = self.start_rpc(system, iod, msg.FsyncReq("f"))
        self.step_until(system, lambda: cpu.server.free_at > env.now)
        crashed_at, busy_until = env.now, cpu.server.free_at
        iod.fail()
        assert isinstance(env.run(until=call), ServerFailed)
        assert env.now == crashed_at  # the client did not wait
        assert cpu.server.free_at == busy_until  # the cost stands
        assert tx_claims() == []
        assert cpu.busy_time == pytest.approx(busy_until - crashed_at)

    def test_crash_inside_the_reply_transfer(self, tx_claims):
        system = make_system()
        iod, env = system.iods[0], system.env
        tx = iod.node.nic.tx
        call = self.start_rpc(system, iod, msg.FsyncReq("f"))
        self.step_until(system, lambda: tx.count == 1)  # header-only reply
        rx = system.client().node.nic.rx
        occupied_until = rx.free_at
        assert occupied_until > env.now
        iod.fail()
        assert isinstance(env.run(until=call), ServerFailed)
        assert tx.count == 0 and not tx.queue  # freed at the interrupt
        assert rx.free_at == occupied_until  # the occupancy stands
        assert tx_claims() == []

    def test_crash_with_a_reply_queued_on_tx(self, tx_claims):
        system = make_system(num_clients=2)
        iod, env = system.iods[0], system.env
        tx = iod.node.nic.tx
        # a streamed reply keeps the TX side busy segment by segment; a
        # second request, handled while the first segment is on the CPU,
        # has its header-only reply ready just as that segment takes TX
        calls = [self.start_rpc(system, iod, msg.ReadReq(
            "f", kind="data", offset=0, length=512 * KiB))]
        env.run(until=0.005)
        calls.append(self.start_rpc(system, iod, msg.FsyncReq("f"), client=1))
        self.step_until(system, lambda: tx.queue)
        assert tx.count == 1 and tx.queue[0].callbacks  # a process waits
        iod.fail()
        for call in calls:
            assert isinstance(env.run(until=call), ServerFailed)
        # the queued claim is withdrawn; the segment on the wire stays
        assert tx.count == 1 and not tx.queue
        assert tx_claims() == []

    def test_crash_under_a_streamed_reply(self, tx_claims):
        """A data-bearing reply is a pipeline, not a waiter: it runs to
        its end and gives its TX slot back itself."""
        system = make_system()
        iod, env = system.iods[0], system.env
        tx = iod.node.nic.tx
        call = self.start_rpc(system, iod, msg.ReadReq(
            "f", kind="data", offset=0, length=512 * KiB))
        self.step_until(system, lambda: tx.count == 1)
        iod.fail()
        assert isinstance(env.run(until=call), ServerFailed)
        assert tx_claims() == []


class TestMaintenance:
    def test_fsync_flushes_all_local_files(self):
        system = make_system()
        iod = system.iods[0]
        rpc(system, iod, msg.WriteReq("f", kind="data", offset=0,
                                      payload=Payload.zeros(8 * KiB)))
        rpc(system, iod, msg.WriteReq("f", kind="red", offset=0,
                                      payload=Payload.zeros(8 * KiB)))
        rpc(system, iod, msg.FsyncReq("f"))
        assert iod.node.cache.dirty_bytes == 0

    def test_truncate_overflow(self):
        system = make_system()
        iod = system.iods[0]
        rpc(system, iod, msg.OverflowWriteReq(
            "f", ranges=[(0, 4)], payload=Payload.from_bytes(b"data")))
        rpc(system, iod, msg.TruncateOverflowReq("f"))
        assert iod.overflow["f"].allocated_bytes == 0

    def test_storage_of_unknown_file_zeroes(self):
        system = make_system()
        assert system.iods[0].storage_of("ghost") == {
            "data": 0, "red": 0, "ovf": 0, "ovfm": 0}

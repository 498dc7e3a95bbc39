"""Protocol-level tests of the I/O daemon."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert system.metrics.get("hybrid.overflow_read_bytes") == 2

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
        assert iod.locks._lock("f", 5).users
        rpc(system, iod, msg.ParityWriteReq(
            "f", group=5, local_offset=0, intra=(0, 8),
            payload=Payload.zeros(8), unlock=True, xid=1))
        assert not iod.locks._lock("f", 5).users

    def test_full_stripe_parity_write_does_not_need_lock(self):
        system = make_system(scheme="raid5")
        iod = system.iods[0]
        # unlock=False: a full-stripe parity write with no prior read.
        rpc(system, iod, msg.ParityWriteReq(
            "f", group=0, local_offset=0, intra=(0, 4),
            payload=Payload.zeros(4), unlock=False, xid=9))
        assert not iod.locks._lock("f", 0).users

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
    """``IOD.fail()`` interrupts the handlers and replies in flight.
    Whatever a request was waiting for, no TX slot stays held or queued,
    the client is told at once, and timed holds already placed stand."""

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
        assert tx.count == 1 and len(tx.queue) == 1  # the fsync's reply
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


class TestRpcChain:
    """An RPC is one chain of continuations from request to reply; the
    deadline, the retry and the fan-out join ride on it."""

    start_rpc = staticmethod(TestCrashUnderLoad.start_rpc)

    def test_a_late_reply_does_not_complete_the_retry(self, tx_claims):
        system = make_system(rpc_timeout=0.25, background_flusher=False)
        iod, env = system.iods[0], system.env
        replied = []
        deliver = iod.deliver

        def spy(envelope):
            request, reply_nic, answer = envelope

            def reply(response):
                replied.append(env.now)
                answer(response)

            deliver((request, reply_nic, reply))

        iod.deliver = spy
        iod.node.cpu.server.hold(0.3)  # attempt 1 is served after its deadline
        call = self.start_rpc(system, iod, msg.ReadReq(
            "f", kind="data", offset=0, length=4))
        response = env.run(until=call)
        assert response.payload.to_bytes() == b"\x00" * 4
        assert system.metrics.get("client.rpc_timeouts") == 1
        # both attempts were handled; the call ended on the second reply
        assert len(replied) == 2 and replied[0] < replied[1] == env.now
        assert 0 not in system.client().suspected
        env.run()  # drains: no failed event is left unobserved
        assert tx_claims() == []

    def test_parallel_raises_the_first_error_and_the_run_drains(self):
        system = make_system(background_flusher=False)
        env, client = system.env, system.client()
        system.fail_server(0)

        def later_failure():
            yield env.timeout(1)
            raise ProtocolError("second failure")

        def work():
            with pytest.raises(ServerFailed):
                yield from client.parallel([
                    later_failure(),
                    client.rpc(system.iods[0], msg.FsyncReq("f"))])
            return env.now

        assert system.run(work()) < 1
        env.run()  # the later failure is defused, so the heap drains
        assert env.now == 1

    def test_a_dropped_request_parks_only_its_rpc(self, tx_claims):
        system = make_system(num_clients=2)
        iod, env = system.iods[0], system.env

        class DropFirstRequest:
            """A fault plan of one: the first message to iod0 is lost."""

            left = 1

            def link_action(self, src, dst, nbytes):
                if dst is iod.node.nic and self.left:
                    self.left -= 1
                    return ("drop",)
                return None

            def disk_action(self, disk):
                return None

            def torn_action(self, owner, payload):
                return None

        env.faults = DropFirstRequest()
        parked = self.start_rpc(system, iod, msg.FsyncReq("f"))
        others = [self.start_rpc(system, iod, msg.FsyncReq("f"), client=1),
                  self.start_rpc(system, system.iods[1], msg.FsyncReq("f"))]
        for call in others:
            assert isinstance(env.run(until=call), msg.Response)
        assert tx_claims() == []
        assert parked.is_alive  # no deadline: it waits for good


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

    def test_compaction_survives_a_new_mirror_table(self):
        # Compaction reads a cold mirror file from disk; a first mirror
        # append for another file lands meanwhile and adds a table.
        system = make_system(num_clients=2)
        iod = system.iods[1]
        for k in range(8):
            rpc(system, iod, msg.OverflowWriteReq(
                "f", ranges=[(k * UNIT, k * UNIT + 100)],
                payload=Payload.pattern(100, seed=k), mirror=True, origin=0))
        system.run(iod.fs.sync())
        system.run(iod.fs.drop_caches())

        def call(client, request):
            return (yield from system.client(client).rpc(iod, request))

        def both():
            yield system.env.all_of([
                system.env.process(call(0, msg.CompactOverflowReq("f"))),
                system.env.process(call(1, msg.OverflowWriteReq(
                    "g", ranges=[(0, 2)], payload=Payload.from_bytes(b"gg"),
                    mirror=True, origin=0)))])

        system.run(both())
        assert iod.overflow_mirror["f", 0].live_bytes == 800
        resolved = rpc(system, iod, msg.MirrorResolveReq(
            "g", origin=0, offset=0, length=2))
        assert resolved.payload.to_bytes() == b"gg"

    def test_compaction_keeps_an_append_that_races_its_reads(self):
        # Compaction reads eight cold overflow extents back from disk; an
        # append extending the first one is started 0-20 ms later, so at
        # many offsets it lands after that extent was read.
        appended = Payload.pattern(10, seed=99)
        want = Payload.pattern(100, seed=0).to_bytes() + appended.to_bytes()
        lost = []
        for step in range(40):
            system = make_system(num_clients=2)
            env, iod = system.env, system.iods[0]
            for k in range(8):
                rpc(system, iod, msg.OverflowWriteReq(
                    "f", ranges=[(k * UNIT, k * UNIT + 100)],
                    payload=Payload.pattern(100, seed=k)))
            system.run(iod.fs.sync())
            system.run(iod.fs.drop_caches())

            def call(client, request, delay):
                yield env.timeout(delay)
                return (yield from system.client(client).rpc(iod, request))

            def both():
                yield env.all_of([
                    env.process(call(0, msg.CompactOverflowReq("f"), 0.0)),
                    env.process(call(1, msg.OverflowWriteReq(
                        "f", ranges=[(100, 110)], payload=appended),
                        step * 0.5e-3))])

            system.run(both())
            got = rpc(system, iod, msg.ReadReq("f", kind="data", offset=0,
                                               length=110))
            if got.payload.to_bytes() != want:
                lost.append(step)
        assert lost == []

    def test_compaction_keeps_an_append_whose_bytes_land_after_its_reads(
            self):
        # The append rewrites block 0's head, which takes a fresh slot,
        # and extends block 7, whose cold page it must read first.
        # Started up to 10 ms before or 20 ms after the compaction, at
        # many offsets its slots are allocated before the compaction
        # reads them while its bytes land only after.
        head = Payload.pattern(10, seed=98).to_bytes()
        tail = Payload.pattern(10, seed=99).to_bytes()
        want = {0: head + Payload.pattern(100, seed=0).to_bytes()[10:],
                7 * UNIT: Payload.pattern(100, seed=7).to_bytes() + tail}
        lost = []
        for step in range(-20, 40):
            system = make_system(num_clients=2)
            env, iod = system.env, system.iods[0]
            for k in range(8):
                rpc(system, iod, msg.OverflowWriteReq(
                    "f", ranges=[(k * UNIT, k * UNIT + 100)],
                    payload=Payload.pattern(100, seed=k)))
            system.run(iod.fs.sync())
            system.run(iod.fs.drop_caches())

            def call(client, request, delay):
                yield env.timeout(delay)
                return (yield from system.client(client).rpc(iod, request))

            def both():
                yield env.all_of([
                    env.process(call(0, msg.CompactOverflowReq("f"),
                                     max(-step, 0) * 0.5e-3)),
                    env.process(call(1, msg.OverflowWriteReq(
                        "f", ranges=[(0, 10), (7 * UNIT + 100,
                                              7 * UNIT + 110)],
                        payload=Payload.from_bytes(head + tail)),
                        max(step, 0) * 0.5e-3))])

            system.run(both())
            for offset, data in want.items():
                got = rpc(system, iod, msg.ReadReq(
                    "f", kind="data", offset=offset, length=len(data)))
                if got.payload.to_bytes() != data:
                    lost.append((step, offset))
        assert lost == []

    def test_a_read_racing_the_rewrite_sees_the_live_bytes(self, monkeypatch):
        # Block 0 is rewritten once, so the rewrite moves its slot.  Each
        # of the rewrite's writes waits a millisecond; reads of every
        # extent and one of the whole cold range, whose in-place gaps come
        # off the disk first, start with the first one.
        system = make_system()
        env, iod = system.env, system.iods[0]
        want = bytearray(Payload.pattern(8 * UNIT, seed=9).to_bytes())
        rpc(system, iod, msg.WriteReq("f", kind="data", offset=0,
                                      payload=Payload.from_bytes(want)))
        for k, seed in [(k, k) for k in range(8)] + [(0, 8)]:
            payload = Payload.pattern(100, seed=seed)
            rpc(system, iod, msg.OverflowWriteReq(
                "f", ranges=[(k * UNIT, k * UNIT + 100)], payload=payload))
            want[k * UNIT:k * UNIT + 100] = payload.to_bytes()
        system.run(iod.fs.sync())
        system.run(iod.fs.drop_caches())
        ranges = [(k * UNIT, 100) for k in range(8)] + [(0, 8 * UNIT)]
        write, reads = iod.fs.write, []

        def slow_write(name, offset, payload):
            if not reads:
                reads.extend(env.process(iod._read(msg.ReadReq(
                    "f", kind="data", offset=start, length=length)))
                    for start, length in ranges)
            yield env.timeout(1e-3)
            yield from write(name, offset, payload)

        monkeypatch.setattr(iod.fs, "write", slow_write)
        rpc(system, iod, msg.CompactOverflowReq("f"))

        def settle():
            yield env.all_of(reads)

        system.run(settle())
        assert [read.value.payload.to_bytes() for read in reads] == [
            bytes(want[start:start + length]) for start, length in ranges]
        assert iod.overflow["f"].allocated_bytes == 8 * UNIT

    def test_storage_of_unknown_file_zeroes(self):
        system = make_system()
        assert system.iods[0].storage_of("ghost") == {
            "data": 0, "red": 0, "ovf": 0, "ovfm": 0}


#: Property test geometry: a tiny stripe unit, so a few dozen bytes span
#: several overflow slots and rewrites burn fresh ones.
PROP_UNIT = 16
PROP_SPAN = 96
PROP_ORIGINS = (1, 2)

_at = st.integers(0, PROP_SPAN - 1)
_bytes = st.binary(min_size=1, max_size=40)
_ranges = st.lists(st.tuples(_at, _bytes), min_size=1, max_size=3)
_prop_op = st.one_of(
    st.tuples(st.just("append"), st.none(), _ranges),
    st.tuples(st.just("append"), st.sampled_from(PROP_ORIGINS), _ranges),
    st.tuples(st.just("write"), st.booleans(),
              st.tuples(_at, _bytes, st.sampled_from(PROP_ORIGINS), _at,
                        st.integers(0, 40))),
    st.tuples(st.just("compact"), st.none(), st.none()),
    st.tuples(st.just("read"), st.none(), st.tuples(_at, st.integers(0, 60))),
    st.tuples(st.just("resolve"), st.sampled_from(PROP_ORIGINS),
              st.tuples(_at, st.integers(0, 60))),
)


def _runs(covered, start, end):
    """Maximal covered ``(lo, hi)`` runs of a reference mask."""
    runs = []
    for i in range(start, end):
        if covered[i]:
            if runs and runs[-1][1] == i:
                runs[-1] = (runs[-1][0], i + 1)
            else:
                runs.append((i, i + 1))
    return runs


@settings(max_examples=60, deadline=None)
@given(st.lists(_prop_op, max_size=14))
def test_overflow_region_matches_reference(ops):
    """Own and mirror appends, invalidating writes and compactions at one
    iod: data reads and mirror resolves return the latest copy."""
    system = make_system(stripe_unit=PROP_UNIT)
    iod, client = system.iods[0], system.client()
    size = 2 * PROP_SPAN + 40
    inplace = bytearray(size)
    regions = {origin: (bytearray(size), [False] * size)
               for origin in (None,) + PROP_ORIGINS}

    def work():
        for op, arg, body in ops:
            if op == "append":
                ranges = [(at, at + len(raw)) for at, raw in body]
                payload = Payload.from_bytes(b"".join(raw for _at, raw in body))
                yield from client.rpc(iod, msg.OverflowWriteReq(
                    "f", ranges=ranges, payload=payload,
                    mirror=arg is not None,
                    origin=-1 if arg is None else arg))
                latest, covered = regions[arg]
                for at, raw in body:
                    latest[at: at + len(raw)] = raw
                    covered[at: at + len(raw)] = [True] * len(raw)
            elif op == "write":
                at, raw, origin, lo, length = body
                yield from client.rpc(iod, msg.WriteReq(
                    "f", kind="data", offset=at,
                    payload=Payload.from_bytes(raw), invalidate=arg,
                    mirror_invalidate=((origin, lo, lo + length),)))
                inplace[at: at + len(raw)] = raw
                if arg:
                    regions[None][1][at: at + len(raw)] = [False] * len(raw)
                regions[origin][1][lo: lo + length] = [False] * length
            elif op == "compact":
                yield from client.rpc(iod, msg.CompactOverflowReq("f"))
            elif op == "read":
                at, length = body
                response = yield from client.rpc(iod, msg.ReadReq(
                    "f", kind="data", offset=at, length=length))
                latest, covered = regions[None]
                assert response.payload.to_bytes() == bytes(
                    latest[i] if covered[i] else inplace[i]
                    for i in range(at, at + length))
            else:
                at, length = body
                response = yield from client.rpc(iod, msg.MirrorResolveReq(
                    "f", origin=arg, offset=at, length=length))
                latest, covered = regions[arg]
                assert response.payload.to_bytes() == bytes(
                    latest[i] if covered[i] else 0
                    for i in range(at, at + length))
                merged = []
                for lo, hi in response.ranges:
                    if merged and merged[-1][1] == lo:
                        merged[-1] = (merged[-1][0], hi)
                    else:
                        merged.append((lo, hi))
                assert merged == _runs(covered, at, at + length)

    system.run(work())

"""Tests for the flow-level network model."""

import pytest

from repro.hw.link import NIC, transfer
from repro.hw.params import NetworkParams
from repro.metrics import Metrics
from repro.sim import Environment, Interrupt
from repro.units import MBps


@pytest.fixture
def env():
    return Environment()


def make_nic(env, name, bw=100 * MBps, latency=1e-4, per_message=1e-5):
    return NIC(env, name, NetworkParams(bandwidth=bw, latency=latency,
                                        per_message=per_message))


class TestTransfer:
    def test_single_flow_time(self, env):
        a, b = make_nic(env, "a"), make_nic(env, "b")

        def proc():
            yield env.process(transfer(env, a, b, 10_000_000))
            return env.now

        p = env.process(proc())
        elapsed = env.run(until=p)
        # 10 MB at 100 MB/s = 0.1 s, plus per-message and latency.
        assert elapsed == pytest.approx(0.1 + 1e-5 + 1e-4)

    def test_bottleneck_is_slower_side(self, env):
        fast = make_nic(env, "fast", bw=200 * MBps)
        slow = make_nic(env, "slow", bw=50 * MBps)

        def proc():
            yield env.process(transfer(env, fast, slow, 50_000_000))
            return env.now

        p = env.process(proc())
        assert env.run(until=p) == pytest.approx(1.0, rel=0.01)

    def test_sender_serializes_concurrent_flows(self, env):
        src = make_nic(env, "src")
        dsts = [make_nic(env, f"d{i}") for i in range(4)]
        done = []

        def flow(dst):
            yield env.process(transfer(env, src, dst, 10_000_000))
            done.append(env.now)

        for dst in dsts:
            env.process(flow(dst))
        env.run()
        # 4 x 10 MB through one 100 MB/s NIC: last completes at >= 0.4 s.
        assert max(done) >= 0.4

    def test_receiver_serializes_incast(self, env):
        srcs = [make_nic(env, f"s{i}") for i in range(4)]
        dst = make_nic(env, "dst")
        done = []

        def flow(src):
            yield env.process(transfer(env, src, dst, 10_000_000))
            done.append(env.now)

        for src in srcs:
            env.process(flow(src))
        env.run()
        assert max(done) >= 0.4

    def test_disjoint_pairs_run_in_parallel(self, env):
        pairs = [(make_nic(env, f"a{i}"), make_nic(env, f"b{i}"))
                 for i in range(4)]
        done = []

        def flow(a, b):
            yield env.process(transfer(env, a, b, 10_000_000))
            done.append(env.now)

        for a, b in pairs:
            env.process(flow(a, b))
        env.run()
        # Independent pairs all finish in ~0.1 s.
        assert max(done) == pytest.approx(0.1 + 1e-5 + 1e-4)

    def test_loopback_is_nearly_free(self, env):
        a = make_nic(env, "a")

        def proc():
            yield env.process(transfer(env, a, a, 10_000_000))
            return env.now

        p = env.process(proc())
        assert env.run(until=p) == pytest.approx(1e-5)

    def test_metrics_recorded(self, env):
        metrics = Metrics()
        a, b = make_nic(env, "a"), make_nic(env, "b")

        def proc():
            yield env.process(transfer(env, a, b, 1234, metrics))

        env.process(proc())
        env.run()
        assert metrics.node_tx_bytes["a"] == 1234
        assert metrics.node_rx_bytes["b"] == 1234
        assert metrics.get("net.bytes") == 1234

    def test_negative_size_rejected(self, env):
        a, b = make_nic(env, "a"), make_nic(env, "b")

        def proc():
            yield env.process(transfer(env, a, b, -1))

        p = env.process(proc())
        with pytest.raises(ValueError):
            env.run(until=p)


class TestInterruptRule:
    """An interrupted waiter withdraws its queued TX claim or frees its
    TX slot, exactly once; an RX occupancy already placed stands."""

    @staticmethod
    def sender(env, src, dst, nbytes, log):
        try:
            yield from transfer(env, src, dst, nbytes)
        except Interrupt:
            log.append(("interrupted", env.now))
        else:
            log.append(("done", env.now))

    def test_queued_claim_is_withdrawn(self, env):
        src, d1, d2 = (make_nic(env, n) for n in ("src", "d1", "d2"))
        log = []
        env.process(self.sender(env, src, d1, 10_000_000, log))  # 0.1 s
        victim = env.process(self.sender(env, src, d2, 10_000_000, log))
        env.run(until=0.05)
        assert src.tx.count == 1 and len(src.tx.queue) == 1
        victim.interrupt("crash")
        env.run(until=0.06)
        assert log == [("interrupted", 0.05)]
        assert src.tx.count == 1 and not src.tx.queue  # claim gone
        env.run()
        # the holder's release found nobody to grant: the slot is free
        assert src.tx.count == 0 and not src.tx.queue
        assert d2.rx.free_at == 0.0  # the victim never reached the wire

    def test_held_slot_is_freed_once_and_the_occupancy_stands(self, env):
        src, dst, other = (make_nic(env, n) for n in ("src", "dst", "other"))
        log = []
        victim = env.process(self.sender(env, src, dst, 10_000_000, log))
        env.run(until=0.05)
        assert src.tx.count == 1
        occupied_until = dst.rx.free_at
        assert occupied_until == pytest.approx(0.1 + 1e-5)
        victim.interrupt("crash")
        # the sender's TX side is free at once ...
        env.process(self.sender(env, src, other, 1_000_000, log))
        # ... but the receiver still takes the bytes it accepted
        env.process(self.sender(env, other, dst, 1_000_000, log))
        env.run()
        assert log == [
            ("interrupted", 0.05),
            ("done", pytest.approx(0.05 + 0.01 + 1e-5 + 1e-4)),
            ("done", pytest.approx(occupied_until + 0.01 + 1e-5 + 1e-4)),
        ]
        assert src.tx.count == 0 and not src.tx.queue
        assert dst.rx.total_waits == 1

    def test_interrupt_between_grant_and_resume_frees_the_slot(self, env):
        """The holder's release schedules the victim's grant; the
        interrupt (urgent) lands before the victim resumes, and the slot
        it was just given goes on to the next in line."""
        src, d1, d2, d3 = (make_nic(env, n) for n in ("s", "d1", "d2", "d3"))
        occupancy = 1e-5 + 1_000_000 / (100 * MBps)
        log = []
        env.process(self.sender(env, src, d1, 1_000_000, log))
        victim = env.process(self.sender(env, src, d2, 1_000_000, log))
        env.process(self.sender(env, src, d3, 1_000_000, log))

        def crasher():
            yield env.timeout(occupancy)  # fires right after the release
            assert src.tx.users[0].triggered and victim.is_alive
            victim.interrupt("crash")

        env.process(crasher())
        env.run()
        assert log == [("interrupted", occupancy),
                       ("done", pytest.approx(occupancy + 1e-4)),
                       ("done", pytest.approx(2 * occupancy + 1e-4))]
        assert src.tx.count == 0 and not src.tx.queue
        assert d2.rx.free_at == 0.0

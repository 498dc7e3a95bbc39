"""Tests for the flow-level network model."""

import pytest

from repro.hw.link import NIC, send
from repro.hw.params import NetworkParams
from repro.sim import Environment
from repro.units import MBps


@pytest.fixture
def env():
    return Environment()


def make_nic(env, name, bw=100 * MBps, latency=1e-4, per_message=1e-5):
    return NIC(env, name, NetworkParams(bandwidth=bw, latency=latency,
                                        per_message=per_message))


def arrival_log(env, log, label=None):
    """A ``then`` that logs the arrival time (under ``label``)."""
    return lambda: log.append(env.now if label is None
                              else (label, env.now))


class TestTransfer:
    """Moving one message: bandwidth, contention, loopback, metrics."""

    def test_single_flow_time(self, env):
        a, b = make_nic(env, "a"), make_nic(env, "b")
        done = []
        send(env, a, b, 10_000_000, arrival_log(env, done))
        env.run()
        # 10 MB at 100 MB/s = 0.1 s, plus per-message and latency.
        assert done == [pytest.approx(0.1 + 1e-5 + 1e-4)]

    def test_bottleneck_is_slower_side(self, env):
        fast = make_nic(env, "fast", bw=200 * MBps)
        slow = make_nic(env, "slow", bw=50 * MBps)
        done = []
        send(env, fast, slow, 50_000_000, arrival_log(env, done))
        env.run()
        assert done == [pytest.approx(1.0, rel=0.01)]

    def test_sender_serializes_concurrent_flows(self, env):
        src = make_nic(env, "src")
        done = []
        for i in range(4):
            send(env, src, make_nic(env, f"d{i}"), 10_000_000,
                 arrival_log(env, done))
        env.run()
        # 4 x 10 MB through one 100 MB/s NIC: last completes at >= 0.4 s.
        assert len(done) == 4 and max(done) >= 0.4

    def test_receiver_serializes_incast(self, env):
        dst = make_nic(env, "dst")
        done = []
        for i in range(4):
            send(env, make_nic(env, f"s{i}"), dst, 10_000_000,
                 arrival_log(env, done))
        env.run()
        assert len(done) == 4 and max(done) >= 0.4

    def test_disjoint_pairs_run_in_parallel(self, env):
        done = []
        for i in range(4):
            send(env, make_nic(env, f"a{i}"), make_nic(env, f"b{i}"),
                 10_000_000, arrival_log(env, done))
        env.run()
        # Independent pairs all finish in ~0.1 s.
        assert len(done) == 4
        assert max(done) == pytest.approx(0.1 + 1e-5 + 1e-4)

    def test_loopback_is_nearly_free(self, env):
        a = make_nic(env, "a")
        done = []
        send(env, a, a, 10_000_000, arrival_log(env, done))
        env.run()
        assert done == [pytest.approx(1e-5)]

    def test_metrics_recorded(self, env):
        a, b = make_nic(env, "a"), make_nic(env, "b")
        send(env, a, b, 1234, lambda: None)
        env.run()
        assert env.metrics.node_tx_bytes["a"] == 1234
        assert env.metrics.node_rx_bytes["b"] == 1234
        assert env.metrics.get("net.bytes") == 1234

    def test_negative_size_rejected(self, env):
        a, b = make_nic(env, "a"), make_nic(env, "b")
        with pytest.raises(ValueError):
            send(env, a, b, -1, lambda: None)


class TestInterruptRule:
    """DESIGN.md §6: ``cancel()`` withdraws a queued TX claim or frees a
    held TX slot, exactly once; an RX occupancy already placed stands,
    and a cancelled message never arrives."""

    def test_queued_claim_is_withdrawn(self, env):
        src, d1, d2 = (make_nic(env, n) for n in ("src", "d1", "d2"))
        log = []
        send(env, src, d1, 10_000_000, arrival_log(env, log, "d1"))  # 0.1 s
        victim = send(env, src, d2, 10_000_000, arrival_log(env, log, "d2"))
        env.run(until=0.05)
        assert src.tx.count == 1 and len(src.tx.queue) == 1
        victim.cancel()
        assert src.tx.count == 1 and not src.tx.queue  # claim gone
        victim.cancel()  # a second cancel is a no-op
        env.run()
        # the holder's release found nobody to grant: the slot is free
        assert log == [("d1", pytest.approx(0.1 + 1e-5 + 1e-4))]
        assert src.tx.count == 0 and not src.tx.queue
        assert d2.rx.free_at == 0.0  # the victim never reached the wire

    def test_held_slot_is_freed_once_and_the_occupancy_stands(self, env):
        src, dst, other = (make_nic(env, n) for n in ("src", "dst", "other"))
        log = []
        victim = send(env, src, dst, 10_000_000, arrival_log(env, log, "v"))
        env.run(until=0.05)
        assert src.tx.count == 1
        occupied_until = dst.rx.free_at
        assert occupied_until == pytest.approx(0.1 + 1e-5)
        victim.cancel()
        victim.cancel()
        # the sender's TX side is free at once ...
        send(env, src, other, 1_000_000, arrival_log(env, log, "tx"))
        # ... but the receiver still takes the bytes it accepted
        send(env, other, dst, 1_000_000, arrival_log(env, log, "rx"))
        env.run()
        assert log == [
            ("tx", pytest.approx(0.05 + 0.01 + 1e-5 + 1e-4)),
            ("rx", pytest.approx(occupied_until + 0.01 + 1e-5 + 1e-4)),
        ]
        assert src.tx.count == 0 and not src.tx.queue
        assert dst.rx.total_waits == 1

    def test_interrupt_between_grant_and_resume_frees_the_slot(self, env):
        """A woken sender's grant takes a heap entry; a cancel that lands
        before it frees the slot it was just given for the next in line."""
        src, d1, d2, d3 = (make_nic(env, n) for n in ("s", "d1", "d2", "d3"))
        occupancy = 1e-5 + 1_000_000 / (100 * MBps)
        log = []
        send(env, src, d1, 1_000_000, arrival_log(env, log, "d1"),
             woken=True)
        victim = send(env, src, d2, 1_000_000, arrival_log(env, log, "d2"),
                      woken=True)
        send(env, src, d3, 1_000_000, arrival_log(env, log, "d3"),
             woken=True)

        def crash():
            # right after the holder's release granted the victim
            assert src.tx.users == [victim._tx_claim]
            victim.cancel()

        env.call_later(occupancy, crash)
        env.run()
        assert log == [("d1", pytest.approx(occupancy + 1e-4)),
                       ("d3", pytest.approx(2 * occupancy + 1e-4))]
        assert src.tx.count == 0 and not src.tx.queue
        assert d2.rx.free_at == 0.0

    def test_cancel_during_latency_changes_nothing_but_arrival(self, env):
        src, dst, other = (make_nic(env, n) for n in ("src", "dst", "other"))
        log = []
        occupancy = 1e-5 + 1_000_000 / (100 * MBps)
        victim = send(env, src, dst, 1_000_000, arrival_log(env, log, "v"))
        env.run(until=occupancy + 5e-5)  # off the wire, not yet arrived
        victim.cancel()
        send(env, src, other, 1_000_000, arrival_log(env, log, "next"))
        env.run()
        assert log == [("next", pytest.approx(2 * occupancy + 5e-5 + 1e-4))]
        assert src.tx.count == 0

"""Tests for pipelined streaming transfers (wire + per-byte CPU overlap)."""

import pytest

from repro.hw.cpu import Cpu
from repro.hw.link import NIC, send
from repro.hw.params import CpuParams, NetworkParams
from repro.sim import Environment, Event, Interrupt
from repro.units import MBps


@pytest.fixture
def env():
    return Environment()


def stream(env, src, dst, nbytes, **kwargs):
    """Process body: :func:`send` a message and wait for it to arrive."""
    done = Event(env)
    send(env, src, dst, nbytes, done.succeed, **kwargs)
    yield done


def make_nic(env, name, bw=100 * MBps):
    return NIC(env, name, NetworkParams(bandwidth=bw, latency=1e-5,
                                        per_message=1e-6))


def make_cpu(env, name, byte_rate=20 * MBps):
    return Cpu(env, name, CpuParams(parity_bandwidth=1000 * MBps,
                                    parity_bandwidth_bytewise=100 * MBps,
                                    request_overhead=1e-4,
                                    kernel_module_overhead=1e-3,
                                    byte_rate=byte_rate))


def run_timed(env, gen):
    def wrapper():
        yield from gen
        return env.now

    p = env.process(wrapper())
    return env.run(until=p)


class TestStream:
    def test_slow_cpu_sets_the_rate(self, env):
        # 10 MB over a 100 MB/s wire into a 20 MB/s CPU: ~0.5 s.
        a, b = make_nic(env, "a"), make_nic(env, "b")
        cpu = make_cpu(env, "b", byte_rate=20 * MBps)
        elapsed = run_timed(env, stream(env, a, b, 10_000_000, cpu=cpu))
        assert elapsed == pytest.approx(0.5, rel=0.05)

    def test_fast_cpu_leaves_wire_bound(self, env):
        a, b = make_nic(env, "a"), make_nic(env, "b")
        cpu = make_cpu(env, "b", byte_rate=1000 * MBps)
        elapsed = run_timed(env, stream(env, a, b, 10_000_000, cpu=cpu))
        assert elapsed == pytest.approx(0.1, rel=0.1)

    def test_src_side_cpu(self, env):
        a, b = make_nic(env, "a"), make_nic(env, "b")
        cpu = make_cpu(env, "a", byte_rate=20 * MBps)
        elapsed = run_timed(env, stream(env, a, b, 10_000_000, cpu=cpu,
                                        cpu_at="src"))
        assert elapsed == pytest.approx(0.5, rel=0.05)

    def test_bad_cpu_side_rejected(self, env):
        a, b = make_nic(env, "a"), make_nic(env, "b")
        cpu = make_cpu(env, "b")

        def proc():
            yield from stream(env, a, b, 1000, cpu=cpu, cpu_at="middle")

        p = env.process(proc())
        with pytest.raises(ValueError):
            env.run(until=p)

    def test_no_cpu_falls_back_to_transfer(self, env):
        a, b = make_nic(env, "a"), make_nic(env, "b")
        elapsed = run_timed(env, stream(env, a, b, 10_000_000))
        assert elapsed == pytest.approx(0.1, rel=0.05)

    def test_concurrent_streams_share_cpu_fairly(self, env):
        # Two senders into one 20 MB/s server: aggregate 20, each ~10.
        srcs = [make_nic(env, f"s{i}") for i in range(2)]
        dst = make_nic(env, "d")
        cpu = make_cpu(env, "d", byte_rate=20 * MBps)
        done = []

        def flow(src):
            yield from stream(env, src, dst, 5_000_000, cpu=cpu)
            done.append(env.now)

        for src in srcs:
            env.process(flow(src))
        env.run()
        assert max(done) == pytest.approx(0.5, rel=0.1)

    def test_metrics_counted_once(self, env):
        a, b = make_nic(env, "a"), make_nic(env, "b")
        cpu = make_cpu(env, "b")

        def proc():
            yield from stream(env, a, b, 1_000_000, cpu=cpu)

        env.process(proc())
        env.run()
        assert env.metrics.node_tx_bytes["a"] == 1_000_000
        assert env.metrics.node_rx_bytes["b"] == 1_000_000


class TestCpu:
    def test_parity_word_vs_byte(self, env):
        cpu = make_cpu(env, "n")
        t_word = run_timed(env, cpu.compute_parity(10_000_000))
        env2 = Environment()
        cpu2 = make_cpu(env2, "n")
        t_byte = run_timed(env2, cpu2.compute_parity(10_000_000,
                                                     bytewise=True))
        assert t_byte > 5 * t_word

    def test_request_processing_fixed_cost(self, env):
        cpu = make_cpu(env, "n")
        assert run_timed(env, cpu.request_processing()) == pytest.approx(1e-4)

    def test_kernel_module_crossing(self, env):
        cpu = make_cpu(env, "n")
        assert run_timed(env,
                         cpu.kernel_module_crossing()) == pytest.approx(1e-3)

    def test_zero_bytes_free(self, env):
        cpu = make_cpu(env, "n")
        assert run_timed(env, cpu.process_bytes(0)) == 0

    def test_busy_time_accumulates(self, env):
        cpu = make_cpu(env, "n")
        run_timed(env, cpu.process_bytes(20_000_000))
        assert cpu.busy_time == pytest.approx(1.0)

    def test_interrupted_cost_stands_and_is_charged_once(self, env):
        cpu = make_cpu(env, "n")

        def victim():
            yield from cpu.request_processing()  # 1e-4 s

        def bystander():
            yield env.timeout(4e-5)
            proc.interrupt("crash")
            yield from cpu.request_processing()
            return env.now

        proc = env.process(victim())
        after = env.process(bystander())
        with pytest.raises(Interrupt):
            env.run(until=proc)
        # the processor still does the work it accepted, then ours
        assert env.run(until=after) == pytest.approx(2e-4)
        assert cpu.busy_time == pytest.approx(2e-4)

"""Tests for the workload generators (behavioural, not bandwidth)."""

import pytest

from repro import CSARConfig, System
from repro.errors import ConfigError
from repro.units import KiB, MB
from repro.workloads import (
    btio_benchmark,
    cactus_benchio,
    flash_io_benchmark,
    full_stripe_write_bench,
    hartree_fock_argos,
    perf_benchmark,
    shared_stripe_bench,
    small_write_bench,
)
from repro.workloads.flashio import FLASH_SMALL_FRACTION, flash_request_sizes


def make_system(scheme="hybrid", clients=1, servers=6, **kw):
    kw.setdefault("content_mode", False)
    kw.setdefault("stripe_unit", 64 * KiB)
    return System(CSARConfig(scheme=scheme, num_servers=servers,
                             num_clients=clients, **kw))


class TestMicro:
    def test_full_stripe_counts_bytes(self):
        system = make_system()
        result = full_stripe_write_bench(system, total_bytes=8 * MB)
        assert result.bytes_written > 0
        assert result.elapsed > 0
        assert result.write_bandwidth > 0
        # Every written byte was stripe-aligned: no overflow used.
        assert system.overflow_stats("fullstripe")["allocated"] == 0

    def test_full_stripe_single_server_raid0(self):
        system = make_system(scheme="raid0", servers=1)
        result = full_stripe_write_bench(system, total_bytes=2 * MB)
        assert result.write_bandwidth > 0

    def test_small_write_bench_partial_stripes_only(self):
        system = make_system()
        result = small_write_bench(system, count=20)
        assert result.bytes_written == 20 * 64 * KiB
        # One-block writes are partial stripes: all bytes to overflow.
        assert system.overflow_stats("smallwrite")["allocated"] > 0

    def test_shared_stripe_uses_all_clients(self):
        system = make_system(scheme="raid5", clients=5)
        result = shared_stripe_bench(system, rounds=5)
        assert result.bytes_written == 5 * 5 * 64 * KiB
        assert "lock_wait_time" in result.extra

    def test_shared_stripe_lock_wait_positive_under_contention(self):
        system = make_system(scheme="raid5", clients=5)
        result = shared_stripe_bench(system, rounds=10)
        assert result.extra["lock_wait_time"] > 0

    def test_shared_stripe_no_lock_wait_without_locking(self):
        system = make_system(scheme="raid5", clients=5, locking=False)
        result = shared_stripe_bench(system, rounds=10)
        assert result.extra["lock_wait_time"] == 0


class TestPerf:
    def test_write_and_read_phases(self):
        system = make_system(clients=4)
        results = perf_benchmark(system, buffer_size=1 * MB, rounds=2)
        assert results["write"].bytes_written == 4 * 2 * 1 * MB
        assert results["read"].bytes_read == 4 * 2 * 1 * MB
        assert results["write"].write_bandwidth > 0
        assert results["read"].read_bandwidth > 0

    def test_flush_increases_elapsed(self):
        slow = perf_benchmark(make_system(clients=2),
                              buffer_size=1 * MB, rounds=2,
                              include_flush=True)["write"]
        fast = perf_benchmark(make_system(clients=2),
                              buffer_size=1 * MB, rounds=2,
                              include_flush=False)["write"]
        assert slow.elapsed > fast.elapsed


class TestBTIO:
    def test_initial_write(self):
        system = make_system(clients=4, scale=0.02)
        result = btio_benchmark(system, "A", scale=0.02)
        assert result.bytes_written > 0
        assert result.extra["nprocs"] == 4

    def test_overwrite_slower_than_initial_for_raid5(self):
        # Nine ranks: Class A on four writes whole stripes only, so there
        # is no read-modify-write for a cold cache to slow down.
        fresh = make_system("raid5", clients=9, scale=0.05)
        initial = btio_benchmark(fresh, "A", scale=0.05, overwrite=False)
        cold = make_system("raid5", clients=9, scale=0.05)
        over = btio_benchmark(cold, "A", scale=0.05, overwrite=True)
        # Cold-cache read-modify-write hits disk: must be slower.
        assert fresh.metrics.get("disk.reads") == 0
        assert cold.metrics.get("disk.reads") > 0
        assert over.write_bandwidth < 0.99 * initial.write_bandwidth

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigError):
            btio_benchmark(make_system(clients=4), "Z")

    def test_scale_reduces_steps_not_write_size(self):
        # Scaling must preserve the paper's per-write size (alignment
        # behaviour), shrinking only the number of checkpoint steps.
        sys_small = make_system(clients=4, scale=0.05)
        small = btio_benchmark(sys_small, "A", scale=0.05)
        sys_half = make_system(clients=4, scale=0.1)
        half = btio_benchmark(sys_half, "A", scale=0.1)
        assert half.bytes_written == 2 * small.bytes_written

    def test_writes_are_mostly_unaligned(self):
        # The defining BTIO property for Class B: partial stripes on
        # nearly every write (Class A at 4 procs is the aligned
        # exception: each process's 2.5 MiB share is whole stripes).
        system = make_system(scheme="hybrid", clients=4, scale=0.05)
        btio_benchmark(system, "B", scale=0.05)
        assert system.metrics.get("hybrid.partial_stripe_bytes") > 0
        assert system.metrics.get("hybrid.full_stripe_bytes") > 0


class TestFlash:
    def test_request_mix_matches_published_fraction(self):
        from repro.workloads.flashio import FLASH_TOTALS

        for nprocs, target in FLASH_SMALL_FRACTION.items():
            sizes = flash_request_sizes(nprocs, FLASH_TOTALS[nprocs])
            small = sum(1 for s in sizes if s < 2 * KiB) / len(sizes)
            assert small == pytest.approx(target, abs=0.02)

    def test_sizes_are_deterministic(self):
        assert flash_request_sizes(4, MB) == flash_request_sizes(4, MB)

    def test_benchmark_runs(self):
        system = make_system(clients=4)
        result = flash_io_benchmark(system, nprocs=4, scale=0.05)
        assert result.bytes_written == pytest.approx(0.05 * 45 * MB,
                                                     rel=0.01)
        assert 0.3 < result.extra["small_fraction"] < 0.6

    def test_flash_is_overflow_heavy_under_hybrid(self):
        # Section 6.7: FLASH's small requests mostly miss full stripes.
        system = make_system(clients=4)
        flash_io_benchmark(system, nprocs=4, scale=0.05)
        stats = system.overflow_stats("flash")
        assert stats["allocated"] > 0


class TestApps:
    def test_cactus(self):
        from repro.workloads.cactus import CHUNK

        system = make_system(clients=4)
        result = cactus_benchio(system, scale=0.01)
        # 400 MB/node at 1% = one 4 MiB chunk per node.
        assert result.bytes_written == 4 * CHUNK
        assert result.write_bandwidth > 0

    def test_hartree_fock_uses_kernel_module(self):
        system = make_system(clients=1)
        result = hartree_fock_argos(system, scale=0.02)
        assert result.bytes_written > 0
        # The flag is restored afterwards.
        assert system.client(0).via_kernel_module is False

    def test_hartree_fock_kernel_module_slows_small_requests(self):
        # Fig 8's levelling effect needs a real per-request cost.
        a = hartree_fock_argos(make_system(clients=1), scale=0.02)
        system = make_system(clients=1)
        client = system.client(0)
        # Same I/O without the kernel module crossing:
        from repro.storage.payload import Payload
        from repro.workloads.hartree_fock import REQUEST

        count = a.bytes_written // REQUEST

        def work():
            yield from client.create("direct")
            for i in range(count):
                yield from client.write("direct", i * REQUEST,
                                        Payload.virtual(REQUEST))
            yield from client.fsync("direct")

        elapsed, _ = system.timed(work())
        assert a.elapsed > elapsed

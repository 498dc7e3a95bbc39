"""Deeper page-cache behaviour: eviction pressure, flusher, readahead,
throttle boundaries, and write-buffer interactions."""

import pytest

from repro.hw.cache import PageCache
from repro.hw.disk import Disk
from repro.hw.params import CacheParams, DiskParams
from repro.sim import Environment
from repro.units import KiB, MBps, MiB
from repro.util.intervals import ExtentMap

BS = 4 * KiB


@pytest.fixture
def env():
    return Environment()


def make_cache(env, capacity=1 * MiB, readahead=0, disk_bw=50 * MBps,
               dirty_limit_fraction=0.4):
    disk = Disk(env, "n0",
                DiskParams(bandwidth=disk_bw, seek=0.005, per_op=0.0001))
    params = CacheParams(capacity=capacity, block_size=BS,
                         dirty_limit_fraction=dirty_limit_fraction,
                         readahead=readahead or BS)
    return PageCache(env, "n0", params, disk), disk


def run(env, gen):
    p = env.process(gen)
    env.run(until=p)
    return p.value


class TestEvictionPressure:
    def test_eviction_prefers_cold_files(self, env):
        cache, disk = make_cache(env, capacity=256 * KiB)
        alloc = ExtentMap([(0, 1 * MiB)])
        run(env, cache.read("cold", 0, 128 * KiB, alloc))
        run(env, cache.read("hot", 0, 128 * KiB, alloc))
        # Touch hot again so "cold" is the LRU file, then overflow.
        run(env, cache.read("hot", 0, 128 * KiB, alloc))
        run(env, cache.read("new", 0, 128 * KiB, alloc))
        assert not cache.is_cached("cold", 0, BS)
        assert cache.is_cached("hot", 0, 128 * KiB)

    def test_dirty_data_survives_eviction(self, env):
        cache, disk = make_cache(env, capacity=128 * KiB)
        run(env, cache.write("d", 0, 64 * KiB, ExtentMap()))
        alloc = ExtentMap([(0, 4 * MiB)])
        for i in range(8):
            run(env, cache.read("filler", i * 128 * KiB,
                                (i + 1) * 128 * KiB, alloc))
        # The dirty bytes were either still dirty or written back — never
        # silently dropped.
        flushed = env.metrics.get("disk.bytes_written")
        assert cache.dirty_bytes + flushed >= 64 * KiB

    def test_usage_never_exceeds_capacity_by_much(self, env):
        cache, _ = make_cache(env, capacity=256 * KiB)
        alloc = ExtentMap([(0, 8 * MiB)])
        for i in range(16):
            run(env, cache.read("f", i * 256 * KiB, (i + 1) * 256 * KiB,
                                alloc))
            assert cache.usage <= 256 * KiB + BS


class TestThrottleBoundary:
    def test_writes_below_limit_never_throttle(self, env):
        cache, _ = make_cache(env, capacity=1 * MiB,
                              dirty_limit_fraction=0.5)
        run(env, cache.write("f", 0, 400 * KiB, ExtentMap()))
        assert env.metrics.get("cache.throttle_time") == 0

    def test_crossing_limit_throttles_down_to_limit(self, env):
        cache, _ = make_cache(env, capacity=1 * MiB,
                              dirty_limit_fraction=0.5)
        run(env, cache.write("f", 0, 900 * KiB, ExtentMap()))
        assert env.metrics.get("cache.throttle_time") > 0
        assert cache.dirty_bytes <= cache.params.dirty_limit


class TestReadahead:
    def test_readahead_amortizes_sequential_reads(self, env):
        cache, disk = make_cache(env, readahead=64 * KiB)
        alloc = ExtentMap([(0, 1 * MiB)])
        for i in range(16):
            run(env, cache.read("f", i * BS, (i + 1) * BS, alloc))
        # One 64 KiB window covered all 16 block reads.
        assert env.metrics.get("disk.reads") == 1

    def test_readahead_never_reads_past_allocation(self, env):
        cache, disk = make_cache(env, readahead=1 * MiB)
        alloc = ExtentMap([(0, 8 * KiB)])
        run(env, cache.read("f", 0, 4 * KiB, alloc))
        assert env.metrics.get("disk.bytes_read") == 8 * KiB


class TestFlusherLifecycle:
    def test_start_flusher_idempotent(self, env):
        cache, _ = make_cache(env)
        cache.start_flusher()
        first = cache._flusher_proc
        cache.start_flusher()
        assert cache._flusher_proc is first

    def test_flusher_leaves_small_dirty_sets_alone(self, env):
        cache, disk = make_cache(env, capacity=1 * MiB)
        cache.start_flusher()
        run(env, cache.write("f", 0, 32 * KiB, ExtentMap()))  # < background
        env.run(until=env.now + 5)
        assert env.metrics.get("disk.bytes_written") == 0  # below the background limit

    def test_flusher_writes_back_in_file_order(self, env):
        # Elevator-ish behaviour: one file's extents flush in ascending
        # offset order (sequential disk pattern).
        cache, disk = make_cache(env, capacity=64 * MiB)
        run(env, cache.write("f", 0, 8 * MiB, ExtentMap()))
        run(env, cache.fsync("f"))
        # All writeback was sequential after the first positioning.
        assert env.metrics.get("disk.seeks") == 1


class TestConcurrentWriteback:
    def test_fsync_and_flusher_never_double_write(self, env):
        cache, disk = make_cache(env, capacity=64 * MiB)
        cache.start_flusher()
        run(env, cache.write("f", 0, 16 * MiB, ExtentMap()))

        def sync1():
            yield from cache.fsync("f")

        def sync2():
            yield from cache.fsync("f")

        p1, p2 = env.process(sync1()), env.process(sync2())
        env.run(until=env.all_of([p1, p2]))
        assert env.metrics.get("disk.bytes_written") == 16 * MiB
        assert cache.dirty_bytes == 0

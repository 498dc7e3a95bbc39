"""Tests for the page-cache model (the Section 5.2 / Fig 7 mechanisms)."""

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


def make_cache(env, capacity=1 * MiB, block_size=BS, disk_bw=50 * MBps):
    disk = Disk(env, "n0",
                DiskParams(bandwidth=disk_bw, seek=0.005, per_op=0.0001))
    cache = PageCache(env, "n0",
                      CacheParams(capacity=capacity, block_size=block_size),
                      disk)
    return cache, disk


def run(env, gen):
    p = env.process(gen)
    env.run(until=p)
    return p.value


class TestReadPath:
    def test_sparse_read_costs_nothing(self, env):
        cache, disk = make_cache(env)
        run(env, cache.read("f", 0, 64 * KiB, ExtentMap()))
        assert env.metrics.get("disk.reads") == 0
        assert env.now == 0

    def test_cold_read_hits_disk(self, env):
        cache, disk = make_cache(env)
        allocated = ExtentMap([(0, 64 * KiB)])
        run(env, cache.read("f", 0, 64 * KiB, allocated))
        assert env.metrics.get("disk.reads") == 1
        assert env.metrics.get("cache.miss_bytes") == 64 * KiB

    def test_warm_read_is_free(self, env):
        cache, disk = make_cache(env)
        allocated = ExtentMap([(0, 64 * KiB)])
        run(env, cache.read("f", 0, 64 * KiB, allocated))
        t_cold = env.now
        run(env, cache.read("f", 0, 64 * KiB, allocated))
        assert env.now == t_cold
        assert env.metrics.get("disk.reads") == 1
        assert env.metrics.get("cache.hit_bytes") == 64 * KiB

    def test_partial_hit_reads_only_gap(self, env):
        cache, disk = make_cache(env)
        allocated = ExtentMap([(0, 128 * KiB)])
        run(env, cache.read("f", 0, 64 * KiB, allocated))
        run(env, cache.read("f", 0, 128 * KiB, allocated))
        assert env.metrics.get("disk.bytes_read") == 128 * KiB  # no double read

    def test_read_extends_to_readahead_window(self, env):
        cache, disk = make_cache(env)
        allocated = ExtentMap([(0, 1 * MiB)])
        run(env, cache.read("f", 100, 200, allocated))
        # Linux-2.4-style readahead: a tiny cold read pulls a full window.
        assert env.metrics.get("disk.bytes_read") == cache.params.readahead

    def test_read_clipped_to_allocation(self, env):
        cache, disk = make_cache(env)
        allocated = ExtentMap([(0, 8 * KiB)])
        run(env, cache.read("f", 100, 200, allocated))
        assert env.metrics.get("disk.bytes_read") == 8 * KiB


class TestWritePath:
    def test_aligned_write_no_penalty(self, env):
        cache, disk = make_cache(env)
        allocated = ExtentMap([(0, 1 * MiB)])  # preexisting file
        run(env, cache.write("f", 0, 64 * KiB, allocated))
        assert env.metrics.get("cache.partial_block_reads") == 0
        assert env.metrics.get("disk.reads") == 0

    def test_unaligned_write_to_existing_uncached_file_reads_blocks(self, env):
        cache, disk = make_cache(env)
        allocated = ExtentMap([(0, 1 * MiB)])
        # Both edges mid-block: two penalty reads.
        run(env, cache.write("f", 100, 64 * KiB + 200, allocated))
        assert env.metrics.get("cache.partial_block_reads") == 2
        assert env.metrics.get("disk.reads") == 2

    def test_unaligned_write_to_new_file_no_penalty(self, env):
        cache, disk = make_cache(env)
        run(env, cache.write("f", 100, 64 * KiB + 200, ExtentMap()))
        assert env.metrics.get("cache.partial_block_reads") == 0

    def test_unaligned_write_to_cached_file_no_penalty(self, env):
        cache, disk = make_cache(env)
        allocated = ExtentMap([(0, 1 * MiB)])
        run(env, cache.read("f", 0, 128 * KiB, allocated))  # warm it
        run(env, cache.write("f", 100, 64 * KiB, allocated))
        assert env.metrics.get("cache.partial_block_reads") == 0

    def test_chunked_arrival_multiplies_penalty(self, env):
        # Section 5.2: without write buffering, every unaligned chunk
        # boundary forces a block read on a preexisting uncached file.
        cache, disk = make_cache(env)
        allocated = ExtentMap([(0, 4 * MiB)])
        start = 100  # unaligned start
        end = start + 256 * KiB
        cuts = list(range(start + 64 * KiB, end, 64 * KiB))
        run(env, cache.write("f", start, end, allocated, cut_points=cuts))
        # 4 chunks -> penalty at start, 3 interior cuts and the end.
        assert env.metrics.get("cache.partial_block_reads") == 5

    def test_buffered_arrival_bounded_penalty(self, env):
        cache, disk = make_cache(env)
        allocated = ExtentMap([(0, 4 * MiB)])
        run(env, cache.write("f", 100, 100 + 256 * KiB, allocated))
        assert env.metrics.get("cache.partial_block_reads") == 2

    def test_write_marks_dirty(self, env):
        cache, disk = make_cache(env)
        run(env, cache.write("f", 0, 64 * KiB, ExtentMap()))
        assert cache.dirty_bytes == 64 * KiB
        assert env.metrics.get("disk.writes") == 0  # write-behind


class TestWritebackAndThrottle:
    def test_fsync_flushes_everything(self, env):
        cache, disk = make_cache(env)
        run(env, cache.write("f", 0, 256 * KiB, ExtentMap()))
        run(env, cache.fsync("f"))
        assert cache.dirty_bytes == 0
        assert env.metrics.get("disk.bytes_written") == 256 * KiB

    def test_fsync_unknown_file_is_noop(self, env):
        cache, disk = make_cache(env)
        run(env, cache.fsync("nope"))
        assert env.metrics.get("disk.writes") == 0

    def test_dirty_limit_throttles_writer(self, env):
        cache, disk = make_cache(env, capacity=1 * MiB)
        # dirty limit = 40% of 1 MiB; write 2 MiB total.
        alloc = ExtentMap()
        for i in range(8):
            run(env, cache.write("f", i * 256 * KiB, (i + 1) * 256 * KiB,
                                 alloc))
        assert env.metrics.get("cache.throttle_time") > 0
        assert cache.dirty_bytes <= cache.params.dirty_limit

    def test_background_flusher_drains_dirty(self, env):
        cache, disk = make_cache(env, capacity=64 * MiB)
        cache.start_flusher()
        run(env, cache.write("f", 0, 32 * MiB, ExtentMap()))
        env.run(until=env.now + 10)
        assert cache.dirty_bytes <= cache.params.background_limit
        assert env.metrics.get("disk.bytes_written") >= 32 * MiB - cache.params.background_limit

    def test_eviction_keeps_usage_bounded(self, env):
        cache, disk = make_cache(env, capacity=1 * MiB)
        allocated = ExtentMap([(0, 16 * MiB)])
        for i in range(16):
            run(env, cache.read("f", i * MiB, (i + 1) * MiB, allocated))
        assert cache.usage <= 1 * MiB

    def test_drop_syncs_then_forgets(self, env):
        cache, disk = make_cache(env)
        allocated = ExtentMap([(0, 1 * MiB)])
        run(env, cache.write("f", 0, 256 * KiB, allocated))
        run(env, cache.drop())
        assert cache.usage == 0
        assert cache.dirty_bytes == 0
        assert env.metrics.get("disk.bytes_written") == 256 * KiB
        # Next read is cold again.
        reads_before = env.metrics.get("disk.reads")
        run(env, cache.read("f", 0, 64 * KiB, allocated))
        assert env.metrics.get("disk.reads") > reads_before


class TestCacheStateQueries:
    def test_is_cached(self, env):
        cache, _ = make_cache(env)
        run(env, cache.write("f", 0, 8 * KiB, ExtentMap()))
        assert cache.is_cached("f", 0, 8 * KiB)
        assert not cache.is_cached("f", 0, 16 * KiB)
        assert not cache.is_cached("g", 0, 1)

    def test_cached_extents_copy(self, env):
        cache, _ = make_cache(env)
        run(env, cache.write("f", 0, 4 * KiB, ExtentMap()))
        ext = cache.cached_extents("f")
        ext.remove(0, 4 * KiB)
        assert cache.is_cached("f", 0, 4 * KiB)

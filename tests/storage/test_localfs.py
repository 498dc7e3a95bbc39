"""Tests for the cache-mediated local file system."""

import pytest

from repro.hw.node import Node
from repro.hw.params import get_profile
from repro.sim import Environment
from repro.storage.localfs import LocalFS
from repro.storage.payload import Payload
from repro.errors import FileNotFound
from repro.units import KiB


@pytest.fixture
def env():
    return Environment()


def make_fs(env, write_buffering=True):
    node = Node(env, "iod0", get_profile("osu8"))
    return LocalFS(node, content_mode=True, write_buffering=write_buffering)


def run(env, gen):
    p = env.process(gen)
    env.run(until=p)
    return p.value


class TestBasics:
    def test_write_read_roundtrip(self, env):
        fs = make_fs(env)
        run(env, fs.write("data", 0, Payload.from_bytes(b"abc")))
        out = run(env, fs.read("data", 0, 3))
        assert out.to_bytes() == b"abc"

    def test_read_missing_file_creates_empty(self, env):
        # PVFS iods create local files lazily; reading uncreated regions
        # yields zeros, like a sparse file.
        fs = make_fs(env)
        out = run(env, fs.read("nofile", 0, 4))
        assert out.to_bytes() == b"\x00" * 4

    def test_file_size_errors_on_missing(self, env):
        fs = make_fs(env)
        with pytest.raises(FileNotFound):
            fs.file_size("ghost")

    def test_listing(self, env):
        fs = make_fs(env)
        run(env, fs.write("a", 0, Payload.zeros(10)))
        run(env, fs.write("b", 5, Payload.zeros(10)))
        assert fs.listing() == {"a": 10, "b": 15}

    def test_total_size(self, env):
        fs = make_fs(env)
        run(env, fs.write("a", 0, Payload.zeros(10)))
        run(env, fs.write("b", 0, Payload.zeros(30)))
        assert fs.total_size() == 40
        assert fs.total_size(["a"]) == 10
        assert fs.total_size(["a", "ghost"]) == 10


class TestTimingIntegration:
    def test_write_faster_than_disk_until_fsync(self, env):
        fs = make_fs(env)
        run(env, fs.write("a", 0, Payload.zeros(1 * KiB * KiB)))
        t_write = env.now
        run(env, fs.fsync("a"))
        assert env.now > t_write  # fsync paid the disk time
        assert env.metrics.get("disk.bytes_written") == 1 * KiB * KiB

    def test_warm_read_free_after_write(self, env):
        fs = make_fs(env)
        run(env, fs.write("a", 0, Payload.zeros(64 * KiB)))
        t0 = env.now
        run(env, fs.read("a", 0, 64 * KiB))
        assert env.now == t0
        assert env.metrics.get("disk.reads") == 0

    def test_cold_read_after_drop_hits_disk(self, env):
        fs = make_fs(env)
        run(env, fs.write("a", 0, Payload.zeros(64 * KiB)))
        run(env, fs.drop_caches())
        run(env, fs.read("a", 0, 64 * KiB))
        assert env.metrics.get("disk.reads") > 0

    def test_content_survives_cache_drop(self, env):
        fs = make_fs(env)
        run(env, fs.write("a", 0, Payload.pattern(8 * KiB, 5)))
        run(env, fs.drop_caches())
        assert run(env, fs.read("a", 0, 8 * KiB)) == Payload.pattern(8 * KiB, 5)


class TestWriteBuffering:
    def _overwrite_unaligned(self, env, buffering):
        fs = make_fs(env, write_buffering=buffering)
        # Preexisting file, then drop caches (the Section 5.2 scenario).
        run(env, fs.write("a", 0, Payload.zeros(1024 * KiB)))
        run(env, fs.drop_caches())
        run(env, fs.write("a", 100, Payload.zeros(512 * KiB)))
        return env.metrics.get("cache.partial_block_reads")

    def test_buffered_bounded_penalty(self, env):
        assert self._overwrite_unaligned(env, buffering=True) <= 2

    def test_unbuffered_per_chunk_penalty(self):
        env = Environment()
        penalty = self._overwrite_unaligned(env, buffering=False)
        # 512 KiB in 64 KiB chunks -> one partial block per boundary.
        assert penalty >= 8

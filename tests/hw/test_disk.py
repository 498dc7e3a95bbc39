"""Tests for the disk model."""

import pytest

from repro.hw.disk import Disk
from repro.hw.params import DiskParams
from repro.sim import Environment
from repro.units import MBps


@pytest.fixture
def env():
    return Environment()


def make_disk(env, bw=50 * MBps, seek=0.008, per_op=0.0002):
    return Disk(env, "n0", DiskParams(bandwidth=bw, seek=seek, per_op=per_op))


class TestDisk:
    def test_first_op_pays_seek(self, env):
        disk = make_disk(env)

        def proc():
            yield from disk.write("f", 0, 5_000_000)
            return env.now

        p = env.process(proc())
        assert env.run(until=p) == pytest.approx(0.008 + 0.0002 + 0.1)
        assert env.metrics.get("disk.seeks") == 1

    def test_sequential_skips_seek(self, env):
        disk = make_disk(env)

        def proc():
            yield from disk.write("f", 0, 1_000_000)
            yield from disk.write("f", 1_000_000, 1_000_000)

        env.process(proc())
        env.run()
        assert env.metrics.get("disk.seeks") == 1
        assert env.metrics.get("disk.writes") == 2

    def test_different_file_breaks_sequentiality(self, env):
        disk = make_disk(env)

        def proc():
            yield from disk.write("f", 0, 1_000_000)
            yield from disk.write("g", 1_000_000, 1_000_000)

        env.process(proc())
        env.run()
        assert env.metrics.get("disk.seeks") == 2

    def test_backward_offset_breaks_sequentiality(self, env):
        disk = make_disk(env)

        def proc():
            yield from disk.write("f", 1_000_000, 1_000_000)
            yield from disk.write("f", 0, 1_000_000)

        env.process(proc())
        env.run()
        assert env.metrics.get("disk.seeks") == 2

    def test_interleaved_read_write_thrashes(self, env):
        # The Fig 6b/7b mechanism: alternating RMW reads and writeback.
        disk = make_disk(env)

        def proc():
            for i in range(4):
                yield from disk.read("old", i * 4096, 4096)
                yield from disk.write("new", i * 4096, 4096)

        env.process(proc())
        env.run()
        assert env.metrics.get("disk.seeks") == 8  # every op repositions

    def test_zero_byte_op_is_free(self, env):
        disk = make_disk(env)

        def proc():
            yield from disk.write("f", 0, 0)
            return env.now

        p = env.process(proc())
        assert env.run(until=p) == 0
        assert env.metrics.get("disk.writes") == 0

    def test_serialization_between_processes(self, env):
        disk = make_disk(env, seek=0.0, per_op=0.0)
        done = []

        def proc():
            yield from disk.write("f", 0, 25_000_000)
            done.append(env.now)

        env.process(proc())
        env.process(proc())
        env.run()
        assert max(done) == pytest.approx(1.0)  # 2 x 0.5 s serialized

    def test_stats_and_metrics(self, env):
        disk = make_disk(env)

        def proc():
            yield from disk.write("f", 0, 1000)
            yield from disk.read("f", 0, 500)

        env.process(proc())
        env.run()
        metrics = env.metrics
        assert metrics.get("disk.bytes_read") == 500
        assert metrics.get("disk.writes") == 1
        assert metrics.get("disk.reads") == 1
        assert metrics.get("disk.bytes_written") == 1000
        assert metrics.get("disk.seeks") == 2

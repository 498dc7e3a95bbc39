"""Deeper Section 5.2 behaviour: how chunked arrival, alignment and
per-server granularity interact."""

import pytest

from repro import CSARConfig, Payload, System
from repro.hw.node import Node
from repro.hw.params import get_profile
from repro.sim import Environment
from repro.storage.localfs import LocalFS
from repro.units import KiB


def run(env, gen):
    p = env.process(gen)
    env.run(until=p)
    return p.value


def make_fs(env, buffering):
    node = Node(env, "iod0", get_profile("osu8"))
    return LocalFS(node, content_mode=False, write_buffering=buffering)


class TestCutPoints:
    def test_buffered_has_no_interior_cuts(self):
        env = Environment()
        fs = make_fs(env, buffering=True)
        assert fs._cut_points(100, 1024 * KiB) == []

    def test_unbuffered_cuts_at_net_chunks(self):
        env = Environment()
        fs = make_fs(env, buffering=False)
        chunk = fs.node.profile.net_chunk
        cuts = fs._cut_points(100, 3 * chunk)
        assert cuts == [100 + chunk, 100 + 2 * chunk]

    def test_request_smaller_than_chunk_has_no_cuts(self):
        env = Environment()
        fs = make_fs(env, buffering=False)
        assert fs._cut_points(100, 1000) == []


class TestSystemLevelBuffering:
    def _penalties(self, buffering, offset):
        system = System(CSARConfig(scheme="raid0", num_servers=6,
                                   num_clients=1, stripe_unit=64 * KiB,
                                   content_mode=False,
                                   write_buffering=buffering))
        client = system.client()

        def setup():
            yield from client.create("f")
            yield from client.write("f", 0, Payload.virtual(4096 * KiB))

        system.run(setup())
        system.drop_all_caches()

        def rewrite():
            yield from client.write("f", offset,
                                    Payload.virtual(2048 * KiB))

        system.run(rewrite())
        return system.metrics.get("cache.partial_block_reads")

    def test_aligned_overwrite_never_pays(self):
        # 4 KiB-aligned offsets: even unbuffered chunk boundaries land on
        # block boundaries (net_chunk is a multiple of the block size).
        assert self._penalties(buffering=False, offset=0) == 0
        assert self._penalties(buffering=True, offset=0) == 0

    def test_unaligned_overwrite_pays_per_server_chunk(self):
        buffered = self._penalties(buffering=True, offset=100)
        unbuffered = self._penalties(buffering=False, offset=100)
        assert unbuffered > 2 * buffered > 0

    def test_new_file_never_pays_either_way(self):
        for buffering in (True, False):
            system = System(CSARConfig(scheme="raid0", num_servers=6,
                                       num_clients=1, stripe_unit=64 * KiB,
                                       content_mode=False,
                                       write_buffering=buffering))
            client = system.client()

            def work():
                yield from client.create("f")
                yield from client.write("f", 100,
                                        Payload.virtual(1024 * KiB))

            system.run(work())
            assert system.metrics.get("cache.partial_block_reads") == 0

    def test_padding_partial_blocks_removes_the_drop(self):
        # The paper's diagnostic: "we artificially padded all partial
        # block writes ... this change resulted in about the same
        # bandwidth for the initial write and the overwrite cases."
        # Aligned (padded) rewrites time the same warm or cold.
        system = System(CSARConfig(scheme="raid0", num_servers=6,
                                   num_clients=1, stripe_unit=64 * KiB,
                                   content_mode=False))
        client = system.client()

        def initial():
            yield from client.create("f")
            yield from client.write("f", 0, Payload.virtual(2048 * KiB))

        t_initial, _ = system.timed(initial())
        system.drop_all_caches()

        def overwrite():
            yield from client.write("f", 0, Payload.virtual(2048 * KiB))

        t_overwrite, _ = system.timed(overwrite())
        assert t_overwrite == pytest.approx(t_initial, rel=0.1)

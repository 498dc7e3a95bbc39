"""System-level integration tests."""

import pytest

from repro import CSARConfig, Payload, System
from repro.errors import ConfigError, FileExists, FileNotFound
from repro.units import KiB


def make_system(**kw):
    kw.setdefault("scheme", "hybrid")
    kw.setdefault("num_servers", 6)
    kw.setdefault("stripe_unit", 16 * KiB)
    kw.setdefault("content_mode", True)
    return System(CSARConfig(**kw))


class TestAssembly:
    def test_node_counts(self):
        system = make_system(num_servers=4, num_clients=3)
        assert len(system.iods) == 4
        assert len(system.clients) == 3
        assert len(system.server_nodes) == 4

    def test_shared_metrics_object(self):
        system = make_system()
        assert system.metrics is system.env.metrics
        assert system.iods[0].env is system.env
        assert system.clients[0].env is system.env
        assert system.manager.env is system.env

    def test_run_requires_processes(self):
        with pytest.raises(ConfigError):
            make_system().run()

    def test_timed_returns_elapsed_and_value(self):
        system = make_system()

        def proc():
            yield system.env.timeout(2.5)
            return "done"

        elapsed, value = system.timed(proc())
        assert elapsed == 2.5
        assert value == "done"

    def test_run_multiple_returns_all_values(self):
        system = make_system()

        def proc(k):
            yield system.env.timeout(k)
            return k

        values = system.run(proc(1), proc(2))
        assert values == [1, 2]


class TestNamespace:
    def test_create_open_roundtrip(self):
        system = make_system()
        client = system.client()

        def work():
            meta = yield from client.create("f")
            again = yield from client.open("f")
            return meta, again

        meta, again = system.run(work())
        assert meta is again  # cached handle

    def test_double_create_rejected(self):
        system = make_system()
        client = system.client()

        def work():
            yield from client.create("f")
            with pytest.raises(FileExists):
                yield from client.create("f")

        system.run(work())

    def test_open_missing_rejected(self):
        system = make_system()
        client = system.client()

        def work():
            with pytest.raises(FileNotFound):
                yield from client.open("ghost")

        system.run(work())

    def test_meta_size_tracks_writes(self):
        system = make_system()
        client = system.client()

        def work():
            yield from client.create("f")
            yield from client.write("f", 100, Payload.zeros(50))
            yield from client.write("f", 10, Payload.zeros(5))

        system.run(work())
        assert system.manager.files["f"].size == 150

    def test_two_clients_share_namespace(self):
        system = make_system(num_clients=2)
        data = Payload.pattern(10 * KiB, seed=4)

        def writer():
            c = system.client(0)
            yield from c.create("f")
            yield from c.write("f", 0, data)

        system.run(writer())

        def reader():
            c = system.client(1)
            out = yield from c.read("f", 0, data.length)
            return out

        assert system.run(reader()) == data


class TestControls:
    def test_drop_all_caches_forces_cold_reads(self):
        system = make_system()
        client = system.client()

        def write():
            yield from client.create("f")
            yield from client.write("f", 0, Payload.zeros(256 * KiB))

        system.run(write())
        system.drop_all_caches()
        reads_before = system.metrics.get("disk.reads")

        def read():
            yield from client.read("f", 0, 256 * KiB)

        system.run(read())
        assert system.metrics.get("disk.reads") > reads_before

    def test_sync_all_flushes_dirty(self):
        system = make_system()
        client = system.client()

        def write():
            yield from client.create("f")
            yield from client.write("f", 0, Payload.zeros(256 * KiB))

        system.run(write())
        system.sync_all()
        assert all(iod.node.cache.dirty_bytes == 0 for iod in system.iods)

    def test_fail_server_counted(self):
        system = make_system()
        system.fail_server(1)
        assert system.iods[1].failed
        assert system.metrics.get("failures.injected") == 1


class TestAccounting:
    def test_storage_report_empty_file(self):
        system = make_system()
        client = system.client()

        def work():
            yield from client.create("f")

        system.run(work())
        report = system.storage_report("f")
        assert report["total"] == 0

    def test_overflow_stats_empty(self):
        system = make_system()
        assert system.overflow_stats("nope") == {
            "live": 0, "allocated": 0, "fragmentation": 0}

    def test_raid0_report_has_no_redundancy(self):
        system = make_system(scheme="raid0")
        client = system.client()

        def work():
            yield from client.create("f")
            yield from client.write("f", 0, Payload.zeros(100 * KiB))

        system.run(work())
        report = system.storage_report("f")
        assert report["data"] == 100 * KiB
        assert report["red"] == report["ovf"] == report["ovfm"] == 0


class TestDeterminism:
    def test_identical_runs_identical_timing(self):
        def run_once():
            system = make_system(scheme="raid5", num_clients=3,
                                 content_mode=False)
            from repro.workloads.romio_perf import perf_benchmark
            results = perf_benchmark(system, buffer_size=512 * KiB, rounds=2)
            return (results["write"].elapsed, results["read"].elapsed,
                    system.metrics.get("net.bytes"))

        assert run_once() == run_once()

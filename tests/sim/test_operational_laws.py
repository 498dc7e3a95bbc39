"""Operational laws on the primitives and the hardware built on them.

A FIFO server's bookkeeping is an identity, not an estimate: the busy
time of a processor is the sum of the service it accepted (the
utilization law), and the waits of a FIFO queue follow Lindley's
recursion, ``start_n = max(arrival_n, departure_{n-1})`` — the FIFO
disk model Thomasian's analysis of mirrored and hybrid arrays builds on
(PAPERS.md).  Each test drives a primitive, a disk or a set of NICs with
a seeded random mix of work (process holds and bare-entry holds where
both exist) and checks its statistics against a reference computed
here.  The flow-balance tests check the run's ledger (``env.metrics``)
on whole systems: every byte one node sends is a byte another receives.
"""

import heapq
import math
import random

import pytest

from repro import CSARConfig, Payload, System
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec, Trigger
from repro.hw.cpu import Cpu
from repro.hw.disk import Disk
from repro.hw.link import NIC, _Stream, send
from repro.hw.params import CpuParams, DiskParams, NetworkParams
from repro.mpiio import MPIFile, strided
from repro.sim import Environment, Resource, engine
from repro.sim.resources import FifoServer
from repro.units import KiB, MBps

SEEDS = range(6)


def arrivals(rng, n, tie_share=0.2):
    """``n`` arrival times, a share of them repeating an earlier one."""
    times = []
    for _ in range(n):
        if times and rng.random() < tie_share:
            times.append(rng.choice(times))
        else:
            times.append(rng.uniform(0.0, 2.0))
    return times


@pytest.mark.parametrize("seed", SEEDS)
def test_cpu_busy_time_is_the_service_it_accepted(seed):
    rng = random.Random(seed)
    env = Environment()
    params = CpuParams(parity_bandwidth=1e9, parity_bandwidth_bytewise=1e8,
                       request_overhead=1e-5, kernel_module_overhead=1e-4,
                       byte_rate=40 * MBps)
    cpu = Cpu(env, "s", params)
    net = NetworkParams(bandwidth=100 * MBps, latency=1e-4,
                        per_message=1e-5, segment=64 * 1024)
    nics = [NIC(env, f"n{i}", net) for i in range(3)]
    service = []
    done = []

    def occupy(nbytes):
        yield from cpu.process_bytes(nbytes)
        done.append(env.now)

    for t in arrivals(rng, 60):
        nbytes = rng.randrange(1, 400_000)
        if rng.random() < 0.5:  # a process hold
            env.call_later(t, lambda n=nbytes: env.process(occupy(n)))
            service.append(nbytes / params.byte_rate)
        else:  # a stream: one bare-entry hold per segment
            src, dst = rng.sample(nics, 2)
            cpu_at = rng.choice(["src", "dst"])
            env.call_later(t, lambda s=src, d=dst, n=nbytes, a=cpu_at: send(
                env, s, d, n, lambda: done.append(env.now), cpu=cpu,
                cpu_at=a))
            full, tail = divmod(nbytes, net.segment)
            service += [net.segment / params.byte_rate] * full
            if tail:
                service.append(tail / params.byte_rate)
    env.run()
    assert len(done) == 60
    assert cpu.busy_time == pytest.approx(math.fsum(service), rel=1e-12)
    assert cpu.busy_time <= env.now  # utilization at most 1


@pytest.mark.parametrize("seed", SEEDS)
def test_fifo_server_waits_follow_lindley(seed):
    rng = random.Random(seed)
    env = Environment()
    server = FifoServer(env)
    jobs = [(t, rng.expovariate(8.0), rng.random() < 0.5)
            for t in arrivals(rng, 80)]
    departed = {}

    def by_process(i, service):
        yield server.hold(service)
        departed[i] = env.now

    for i, (t, service, as_process) in enumerate(jobs):
        if as_process:
            env.call_later(t, lambda i=i, s=service: env.process(
                by_process(i, s)))
        else:
            env.call_later(t, lambda i=i, s=service: server.hold_then(
                s, lambda: departed.__setitem__(i, env.now)))
    env.run()

    # Lindley's recursion over the jobs in arrival order (ties in the
    # order they were scheduled, which is dispatch order)
    free_at = 0.0
    waits, wait_time = 0, 0.0
    expected = {}
    for i in sorted(range(len(jobs)), key=lambda i: (jobs[i][0], i)):
        arrival, service, _ = jobs[i]
        if free_at > arrival:
            waits += 1
            wait_time += free_at - arrival
            start = free_at
        else:
            start = arrival
        free_at = expected[i] = start + service
    assert departed == expected
    assert server.free_at == free_at
    assert (server.total_waits, server.total_wait_time) == (waits, wait_time)


def fifo_resource_run(jobs, capacity, mode):
    """Run ``(arrival, hold)`` jobs against a Resource; ``mode`` picks
    each claim's form: ``"process"``, ``"continuation"`` or per job."""
    env = Environment()
    res = Resource(env, capacity=capacity)

    def by_process(hold):
        with res.request() as req:
            yield req
            yield env.timeout(hold)

    def by_continuation(hold):
        res.request(lambda claim: env.call_later(
            hold, lambda: res.release(claim)))

    for (arrival, hold), form in zip(jobs, mode):
        if form == "process":
            env.call_later(arrival, lambda h=hold: env.process(by_process(h)))
        else:
            env.call_later(arrival, lambda h=hold: by_continuation(h))
    env.run()
    assert res.count == 0 and not res.queue
    return res.total_waits, res.total_wait_time


@pytest.mark.parametrize("seed", SEEDS)
def test_resource_waits_do_not_depend_on_the_claim_form(seed):
    rng = random.Random(seed)
    capacity = rng.choice([1, 2, 3])
    jobs = sorted((rng.uniform(0.0, 2.0), rng.expovariate(4.0 / capacity))
                  for _ in range(80))
    mixed = [rng.choice(["process", "continuation"]) for _ in jobs]
    runs = {name: fifo_resource_run(jobs, capacity, mode) for name, mode in (
        ("process", ["process"] * len(jobs)),
        ("continuation", ["continuation"] * len(jobs)),
        ("mixed", mixed))}

    # FIFO over ``capacity`` slots: each job starts at its arrival or
    # when the earliest slot frees, whichever is later
    free = [0.0] * capacity
    waits, wait_time = 0, 0.0
    for arrival, hold in jobs:
        earliest = heapq.heappop(free)
        start = arrival
        if earliest > arrival:
            waits += 1
            wait_time += earliest - arrival
            start = earliest
        heapq.heappush(free, start + hold)
    for total_waits, total_wait_time in runs.values():
        assert total_waits == waits
        assert total_wait_time == pytest.approx(wait_time, rel=1e-12)
    assert runs["process"] == runs["continuation"] == runs["mixed"]


@pytest.mark.parametrize("seed", SEEDS)
def test_disk_busy_time_is_the_io_time_of_its_ops(seed):
    rng = random.Random(seed)
    env = Environment()
    params = DiskParams(bandwidth=30 * MBps, seek=7e-3, per_op=2e-4)
    disk = Disk(env, "s", params)
    files = ("a", "b", "c")
    cursor = dict.fromkeys(files, 0)
    served = []

    def op(arrival, name, offset, nbytes, write):
        yield from disk.io(name, offset, nbytes, write)
        served.append((arrival, name, offset, nbytes, env.now))

    for t in sorted(arrivals(rng, 60)):
        name = rng.choice(files)
        nbytes = rng.randrange(1, 256 * 1024)
        # half the ops continue their file where its last one ended
        offset = (cursor[name] if rng.random() < 0.5
                  else rng.randrange(0, 1 << 22))
        cursor[name] = offset + nbytes
        env.call_later(t, lambda a=(t, name, offset, nbytes,
                                    rng.random() < 0.5): env.process(op(*a)))
    env.run()

    # one spindle, FIFO: the ops end in the order they were served; an
    # op is sequential when it continues the previous op's file and end
    head, free_at, service, seeks = None, 0.0, [], 0
    for arrival, name, offset, nbytes, departed in served:
        sequential = head == (name, offset)
        seeks += not sequential
        service.append(params.io_time(nbytes, sequential))
        free_at = max(arrival, free_at) + service[-1]
        assert departed == pytest.approx(free_at, rel=1e-12)
        head = (name, offset + nbytes)
    assert len(served) == 60 and 0 < seeks < 60
    assert env.metrics.get("disk.seeks") == seeks
    assert disk.busy_time == pytest.approx(math.fsum(service), rel=1e-12)
    assert disk.busy_time <= env.now


def watch_busy(env, nic, busy):
    """Accumulate, into ``busy[nic.node_name]``, how long ``nic``'s RX
    side is occupied (from its ``free_at``, not the hold asked for) and
    how long its TX side has a slot held."""
    rx, tx = nic.rx, nic.tx
    hold_then, request, release = rx.hold_then, tx.request, tx.release
    tally = busy[nic.node_name] = {"rx": 0.0, "tx": 0.0, "held_since": None}

    def occupy(duration, then):
        start = max(env.now, rx.free_at)
        hold_then(duration, then)
        tally["rx"] += rx.free_at - start

    def observe():
        if tx.users and tally["held_since"] is None:
            tally["held_since"] = env.now
        elif not tx.users and tally["held_since"] is not None:
            tally["tx"] += env.now - tally["held_since"]
            tally["held_since"] = None

    def claim(then=None):
        granted = request(then)
        observe()
        return granted

    def give_back(granted):
        release(granted)
        observe()

    rx.hold_then, tx.request, tx.release = occupy, claim, give_back


def nic_mix(seed, exclusive):
    """Run a seeded mix of sends over NICs of unequal bandwidth; return
    the measured and the expected busy time per NIC side.  With
    ``exclusive`` each sender sends only to a receiver of its own."""
    rng = random.Random(seed)
    env = Environment()
    net = NetworkParams(bandwidth=100 * MBps, latency=1e-4,
                        per_message=1e-5, segment=64 * 1024)
    cpu_params = CpuParams(parity_bandwidth=1e9,
                           parity_bandwidth_bytewise=1e8,
                           request_overhead=1e-5, kernel_module_overhead=1e-4,
                           byte_rate=rng.choice([40, 150]) * MBps)
    names = [f"n{i}" for i in range(6)]
    nics = {name: NIC(env, name, NetworkParams(
        bandwidth=rng.choice([50, 80, 100]) * MBps, latency=net.latency,
        per_message=net.per_message, segment=net.segment))
        for name in names}
    cpus = {name: Cpu(env, name, cpu_params) for name in names}
    busy = {}
    for nic in nics.values():
        watch_busy(env, nic, busy)
    expected = {name: {"rx": [], "tx": []} for name in names}
    arrived = []
    pairs = [("n0", "n1"), ("n2", "n3"), ("n4", "n5")]
    times = arrivals(rng, 50)
    for k, t in enumerate(times):
        if exclusive:
            src, dst = rng.choice(pairs)
        else:
            src, dst = rng.sample(names, 2)
        if k == 0:
            dst = src  # one loopback: no wire, no TX or RX time
        kind = rng.choice(["header", "src", "dst"])
        nbytes = (rng.randrange(1, 2048) if kind == "header"
                  else rng.randrange(1, 400_000))
        kwargs = ({"woken": rng.random() < 0.5} if kind == "header"
                  else {"cpu": cpus[src if kind == "src" else dst],
                        "cpu_at": kind})
        env.call_later(t, lambda s=nics[src], d=nics[dst], n=nbytes,
                       kw=kwargs: send(env, s, d, n,
                                       lambda: arrived.append(env.now), **kw))
        if src == dst:
            continue
        pieces = ([nbytes] if kind == "header" else
                  [net.segment] * (nbytes // net.segment)
                  + ([nbytes % net.segment] if nbytes % net.segment else []))
        bandwidth = min(nics[src].params.bandwidth, nics[dst].params.bandwidth)
        for size in pieces:
            occupancy = net.per_message + size / bandwidth
            expected[dst]["rx"].append(occupancy)
            expected[src]["tx"].append(occupancy)
    env.run()
    assert len(arrived) == len(times)
    for nic in nics.values():
        assert not nic.tx.users and not nic.tx.queue
        assert nic.rx.free_at <= env.now
    return busy, {name: {side: math.fsum(v) for side, v in sides.items()}
                  for name, sides in expected.items()}


@pytest.mark.parametrize("seed", SEEDS)
def test_nic_rx_busy_time_is_the_occupancy_it_accepted(seed):
    busy, expected = nic_mix(seed, exclusive=False)
    for name, sides in expected.items():
        assert busy[name]["rx"] == pytest.approx(sides["rx"], rel=1e-9)
        # a TX slot is also held while the flow waits for the receiver
        assert busy[name]["tx"] >= sides["tx"] * (1 - 1e-9)


@pytest.mark.parametrize("seed", SEEDS)
def test_nic_tx_is_held_for_its_occupancy_with_exclusive_receivers(seed):
    busy, expected = nic_mix(seed, exclusive=True)
    for name, sides in expected.items():
        assert busy[name]["rx"] == pytest.approx(sides["rx"], rel=1e-9)
        assert busy[name]["tx"] == pytest.approx(sides["tx"], rel=1e-9)


@pytest.fixture
def messages(monkeypatch):
    """Tally, apart from the ledger, the bytes of every message
    :func:`send` starts and of every message that arrives."""
    tally = {"started": 0, "arrived": 0}
    init = _Stream.__init__

    def spy(self, env, src, dst, nbytes, cpu, cpu_leads, then, woken):
        def arrived():
            tally["arrived"] += nbytes
            then()

        tally["started"] += nbytes
        init(self, env, src, dst, nbytes, cpu, cpu_leads, arrived, woken)

    monkeypatch.setattr(_Stream, "__init__", spy)
    return tally


def assert_flow_balance(metrics, messages):
    """At quiescence the bytes sent, received and carried agree, and
    are the bytes of the messages that arrived."""
    tx = sum(metrics.node_tx_bytes.values())
    rx = sum(metrics.node_rx_bytes.values())
    assert tx == rx == metrics.get("net.bytes") == messages["arrived"] > 0


@pytest.mark.parametrize("scheme", ["raid5", "hybrid"])
def test_flow_balance_with_partial_writes_and_a_degraded_read(
        scheme, messages):
    unit = 4 * KiB
    system = System(CSARConfig(scheme=scheme, num_servers=4, num_clients=2,
                               stripe_unit=unit, content_mode=True))
    client = system.client(0)
    image = Payload.pattern(9 * unit, seed=1)

    def populate():
        yield from client.create("f")
        yield from client.write("f", 0, image)
        yield from client.write("f", 100, Payload.pattern(700, seed=2))
        yield from system.client(1).write(
            "f", 5 * unit - 300, Payload.pattern(2 * unit, seed=3))

    def read():
        return (yield from system.client(1).read("f", 0, 9 * unit))

    system.run(populate())
    system.fail_server(1)
    system.run(read())
    assert system.metrics.get("client.degraded_reads") > 0
    assert messages["started"] == messages["arrived"]
    assert_flow_balance(system.metrics, messages)


def test_flow_balance_with_a_collective_write(messages):
    system = System(CSARConfig(scheme="hybrid", num_servers=6,
                               num_clients=4, stripe_unit=4 * KiB,
                               content_mode=True))
    f = MPIFile(system, "bt")
    record = 512
    contributions = {}
    for rank in range(4):
        pattern = strided(rank * record, block=record, stride=4 * record,
                          count=32)
        contributions[rank] = (pattern, Payload.pattern(
            pattern.total_bytes, seed=rank))

    def work():
        yield from f.open()
        yield from f.collective_write(contributions)

    system.run(work())
    assert system.metrics.get("client.bytes_written") == 4 * 32 * record
    assert messages["started"] == messages["arrived"]
    assert_flow_balance(system.metrics, messages)


def test_flow_balance_counts_a_dropped_message_on_neither_side(
        messages, monkeypatch):
    plan = FaultPlan(seed=0, scheme="raid1", num_servers=5, num_ops=4,
                     faults=[FaultSpec("link_drop", 1, Trigger("time", 0.0),
                                       count=1, direction="req")])
    plan.validate()
    engine.attach("faults", lambda env: FaultInjector(env, plan))
    try:
        system = System(CSARConfig(scheme="raid1", num_servers=5,
                                   num_clients=1, stripe_unit=1024,
                                   content_mode=True, rpc_timeout=0.25,
                                   rpc_retries=2, rpc_jitter_seed=3))
    finally:
        engine.detach("faults")
    faults = system.env.faults
    dropped = []
    link_action = faults.link_action

    def record_drops(src, dst, nbytes):
        action = link_action(src, dst, nbytes)
        if action == ("drop",):
            dropped.append(nbytes)
        return action

    monkeypatch.setattr(faults, "link_action", record_drops)
    client = system.client()

    def work():
        yield from client.create("f")
        yield from client.write("f", 0, Payload.pattern(4096, seed=9))
        return (yield from client.read("f", 0, 4096))

    assert system.run(work()) == Payload.pattern(4096, seed=9)
    assert len(dropped) == 1
    assert messages["started"] == messages["arrived"] + dropped[0]
    assert_flow_balance(system.metrics, messages)

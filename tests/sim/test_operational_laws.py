"""Operational laws on the two primitives with bare-entry holds.

A FIFO server's bookkeeping is an identity, not an estimate: the busy
time of a processor is the sum of the service it accepted (the
utilization law), and the waits of a FIFO queue follow Lindley's
recursion, ``start_n = max(arrival_n, departure_{n-1})`` — the FIFO
disk model Thomasian's analysis of mirrored and hybrid arrays builds on
(PAPERS.md).  Each test drives a primitive with a seeded random mix of
process holds (events) and bare-entry holds (continuations) and checks
the primitive's statistics against a reference computed here.
"""

import heapq
import math
import random

import pytest

from repro.hw.cpu import Cpu
from repro.hw.link import NIC, send
from repro.hw.params import CpuParams, NetworkParams
from repro.sim import Environment, Resource
from repro.sim.resources import FifoServer
from repro.units import MBps

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

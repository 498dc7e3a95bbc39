"""The stream pipeline against the per-segment generator model it replaced.

``repro.hw.link.send`` moves a message through queue-free FIFO servers
and continuation chains, three events per segment.  The model it must
still *be* is the one below — every NIC side and CPU a ``Resource``
whose grant is an event, one generator per stage, a queue of tokens
between the stages, seven events per segment.  It is kept here as the
reference, not in ``src/``.

When no two requests for one resource are made at the same instant the
two are the same function of their inputs, to the last bit: per-flow
completion times, ``Cpu.busy_time`` and the NIC wait statistics.  When
requests tie, both serve them in dispatch order, but the reference has
more events to dispatch, so flows may swap places; what must survive is
that nothing is lost or invented: the work done, and — among flows that
only ever tie with their own kind — the completion times as a multiset.
"""

from collections import deque

from hypothesis import assume, given, settings, strategies as st

from repro.hw.cpu import Cpu
from repro.hw.link import NIC, send
from repro.hw.params import CpuParams, NetworkParams
from repro.sim import Environment, Event

SEGMENT = 1000
NODES = ("a", "b", "c")
NETWORK = NetworkParams(bandwidth=97.3e6, latency=6.17e-6,
                        per_message=2.93e-6, segment=SEGMENT)


def stream(env, src, dst, nbytes, **kwargs):
    """Process body: :func:`send` a message and wait for it to arrive."""
    done = Event(env)
    send(env, src, dst, nbytes, done.succeed, **kwargs)
    yield done


def cpu_params(byte_rate):
    return CpuParams(parity_bandwidth=1e9, parity_bandwidth_bytewise=1e8,
                     request_overhead=1e-4, kernel_module_overhead=1e-3,
                     byte_rate=byte_rate)


# -- the reference: yesterday's per-segment generator model ----------------
class RefResource:
    """One slot, FIFO queue, and an event for every grant."""

    def __init__(self, env):
        self.env, self.user, self.queue = env, None, deque()
        self.total_waits, self.total_wait_time = 0, 0.0
        self.request_times = []

    def request(self):
        req = self.env.event()
        self.request_times.append(self.env.now)
        if self.user is None and not self.queue:
            self.user = req
            req.succeed()
        else:
            self.total_waits += 1
            self.queue.append((req, self.env.now))
        return req

    def release(self, req):
        assert self.user is req
        self.user = None
        if self.queue:
            self.user, queued_at = self.queue.popleft()
            self.total_wait_time += self.env.now - queued_at
            self.user.succeed()


class RefTokens:
    """Segments handed from one stage to the next, an event per hand-off."""

    def __init__(self, env):
        self.env, self.items, self.getters = env, 0, deque()

    def put(self):
        if self.getters:
            self.getters.popleft().succeed()
        else:
            self.items += 1

    def get(self):
        ev = self.env.event()
        if self.items:
            self.items -= 1
            ev.succeed()
        else:
            self.getters.append(ev)
        return ev


class RefNode:
    def __init__(self, env, byte_rate):
        self.tx, self.rx, self.cpu = (RefResource(env) for _ in range(3))
        self.byte_rate, self.busy_time = byte_rate, 0.0


def ref_wire(env, src, dst, sizes, inbox=None, outbox=None):
    for size in sizes:
        if inbox is not None:
            yield inbox.get()
        if src is dst:
            yield env.timeout(NETWORK.per_message)
        else:
            tx_req = src.tx.request()
            yield tx_req
            rx_req = dst.rx.request()
            yield rx_req
            yield env.timeout(NETWORK.per_message + size / NETWORK.bandwidth)
            dst.rx.release(rx_req)
            src.tx.release(tx_req)
            yield env.timeout(NETWORK.latency)
        if outbox is not None:
            outbox.put()


def ref_cpu(env, node, sizes, inbox=None, outbox=None):
    for size in sizes:
        if inbox is not None:
            yield inbox.get()
        req = node.cpu.request()
        yield req
        yield env.timeout(size / node.byte_rate)
        node.busy_time += size / node.byte_rate
        node.cpu.release(req)
        if outbox is not None:
            outbox.put()


def ref_stream(env, src, dst, nbytes, cpu_at):
    sizes = [SEGMENT] * (nbytes // SEGMENT)
    if nbytes % SEGMENT:
        sizes.append(nbytes % SEGMENT)
    queue = RefTokens(env)
    if cpu_at == "dst":
        stages = [ref_wire(env, src, dst, sizes, outbox=queue),
                  ref_cpu(env, dst, sizes, inbox=queue)]
    else:
        stages = [ref_cpu(env, src, sizes, outbox=queue),
                  ref_wire(env, src, dst, sizes, inbox=queue)]
    yield env.all_of([env.process(stage) for stage in stages])


# -- running a set of flows through either model ----------------------------
def run_flows(flows, byte_rates, model):
    """Completion time of each flow, and the nodes, under ``model``."""
    env = Environment()
    if model == "reference":
        nodes = {n: RefNode(env, byte_rates[n]) for n in NODES}
    else:
        nodes = {n: (NIC(env, n, NETWORK),
                     Cpu(env, n, cpu_params(byte_rates[n]))) for n in NODES}
    done = [None] * len(flows)

    def flow(k, start, src, dst, nbytes, cpu_at):
        yield env.timeout(start)
        if model == "reference":
            yield from ref_stream(env, nodes[src], nodes[dst], nbytes, cpu_at)
        else:
            cpu = nodes[src if cpu_at == "src" else dst][1]
            yield from stream(env, nodes[src][0], nodes[dst][0], nbytes,
                              cpu=cpu, cpu_at=cpu_at)
        done[k] = env.now

    for k, spec in enumerate(flows):
        env.process(flow(k, *spec))
    env.run()
    return done, nodes, env.stats()["scheduled"]


def observed(nodes, model):
    """busy_time and TX/RX wait statistics per node."""
    out = {}
    for name, node in nodes.items():
        if model == "reference":
            tx, rx, busy = node.tx, node.rx, node.busy_time
        else:
            tx, rx, busy = node[0].tx, node[0].rx, node[1].busy_time
        out[name] = (busy, tx.total_waits, tx.total_wait_time,
                     rx.total_waits, rx.total_wait_time)
    return out


# 1-9 segments, the last one possibly short
sizes = st.builds(lambda full, tail: full * SEGMENT + tail,
                  st.integers(0, 8), st.sampled_from((1, 137, 512, SEGMENT)))
paths = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES), sizes,
                  st.sampled_from(("src", "dst")))
byte_rates = st.fixed_dictionaries(
    {n: st.sampled_from((13.1e6, 65.3e6, 211.7e6)) for n in NODES})


@st.composite
def staggered_flows(draw):
    """1-6 flows whose start offsets are distinct multiples of an
    irrational step, so requests coincide only by construction."""
    n = draw(st.integers(1, 6))
    ticks = draw(st.lists(st.integers(0, 400), min_size=n, max_size=n,
                          unique=True))
    return [(tick * 2 ** 0.5 * 1e-6,) + draw(paths) for tick in ticks]


@settings(max_examples=300, deadline=None)
@given(staggered_flows(), byte_rates)
def test_untied_flows_match_the_reference_to_the_last_bit(flows, rates):
    ref_done, ref_nodes, ref_events = run_flows(flows, rates, "reference")
    for node in ref_nodes.values():
        for resource in (node.tx, node.rx, node.cpu):
            times = resource.request_times
            assume(len(set(times)) == len(times))  # nobody tied
    done, nodes, events = run_flows(flows, rates, "pipeline")
    assert done == ref_done
    assert observed(nodes, "pipeline") == observed(ref_nodes, "reference")
    assert events < ref_events


@st.composite
def tied_flows(draw):
    """2-6 copies of one flow, started together or a few whole segment
    times apart: every request ties with a request of its own kind."""
    path = draw(paths)
    starts = draw(st.lists(st.integers(0, 2), min_size=2, max_size=6))
    step = NETWORK.per_message + SEGMENT / NETWORK.bandwidth
    return [(k * step,) + path for k in starts]


@settings(max_examples=200, deadline=None)
@given(tied_flows(), byte_rates)
def test_tied_flows_keep_the_multiset_of_completions(flows, rates):
    ref_done, ref_nodes, _ = run_flows(flows, rates, "reference")
    done, nodes, _ = run_flows(flows, rates, "pipeline")
    assert sorted(done) == sorted(ref_done)
    for name in NODES:
        assert nodes[name][1].busy_time == ref_nodes[name].busy_time

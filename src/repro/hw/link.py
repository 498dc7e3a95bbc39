"""Flow-level network model.

Each node owns a :class:`NIC` with independent transmit and receive
resources (Myrinet is full duplex).  A message transfer:

1. acquires the sender's TX slot, then the receiver's RX slot (TX and RX
   are disjoint pools, so the two-step acquisition cannot deadlock);
2. holds both for ``per_message + nbytes / min(tx_bw, rx_bw)``;
3. delivers after one additional one-way ``latency``.

Saturation behaviour is what matters for the paper's figures: many flows
out of one client serialize on its TX (RAID1's 2x bytes flatten Fig 4a);
many clients into one server serialize on its RX (the parity hot spot in
Fig 3).  Single-flow store-and-forward pipelining is approximated — a
documented limitation (DESIGN.md §6).
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional

from repro.metrics import Metrics
from repro.sim.engine import Environment, Event, Timeout
from repro.sim.resources import Resource, Store
from repro.hw.params import NetworkParams


class NIC:
    """A full-duplex network attachment for one node."""

    def __init__(self, env: Environment, node_name: str,
                 params: NetworkParams) -> None:
        self.env = env
        self.node_name = node_name
        self.params = params
        self.tx = Resource(env, capacity=1)
        self.rx = Resource(env, capacity=1)


def _apply_link_fault(env: Environment, action: tuple, src: NIC, dst: NIC,
                      nbytes: int) -> Generator[Event, Any, None]:
    """Apply an injected message fault (see :mod:`repro.faults`).

    ``drop`` parks forever — the message silently never arrives, and
    only a client RPC timeout rescues the waiter.  ``delay`` stalls the
    message before it takes the wire.  ``dup`` sends the bytes across
    the wire twice (the duplicate burns occupancy; end-to-end
    duplicate *delivery* is exercised by retry-after-delay instead,
    since retried idempotent RPCs really do arrive twice).
    """
    kind = action[0]
    if kind == "drop":
        yield env.event()  # black hole: nothing ever triggers this
    elif kind == "delay":
        yield env.timeout(action[1])
    elif kind == "dup":
        yield from _wire(env, src, dst, (nbytes,))


def _wire(env: Environment, src: NIC, dst: NIC, sizes: Iterable[int],
          inbox: Optional[Store] = None, outbox: Optional[Store] = None,
          ) -> Generator[Event, Any, None]:
    """The fault-free wire movement of one message after another.

    :func:`transfer` moves a single message; as the wire stage of
    :func:`stream` it moves a message's segments, taking a token from
    ``inbox`` before each (the sender's CPU goes first) or putting one on
    ``outbox`` after it (the receiver's CPU follows).  All segments run
    in this one generator: per segment it costs the events docs/PERF.md
    lists ("The events of one streamed segment") and no generator of its
    own.
    """
    loopback = src is dst
    per_message = src.params.per_message
    latency = src.params.latency
    bandwidth = min(src.params.bandwidth, dst.params.bandwidth)
    tx, rx = src.tx, dst.rx
    for size in sizes:
        if inbox is not None:
            yield inbox.get()
        if loopback:
            # Loopback (e.g. a client co-located with an I/O server):
            # charge only the per-message overhead, no wire time.
            yield Timeout(env, per_message)
        else:
            tx_req = tx.request()
            try:
                yield tx_req
                rx_req = rx.request()
                try:
                    yield rx_req
                    yield Timeout(env, per_message + size / bandwidth)
                finally:
                    rx.release(rx_req)
            finally:
                tx.release(tx_req)
            yield Timeout(env, latency)
        if outbox is not None:
            outbox.put(None)


def transfer(env: Environment, src: NIC, dst: NIC, nbytes: int,
             metrics: Optional[Metrics] = None) -> Generator[Event, Any, None]:
    """Process body: move ``nbytes`` from ``src``'s node to ``dst``'s node.

    Use as ``yield env.process(transfer(...))`` or ``yield from transfer(...)``.
    """
    if nbytes < 0:
        raise ValueError(f"negative transfer size {nbytes}")
    faults = env.faults
    if faults is not None:
        action = faults.link_action(src, dst, nbytes)
        if action is not None:
            yield from _apply_link_fault(env, action, src, dst, nbytes)
    yield from _wire(env, src, dst, (nbytes,))
    if metrics is not None:
        metrics.record_tx(src.node_name, nbytes)
        metrics.record_rx(dst.node_name, nbytes)


def stream(env: Environment, src: NIC, dst: NIC, nbytes: int,
           metrics: Optional[Metrics] = None, cpu=None, cpu_at: str = "dst",
           ) -> Generator[Event, Any, None]:
    """Move ``nbytes`` in segments, overlapping wire and per-byte CPU time.

    Large messages are sent in NIC-segment-sized pieces so (a) concurrent
    flows through one NIC interleave fairly, approximating TCP
    multiplexing, and (b) the per-byte data-handling cost (``cpu``, a
    :class:`~repro.hw.cpu.Cpu`) of the receiving (``cpu_at='dst'``) or
    sending (``cpu_at='src'``) node pipelines with the wire time, the way
    a real server processes a socket while more data is in flight.  The
    slower of the two stages sets the steady-state rate — this is what
    lets aggregate PVFS bandwidth scale with I/O servers until the client
    link saturates (Figure 4a).
    """
    if nbytes <= 0 or cpu is None:
        yield from transfer(env, src, dst, nbytes, metrics)
        return
    # One fault consult per *message*: the segment loop below moves
    # pieces of a single logical transfer, so drop/delay/dup apply to
    # the whole message, not per segment.
    faults = env.faults
    if faults is not None:
        action = faults.link_action(src, dst, nbytes)
        if action is not None:
            yield from _apply_link_fault(env, action, src, dst, nbytes)
    segment = src.params.segment
    sizes = [segment] * (nbytes // segment)
    if nbytes % segment:
        sizes.append(nbytes % segment)

    queue = Store(env)
    if cpu_at == "dst":
        stages = [_wire(env, src, dst, sizes, outbox=queue),
                  cpu.process_stream(sizes, inbox=queue)]
    elif cpu_at == "src":
        stages = [cpu.process_stream(sizes, outbox=queue),
                  _wire(env, src, dst, sizes, inbox=queue)]
    else:
        raise ValueError(f"cpu_at must be 'src' or 'dst', got {cpu_at!r}")
    yield env.all_of([env.process(stage) for stage in stages])
    if metrics is not None:
        metrics.record_tx(src.node_name, nbytes)
        metrics.record_rx(dst.node_name, nbytes)

"""Flow-level network model.

Each node owns a :class:`NIC` with independent transmit and receive
resources (Myrinet is full duplex).  A message transfer:

1. acquires the sender's TX slot, then takes its turn on the receiver's
   RX side (TX and RX are disjoint, so the two steps cannot deadlock);
2. occupies the RX side for ``per_message + nbytes / min(tx_bw, rx_bw)``
   once it is free, keeping the TX slot until the end of that occupancy;
3. delivers after one additional one-way ``latency``.

Saturation behaviour is what matters for the paper's figures: many flows
out of one client serialize on its TX (RAID1's 2x bytes flatten Fig 4a);
many clients into one server serialize on its RX (the parity hot spot in
Fig 3).  Single-flow store-and-forward pipelining is approximated — a
documented limitation (DESIGN.md §6).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.metrics import Metrics
from repro.sim.engine import Environment, Event, Timeout
from repro.sim.resources import FifoServer, Request, Resource
from repro.hw.params import NetworkParams


class NIC:
    """A full-duplex network attachment for one node.

    The sender learns how long it keeps its TX side only when the
    receiver takes the message, so ``tx`` is a :class:`Resource`; the
    receiver's occupancy is known by then, so ``rx`` is a queue-free
    :class:`FifoServer`.
    """

    def __init__(self, env: Environment, node_name: str,
                 params: NetworkParams) -> None:
        self.env = env
        self.node_name = node_name
        self.params = params
        self.tx = Resource(env, capacity=1)
        self.rx = FifoServer(env)


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
        yield from _wire(env, src, dst, nbytes)


def _occupancy(src: NIC, dst: NIC, nbytes: int) -> float:
    """How long ``nbytes`` occupy ``dst``'s RX side (and ``src``'s TX)."""
    params = src.params
    return params.per_message + nbytes / min(params.bandwidth,
                                             dst.params.bandwidth)


def _wire(env: Environment, src: NIC, dst: NIC,
          nbytes: int) -> Generator[Event, Any, None]:
    """The fault-free wire movement of one message.

    An interrupted waiter withdraws its queued TX claim or frees its TX
    slot; an RX occupancy already placed stands (the receiver still
    takes the bytes it accepted).
    """
    params = src.params
    if src is dst:
        # Loopback (e.g. a client co-located with an I/O server):
        # charge only the per-message overhead, no wire time.
        yield Timeout(env, params.per_message)
        return
    tx = src.tx
    tx_req = tx.request()
    try:
        yield tx_req
        yield dst.rx.hold(_occupancy(src, dst, nbytes))
    finally:
        tx.release(tx_req)
    yield Timeout(env, params.latency)


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
    yield from _wire(env, src, dst, nbytes)
    if metrics is not None:
        metrics.record_tx(src.node_name, nbytes)
        metrics.record_rx(dst.node_name, nbytes)


class _Stream:
    """One streamed message in flight: a wire stage and a CPU stage.

    Each stage takes the segments in order, one at a time.  The stage
    that goes first (the sender's CPU, or the wire when the receiver's
    CPU handles the bytes) starts its next segment as soon as it ends
    one; the other may start segment *i* once the first has ended it, so
    ``sent - computed`` (or the reverse) is the count of segments handed
    over and not yet taken up.  Both stages are chains of continuations
    on the three events per segment docs/PERF.md lists ("The events of
    one streamed segment"); ``done`` fires when the second stage ends
    the last segment.
    """

    __slots__ = ("env", "tx", "rx", "cpu", "done", "cpu_leads", "loopback",
                 "per_message", "latency", "occupancy", "last_occupancy",
                 "cpu_time", "last_cpu_time", "last", "sent", "computed",
                 "_follower_idle", "_tx_req")

    def __init__(self, env: Environment, src: NIC, dst: NIC, nbytes: int,
                 cpu, cpu_leads: bool) -> None:
        params = src.params
        segment = params.segment
        full, tail = divmod(nbytes, segment)
        byte_rate = cpu.params.byte_rate
        self.env = env
        self.tx = src.tx
        self.rx = dst.rx
        self.cpu = cpu
        self.done = Event(env)
        self.cpu_leads = cpu_leads
        self.loopback = src is dst
        self.per_message = params.per_message
        self.latency = params.latency
        self.occupancy = _occupancy(src, dst, segment)
        self.cpu_time = segment / byte_rate
        #: index of the last segment: the short tail, or a full one
        self.last = full if tail else full - 1
        self.last_occupancy = _occupancy(src, dst, tail or segment)
        self.last_cpu_time = (tail or segment) / byte_rate
        #: segments that have arrived / that the CPU has handled
        self.sent = self.computed = 0
        self._follower_idle = True
        self._tx_req: Optional[Request] = None
        if cpu_leads:
            self._compute()
        else:
            self._send()

    # -- wire stage: TX slot, RX occupancy, latency -----------------------
    def _send(self) -> None:
        if self.loopback:
            # no wire time, only the per-message overhead
            Timeout(self.env, self.per_message).callbacks.append(
                self._arrived)
        else:
            self.tx.request(self._receive)

    def _receive(self, tx_req: Request) -> None:
        """The sender's TX side is ours: occupy the receiver's RX."""
        self._tx_req = tx_req
        self.rx.hold(self.last_occupancy if self.sent == self.last
                     else self.occupancy).callbacks.append(self._sent)

    def _sent(self, _hold: Event) -> None:
        """End of the occupancy: the TX slot goes straight to the next
        flow waiting for it; the segment arrives one latency later."""
        self.tx.release(self._tx_req)
        Timeout(self.env, self.latency).callbacks.append(self._arrived)

    def _arrived(self, _event: Event) -> None:
        self.sent = sent = self.sent + 1
        if self.cpu_leads:
            if sent > self.last:
                self.done.succeed()
            elif self.computed > sent:
                self._send()
            else:
                self._follower_idle = True
        else:
            if sent <= self.last:
                self._send()
            if self._follower_idle:
                self._follower_idle = False
                self._compute()

    # -- CPU stage: one timed hold per segment ----------------------------
    def _compute(self) -> None:
        self.cpu.server.hold(
            self.last_cpu_time if self.computed == self.last
            else self.cpu_time).callbacks.append(self._computed)

    def _computed(self, _hold: Event) -> None:
        computed = self.computed
        self.cpu.busy_time += (self.last_cpu_time if computed == self.last
                               else self.cpu_time)
        self.computed = computed = computed + 1
        if self.cpu_leads:
            if computed <= self.last:
                self._compute()
            if self._follower_idle:
                self._follower_idle = False
                self._send()
        else:
            if computed > self.last:
                self.done.succeed()
            elif self.sent > computed:
                self._compute()
            else:
                self._follower_idle = True


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
    if cpu_at not in ("src", "dst"):
        raise ValueError(f"cpu_at must be 'src' or 'dst', got {cpu_at!r}")
    yield _Stream(env, src, dst, nbytes, cpu, cpu_at == "src").done
    if metrics is not None:
        metrics.record_tx(src.node_name, nbytes)
        metrics.record_rx(dst.node_name, nbytes)

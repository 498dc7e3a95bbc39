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

from typing import Any, Callable, Generator, Optional

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


def _occupancy(src: NIC, dst: NIC, nbytes: int) -> float:
    """How long ``nbytes`` occupy ``dst``'s RX side (and ``src``'s TX)."""
    params = src.params
    return params.per_message + nbytes / min(params.bandwidth,
                                             dst.params.bandwidth)


def transfer(env: Environment, src: NIC, dst: NIC, nbytes: int,
             metrics: Optional[Metrics] = None) -> Generator[Event, Any, None]:
    """Process body: move ``nbytes`` from ``src``'s node to ``dst``'s node.

    Unlike :func:`send`, the waiting process owns the message's TX claim:
    interrupting it withdraws a queued claim or frees a held slot, while
    an RX occupancy already placed stands (the receiver still takes the
    bytes it accepted) — an iod crashing inside its header-only reply.
    Link faults act as in :func:`send`.  Use as ``yield from
    transfer(...)``.
    """
    if nbytes < 0:
        raise ValueError(f"negative transfer size {nbytes}")
    faults = env.faults
    action = (None if faults is None
              else faults.link_action(src, dst, nbytes)) or ("",)
    if action[0] == "drop":
        yield env.event()  # black hole: nothing ever triggers this
    elif action[0] == "delay":
        yield Timeout(env, action[1])
    params = src.params
    for _copy in range(2 if action[0] == "dup" else 1):
        if src is dst:
            # Loopback (e.g. a client co-located with an I/O server):
            # charge only the per-message overhead, no wire time.
            yield Timeout(env, params.per_message)
            continue
        tx = src.tx
        tx_req = tx.request()
        try:
            yield tx_req
            yield dst.rx.hold(_occupancy(src, dst, nbytes))
        finally:
            tx.release(tx_req)
        yield Timeout(env, params.latency)
    if metrics is not None:
        metrics.record_tx(src.node_name, nbytes)
        metrics.record_rx(dst.node_name, nbytes)


class _Stream:
    """One message in flight: a wire stage and a CPU stage.

    Each stage takes the segments in order, one at a time.  The stage
    that goes first (the sender's CPU, or the wire when the receiver's
    CPU handles the bytes) starts its next segment as soon as it ends
    one; the other may start segment *i* once the first has ended it, so
    ``sent - computed`` (or the reverse) is the count of segments handed
    over and not yet taken up.  Both stages are chains of continuations
    on the three events per segment docs/PERF.md lists ("The events of
    one RPC"); ``then()`` is called when the second stage ends the last
    segment.  Without a ``cpu`` the message is the wire stage alone,
    moving as one piece.
    """

    __slots__ = ("env", "tx", "rx", "cpu", "then", "cpu_leads", "loopback",
                 "per_message", "latency", "occupancy", "last_occupancy",
                 "cpu_time", "last_cpu_time", "last", "sent", "computed",
                 "_follower_idle", "_tx_req")

    def __init__(self, env: Environment, src: NIC, dst: NIC, nbytes: int,
                 cpu, cpu_leads: bool, then: Callable[[], None]) -> None:
        params = src.params
        self.env = env
        self.tx = src.tx
        self.rx = dst.rx
        self.cpu = cpu
        self.then = then
        self.loopback = src is dst
        self.per_message = params.per_message
        self.latency = params.latency
        #: segments that have arrived / that the CPU has handled
        self.sent = self.computed = 0
        self._follower_idle = True
        self._tx_req: Optional[Request] = None
        if cpu is None:
            # one piece whose CPU stage is done: it ends on arrival
            self.cpu_leads = True
            self.last = 0
            self.computed = 1
            self.last_occupancy = _occupancy(src, dst, nbytes)
            self._send()
            return
        segment = params.segment
        full, tail = divmod(nbytes, segment)
        byte_rate = cpu.params.byte_rate
        self.cpu_leads = cpu_leads
        self.occupancy = _occupancy(src, dst, segment)
        self.cpu_time = segment / byte_rate
        #: index of the last segment: the short tail, or a full one
        self.last = full if tail else full - 1
        self.last_occupancy = _occupancy(src, dst, tail or segment)
        self.last_cpu_time = (tail or segment) / byte_rate
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
                self.then()
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
                self.then()
            elif self.sent > computed:
                self._compute()
            else:
                self._follower_idle = True


def send(env: Environment, src: NIC, dst: NIC, nbytes: int,
         then: Callable[[], None], metrics: Optional[Metrics] = None,
         cpu=None, cpu_at: str = "dst") -> None:
    """Start moving one message; ``then()`` is called once it has arrived.

    The message is a chain of continuations, not a process: with a
    ``cpu`` (a :class:`~repro.hw.cpu.Cpu`) it is a :class:`_Stream`
    whose per-byte handling on the receiving (``cpu_at='dst'``) or
    sending (``cpu_at='src'``) node overlaps the wire, segment by
    segment; without one it moves in one piece.  An injected link fault
    applies to the whole message: ``drop`` never calls ``then``,
    ``delay`` stalls the message before it takes the wire, and ``dup``
    moves its bytes across the wire once more first (the duplicate burns
    occupancy; duplicate *delivery* is what a retried RPC does).
    """
    if nbytes < 0:
        raise ValueError(f"negative transfer size {nbytes}")
    if cpu_at not in ("src", "dst"):
        raise ValueError(f"cpu_at must be 'src' or 'dst', got {cpu_at!r}")
    if metrics is not None:
        arrived = then

        def then() -> None:
            metrics.record_tx(src.node_name, nbytes)
            metrics.record_rx(dst.node_name, nbytes)
            arrived()

    def start() -> None:
        _Stream(env, src, dst, nbytes, cpu if nbytes else None,
                cpu_at == "src", then)

    faults = env.faults
    action = None if faults is None else faults.link_action(src, dst, nbytes)
    if action is None:
        start()
    elif action[0] == "delay":
        Timeout(env, action[1]).callbacks.append(lambda _timeout: start())
    elif action[0] == "dup":
        _Stream(env, src, dst, nbytes, None, True, start)
    # ``drop``: a black hole, only a client RPC deadline rescues the waiter


def stream(env: Environment, src: NIC, dst: NIC, nbytes: int,
           metrics: Optional[Metrics] = None, cpu=None, cpu_at: str = "dst",
           ) -> Generator[Event, Any, None]:
    """Process body: :func:`send` a message and wait for it to arrive.

    Large messages are sent in NIC-segment-sized pieces so (a) concurrent
    flows through one NIC interleave fairly, approximating TCP
    multiplexing, and (b) the per-byte data-handling cost of the
    receiving or sending node pipelines with the wire time, the way a
    real server processes a socket while more data is in flight.  The
    slower of the two stages sets the steady-state rate — this is what
    lets aggregate PVFS bandwidth scale with I/O servers until the client
    link saturates (Figure 4a).  Interrupting the waiting process leaves
    the message in flight.
    """
    done = Event(env)
    send(env, src, dst, nbytes, done.succeed, metrics, cpu, cpu_at)
    yield done

"""Flow-level network model.

Each node owns a :class:`NIC` with independent transmit and receive
resources (Myrinet is full duplex).  Every message — a client's
request, a server's reply, a collective send — moves through
:func:`send`, as one :class:`_Stream`.  On the wire a message (or each
NIC segment of a large one):

1. claims the sender's TX slot, then takes its turn on the receiver's
   RX side (TX and RX are disjoint, so the two steps cannot deadlock);
2. occupies the RX side for ``per_message + nbytes / min(tx_bw, rx_bw)``
   once it is free, keeping the TX slot until the end of that occupancy;
3. arrives after one additional one-way ``latency``.

Saturation behaviour is what matters for the paper's figures: many flows
out of one client serialize on its TX (RAID1's 2x bytes flatten Fig 4a);
many clients into one server serialize on its RX (the parity hot spot in
Fig 3).  Single-flow store-and-forward pipelining is approximated — a
documented limitation (DESIGN.md §6).

:func:`send` returns the message; its :meth:`~_Stream.cancel` withdraws
a queued TX claim or frees a held TX slot, exactly once, while an RX
occupancy or CPU hold already placed stands, and the message never
arrives.  A crashing iod cancels its header-only replies and leaves a
data-bearing reply's segments in flight, whose heap entries the pinned
schedule of a crash under load counts (DESIGN.md §6, interrupt rule).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Environment
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


class _Stream:
    """One message in flight: a wire stage and a CPU stage.

    Each stage takes the segments in order, one at a time.  The stage
    that goes first (the sender's CPU, or the wire when the receiver's
    CPU handles the bytes) starts its next segment as soon as it ends
    one; the other may start segment *i* once the first has ended it, so
    ``sent - computed`` (or the reverse) is the count of segments handed
    over and not yet taken up.  Both stages are chains of continuations
    on the three heap entries per segment docs/PERF.md lists ("The
    events of one RPC"), each a bare continuation rather than an event;
    ``then()`` is called when the second stage ends the last segment.
    Without a ``cpu`` the message is the wire stage alone, moving as one
    piece.  A ``woken`` sender (a server's handler) pays one more entry
    when its TX claim had to queue: the grant wakes it, and only then
    does it place the RX occupancy.
    """

    __slots__ = ("env", "tx", "rx", "cpu", "then", "cpu_leads", "loopback",
                 "per_message", "latency", "occupancy", "last_occupancy",
                 "cpu_time", "last_cpu_time", "last", "sent", "computed",
                 "_follower_idle", "_tx_claim", "woken", "lead", "cancelled")

    def __init__(self, env: Environment, src: NIC, dst: NIC, nbytes: int,
                 cpu, cpu_leads: bool, then: Callable[[], None],
                 woken: bool) -> None:
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
        self._tx_claim: Any = None
        self.woken = woken
        self.lead: Optional[_Stream] = None  # a ``dup`` fault's copy
        self.cancelled = False
        if cpu is None:
            # one piece whose CPU stage is done: it ends on arrival
            self.cpu_leads = True
            self.last = 0
            self.computed = 1
            self.last_occupancy = _occupancy(src, dst, nbytes)
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

    def start(self) -> None:
        if not self.cancelled:
            (self._compute if self.cpu_leads and not self.computed
             else self._send)()

    def cancel(self) -> None:
        """Withdraw the message (see the module docstring)."""
        self.cancelled = True
        if self.lead is not None:
            self.lead.cancel()
        claim, self._tx_claim = self._tx_claim, None
        if claim is not None:
            self.tx.release(claim)

    # -- wire stage: TX slot, RX occupancy, latency -----------------------
    def _send(self) -> None:
        if self.loopback:
            # no wire time, only the per-message overhead
            self.env.call_later(self.per_message, self._arrived)
        else:
            self._tx_claim = self.tx.request(
                self._wake if self.woken else self._receive)

    def _wake(self, tx_claim: Any) -> None:
        """A woken sender resumes one heap entry after a queued grant."""
        if type(tx_claim) is Request:
            self.env.call_later(0, self._receive)
        else:
            self._receive()

    def _receive(self, _tx_claim: Any = None) -> None:
        """The sender's TX side is ours: occupy the receiver's RX."""
        if self.cancelled:
            return
        self.rx.hold_then(self.last_occupancy if self.sent == self.last
                          else self.occupancy, self._sent)

    def _sent(self) -> None:
        """End of the occupancy: the TX slot goes straight to the next
        flow waiting for it; the segment arrives one latency later."""
        if self.cancelled:
            return
        claim, self._tx_claim = self._tx_claim, None
        self.tx.release(claim)
        self.env.call_later(self.latency, self._arrived)

    def _arrived(self) -> None:
        if self.cancelled:
            return
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
        self.cpu.server.hold_then(
            self.last_cpu_time if self.computed == self.last
            else self.cpu_time, self._computed)

    def _computed(self) -> None:
        computed = self.computed
        self.cpu.busy_time += (self.last_cpu_time if computed == self.last
                               else self.cpu_time)
        if self.cancelled:
            return
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
         then: Callable[[], None], cpu=None, cpu_at: str = "dst",
         woken: bool = False) -> _Stream:
    """Start moving one message; ``then()`` is called once it has arrived.

    The message is a chain of continuations, not a process.  With a
    ``cpu`` (a :class:`~repro.hw.cpu.Cpu`) it moves in NIC-segment-sized
    pieces, so (a) concurrent flows through one NIC interleave fairly,
    approximating TCP multiplexing, and (b) the per-byte handling on the
    receiving (``cpu_at='dst'``) or sending (``cpu_at='src'``) node
    pipelines with the wire time, the way a real server processes a
    socket while more data is in flight.  The slower of the two stages
    sets the steady-state rate — this is what lets aggregate PVFS
    bandwidth scale with I/O servers until the client link saturates
    (Figure 4a).  Without a ``cpu`` the message moves in one piece.
    ``woken`` marks a server handler's reply (see :class:`_Stream`).
    On arrival, just before ``then()``, ``env.metrics`` records the
    bytes as sent by ``src`` and received by ``dst``.

    Returns the message, whose :meth:`~_Stream.cancel` withdraws it.  An
    injected link fault applies to the whole message: ``drop`` never
    calls ``then``, ``delay`` stalls the message before it takes the
    wire, and ``dup`` moves its bytes across the wire once more first
    (the duplicate burns occupancy; duplicate *delivery* is what a
    retried RPC does).
    """
    if nbytes < 0:
        raise ValueError(f"negative message size {nbytes}")
    if cpu_at not in ("src", "dst"):
        raise ValueError(f"cpu_at must be 'src' or 'dst', got {cpu_at!r}")
    metrics, arrived = env.metrics, then

    def then() -> None:
        metrics.record_tx(src.node_name, nbytes)
        metrics.record_rx(dst.node_name, nbytes)
        arrived()

    message = _Stream(env, src, dst, nbytes, cpu if nbytes else None,
                      cpu_at == "src", then, woken)
    faults = env.faults
    action = None if faults is None else faults.link_action(src, dst, nbytes)
    if action is None:
        message.start()
    elif action[0] == "delay":
        env.call_later(action[1], message.start)
    elif action[0] == "dup":
        message.lead = _Stream(env, src, dst, nbytes, None, True,
                               message.start, woken)
        message.lead.start()
    # ``drop``: a black hole, only a client RPC deadline (or the
    # sender's crash, for a reply) rescues the waiter
    return message

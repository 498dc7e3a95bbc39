"""Shared-resource primitives built on the event kernel.

* :class:`Resource` — ``capacity`` slots with a strict FIFO wait queue,
  for holds whose length the holder only learns once it has the slot
  (a NIC's TX side, a disk, a lock).  Requests are events; use them as
  context managers inside processes for exception safety, or pass a
  continuation to be called at the grant.
* :class:`FifoServer` — a FIFO single server for holds whose length is
  known on arrival (a NIC's RX side, a CPU).  It keeps no queue: job *n*
  departs at ``max(arrival_n, departure_{n-1}) + service_n`` (Lindley's
  recursion), so a hold is one heap entry, at its end, however long the
  line: a :class:`Hold` event, or a bare continuation.
* :class:`FifoLock` — a ``Resource`` of capacity 1 with lock vocabulary;
  the parity-block lock manager builds on it.

Both servers are FIFO by request time; requests made at the same instant
are served in the order they were made, which is dispatch order.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, List, Optional

from repro.errors import SimulationError
from repro.sim.engine import _PENDING, NORMAL, Environment, Event


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot; a process
    may hold one as ``with res.request() as req: yield req``."""

    __slots__ = ("resource", "_queued_at", "_then")

    def __init__(self, env: Environment, resource: "Resource") -> None:
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        # ``_queued_at`` and ``_then`` are set only on queueing
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` interchangeable slots with FIFO granting."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: List[Any] = []  # claims: Requests or continuations
        self.queue: Deque[Request] = deque()
        # Cumulative statistics for utilization reporting.
        self.total_waits: int = 0
        self.total_wait_time: float = 0.0

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self, then: Optional[Callable[[Any], None]] = None) -> Any:
        """Claim a slot; returns the claim to :meth:`release`.

        A free slot is granted on the spot: the request comes back
        already processed, so a process that yields it carries on
        without an event.  Otherwise the claim queues, and the
        :meth:`release` that frees its slot wakes the process waiting on
        it — or, when a continuation ``then`` was given, calls
        ``then(claim)`` there and then and schedules nothing.  A
        continuation granted on the spot is called at once, and its
        claim is ``then`` itself: no :class:`Request` is allocated.
        """
        users = self.users
        env = self.env
        if len(users) < self.capacity and not self.queue:
            if then is not None:
                users.append(then)
                then(then)
                return then
            req = Request(env, self)
            users.append(req)
            req._value = None
            req.callbacks = None
            return req
        req = Request(env, self)
        self.total_waits += 1
        req._queued_at = env._now
        req._then = then
        self.queue.append(req)
        return req

    def release(self, request: Any) -> None:
        """Free a slot; grants the head of the queue if any.

        Releasing a queued (never granted) request cancels it; releasing an
        unknown request is an error.
        """
        users = self.users
        queue = self.queue
        try:
            users.remove(request)
        except ValueError:
            try:
                queue.remove(request)
            except ValueError:
                raise SimulationError("release of a request not held or queued")
            return
        env = self.env
        while queue and len(users) < self.capacity:
            nxt = queue.popleft()
            self.total_wait_time += env._now - nxt._queued_at
            users.append(nxt)
            if nxt._value is not _PENDING:
                raise SimulationError(f"{nxt!r} already triggered")
            nxt._value = None
            then = nxt._then
            if then is None:
                # ``nxt.succeed()`` inlined: wake the waiting process
                env._seq = seq = env._seq + 1
                heappush(env._heap, (env._now, NORMAL, seq, nxt))
            else:
                nxt.callbacks = nxt._then = None
                then(nxt)


class Hold(Event):
    """The end of one timed hold on a :class:`FifoServer`: born
    triggered; the server schedules it."""

    __slots__ = ()

    def __init__(self, env: Environment) -> None:
        # ``Event.__init__`` inlined, as for ``Timeout``
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._defused = False


class FifoServer:
    """A FIFO single server for holds whose length is known on arrival.

    No queue is kept: a hold starts when every hold placed before it has
    ended, so its end is known the moment it is placed.  A placed hold
    stands — there is nothing to withdraw, the server stays busy until
    its end whether or not anybody still waits for it.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        #: when the last hold placed so far ends
        self.free_at: float = 0.0
        # Cumulative statistics for utilization reporting.
        self.total_waits: int = 0
        self.total_wait_time: float = 0.0

    def hold(self, duration: float) -> Hold:
        """Occupy the server for ``duration`` once it is this caller's
        turn; the event fires at the end of the hold."""
        hold = Hold(self.env)
        self.hold_then(duration, hold)
        return hold

    def hold_then(self, duration: float, then: Any) -> None:
        """:meth:`hold`, calling ``then()`` at the end of the hold
        instead of firing an event (``then`` may also be the event)."""
        if duration < 0:
            raise SimulationError(f"negative hold duration {duration}")
        env = self.env
        start = self.free_at
        now = env._now
        if start > now:
            self.total_waits += 1
            self.total_wait_time += start - now
        else:
            start = now
        self.free_at = end = start + duration
        env._seq = seq = env._seq + 1
        heappush(env._heap, (end, NORMAL, seq, then))


class FifoLock(Resource):
    """A mutual-exclusion lock with FIFO fairness.

    Every request and release is announced on the ``lock.request`` /
    ``lock.release`` probes, which is how a lock sanitizer tracks held
    locks and finds leaks at the end of the run.  These are per-grant
    sites, so the two live subscriber lists are bound once at lock
    construction: while nobody listens a request or release costs one
    truth test on top of the plain :class:`Resource` path.
    """

    def __init__(self, env: Environment) -> None:
        super().__init__(env, capacity=1)
        self._on_request = env.probe("lock.request")
        self._on_release = env.probe("lock.release")

    @property
    def locked(self) -> bool:
        return bool(self.users)

    def request(self) -> Request:
        req = Resource.request(self)
        if self._on_request:
            for fn in self._on_request:
                fn(self, req)
        return req

    def release(self, request: Request) -> None:
        if self._on_release:
            for fn in self._on_release:
                fn(self, request)
        Resource.release(self, request)

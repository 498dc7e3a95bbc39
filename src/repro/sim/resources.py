"""Shared-resource primitives built on the event kernel.

* :class:`Resource` — ``capacity`` slots with a strict FIFO wait queue.
  Modeled after SimPy's but simplified: requests are events; use them as
  context managers inside processes for exception safety.
* :class:`FifoLock` — a ``Resource`` of capacity 1 with lock vocabulary;
  the parity-block lock manager builds on it.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``;
  used as message queues between clients and I/O daemons.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, Generator, List

from repro.errors import SimulationError
from repro.sim.engine import _PENDING, NORMAL, Environment, Event


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "_queued_at")

    def __init__(self, env: Environment, resource: "Resource") -> None:
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.resource = resource  # ``_queued_at`` is set only on queueing

    # Context-manager protocol so processes can write
    # ``with res.request() as req: yield req``.  Hot holds (NIC, CPU,
    # disk) spell out ``try``/``finally`` instead: same release, no
    # ``__enter__``/``__exit__`` frames per hold.
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
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()
        # Cumulative statistics for utilization reporting.
        self.total_waits: int = 0
        self.total_wait_time: float = 0.0

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        env = self.env
        req = Request(env, self)
        users = self.users
        if len(users) < self.capacity and not self.queue:
            users.append(req)
            # ``req.succeed()`` inlined (a fresh request is untriggered)
            req._value = None
            env._seq = seq = env._seq + 1
            heappush(env._heap, (env._now, NORMAL, seq, req))
        else:
            self.total_waits += 1
            req._queued_at = env._now
            self.queue.append(req)
        return req

    def release(self, request: Request) -> None:
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
            # ``nxt.succeed()`` inlined, double-trigger check included
            if nxt._value is not _PENDING:
                raise SimulationError(f"{nxt!r} already triggered")
            nxt._value = None
            env._seq = seq = env._seq + 1
            heappush(env._heap, (env._now, NORMAL, seq, nxt))

    def held(self, duration: float) -> Generator[Event, Any, None]:
        """Convenience process body: hold one slot for ``duration``.

        ``yield from resource.held(t)`` acquires, waits ``t``, releases —
        the common pattern for NIC and disk occupancy.
        """
        with self.request() as req:
            yield req
            yield self.env.timeout(duration)


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


class StoreGet(Event):
    __slots__ = ()


class Store:
    """Unbounded FIFO message queue with blocking ``get``."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item (never blocks; the store is unbounded)."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> StoreGet:
        """An event that fires with the next item."""
        ev = StoreGet(self.env)
        if self.items:
            ev.succeed(self.items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self.items)

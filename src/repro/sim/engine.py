"""The discrete-event engine: environment, events, processes.

Design notes
------------
The engine is a classic event-heap kernel, deliberately minimal:

* :class:`Event` — one-shot; may *succeed* with a value or *fail* with an
  exception.  Callbacks run when the event is popped from the heap.
* :class:`Process` — wraps a generator.  Each ``yield`` must produce an
  :class:`Event`; the process resumes with the event's value (or the
  exception is thrown into the generator).  A process is itself an event
  that succeeds with the generator's return value, so processes compose
  (``yield env.process(child())``).
* A heap entry is an :class:`Event` or a bare zero-argument callable
  (:meth:`Environment.call_later`), called when popped: a continuation
  nothing else waits on costs no event object.
* Determinism — the heap is keyed ``(time, priority, seq)`` where ``seq``
  is a monotone counter, so same-time entries fire in scheduling order and
  runs are exactly reproducible.

Failed events whose failure is never observed (no callbacks, never yielded
on) raise at the end of :meth:`Environment.run`, so lost errors in server
processes cannot silently vanish — important when simulating failure
injection.

Hot-path notes
--------------
Every simulated byte of every figure funnels through this module, so the
scheduling and dispatch paths trade a little repetition for constant
factors:

* Scheduling is inlined wherever an event is triggered
  (``succeed``/``fail``, :class:`Timeout`, process resumption, resource
  grants) — one attribute walk and a ``heappush`` instead of a method
  call per event.
* The dispatch loops in :meth:`Environment.run` inline :meth:`Environment.step`
  and skip the callback loop entirely for callback-less events (the
  :class:`Timeout` fast lane).
* A process that returns successfully while nothing waits on it is
  marked processed on the spot instead of scheduling its end; a later
  ``yield proc`` resumes at once with its value.  A failing one still
  schedules its end, so an unobserved error raises out of ``run``.
* A :class:`Process` binds ``_resume`` once (``_resume_cb``) and
  subscribes with that one object: no bound method is built per yield,
  and :meth:`Process._resume_interrupt` can find its subscription by
  identity and tombstone the recorded slot (``callbacks[i] = None``) in
  O(1) instead of an O(n) ``list.remove`` scan; callback lists are
  append-only everywhere else, so recorded indices stay valid.
* Scheduling/dispatch counters cost nothing: ``_seq`` already counts
  scheduled events and the dispatched count is ``_seq - len(_heap)``
  (see :meth:`Environment.stats`), which is what ``csar-repro profile``
  reports.
"""

from __future__ import annotations

import heapq
from heapq import heappush
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from repro.errors import SimulationError
from repro.probes import PROBES

#: The ambient registry: ``key -> build``.  Every new
#: :class:`Environment` hangs ``build(env)`` on itself as attribute
#: ``key`` — how a sanitizer, a fault injector or the explorer's
#: tie-breaker gets into environments that code it does not control
#: creates.  What is built subscribes itself to the probes it wants
#: (:meth:`Environment.subscribe`), so the engine never imports a tool.
_attached: Dict[str, Callable[["Environment"], Any]] = {}


def attach(key: str, build: Callable[["Environment"], Any]) -> None:
    """Build ``key`` for every Environment created from now on."""
    _attached[key] = build


def detach(key: str) -> None:
    """Stop building ``key``; a no-op when it is not attached."""
    _attached.pop(key, None)


def attached(key: str) -> Optional[Callable[["Environment"], Any]]:
    """The builder attached under ``key``, or ``None``."""
    return _attached.get(key)


#: Optional callback invoked with every new :class:`Environment`; used by
#: ``csar-repro profile`` and ``bench/run.py`` to aggregate kernel
#: counters across the environments an experiment creates.  Not a probe:
#: "an environment was created" cannot be subscribed to on an
#: environment.  Costs one ``None``-check per Environment construction
#: (never per event).
_env_observer: Optional[Callable[["Environment"], None]] = None


def set_env_observer(observer: Optional[Callable[["Environment"], None]]) -> None:
    """Install (or, with ``None``, remove) the environment observer."""
    global _env_observer
    _env_observer = observer


def env_observer() -> Optional[Callable[["Environment"], None]]:
    return _env_observer

#: Priority used for ordinary events.
NORMAL = 1
#: Priority for "urgent" bookkeeping events (process resumption).
URGENT = 0

_PENDING = object()


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    Carries ``cause``; a process may catch it and continue (e.g. a
    background flusher being told to flush early).
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence on the simulation timeline."""

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """The event has a value and is (or will be) processed."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """Callbacks have already run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env._now, NORMAL, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._ok = False
        self._value = exception
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env._now, NORMAL, seq, self))
        return self

    def defused(self) -> None:
        """Mark a failure as handled so run() will not re-raise it."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "pending"
        if self.triggered:
            state = f"ok={self._ok} value={self._value!r}"
        return f"<{type(self).__name__} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` after creation.

    Construction is one of the hottest allocations in the simulator, so the
    ``Event.__init__`` chain and the heap push are inlined; a Timeout is
    born triggered, and when nothing ever waits on it the dispatch loop
    skips its (empty) callback list entirely.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env._now + delay, NORMAL, seq, self))


class Initialize(Event):
    """Internal: first resumption of a new process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self.callbacks = [process._resume_cb]
        self._value = None
        self._ok = True
        self._defused = False
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env._now, URGENT, seq, self))


class Process(Event):
    """A running generator; also an event that fires on termination."""

    __slots__ = ("_generator", "_target", "_target_index", "_resume_cb",
                 "name")

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any],
                 name: str | None = None) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self._target_index: int = -1
        #: the one callback object this process ever subscribes with
        self._resume_cb: Optional[Callable[[Event], None]] = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError("cannot interrupt a terminated process")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks = [self._resume_interrupt]
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env._now, URGENT, seq, event))

    # -- internal ---------------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if self._value is not _PENDING:
            return  # terminated before the interrupt was delivered
        # Detach from whatever we were waiting on.  Callback lists are
        # append-only, so the index recorded when we subscribed is still
        # ours: tombstone it in O(1) (the dispatch loop skips None).
        target = self._target
        if target is not None:
            callbacks = target.callbacks
            if callbacks is not None:
                i = self._target_index
                if 0 <= i < len(callbacks) and callbacks[i] is self._resume_cb:
                    callbacks[i] = None
        self._target = None
        self._resume(event)

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active = self
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_target = generator.send(event._value)
                else:
                    event._defused = True
                    next_target = generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
            except BaseException as exc:
                self._ok = False
                self._value = exc
            else:
                if isinstance(next_target, Event):
                    if next_target.env is not env:
                        raise SimulationError(
                            "event from a different environment")
                    callbacks = next_target.callbacks
                    if callbacks is None:
                        # Already done: resume immediately with its value.
                        event = next_target
                        continue
                    self._target_index = len(callbacks)
                    callbacks.append(self._resume_cb)
                    self._target = next_target
                    break
                generator.close()
                self._ok = False
                self._value = SimulationError(
                    f"process {self.name!r} yielded {next_target!r}, "
                    "which is not an Event")
            # Terminated: stop being a reference cycle through the cached
            # bound method, and fire as an event if anybody can observe it.
            self._resume_cb = None
            if self._ok and not self.callbacks:
                self.callbacks = None  # nobody waits: processed now
            else:
                env._seq = seq = env._seq + 1
                heappush(env._heap, (env._now, NORMAL, seq, self))
            break
        env._active = None


class AllOf(Event):
    """Succeeds with the events' values, in order, once all have
    succeeded; fails on the first failure (later ones are defused)."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("event from a different environment")
        self._remaining = len(self._events)
        for ev in self._events:
            if ev.processed:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)
        if not self._events:
            self.succeed([])

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([ev._value for ev in self._events])


class Environment:
    """Holds the clock, the event heap, process bookkeeping and the
    probe table."""

    #: Fault injector (:mod:`repro.faults`), queried where a fault is a
    #: decision (``link_action`` / ``disk_action`` / ``torn_action``);
    #: ``None`` unless a plan is armed.
    faults: Optional[Any] = None
    #: Tie-break scheduler for schedule exploration
    #: (:mod:`repro.analysis.explore`): ``choose(when, priority,
    #: events)`` picks which same-``(time, priority)`` event to dispatch
    #: next.  ``None`` keeps the deterministic seq order and the
    #: zero-overhead dispatch loops.
    _tie_breaker: Optional[Any] = None

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[tuple] = []
        self._seq: int = 0
        self._active: Optional[Process] = None
        #: probe name -> subscribers (see :mod:`repro.probes`)
        self._probes: Dict[str, List[Callable[..., None]]] = {}
        for key, build in _attached.items():
            setattr(self, key, build(self))
        if _env_observer is not None:
            _env_observer(self)

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active

    # -- probes -----------------------------------------------------------
    def probe(self, name: str) -> List[Callable[..., None]]:
        """The live subscriber list of ``name``: later subscribers
        appear in it, so a per-grant site may cache it and test its
        truth instead of calling :meth:`emit`."""
        if name not in PROBES:
            raise SimulationError(f"unknown probe {name!r}")
        return self._probes.setdefault(name, [])

    def subscribe(self, name: str, fn: Callable[..., None]) -> None:
        """Call ``fn(*args)`` at every ``emit(name, *args)``."""
        self.probe(name).append(fn)

    def emit(self, name: str, *args: Any) -> None:
        """Announce a named point; one dict miss while nobody listens."""
        subscribers = self._probes.get(name)
        if subscribers:
            for fn in subscribers:
                fn(*args)

    # -- factories --------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Call ``fn()`` ``delay`` from now: the heap entry a
        ``Timeout`` whose only callback is ``fn`` would take, with no
        event object."""
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now + delay, NORMAL, seq, fn))

    def process(self, generator: Generator[Event, Any, Any],
                name: str | None = None) -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling / running ----------------------------------------------
    def peek(self) -> float:
        """Time of the next event, or ``inf`` when the heap is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def stats(self) -> Dict[str, float]:
        """Kernel counters, derived for free from existing state.

        ``scheduled`` is the monotone scheduling counter, ``dispatched``
        the number of events already popped and delivered (every heap
        entry comes from exactly one schedule), ``pending`` the heap
        backlog.
        """
        return {
            "now": self._now,
            "scheduled": self._seq,
            "dispatched": self._seq - len(self._heap),
            "pending": len(self._heap),
        }

    def step(self) -> None:
        """Process exactly one heap entry."""
        if not self._heap:
            raise SimulationError("nothing to step")
        when, _prio, _seq, event = heapq.heappop(self._heap)
        self._now = when
        if callable(event):
            event()
            return
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for callback in callbacks:
                if callback is not None:  # skip interrupt tombstones
                    callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run until the heap drains, a deadline passes, or an event fires.

        With an :class:`Event` deadline, returns the event's value.

        Both loops inline :meth:`step` (identical dispatch semantics):
        at millions of entries per figure the method call and the callback
        loop for callback-less timeouts are the dominant constant costs.
        """
        if self._tie_breaker is not None:
            return self._run_explored(until)
        heap = self._heap
        pop = heapq.heappop
        bare = callable  # a bare entry: call it, no event to deliver
        if isinstance(until, Event):
            stop = until
            if stop.callbacks is None:  # already processed
                if stop._ok:
                    return stop._value
                stop._defused = True
                raise stop._value
            done: List[Event] = []
            stop.callbacks.append(done.append)
            while heap and not done:
                when, _prio, _seq, event = pop(heap)
                self._now = when
                if bare(event):
                    event()
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    for callback in callbacks:
                        if callback is not None:
                            callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            if not done:
                raise SimulationError(
                    "simulation ended before the awaited event triggered "
                    "(deadlock: a process is waiting on something that can "
                    "never happen)")
            if stop._ok:
                return stop._value
            stop._defused = True
            raise stop._value

        deadline = float("inf") if until is None else float(until)
        if deadline < self._now:
            raise SimulationError("run(until) is in the past")
        while heap and heap[0][0] <= deadline:
            when, _prio, _seq, event = pop(heap)
            self._now = when
            if bare(event):
                event()
                continue
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks:
                for callback in callbacks:
                    if callback is not None:
                        callback(event)
            if not event._ok and not event._defused:
                raise event._value
        if deadline != float("inf"):
            self._now = deadline
        if not heap:
            # The heap drained: nothing can ever release a held lock or
            # patch a stripe now, so leaks/inconsistencies are final.
            self.emit("run.complete")
        return None

    # -- schedule exploration ---------------------------------------------
    def _step_tie(self) -> None:
        """One dispatch under the tie-break scheduler.

        Pops the whole same-``(time, priority)`` group, asks the
        tie-breaker which *observable* member fires first, dispatches it
        and pushes the rest back under their original keys.  Events with
        no live callbacks commute (their value is already set and nobody
        is subscribed), so they never consume a decision — a sleep-set
        style pruning of the permutation space.  A bare entry is its own
        callback, so it is always observable.
        """
        heap = self._heap
        entry = heapq.heappop(heap)
        when, prio = entry[0], entry[1]
        group = [entry]
        while heap and heap[0][0] == when and heap[0][1] == prio:
            group.append(heapq.heappop(heap))
        chosen = 0
        if len(group) > 1:
            observable = [
                i for i, e in enumerate(group)
                if callable(e[3]) or e[3].callbacks
                and any(cb is not None for cb in e[3].callbacks)]
            if len(observable) > 1:
                pick = self._tie_breaker.choose(
                    when, prio, [group[i][3] for i in observable])
                if pick is not None:
                    chosen = observable[pick]
            for i, e in enumerate(group):
                if i != chosen:
                    heapq.heappush(heap, e)
        event = group[chosen][3]
        self._now = when
        if callable(event):
            event()
            return
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for callback in callbacks:
                if callback is not None:
                    callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def _run_explored(self, until: "float | Event | None" = None) -> Any:
        """:meth:`run` under a tie-break scheduler (same semantics,
        decision points injected at same-timestamp ties)."""
        heap = self._heap
        if isinstance(until, Event):
            stop = until
            if stop.callbacks is None:  # already processed
                if stop._ok:
                    return stop._value
                stop._defused = True
                raise stop._value
            done: List[Event] = []
            stop.callbacks.append(done.append)
            while heap and not done:
                self._step_tie()
            if not done:
                raise SimulationError(
                    "simulation ended before the awaited event triggered "
                    "(deadlock: a process is waiting on something that "
                    "can never happen)")
            if stop._ok:
                return stop._value
            stop._defused = True
            raise stop._value
        deadline = float("inf") if until is None else float(until)
        if deadline < self._now:
            raise SimulationError("run(until) is in the past")
        while heap and heap[0][0] <= deadline:
            self._step_tie()
        if deadline != float("inf"):
            self._now = deadline
        if not heap:
            self.emit("run.complete")
        return None

"""BufSan: a runtime sanitizer for the zero-copy buffer discipline.

The zero-copy payload path (read-only numpy views, ``SegmentedPayload``
ropes, the one-scratch-buffer ``xor_at_many``) makes every content-mode
payload a *shared alias*: the same bytes may simultaneously back a
client's write, a server's stored block, a parity delta, and an
overflow-mirror entry.  The whole scheme is sound only if a buffer never
changes after a payload captures it.  LockSan checks the lock protocol
and ParitySan checks redundancy *state*; BufSan checks buffer
*identity* — the invariant the other two silently assume.

When installed (:func:`install`, the CLI's ``run --sanitize=buf``, or
``CSAR_BUFSAN=1`` honored by the test suite's ``conftest``), every new
:class:`~repro.sim.engine.Environment` builds a :class:`BufSan` (kept as
``env.bufsan``) that subscribes itself to the sync-point probes below
(:mod:`repro.probes`), and :func:`repro.storage.payload.set_capture_hook`
routes every buffer capture to each open one.  When a
:class:`~repro.storage.payload.Payload` (or rope segment, or
materialized rope cache) captures an array, BufSan keeps a snapshot of
its bytes for as long as the array lives (so snapshot memory is bounded
by the live captured bytes), and compares the buffer with it exactly

* immediately, whenever the **same array object is captured again** —
  this catches scratch-buffer reuse at the exact process and sim-time
  of the mutating write;
* at the sync points ParitySan also uses: ``system.quiescent`` from
  ``System.run``, ``run.complete`` when the event heap drains, and
  ``recovery.done`` after a rebuild.

Any mismatch means some code thawed (``flags.writeable = True``) or
otherwise mutated a buffer after sharing it — exactly what the static
rules CSAR013–015 (:mod:`repro.analysis.bufflow`) prove absent; BufSan
is the dynamic witness for schedules the static scope misses.
Violations collect as :class:`BufSanReport` entries (swept by
:func:`drain_reports`); pass ``strict=True`` to raise
:class:`~repro.errors.BufSanError` on the first one.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import SanitizerRegistry
from repro.errors import BufSanError


@dataclass(frozen=True)
class BufSanReport:
    """One buffer observed to change after a payload captured it."""

    kind: str                 # "fingerprint-drift" | "writable-capture"
    message: str
    file: Optional[str]       # reserved: file attribution when known
    sync_point: str
    #: (process name, sim-time) when the buffer was captured
    captured: Tuple[Optional[str], Optional[float]]
    #: (process name, sim-time) when the drift was detected — at a
    #: re-capture this *is* the mutating write's process and time
    detected: Tuple[Optional[str], Optional[float]]

    def format(self) -> str:
        def _at(ctx: Tuple[Optional[str], Optional[float]]) -> str:
            proc, when = ctx
            return (f"{proc or '<outside sim>'} @ "
                    f"{'?' if when is None else f't={when:g}'}")

        return (f"BufSan[{self.kind}] at {self.sync_point}: {self.message} "
                f"(captured by {_at(self.captured)}; "
                f"detected by {_at(self.detected)})")


class _Tracked(weakref.ref):
    """A weak reference to one captured buffer, with its bookkeeping."""

    __slots__ = ("snapshot", "kind", "captured")


_last: List[bytes] = [b""]


def _snapshot(arr: Any) -> bytes:
    """``arr``'s bytes, as the last snapshot taken if equal to it: the
    open sanitizers keep one copy of a capture between them."""
    now = arr.tobytes()
    if now != _last[0]:
        _last[0] = now
    return _last[0]


class BufSan:
    """Per-:class:`Environment` buffer-identity sanitizer."""

    def __init__(self, env: Any, strict: bool = False) -> None:
        self.env = env
        self.strict = strict
        self.reports: List[BufSanReport] = []
        self._closed = False
        #: id(array) -> tracking entry, dropped when its buffer dies
        self._tracked: Dict[int, _Tracked] = {}
        #: total payload-captured bytes checked (cost accounting)
        self.bytes_fingerprinted = 0
        _REGISTRY.register(self)
        _OPEN[id(self)] = weakref.ref(
            self, lambda _, key=id(self): _OPEN.pop(key, None))
        env.subscribe("system.quiescent", self.on_quiescent)
        env.subscribe("run.complete", self.on_run_complete)
        env.subscribe("recovery.done", self.on_recovery)

    # ------------------------------------------------------------------
    def _context(self) -> Tuple[Optional[str], Optional[float]]:
        """The active process and the simulation clock, which is what a
        drift is attributed to."""
        proc = self.env.active_process
        return (proc.name if proc is not None else None, self.env.now)

    def _report(self, kind: str, message: str, sync_point: str,
                captured: Tuple[Optional[str], Optional[float]]) -> None:
        report = BufSanReport(kind, message, None, sync_point,
                              captured, self._context())
        self.reports.append(report)
        if self.strict:
            raise BufSanError(report.format())

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------
    def on_capture(self, payload: Any, arr: Any, kind: str) -> None:
        """A payload captured ``arr``: snapshot its bytes, and verify any
        earlier capture of the same array object first."""
        if arr.size == 0:
            return
        now = _snapshot(arr)
        key = id(arr)
        entry = self._tracked.get(key)
        if entry is not None and entry() is arr:
            self._verify(entry, now, "re-capture(%s)", kind)
            # Track the newest capture context from here on: the buffer
            # now (also) backs this payload.
            entry.captured = self._context()
            return
        if arr.flags.writeable:
            # Payload/SegmentedPayload.__init__ freeze before this hook
            # runs, so a writable capture means a caller bypassed the
            # freeze path entirely.
            self._report("writable-capture",
                         f"{kind} captured a writable {arr.size}-byte "
                         f"buffer", f"capture({kind})", self._context())
        self.bytes_fingerprinted += len(now)
        entry = self._tracked[key] = _Tracked(arr, partial(self._forget, key))
        entry.snapshot, entry.kind, entry.captured = now, kind, self._context()

    def _forget(self, key: int, entry: _Tracked) -> None:
        """A tracked buffer died: drop its entry, if it is still ours."""
        if self._tracked.get(key) is entry:
            del self._tracked[key]

    def _verify(self, entry: _Tracked, now: bytes, sync_point: str,
                *args: Any) -> None:
        """Compare a buffer's bytes ``now`` with its snapshot; a drift is
        reported at ``sync_point % args``, named by two short digests."""
        self.bytes_fingerprinted += len(now)
        if now == entry.snapshot:
            return
        old, new = (hashlib.blake2b(b, digest_size=8).hexdigest()
                    for b in (entry.snapshot, now))
        self._report("fingerprint-drift",
                     f"{entry.kind}-captured {len(now)}-byte buffer "
                     f"changed after sharing ({old} -> {new})",
                     sync_point % args, entry.captured)
        entry.snapshot = now  # report each mutation once

    # ------------------------------------------------------------------
    # sync points
    # ------------------------------------------------------------------
    def on_quiescent(self) -> None:
        self._check_all("quiescent")

    def on_run_complete(self) -> None:
        self._check_all("run-complete")
        self.close()

    def close(self) -> None:
        """Stop observing captures and let go of the tracked buffers
        (the reports stay until they are drained)."""
        self._closed = True
        _OPEN.pop(id(self), None)
        self._tracked.clear()

    def on_recovery(self, index: int) -> None:
        self._check_all(f"post-recovery(server {index})")

    # ------------------------------------------------------------------
    def _check_all(self, sync_point: str) -> None:
        """Re-verify every tracked buffer.

        Unlike ParitySan there is no in-flight or degraded exclusion: a
        captured buffer must never change, not even mid-write or
        mid-rebuild.
        """
        for entry in list(self._tracked.values()):
            arr = entry()
            if arr is not None:  # it may die while the others are checked
                self._verify(entry, arr.tobytes(), sync_point)


# ----------------------------------------------------------------------
# global installation
# ----------------------------------------------------------------------
#: id -> weak reference of every open sanitizer, in construction order;
#: one leaves at its close() or its death
_OPEN: Dict[int, "weakref.ref[BufSan]"] = {}


def _on_payload_capture(payload: Any, arr: Any, kind: str) -> None:
    """The :func:`repro.storage.payload.set_capture_hook` target: fan a
    capture out to every live, still-open sanitizer."""
    for ref in tuple(_OPEN.values()):  # a death may shrink _OPEN meanwhile
        sanitizer = ref()
        if sanitizer is not None:
            sanitizer.on_capture(payload, arr, kind)


def _observe_captures(on: bool) -> None:
    """Start observing payload captures with :func:`install`; with
    :func:`uninstall` stop, and close every sanitizer still open (those
    built since the install).

    An environment with a background flusher never drains, so nothing
    else would close its sanitizer: it would go on checking the next
    run's captures until the cycle collector freed it.
    """
    from repro.storage import payload

    payload.set_capture_hook(_on_payload_capture if on else None)
    if not on:
        for sanitizer in [ref() for ref in _OPEN.values()]:
            sanitizer.close()
        _last[0] = b""


#: Every live sanitizer (for draining reports), and the module's
#: installation surface.
_REGISTRY = SanitizerRegistry("bufsan", BufSan, switch=_observe_captures)
install = _REGISTRY.install
uninstall = _REGISTRY.uninstall
installed = _REGISTRY.installed
drain_reports = _REGISTRY.drain

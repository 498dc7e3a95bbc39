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
routes every buffer capture here.  At the moment a
:class:`~repro.storage.payload.Payload` (or rope segment, or
materialized rope cache) captures an array, BufSan fingerprints its
bytes (xxhash when available, BLAKE2b otherwise); the fingerprint is
re-verified

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
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import SanitizerRegistry
from repro.errors import BufSanError

try:  # pragma: no cover - exercised only where xxhash is installed
    import xxhash

    def _digest(data: bytes) -> str:
        return xxhash.xxh64(data).hexdigest()
except ImportError:  # stdlib fallback, same 64-bit width
    def _digest(data: bytes) -> str:
        return hashlib.blake2b(data, digest_size=8).hexdigest()


def _fingerprint(arr: Any) -> str:
    """The digest of ``arr``'s bytes in C order: the buffer is hashed in
    place, and only a non-contiguous view is copied out first."""
    return _digest(arr if arr.flags.c_contiguous else arr.tobytes())


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


class _Tracked:
    """Bookkeeping for one captured buffer."""

    __slots__ = ("ref", "fingerprint", "kind", "nbytes", "captured")

    def __init__(self, ref: "weakref.ref[Any]", fingerprint: str,
                 kind: str, nbytes: int,
                 captured: Tuple[Optional[str], Optional[float]]) -> None:
        self.ref = ref
        self.fingerprint = fingerprint
        self.kind = kind
        self.nbytes = nbytes
        self.captured = captured


class BufSan:
    """Per-:class:`Environment` buffer-identity sanitizer."""

    def __init__(self, env: Any, strict: bool = False) -> None:
        self.env = env
        self.strict = strict
        self.reports: List[BufSanReport] = []
        self._closed = False
        #: id(array) -> tracking entry (weakref keeps buffers collectable)
        self._tracked: Dict[int, _Tracked] = {}
        #: total payload-captured bytes fingerprinted (cost accounting)
        self.bytes_fingerprinted = 0
        _REGISTRY.register(self)
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
        """A payload captured ``arr``: fingerprint it, and verify any
        earlier capture of the same array object first."""
        if arr.size == 0:
            return
        key = id(arr)
        entry = self._tracked.get(key)
        if entry is not None and entry.ref() is arr:
            self._verify(entry, arr, f"re-capture({kind})")
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
        fingerprint = _fingerprint(arr)
        self.bytes_fingerprinted += arr.nbytes
        self._tracked[key] = _Tracked(weakref.ref(arr), fingerprint, kind,
                                      arr.nbytes, self._context())

    def _verify(self, entry: _Tracked, arr: Any, sync_point: str) -> bool:
        """Re-fingerprint one buffer; report and stop tracking on drift."""
        fingerprint = _fingerprint(arr)
        self.bytes_fingerprinted += arr.nbytes
        if fingerprint == entry.fingerprint:
            return True
        self._report(
            "fingerprint-drift",
            f"{entry.kind}-captured {arr.nbytes}-byte buffer changed "
            f"after sharing ({entry.fingerprint} -> {fingerprint})",
            sync_point, entry.captured)
        entry.fingerprint = fingerprint  # report each mutation once
        return False

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
        self._tracked.clear()

    def on_recovery(self, index: int) -> None:
        self._check_all(f"post-recovery(server {index})")

    # ------------------------------------------------------------------
    def _check_all(self, sync_point: str) -> None:
        """Re-verify every live tracked buffer.

        Unlike ParitySan there is no in-flight or degraded exclusion: a
        captured buffer must never change, not even mid-write or
        mid-rebuild.
        """
        dead: List[int] = []
        for key, entry in self._tracked.items():
            arr = entry.ref()
            if arr is None:
                dead.append(key)
                continue
            self._verify(entry, arr, sync_point)
        for key in dead:
            del self._tracked[key]


# ----------------------------------------------------------------------
# global installation
# ----------------------------------------------------------------------
def _on_payload_capture(payload: Any, arr: Any, kind: str) -> None:
    """The :func:`repro.storage.payload.set_capture_hook` target: fan a
    capture out to every live, still-open sanitizer."""
    for sanitizer in _REGISTRY.live():
        if not sanitizer._closed:
            sanitizer.on_capture(payload, arr, kind)


def _observe_captures(on: bool) -> None:
    """Start observing payload captures with :func:`install`; with
    :func:`uninstall` stop, and close every sanitizer still open (those
    built since the install).

    An environment with a background flusher never drains, so nothing
    else would close its sanitizer: it would go on fingerprinting the
    next run's captures until the cycle collector freed it.
    """
    from repro.storage import payload

    payload.set_capture_hook(_on_payload_capture if on else None)
    if not on:
        for sanitizer in _REGISTRY.live():
            sanitizer.close()


#: Every live sanitizer (the capture hook fans out to the ones still
#: open), and the module's installation surface.
_REGISTRY = SanitizerRegistry("bufsan", BufSan, switch=_observe_captures)
install = _REGISTRY.install
uninstall = _REGISTRY.uninstall
installed = _REGISTRY.installed
drain_reports = _REGISTRY.drain

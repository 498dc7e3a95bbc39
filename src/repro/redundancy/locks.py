"""The distributed parity-lock protocol (Section 5.1), server side.

Each I/O server locks parity blocks it stores.  The protocol is carried by
the parity *data path* itself, not by separate lock messages:

* a **parity read** for a block acquires the block's lock (queueing FIFO
  behind the current holder — the server knows a read-modify-write is
  starting);
* the matching **parity write** releases it and wakes the next queued
  reader.

Clients avoid deadlock by always acquiring their (at most two) parity
locks in ascending group order, serializing the second parity read behind
the first.

The table also supports the paper's *R5 NO LOCK* configuration (locking
disabled) used to measure the ~20% locking overhead in Figure 3.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Tuple

from repro.errors import LockProtocolError
from repro.sim.engine import Environment, Event
from repro.sim.resources import FifoLock, Request


class ParityLockTable:
    """Per-server FIFO locks keyed by (file, parity group)."""

    def __init__(self, env: Environment, enabled: bool = True) -> None:
        self.env = env
        self.enabled = enabled
        self._locks: Dict[Tuple[str, int], FifoLock] = {}
        self._held: Dict[Tuple[str, int, int], Request] = {}
        self.acquisitions = 0
        self.contended_acquisitions = 0
        self.total_wait_time = 0.0

    def _lock(self, file: str, group: int) -> FifoLock:
        key = (file, group)
        lock = self._locks.get(key)
        if lock is None:
            lock = FifoLock(self.env)
            self._locks[key] = lock
            self.env.emit("parity_lock.new", lock, file, group)
        return lock

    # ------------------------------------------------------------------
    def acquire(self, file: str, group: int,
                xid: int) -> Generator[Event, Any, None]:
        """Process body: block until this xid holds the group's lock."""
        if not self.enabled:
            return
        key = (file, group, xid)
        if key in self._held:
            raise LockProtocolError(
                f"xid {xid} already holds parity lock {file}:{group}")
        lock = self._lock(file, group)
        contended = lock.locked
        t0 = self.env.now
        emit = self.env.emit
        request = lock.request()
        try:
            if not request.triggered:
                emit("parity_lock.wait", file, group, xid)
            yield request
        except BaseException:
            # Interrupted (or killed) while queued: cancel the request so
            # the lock is not leaked; if the grant raced ahead of the
            # interrupt, this releases the just-granted slot instead.
            lock.release(request)
            emit("parity_lock.cancel", file, group, xid)
            raise
        self.acquisitions += 1
        if contended:
            self.contended_acquisitions += 1
        self.total_wait_time += self.env.now - t0
        self._held[key] = request
        emit("parity_lock.acquired", file, group, xid)

    def release(self, file: str, group: int, xid: int) -> None:
        """Release after the parity write; no-op when locking is off."""
        if not self.enabled:
            return
        request = self._held.pop((file, group, xid), None)
        if request is None:
            self.env.emit("parity_lock.double_release", file, group, xid)
            raise LockProtocolError(
                f"xid {xid} released parity lock {file}:{group} "
                "it does not hold")
        request.resource.release(request)
        self.env.emit("parity_lock.released", file, group, xid)

    def crash(self) -> None:
        """Server crash: forget every held lock.

        A parity lock is protocol-carried — acquired by one handler
        process (the parity read) and released by another (the parity
        write) — so no live process "owns" it and interrupting handlers
        cannot free it.  On a fail-stop crash the server's lock state
        simply ceases to exist: drop every held entry (announcing the
        releases, so a lock sanitizer sees a release rather than a
        leak) and drop the lock objects.  Queued *waiters* are handler
        processes of this same server; :meth:`IOD.fail` interrupts
        them, and :meth:`acquire`'s cancellation path cleans each
        queued request out of its (now orphaned) lock.
        """
        if not self.enabled:
            self._held.clear()
            self._locks.clear()
            return
        emit = self.env.emit
        for (file, group, xid), request in list(self._held.items()):
            del self._held[(file, group, xid)]
            # Both ledgers: the protocol-level hold and the raw
            # FifoLock grant that feeds the leak sweep.
            emit("parity_lock.released", file, group, xid)
            emit("lock.release", request.resource, request)
        self._locks.clear()

    # ------------------------------------------------------------------
    def is_locked(self, file: str, group: int) -> bool:
        lock = self._locks.get((file, group))
        return bool(lock and lock.locked)

    def queue_length(self, file: str, group: int) -> int:
        lock = self._locks.get((file, group))
        return len(lock.queue) if lock else 0

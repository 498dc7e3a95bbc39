"""CSAR010: helper-mediated lock leaks no per-function view can see.

``take`` acquires on behalf of its caller (legitimately suppressing
CSAR001 — its release is the caller's obligation, the protocol-carried
idiom) and ``drop`` releases a lock it never acquired.  Each function
is clean in isolation; only threading ``take``'s lock-effect summary
through the callers exposes which of them can exit still holding it.
"""

from typing import Any, Generator

Event = Any


def take(table, xid) -> "Generator[Event, Any, None]":
    """Acquire the caller's lease; releasing it is the caller's job."""
    yield from table.acquire('f', 3, xid)  # csar-lint: disable=CSAR001


def drop(table, xid) -> None:
    """Release the lease ``take`` acquired for the caller."""
    table.release('f', 3, xid)


def conditional_leak(table, env, xid, ok) -> "Generator[Event, Any, None]":
    """Releases the helper-acquired lease on one branch only: the
    ``not ok`` exit carries a net-positive lock delta."""
    yield from take(table, xid)  # expect: CSAR010
    yield env.timeout(1.0)
    if ok:
        drop(table, xid)


def interrupt_leak(table, env, xid) -> "Generator[Event, Any, None]":
    """Releases on the straight-line path, but an interrupt delivered
    at the yield leaks the lease: no release on the exceptional edge."""
    yield from take(table, xid)  # expect: CSAR010
    yield env.timeout(1.0)
    drop(table, xid)


def helper_release_clean(table, env, xid) -> "Generator[Event, Any, None]":
    """The false-positive-free pair: the helper-acquired lease is
    released by the helper in a ``finally`` on every path — no
    per-function view can prove this safe, the summaries can."""
    yield from take(table, xid)
    try:
        yield env.timeout(1.0)
    finally:
        drop(table, xid)

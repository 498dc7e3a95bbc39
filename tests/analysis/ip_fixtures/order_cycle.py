"""CSAR011: lock-order cycles on the global acquires-while-holding graph.

No literal groups here (see ``fixtures/descending_order.py``): the loop
iterates a symbolic ``range`` downward, and the reversed pair orders
two *symbolic* group expressions inconsistently across two chains.
"""

from typing import Any, Generator

Event = Any


def descending_sweep(table, env, xid, last) -> "Generator[Event, Any, None]":
    """Locks groups ``last .. 0`` highest-first — collides with every
    chain that follows the ascending Section 5.1 convention.  (CSAR001
    is suppressed: it sees only the zero-iteration exit of the release
    loop, which the ``range`` bounds rule out.)"""
    for group in range(last, -1, -1):
        yield from table.acquire('f', group, xid)  # expect: CSAR011 csar-lint: disable=CSAR001
    try:
        yield env.timeout(1.0)
    finally:
        for group in range(0, last + 1):
            table.release('f', group, xid)


def a_then_b(table, env, a, b, xid) -> "Generator[Event, Any, None]":
    """Half of a reversed pair: acquires ``b`` while holding ``a``."""
    yield from table.acquire('f', a, xid)
    try:
        yield from table.acquire('f', b, xid)  # expect: CSAR011
        try:
            yield env.timeout(1.0)
        finally:
            table.release('f', b, xid)
    finally:
        table.release('f', a, xid)


def b_then_a(table, env, a, b, xid) -> "Generator[Event, Any, None]":
    """The other half: acquires ``a`` while holding ``b`` — together
    with :func:`a_then_b` the order graph has a cycle (reported once,
    on the lexicographically smaller edge)."""
    yield from table.acquire('f', b, xid)
    try:
        yield from table.acquire('f', a, xid)
        try:
            yield env.timeout(1.0)
        finally:
            table.release('f', a, xid)
    finally:
        table.release('f', b, xid)


def ascending_sweep(table, env, xid, last) -> "Generator[Event, Any, None]":
    """The clean mirror of :func:`descending_sweep`: ascending order
    produces no order edge and no finding."""
    for group in range(0, last + 1):
        yield from table.acquire('f', group, xid)  # csar-lint: disable=CSAR001
    try:
        yield env.timeout(1.0)
    finally:
        for group in range(0, last + 1):
            table.release('f', group, xid)

"""csar-lint fixture: CSAR011 (static-lock-order-cycle), literal groups.

Both offenders release in a ``finally`` so only the ordering rule
fires, not CSAR001.
"""


def two_groups_descending(table, env,
                          xid) -> "Generator[Event, Any, None]":
    try:
        yield from table.acquire("f", 5, xid)
        yield from table.acquire("f", 3, xid)  # expect: CSAR011
        yield env.timeout(1.0)
    finally:
        table.release("f", 3, xid)
        table.release("f", 5, xid)


def loop_over_descending_groups(table, env,
                                xid) -> "Generator[Event, Any, None]":
    try:
        for group in (5, 3):
            yield from table.acquire("f", group, xid)  # expect: CSAR011
        yield env.timeout(1.0)
    finally:
        for group in (3, 5):
            table.release("f", group, xid)


def two_groups_ascending(table, env,
                         xid) -> "Generator[Event, Any, None]":
    try:
        yield from table.acquire("f", 3, xid)
        yield from table.acquire("f", 5, xid)
        yield env.timeout(1.0)
    finally:
        table.release("f", 5, xid)
        table.release("f", 3, xid)


def reacquire_after_release_is_fine(table, env,
                                    xid) -> "Generator[Event, Any, None]":
    # Group 5's window closes before group 3 opens: no ordering hazard
    # (and each window releases in its own finally).
    yield from table.acquire("f", 5, xid)
    try:
        yield env.timeout(1.0)
    finally:
        table.release("f", 5, xid)
    yield from table.acquire("f", 3, xid)
    try:
        yield env.timeout(1.0)
    finally:
        table.release("f", 3, xid)

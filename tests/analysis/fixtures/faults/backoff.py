"""csar-lint fixture: determinism and lock order in fault/retry code.

Lives under a ``faults/`` path segment, so the CSAR004 wall-clock ban
applies: a fault plan must re-fire at the same sim instants on replay,
and retry backoff jitter must come from a seeded stream, never the wall
clock.  The lock-order rule (CSAR011) is path-independent and covers a
recovery helper that grabs parity-group locks highest-first.
"""

import random
import time


def fire_at_wall_clock(env, spec) -> "Generator[Event, Any, None]":
    deadline = time.time() + spec.delay  # expect: CSAR004
    yield env.timeout(deadline - env.now)


def unseeded_backoff(attempt):
    return 0.002 * (2 ** attempt) * random.random()  # expect: CSAR004


def unseeded_victim(servers):
    return random.choice(servers)  # expect: CSAR004


def seeded_backoff_ok(attempt, seed, index):
    rng = random.Random(seed * 1000003 + index)
    return 0.002 * (2 ** attempt) * rng.random()


def quiesce_locks_descending(table, env,
                             xid) -> "Generator[Event, Any, None]":
    try:
        yield from table.acquire("f", 4, xid)
        yield from table.acquire("f", 2, xid)  # expect: CSAR011
        yield env.timeout(1.0)
    finally:
        table.release("f", 2, xid)
        table.release("f", 4, xid)


def quiesce_locks_ascending_ok(table, env,
                               xid) -> "Generator[Event, Any, None]":
    try:
        yield from table.acquire("f", 2, xid)
        yield from table.acquire("f", 4, xid)
        yield env.timeout(1.0)
    finally:
        table.release("f", 4, xid)
        table.release("f", 2, xid)

"""csar-lint fixture: CSAR001 on a conditional release.

Never imported — parsed by tests/analysis/test_lint.py.  A release
exists in the function, but at least one *normal* exit path keeps the
lock: the dataflow engine reports the acquire site.
"""


def release_only_on_success(table, env, xid) -> "Generator[Event, Any, None]":
    yield from table.acquire("f", 0, xid)  # expect: CSAR001
    result = yield env.timeout(1.0)
    if result:
        table.release("f", 0, xid)
    return result


def early_return_skips_release(table, env,
                               xid, fast) -> "Generator[Event, Any, None]":
    yield from table.acquire("f", 3, xid)  # expect: CSAR001
    if fast:
        return None
    yield env.timeout(1.0)
    table.release("f", 3, xid)
    return True


def released_in_both_branches(table, env,
                              xid, fast) -> "Generator[Event, Any, None]":
    # Every normal exit drops the lock: no finding.
    yield from table.acquire("f", 5, xid)
    if fast:
        table.release("f", 5, xid)
        return None
    table.release("f", 5, xid)
    yield env.timeout(1.0)
    return True

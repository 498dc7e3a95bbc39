"""csar-lint fixture: per-line suppression comments (zero findings)."""


def protocol_carried_lock(table, env,
                          xid) -> "Generator[Event, Any, None]":
    # The matching release arrives in a later message handler.
    yield from table.acquire("f", 0, xid)  # csar-lint: disable=CSAR001
    yield env.timeout(1.0)


def suppress_everything(env) -> "Generator[Event, Any, None]":
    yield env.timeout(1.0)
    yield 42  # csar-lint: disable


def suppress_code_list(table, env,
                       xid) -> "Generator[Event, Any, None]":
    yield from table.acquire("f", 1, xid)  # csar-lint: disable=CSAR001,CSAR011
    yield "token"  # csar-lint: disable=CSAR003

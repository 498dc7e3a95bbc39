"""The ``csar-lint`` rule registry.

Each rule has a stable ``CSAR###`` code, a one-line summary, and a fix-it
hint.  The registry is the single source of truth shared by the linter,
the CLI (``csar-repro lint --list-rules``) and the documentation
(``docs/ANALYSIS.md``); every registered rule always runs.

Each rule stays because the conviction matrix
(``tests/analysis/test_conviction.py``) shows it convicting a seeded
bug, or because it is the base lock rule the others extend: a missed
``release`` leaks a lock forever (CSAR001, CSAR010), an out-of-order
acquire defeats the paper's deadlock-avoidance invariant (CSAR011), and
a mutated or unfrozen shared buffer breaks the zero-copy payload
discipline (CSAR013, CSAR014).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Rule:
    """One static check: stable code, summary, and how to fix it."""

    code: str
    name: str
    summary: str
    fixit: str


RULES: Dict[str, Rule] = {
    rule.code: rule for rule in (
        Rule(
            code="CSAR001",
            name="unguarded-acquire",
            summary="lock or resource acquired without a guaranteed "
                    "release on all paths",
            fixit="release in a try/finally (or an except handler that "
                  "cancels the request) so every exit drops the lock, or "
                  "use the request as a context manager; if the release "
                  "is protocol-carried in another handler, suppress with "
                  "a comment explaining why",
        ),
        Rule(
            code="CSAR010",
            name="interprocedural-lock-leak",
            summary="a call chain can exit with a net-positive lock "
                    "delta — a helper acquires a lock the caller never "
                    "guarantees to release",
            fixit="release the helper-acquired lock on every caller "
                  "path (try/finally around the helper call), make the "
                  "helper release it itself, or suppress the call with "
                  "a comment when the release is protocol-carried by a "
                  "later message handler",
        ),
        Rule(
            code="CSAR011",
            name="static-lock-order-cycle",
            summary="the global acquires-while-holding graph contains a "
                    "cycle or a descending edge against the Section 5.1 "
                    "ascending-group invariant; the finding names its "
                    "dynamic LockSan witness when the explorer recorded "
                    "one",
            fixit="acquire parity-group locks in ascending group order "
                  "on every call chain; sort the groups before locking "
                  "and keep helper functions on the same convention",
        ),
        Rule(
            code="CSAR013",
            name="mutate-shared-view",
            summary="in-place mutation (or flags.writeable = True) of a "
                    "buffer that may alias a frozen payload view — the "
                    "zero-copy path shares these bytes with every "
                    "payload sliced from them",
            fixit="take a private copy first (_writable_copy()/.copy()) "
                  "and mutate that; a frozen view's bytes belong to "
                  "every payload that aliases them",
        ),
        Rule(
            code="CSAR014",
            name="writable-escape-without-freeze",
            summary="a private writable buffer escapes (stored into an "
                    "attribute/container or handed to a retaining "
                    "callee) with no dominating freeze — later in-place "
                    "reuse (a scratch buffer refilled for the next "
                    "write) would corrupt whoever kept the reference",
            fixit="freeze before sharing (_freeze(buf) or "
                  "buf.flags.writeable = False), or wrap it in a "
                  "Payload (whose constructor freezes) instead of "
                  "storing the raw array",
        ),
    )
}


def all_codes() -> tuple:
    """Every registered rule code, sorted."""
    return tuple(sorted(RULES))

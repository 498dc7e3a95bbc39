"""The ``csar-lint`` rule registry.

Each rule has a stable ``CSAR###`` code, a one-line summary, and a fix-it
hint.  The registry is the single source of truth shared by the linter,
the CLI (``csar-repro lint --list-rules``), the documentation
(``docs/ANALYSIS.md``), and ``pyproject.toml``'s ``[tool.csar-lint]``
``enable`` list.

Rules target the failure modes of the Section 5.1 parity-lock protocol
and of generator-based simulation processes in general: a missed
``release`` leaks a lock forever, an out-of-order acquire defeats the
paper's deadlock-avoidance invariant, and a non-:class:`Event` ``yield``
kills a process with a runtime error only when that path executes.
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
                  "cancels the request), or use the request as a context "
                  "manager; if the release is protocol-carried in another "
                  "handler, suppress with a comment explaining why",
        ),
        Rule(
            code="CSAR003",
            name="non-event-yield",
            summary="process body yields an expression that cannot be an "
                    "Event",
            fixit="yield an Event (env.timeout(...), a Request, a "
                  "Process, ...); plain values terminate the process "
                  "with a SimulationError at run time",
        ),
        Rule(
            code="CSAR004",
            name="wall-clock-in-sim",
            summary="wall-clock or unseeded randomness inside a "
                    "sim/redundancy module breaks determinism",
            fixit="use env.now for time and a seeded random.Random / "
                  "numpy Generator instance for randomness",
        ),
        Rule(
            code="CSAR006",
            name="extent-alloc-in-hot-loop",
            summary="Extent dataclass constructed inside a loop in a "
                    "hw/sim hot-path module",
            fixit="use ExtentMap.overlap_iter/gaps_iter/iter_tuples (or "
                  "plain (start, end) tuples) on hot paths; Extent "
                  "objects are for the public API and tests — suppress "
                  "with a comment when the loop is demonstrably cold",
        ),
        Rule(
            code="CSAR005",
            name="fail-without-defuse",
            summary="Event.fail() on an event that never escapes and is "
                    "never defused — the failure re-raises at the end of "
                    "Environment.run()",
            fixit="yield on the event, hand it to a waiter, or call "
                  ".defused() after .fail() when the failure is "
                  "intentional and handled",
        ),
        Rule(
            code="CSAR007",
            name="lock-held-across-nonlock-yield",
            summary="parity lock held across a yield on disk or link "
                    "I/O outside the read-modify-write window — the "
                    "paper's ~20% locking-cost culprit",
            fixit="release the lock before long-latency I/O, or move "
                  "the I/O ahead of the acquire; only the parity "
                  "read-modify-write itself needs the lock",
        ),
        Rule(
            code="CSAR008",
            name="conditional-release",
            summary="lock released on some control-flow paths but still "
                    "held on at least one normal exit",
            fixit="hoist the release into a finally block (or release "
                  "in every branch) so each normal exit path drops the "
                  "lock; if another handler releases it by protocol, "
                  "suppress with a comment explaining why",
        ),
        Rule(
            code="CSAR010",
            name="interprocedural-lock-leak",
            summary="a call chain can exit with a net-positive lock "
                    "delta — a helper acquires a lock the caller never "
                    "guarantees to release (whole-program mode only)",
            fixit="release the helper-acquired lock on every caller "
                  "path (try/finally around the helper call), make the "
                  "helper release it itself, or baseline the finding "
                  "when the release is protocol-carried by a later "
                  "message handler",
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
            code="CSAR012",
            name="payload-copy-in-hot-loop",
            summary="Payload.concat/to_bytes/assemble inside a loop on "
                    "the data path (pvfs/, redundancy/, hw/) — each call "
                    "materialises a flat copy of the whole payload, "
                    "defeating the zero-copy segment rope",
            fixit="hoist the materialisation out of the loop, build the "
                  "segment list first and assemble once, or walk "
                  "iter_segments()/slice() views instead; suppress with "
                  "a comment when the loop is provably cold or the copy "
                  "is the point (e.g. one merged message per server)",
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
                    "reuse would corrupt whoever kept the reference",
            fixit="freeze before sharing (_freeze(buf) or "
                  "buf.flags.writeable = False), or wrap it in a "
                  "Payload (whose constructor freezes) instead of "
                  "storing the raw array",
        ),
        Rule(
            code="CSAR015",
            name="scratch-alias-across-yield",
            summary="a reference to a shared scratch buffer is live "
                    "across an Event yield — any interleaved process "
                    "can observe or clobber the half-built bytes, and "
                    "payloads captured from it drift on reuse",
            fixit="copy the scratch contents into a fresh buffer (or "
                  "build the Payload from a private copy) before "
                  "yielding; scratch lifetime must stay within one "
                  "scheduling step",
        ),
        Rule(
            code="CSAR009",
            name="overflow-write-in-place",
            summary="hybrid overflow path writes partial-stripe data to "
                    "the home location instead of the overflow region",
            fixit="send OverflowWriteReq (or write the *.ovf overflow "
                  "file) so the home block stays parity-consistent; "
                  "in-place data writes are only legal for full-stripe "
                  "or RMW paths that update parity in the same lock "
                  "window",
        ),
    )
}


def all_codes() -> tuple:
    """Every registered rule code, sorted."""
    return tuple(sorted(RULES))

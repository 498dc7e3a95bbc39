"""Correctness tooling for the CSAR reproduction.

Three cooperating layers guard the Section 5.1 parity-lock protocol,
the redundancy invariants, and the zero-copy buffer discipline:

* :mod:`repro.analysis.lint` — ``csar-lint``, an AST-based static
  checker with CSAR-specific rules (``csar-repro lint src``), including
  the buffer-provenance rules of :mod:`repro.analysis.bufflow`;
* :mod:`repro.analysis.locksan` — LockSan, a runtime sanitizer that
  tracks held-lock sets and a wait-for graph while a simulation runs
  (``csar-repro run --sanitize=lock``, ``CSAR_LOCKSAN=1``);
* :mod:`repro.analysis.paritysan` — ParitySan, checking parity/mirror/
  overflow consistency at quiescent points (``--sanitize=parity``,
  ``CSAR_PARITYSAN=1``);
* :mod:`repro.analysis.bufsan` — BufSan, snapshotting every buffer a
  payload captures and re-checking it at the same sync points
  (``--sanitize=buf``, ``CSAR_BUFSAN=1``).

A sanitizer reaches simulations only through :func:`sanitizer_scope`,
which attaches it to the engine's ambient registry for the length of a
block.  See ``docs/ANALYSIS.md`` for every rule with an offending
snippet and its fix.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

from repro.analysis import bufsan
from repro.analysis.bufsan import BufSan, BufSanReport
from repro.analysis.lint import Finding, format_text, lint_paths
from repro.analysis.locksan import LockSan, LockSanReport
from repro.analysis.paritysan import ParitySan, ParitySanReport
from repro.analysis.rules import RULES, Rule, all_codes
from repro.sim import engine
from repro.storage import payload

#: ``--sanitize`` mode -> sanitizer class, in attribution order: a
#: lock-protocol violation points closest to the root cause, and a
#: mutated shared buffer is the cause of whatever parity mismatch it
#: induces downstream.  Each class's lower-cased name is its tool label:
#: the ``engine.attach`` key, the ``env`` attribute it is kept as, and
#: the prefix of the ``failure_kind`` its reports become.
SANITIZERS = {"lock": LockSan, "buf": BufSan, "parity": ParitySan}


def sanitize_modes(sanitize: Optional[str]) -> Tuple[str, ...]:
    """Decode a ``--sanitize`` value (``lock`` / ``parity`` / ``buf`` /
    ``all``; falsy means none) into a tuple of mode names."""
    if not sanitize:
        return ()
    if sanitize == "all":
        return tuple(sorted(SANITIZERS))
    if sanitize in SANITIZERS:
        return (sanitize,)
    raise ValueError(f"unknown sanitize mode {sanitize!r} "
                     f"(expected {'|'.join(sorted(SANITIZERS))}|all)")


class _Attached:
    """The ``build`` callable one mode is attached with: it makes the
    sanitizer for each new Environment and keeps it weakly, so a drain
    sweeps every live one without threading the instances through."""

    def __init__(self, sanitizer: Callable[[Any], Any]) -> None:
        self.sanitizer = sanitizer
        self._built: List["weakref.ref[Any]"] = []

    def __call__(self, env: Any) -> Any:
        sanitizer = self.sanitizer(env)
        self._built.append(weakref.ref(sanitizer))
        return sanitizer

    def live(self) -> List[Any]:
        """Every sanitizer built that is still alive (sweeps dead refs)."""
        out: List[Any] = []
        refs: List["weakref.ref[Any]"] = []
        for ref in self._built:
            sanitizer = ref()
            if sanitizer is not None:
                out.append(sanitizer)
                refs.append(ref)
        self._built[:] = refs
        return out


@contextmanager
def sanitizer_scope(modes: Iterable[str],
                    ) -> Iterator[Callable[[], List[Tuple[str, Any]]]]:
    """Run a block under the given sanitizer modes.

    Attaches each requested mode that is not attached already (so a
    ``CSAR_*SAN=1`` harness or an enclosing scope keeps its own), and
    with BufSan routes every payload capture to the open BufSans.  Drops
    whatever reports predate the block, and yields ``drain``: each call
    returns the reports made since the last one as ``(tool, report)``
    pairs in attribution order — LockSan, then BufSan, then ParitySan —
    with ``tool`` the ``locksan`` / ``bufsan`` / ``paritysan`` label of a
    ``failure_kind``.  On exit it detaches exactly what it attached and
    closes the BufSans it built: an environment with a background
    flusher never drains, so nothing else would close them, and they
    would go on checking the next run's captures until the cycle
    collector freed them.
    """
    owned: Dict[str, _Attached] = {}
    tools = []
    for mode, sanitizer in SANITIZERS.items():
        if mode in modes:
            tool = sanitizer.__name__.lower()
            if engine.attached(tool) is None:
                owned[tool] = _Attached(sanitizer)
                engine.attach(tool, owned[tool])
            tools.append((tool, engine.attached(tool)))
    buf = owned.get("bufsan")
    if buf is not None:
        payload.set_capture_hook(bufsan.on_payload_capture)

    def drain() -> List[Tuple[str, Any]]:
        out: List[Tuple[str, Any]] = []
        for tool, attached in tools:
            for sanitizer in attached.live():
                out.extend((tool, report) for report in sanitizer.reports)
                sanitizer.reports = []
        return out

    try:
        drain()
        yield drain
    finally:
        for tool in owned:
            engine.detach(tool)
        if buf is not None:
            payload.set_capture_hook(None)
            for sanitizer in buf.live():
                sanitizer.close()


__all__ = [
    "BufSan",
    "BufSanReport",
    "Finding",
    "LockSan",
    "LockSanReport",
    "ParitySan",
    "ParitySanReport",
    "RULES",
    "Rule",
    "SANITIZERS",
    "all_codes",
    "format_text",
    "lint_paths",
    "sanitize_modes",
    "sanitizer_scope",
]

"""Correctness tooling for the CSAR reproduction.

Three cooperating layers guard the Section 5.1 parity-lock protocol,
the redundancy invariants, and the zero-copy buffer discipline:

* :mod:`repro.analysis.lint` — ``csar-lint``, an AST-based static
  checker with CSAR-specific rules (``csar-repro lint src``), including
  the buffer-provenance rules of :mod:`repro.analysis.bufflow`;
* :mod:`repro.analysis.locksan` — LockSan, an opt-in runtime sanitizer
  that tracks held-lock sets and a wait-for graph while a simulation
  runs (``csar-repro run --sanitize=lock``, ``CSAR_LOCKSAN=1``);
* :mod:`repro.analysis.paritysan` — ParitySan, checking parity/mirror/
  overflow consistency at quiescent points (``--sanitize=parity``,
  ``CSAR_PARITYSAN=1``);
* :mod:`repro.analysis.bufsan` — BufSan, snapshotting every buffer a
  payload captures and re-checking it at the same sync points
  (``--sanitize=buf``, ``CSAR_BUFSAN=1``).

See ``docs/ANALYSIS.md`` for every rule with an offending snippet and
its fix.
"""

from __future__ import annotations

import importlib
import weakref
from contextlib import contextmanager
from typing import (Any, Callable, Iterable, Iterator, List, Optional,
                    Tuple)

from repro.sim import engine


class SanitizerRegistry:
    """One sanitizer kind: its installation and its live instances.

    LockSan, ParitySan, and BufSan each keep one module-level registry
    and export its bound methods as the module's ``install() /
    uninstall() / installed() / drain_reports()``.  Installing attaches
    the kind to the engine's ambient registry, so every new Environment
    builds ``sanitizer(env, strict=...)`` — which subscribes itself to
    its probes — and keeps it as ``env.<key>``; ``switch(on)``, when
    given, runs after every install / uninstall.  Instances register
    themselves weakly at construction, so a drain sweeps reports across
    every live one without threading them through, and keeps them
    registered (their Environments may keep running): reports made
    after a drain are still seen.
    """

    def __init__(self, key: str, sanitizer: Callable[..., Any],
                 switch: Optional[Callable[[bool], None]] = None) -> None:
        self.key = key
        self.sanitizer = sanitizer
        self._switch = switch
        self._active: List["weakref.ref[Any]"] = []

    def install(self, strict: bool = False) -> None:
        """Sanitize every Environment created from now on."""
        engine.attach(self.key,
                      lambda env: self.sanitizer(env, strict=strict))
        if self._switch is not None:
            self._switch(True)

    def uninstall(self) -> None:
        """Stop sanitizing new Environments."""
        engine.detach(self.key)
        if self._switch is not None:
            self._switch(False)

    def installed(self) -> bool:
        return engine.attached(self.key) is not None

    def register(self, sanitizer: Any) -> None:
        self._active.append(weakref.ref(sanitizer))

    def live(self) -> List[Any]:
        """Every live registered sanitizer (sweeps dead refs)."""
        out: List[Any] = []
        refs: List["weakref.ref[Any]"] = []
        for ref in self._active:
            sanitizer = ref()
            if sanitizer is None:
                continue
            out.append(sanitizer)
            refs.append(ref)
        self._active[:] = refs
        return out

    def drain(self) -> List[Any]:
        """Collect (and clear) reports from every live sanitizer."""
        out: List[Any] = []
        for sanitizer in self.live():
            out.extend(sanitizer.reports)
            sanitizer.reports = []
        return out


# ----------------------------------------------------------------------
# sanitizer mode composition (``--sanitize=lock|parity|buf|all``)
# ----------------------------------------------------------------------
#: mode name -> implementing module; every module exposes the same
#: ``install() / uninstall() / installed() / drain_reports()`` surface.
#: Listed in attribution order: a lock-protocol violation points closest
#: to the root cause, and a mutated shared buffer is the cause of
#: whatever parity mismatch it induces downstream.
SANITIZER_MODULES = {
    "lock": "repro.analysis.locksan",
    "buf": "repro.analysis.bufsan",
    "parity": "repro.analysis.paritysan",
}


def sanitize_modes(sanitize: Optional[str]) -> Tuple[str, ...]:
    """Decode a ``--sanitize`` value (``lock`` / ``parity`` / ``buf`` /
    ``all``; falsy means none) into a tuple of mode names."""
    if not sanitize:
        return ()
    if sanitize == "all":
        return tuple(sorted(SANITIZER_MODULES))
    if sanitize in SANITIZER_MODULES:
        return (sanitize,)
    raise ValueError(f"unknown sanitize mode {sanitize!r} "
                     f"(expected {'|'.join(sorted(SANITIZER_MODULES))}|all)")


def sanitizer_module(mode: str):
    """The implementing module of one sanitizer mode."""
    return importlib.import_module(SANITIZER_MODULES[mode])


@contextmanager
def sanitizer_scope(modes: Iterable[str],
                    ) -> Iterator[Callable[[], List[Tuple[str, Any]]]]:
    """Run a block under the given sanitizer modes.

    Installs the requested modes that are not already installed (so a
    ``CSAR_*SAN=1`` harness or an enclosing scope keeps its own), drops
    whatever reports predate the block, and yields ``drain``: each call
    returns the reports made since the last one as ``(tool, report)``
    pairs in attribution order — LockSan, then BufSan, then ParitySan —
    with ``tool`` the ``locksan`` / ``bufsan`` / ``paritysan`` label of a
    ``failure_kind``.  On exit it uninstalls exactly what it installed,
    which also closes the sanitizers built meanwhile.
    """
    modules = [sanitizer_module(mode) for mode in SANITIZER_MODULES
               if mode in modes]
    owned = [module for module in modules if not module.installed()]
    for module in owned:
        module.install()

    def drain() -> List[Tuple[str, Any]]:
        return [(module.__name__.rpartition(".")[2], report)
                for module in modules for report in module.drain_reports()]

    try:
        drain()
        yield drain
    finally:
        for module in owned:
            module.uninstall()


from repro.analysis.bufsan import BufSan, BufSanReport  # noqa: E402
from repro.analysis.lint import Finding, format_text, lint_paths  # noqa: E402
from repro.analysis.locksan import LockSan, LockSanReport, drain_reports  # noqa: E402
from repro.analysis.paritysan import ParitySan, ParitySanReport  # noqa: E402
from repro.analysis.rules import RULES, Rule, all_codes  # noqa: E402

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
    "SANITIZER_MODULES",
    "SanitizerRegistry",
    "all_codes",
    "drain_reports",
    "format_text",
    "lint_paths",
    "sanitize_modes",
    "sanitizer_module",
    "sanitizer_scope",
]

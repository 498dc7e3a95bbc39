"""``csar-lint``: static protocol checks for CSAR simulation code.

A stdlib-:mod:`ast` analysis with CSAR-specific rules (see
:mod:`repro.analysis.rules` for the registry and ``docs/ANALYSIS.md``
for worked examples).  There is one pass: the linted files (or the one
source string) become a :class:`~repro.analysis.summaries.Program` —
call graph plus per-function lock and buffer summaries — and every
rule below sees callee effects through it; CSAR010 (a lock leaked
through a helper) and CSAR011 (a lock-order cycle on the global
acquires-while-holding graph) are the rules that exist only across
function boundaries.

* **CSAR001** — a generator function acquires a lock/resource
  (``*.acquire(...)`` or ``*.request()``) that a path can exit without
  releasing.  Checked flow-sensitively: a CFG
  (:mod:`repro.analysis.cfg`) plus a forward lock-ownership dataflow
  (:mod:`repro.analysis.dataflow`) decide whether any normal or
  exceptional exit can still hold the token — no ``try/finally`` shape
  matching.  A token whose release lives in an ``except`` handler or
  ``finally`` block is exempt from the interrupt-leak variant, and a
  request whose ownership escapes (stored, returned, passed on) is the
  protocol-carried idiom and is not reported.
* **CSAR003** — a process body (a generator returning
  ``Generator[Event, ...]``, or one that yields ``.timeout(...)``
  events) yields an expression that cannot be an :class:`Event`
  (literals, arithmetic, comparisons, container displays, bare
  ``yield``).
* **CSAR004** — wall-clock time or unseeded module-level randomness
  (``time.time``, ``time.sleep``, ``random.random``, ...) inside a
  ``sim``/``redundancy`` module, which breaks run-to-run determinism.
* **CSAR005** — ``event.fail(exc)`` on a locally-created event that
  never escapes the function and is never ``defused()`` — the failure
  re-raises at the end of :meth:`Environment.run`.
* **CSAR006** — an :class:`~repro.util.intervals.Extent` dataclass
  constructed inside a loop (or comprehension) in a ``hw``/``sim``
  module: those are the simulator's hot paths, where the tuple-based
  ``overlap_iter``/``gaps_iter`` variants must be used instead.
* **CSAR007** — a parity lock (an ``*.acquire(...)`` token) held across
  a yield on long-latency I/O (``rpc``/``get``/``stream``/``transfer``/
  ``send``/``recv``) — the paper's Section 5.1 locking cost comes from
  exactly this: serialization windows stretched over non-lock I/O.
  Timeouts and the RMW's own ``fs.read``/``fs.write`` are deliberate
  hold-duration modeling and do not count.
* **CSAR008** — a lock released on some paths but still held on at
  least one *normal* exit (same dataflow as CSAR001; a release that
  exists but is conditional).
* **CSAR009** — an overflow-path function in a ``redundancy`` module
  writes partial-stripe data to the home location (``WriteReq`` or a
  ``.write(data_file(...), ...)``) instead of the overflow region.
* **CSAR012** — a flattening payload call (``.concat(...)``,
  ``.to_bytes()``, ``.assemble(...)``) inside a loop (or comprehension)
  in a ``pvfs``/``redundancy``/``hw`` module: each call materialises a
  contiguous copy, so one per fragment/iteration turns the zero-copy
  segment rope back into O(n²) memcpy.
* **CSAR013/014/015** — the buffer-provenance rules
  (:mod:`repro.analysis.bufflow`): in-place mutation or thaw of a
  may-frozen payload view, a private writable buffer escaping with no
  dominating freeze, and a shared scratch alias live across an Event
  yield.  Flow-sensitive over the same CFG engine as the lock rules;
  callee buffer summaries ride the call graph and findings carry
  ``caller -> helper`` chains.

Findings can be suppressed per line with a trailing comment::

    self.locks.acquire(f, g, xid)  # csar-lint: disable=CSAR001

``disable`` with no codes suppresses every rule on that line.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.dataflow import LockAnalysis
from repro.analysis.rules import RULES, all_codes
from repro.errors import ConfigError

#: Version of the ``--format=json`` payload (see ``docs/ANALYSIS.md``).
LINT_SCHEMA_VERSION = 1

#: ``<module>.<attr>`` calls that read the wall clock or draw unseeded
#: randomness (CSAR004).
_WALL_CLOCK = {
    "time": ("time", "time_ns", "sleep", "monotonic", "monotonic_ns",
             "perf_counter", "perf_counter_ns"),
    "random": ("random", "randint", "randrange", "uniform", "choice",
               "choices", "shuffle", "sample", "getrandbits", "gauss"),
    "datetime": ("now", "utcnow", "today"),
}

#: Expression node types a process must never yield (CSAR003): none of
#: these can evaluate to an Event.
_NON_EVENT_YIELDS = (
    ast.Constant, ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare,
    ast.JoinedStr, ast.List, ast.Tuple, ast.Dict, ast.Set,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)


@dataclass(frozen=True)
class Finding:
    """One lint hit, ready to print or serialize."""

    path: str
    line: int
    col: int
    code: str
    message: str
    #: cross-reference to a dynamic observation (CSAR011: the LockSan
    #: order-inversion witness, if the explorer recorded one); excluded
    #: from baseline identity so witness availability never churns a
    #: committed baseline
    witness: str = ""

    @property
    def fixit(self) -> str:
        rule = RULES.get(self.code)
        return rule.fixit if rule else ""

    def format(self) -> str:
        text = (f"{self.path}:{self.line}:{self.col}: {self.code} "
                f"{self.message}")
        if self.witness:
            text += f" ({self.witness})"
        return text


# ----------------------------------------------------------------------
# suppression comments
# ----------------------------------------------------------------------
def _suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map line number -> suppressed codes (``None`` = all codes)."""
    out: Dict[int, Optional[Set[str]]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            text = tok.string.lstrip("#").strip()
            marker = text.find("csar-lint:")
            if marker < 0:
                continue
            directive = text[marker + len("csar-lint:"):].strip()
            if not directive.startswith("disable"):
                continue
            rest = directive[len("disable"):].strip()
            if rest.startswith("="):
                codes = {c.strip() for c in rest[1:].split(",") if c.strip()}
                out[tok.start[0]] = codes
            else:
                out[tok.start[0]] = None  # disable everything on the line
    except tokenize.TokenError:
        pass
    return out


def _suppressed(supp: Dict[int, Optional[Set[str]]],
                line: int, code: str) -> bool:
    if line not in supp:
        return False
    codes = supp[line]
    return codes is None or code in codes


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(func: ast.FunctionDef) -> Iterable[ast.AST]:
    """All nodes of ``func``'s body, not descending into nested scopes."""
    todo: List[ast.AST] = list(func.body)
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, _SCOPES):
            continue
        todo.extend(ast.iter_child_nodes(node))


def _call_attr(node: ast.AST) -> Optional[str]:
    """The attribute name of a method call, e.g. ``x.y.acquire(...)``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


# ----------------------------------------------------------------------
# the per-file linter
# ----------------------------------------------------------------------
class FileLinter:
    """Run every enabled per-module rule over one module of a
    :class:`~repro.analysis.summaries.Program`, which supplies the parse
    and the callee summaries."""

    def __init__(self, path: str, source: str, program,
                 enable: Set[str]) -> None:
        self.path = path
        self.source = source
        self.program = program
        self.enable = enable
        self.findings: List[Finding] = []
        self._supp = _suppressions(source)

    # -- plumbing -------------------------------------------------------
    def _report(self, code: str, node: ast.AST, message: str) -> None:
        if code not in self.enable:
            return
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if _suppressed(self._supp, line, code):
            return
        self.findings.append(Finding(self.path, line, col, code, message))

    # -- entry point ----------------------------------------------------
    def run(self) -> List[Finding]:
        # Reuse the program's parse: the callee context is keyed by AST
        # node identity.  The program holds no tree for a module that
        # does not parse.
        tree = self.program.tree_for(self.path)
        if tree is None:
            try:
                tree = ast.parse(self.source, filename=self.path)
            except SyntaxError as err:
                line = err.lineno or 1
                self.findings.append(Finding(
                    self.path, line, err.offset or 0, "CSAR000",
                    f"syntax error: {err.msg}"))
                return self.findings
        sim_scoped = self._is_sim_scoped()
        buf_scoped = self._is_bufflow_scoped()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                self._check_function(node, sim_scoped)
                if buf_scoped:
                    self._check_bufflow(node)
        if sim_scoped:
            self._check_wall_clock(tree)
        if self._is_hot_scoped():
            self._check_extent_in_loops(tree)
        if self._is_payload_scoped():
            self._check_payload_copies_in_loops(tree)
        return self.findings

    def _is_sim_scoped(self) -> bool:
        """CSAR004 applies to modules whose behaviour must replay
        bit-identically: the engine (``sim``), the schemes
        (``redundancy``), fault injection (``faults`` — a plan must
        re-fire at the same sim instants), and the client RPC
        retry/backoff path (``pvfs`` — jitter must come from the seeded
        per-request stream, never the wall clock)."""
        parts = os.path.normpath(self.path).split(os.sep)
        return any(part in ("sim", "redundancy", "faults", "pvfs")
                   for part in parts)

    def _is_redundancy_scoped(self) -> bool:
        """CSAR009 applies only to ``redundancy`` modules."""
        parts = os.path.normpath(self.path).split(os.sep)
        return "redundancy" in parts

    def _is_bufflow_scoped(self) -> bool:
        """CSAR013–015 apply wherever payload bytes travel or rest:
        ``redundancy``/``pvfs`` modules, ``analysis`` (sanitizers,
        seeded bugs) and ``storage`` — the payload rope, and the block
        store that keeps the written payloads' own arrays.  ``hw``/
        ``sim`` never hold content and stay out of scope."""
        parts = os.path.normpath(self.path).split(os.sep)
        return any(part in ("redundancy", "pvfs", "analysis", "storage")
                   for part in parts)

    def _is_hot_scoped(self) -> bool:
        """CSAR006 applies only to ``hw``/``sim`` hot-path modules."""
        parts = os.path.normpath(self.path).split(os.sep)
        return any(part in ("hw", "sim") for part in parts)

    def _is_payload_scoped(self) -> bool:
        """CSAR012 applies only to data-path ``pvfs``/``redundancy``/``hw``
        modules."""
        parts = os.path.normpath(self.path).split(os.sep)
        return any(part in ("pvfs", "redundancy", "hw") for part in parts)

    # -- dispatch -------------------------------------------------------
    def _check_function(self, func: ast.FunctionDef,
                        sim_scoped: bool) -> None:
        nodes = list(_own_nodes(func))
        generator = any(isinstance(n, (ast.Yield, ast.YieldFrom))
                        for n in nodes)
        if generator:
            self._check_lock_dataflow(func)
            self._check_yields(func, nodes)
        if self._is_redundancy_scoped() and "overflow" in func.name:
            self._check_overflow_inplace(func, nodes)
        self._check_lost_failures(func, nodes)

    # -- CSAR013 / CSAR014 / CSAR015 (buffer provenance) ----------------
    _BUFFLOW_CODES = frozenset(("CSAR013", "CSAR014", "CSAR015"))

    def _check_bufflow(self, func: ast.FunctionDef) -> None:
        if not (self.enable & self._BUFFLOW_CODES):
            return
        from repro.analysis.bufflow import (BufferAnalysis,
                                            buffer_context_for)
        ctx = buffer_context_for(self.program, func)
        qname = ctx.info.qname if ctx is not None else func.name
        analysis = BufferAnalysis(func, interproc=ctx, qname=qname,
                                  path=self.path)
        for finding in analysis.findings():
            self._report(finding.code, finding.node, finding.message)

    # -- CSAR001 / CSAR007 / CSAR008 (CFG + dataflow) -------------------
    #: Yielded calls counted as long-latency non-lock I/O (CSAR007).
    _IO_YIELD_NAMES = frozenset(
        ("rpc", "get", "stream", "transfer", "send", "recv"))

    def _check_lock_dataflow(self, func: ast.FunctionDef) -> None:
        # ``ctx`` is None for a nested def, which the call graph does not
        # index: its analysis sees no callee effects.
        ctx = self.program.context_for(func)
        analysis = LockAnalysis(func, interproc=ctx)
        if not analysis.tokens:
            return
        held_exit = analysis.held_at_exit()
        held_raise = analysis.held_at_raise()
        for token in analysis.tokens:
            if token.guarded or token.escapes:
                continue
            if token.derived:
                self._check_derived_token(token, held_exit, held_raise,
                                          ctx.info)
                continue
            if ctx is not None and token.returned:
                # ``return request``: ownership transfers to the caller,
                # whose own analysis carries the release obligation.
                continue
            call = token.call
            desc = ast.unparse(call.func)
            if not token.release_sites:
                if token.tid in held_exit or token.tid in held_raise:
                    self._report(
                        "CSAR001", call,
                        f"{desc}() is never released on any path "
                        f"[fix: {RULES['CSAR001'].fixit}]")
                continue
            if token.tid in held_exit:
                self._report(
                    "CSAR008", call,
                    f"{desc}() released on some paths but still held on "
                    "at least one normal exit "
                    f"[fix: {RULES['CSAR008'].fixit}]")
            elif token.tid in held_raise and not token.release_in_cleanup:
                self._report(
                    "CSAR001", call,
                    f"{desc}() released on the normal path but leaked "
                    "when the blocking yield is interrupted "
                    f"[fix: {RULES['CSAR001'].fixit}]")
        for yield_node, held in analysis.yields_while_held():
            value = yield_node.value
            if not isinstance(value, ast.Call):
                continue
            name = None
            if isinstance(value.func, ast.Attribute):
                name = value.func.attr
            elif isinstance(value.func, ast.Name):
                name = value.func.id
            locks = ", ".join(sorted(
                f"{t.receiver}.acquire({', '.join(t.args)})"
                for t in held))
            if name in self._IO_YIELD_NAMES:
                self._report(
                    "CSAR007", yield_node,
                    f"yield on {ast.unparse(value.func)}() while holding "
                    f"{locks} — parity lock held across non-lock I/O "
                    f"[fix: {RULES['CSAR007'].fixit}]")
                continue
            effects = analysis.call_effect_of(value)
            if effects is not None and effects.io_yield:
                self._report(
                    "CSAR007", yield_node,
                    f"yield from {ast.unparse(value.func)}() which "
                    f"transitively yields on long-latency I/O, while "
                    f"holding {locks} — parity lock held across "
                    "non-lock I/O via a callee "
                    f"[fix: {RULES['CSAR007'].fixit}]")

    # -- CSAR010 (interprocedural lock leak) ----------------------------
    def _check_derived_token(self, token, held_exit, held_raise,
                             caller) -> None:
        if token.handoff:
            # No local release at all: the callee hands the lock to the
            # surrounding message protocol (e.g. the iod request handlers).
            return
        call = token.call
        desc = ast.unparse(call.func)
        key = f"{token.receiver}.acquire({', '.join(token.args)})"
        chain = _format_chain(((caller.qname, caller.path, call.lineno),),
                              token.chain)
        if token.tid in held_exit:
            self._report(
                "CSAR010", call,
                f"call chain through {desc}() can exit with {key} still "
                f"held (net-positive lock delta): acquired via {chain}, "
                "but no caller path guarantees the release "
                f"[fix: {RULES['CSAR010'].fixit}]")
        elif token.tid in held_raise and not token.release_in_cleanup:
            self._report(
                "CSAR010", call,
                f"call chain through {desc}() leaks {key} on an "
                f"exceptional edge: acquired via {chain}, with no "
                "release in any except/finally cleanup "
                f"[fix: {RULES['CSAR010'].fixit}]")

    # -- CSAR009 --------------------------------------------------------
    def _check_overflow_inplace(self, func: ast.FunctionDef,
                                nodes: List[ast.AST]) -> None:
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            func_node = node.func
            name = None
            if isinstance(func_node, ast.Name):
                name = func_node.id
            elif isinstance(func_node, ast.Attribute):
                name = func_node.attr
            if name == "WriteReq":
                self._report(
                    "CSAR009", node,
                    "overflow path sends WriteReq (home-location data "
                    "write) instead of OverflowWriteReq "
                    f"[fix: {RULES['CSAR009'].fixit}]")
            elif name == "write" and node.args:
                target = node.args[0]
                target_name = None
                if isinstance(target, ast.Call):
                    if isinstance(target.func, ast.Name):
                        target_name = target.func.id
                    elif isinstance(target.func, ast.Attribute):
                        target_name = target.func.attr
                if target_name == "data_file":
                    self._report(
                        "CSAR009", node,
                        "overflow path writes the home data file "
                        "in place instead of the overflow region "
                        f"[fix: {RULES['CSAR009'].fixit}]")

    # -- CSAR003 --------------------------------------------------------
    def _check_yields(self, func: ast.FunctionDef,
                      nodes: List[ast.AST]) -> None:
        if not self._is_process_body(func, nodes):
            return
        unreachable = self._unreachable_statements(func, nodes)
        for node in nodes:
            if not isinstance(node, ast.Yield):
                continue
            if any(node.lineno >= stmt.lineno
                   and node.lineno <= getattr(stmt, "end_lineno",
                                              stmt.lineno)
                   for stmt in unreachable):
                # ``raise ...`` followed by ``yield``: the standard idiom
                # for forcing a function to be a generator.
                continue
            value = node.value
            if value is None:
                self._report(
                    "CSAR003", node,
                    "bare yield in a process body — a process must yield "
                    f"Events [fix: {RULES['CSAR003'].fixit}]")
            elif isinstance(value, _NON_EVENT_YIELDS):
                self._report(
                    "CSAR003", node,
                    f"yield of {ast.unparse(value)!r} which cannot be an "
                    f"Event [fix: {RULES['CSAR003'].fixit}]")

    @staticmethod
    def _unreachable_statements(func: ast.FunctionDef,
                                nodes: List[ast.AST]) -> List[ast.stmt]:
        """Statements that follow a terminator in the same block."""
        out: List[ast.stmt] = []
        containers: List[ast.AST] = [func]
        containers.extend(nodes)
        for node in containers:
            for field in ("body", "orelse", "finalbody"):
                block = getattr(node, field, None)
                if not isinstance(block, list):
                    continue
                terminated = False
                for stmt in block:
                    if terminated and isinstance(stmt, ast.stmt):
                        out.append(stmt)
                    if isinstance(stmt, (ast.Raise, ast.Return,
                                         ast.Break, ast.Continue)):
                        terminated = True
        return out

    @staticmethod
    def _is_process_body(func: ast.FunctionDef,
                         nodes: List[ast.AST]) -> bool:
        """Process bodies are typed ``Generator[Event, ...]`` (the
        repo-wide convention) or demonstrably yield timeout events."""
        if func.returns is not None:
            annotation = ast.unparse(func.returns)
            if "Event" in annotation:
                return True
        for node in nodes:
            if (isinstance(node, (ast.Yield, ast.YieldFrom))
                    and node.value is not None
                    and _call_attr(node.value) == "timeout"):
                return True
        return False

    # -- CSAR004 --------------------------------------------------------
    def _check_wall_clock(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)):
                continue
            module = node.func.value.id
            attr = node.func.attr
            if attr in _WALL_CLOCK.get(module, ()):
                self._report(
                    "CSAR004", node,
                    f"{module}.{attr}() in a sim/redundancy module breaks "
                    f"determinism [fix: {RULES['CSAR004'].fixit}]")

    # -- CSAR006 --------------------------------------------------------
    _LOOPS = (ast.For, ast.While, ast.AsyncFor,
              ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

    def _check_extent_in_loops(self, tree: ast.Module) -> None:
        """Flag ``Extent(...)`` construction inside any loop body."""
        seen: Set[int] = set()  # a call inside nested loops reports once
        for loop in ast.walk(tree):
            if not isinstance(loop, self._LOOPS):
                continue
            for node in ast.walk(loop):
                if node is loop or not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = None
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                if name != "Extent" or id(node) in seen:
                    continue
                seen.add(id(node))
                self._report(
                    "CSAR006", node,
                    "Extent() constructed inside a loop in a hw/sim "
                    "hot-path module "
                    f"[fix: {RULES['CSAR006'].fixit}]")

    # -- CSAR012 --------------------------------------------------------
    #: Payload methods that materialise a flat contiguous copy.
    _PAYLOAD_FLATTENERS = frozenset({"concat", "to_bytes", "assemble"})

    def _check_payload_copies_in_loops(self, tree: ast.Module) -> None:
        """Flag flattening payload calls inside any loop body."""
        seen: Set[int] = set()  # a call inside nested loops reports once
        for loop in ast.walk(tree):
            if not isinstance(loop, self._LOOPS):
                continue
            for node in ast.walk(loop):
                if node is loop or not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue  # bare concat()/assemble() is someone else's
                name = func.attr
                if (name not in self._PAYLOAD_FLATTENERS
                        or id(node) in seen):
                    continue
                seen.add(id(node))
                self._report(
                    "CSAR012", node,
                    f".{name}() materialises a flat payload copy inside "
                    "a loop in a pvfs/redundancy/hw data-path module "
                    f"[fix: {RULES['CSAR012'].fixit}]")

    # -- CSAR005 --------------------------------------------------------
    def _check_lost_failures(self, func: ast.FunctionDef,
                             nodes: List[ast.AST]) -> None:
        fails: List[Tuple[str, ast.Call]] = []
        for node in nodes:
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "fail"
                    and node.args
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id not in ("self", "cls")):
                fails.append((node.func.value.id, node))
        if not fails:
            return
        for name, call in fails:
            if self._defused_or_escapes(name, call, nodes):
                continue
            self._report(
                "CSAR005", call,
                f"{name}.fail(...) but {name!r} never escapes this "
                "function and is never defused(): the failure re-raises "
                "at the end of Environment.run() "
                f"[fix: {RULES['CSAR005'].fixit}]")

    @staticmethod
    def _defused_or_escapes(name: str, fail_call: ast.Call,
                            nodes: List[ast.AST]) -> bool:
        for node in nodes:
            # Explicitly defused.
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "defused"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == name):
                return True
            # Escapes: returned or yielded.
            if (isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom))
                    and node.value is not None
                    and name in _names_in(node.value)):
                return True
            # Escapes: passed as an argument to any call.
            if isinstance(node, ast.Call) and node is not fail_call:
                in_args = any(name in _names_in(a) for a in node.args)
                in_kwargs = any(name in _names_in(k.value)
                                for k in node.keywords)
                if in_args or in_kwargs:
                    return True
            # Escapes: stored into an attribute, subscript, or container.
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                value = getattr(node, "value", None)
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                stored = any(isinstance(t, (ast.Attribute, ast.Subscript))
                             for t in targets)
                if (stored and value is not None
                        and name in _names_in(value)):
                    return True
            if (isinstance(node, (ast.List, ast.Tuple, ast.Set, ast.Dict))
                    and name in _names_in(node)):
                return True
        return False


def _format_chain(prefix: Tuple, chain: Tuple) -> str:
    links = tuple(prefix) + tuple(chain)
    return " -> ".join(f"{qname} ({path}:{line})"
                       for qname, path, line in links)


# ----------------------------------------------------------------------
# CSAR011: the whole-program lock-order checker
# ----------------------------------------------------------------------
def _witness_note(edge, witnesses) -> str:
    """Match one static order edge against LockSan runtime witnesses.

    ``witnesses`` is a list of ``{"file", "group", "held_group"}`` dicts
    from the explorer (see :func:`load_witnesses`), or ``None`` when no
    witness file was supplied (then no note is attached at all).
    Numeric edges match exactly; loop-carried/symbolic edges match any
    inversion whose held group exceeds the acquired group.
    """
    if witnesses is None:
        return ""
    from repro.analysis.summaries import group_value
    value_held = group_value(edge.held)
    value_acq = group_value(edge.acquired)
    for w in witnesses:
        held_group, group = w.get("held_group"), w.get("group")
        if held_group is None or group is None:
            continue
        if value_held is not None and value_acq is not None:
            matched = held_group == value_held and group == value_acq
        else:
            matched = held_group > group
        if matched:
            return (f"dynamic witness: LockSan order-inversion on "
                    f"{w.get('file')!r}, held group {held_group} while "
                    f"acquiring group {group}")
    return "no dynamic witness recorded"


def check_order_cycles(program, enable: Set[str],
                       supp_of_path: Dict[str, Dict[int,
                                                    Optional[Set[str]]]],
                       witnesses=None) -> List[Finding]:
    """CSAR011 over the global acquires-while-holding graph.

    Two cycle shapes are reported:

    * a *descending* edge (numeric groups, or a loop statically iterating
      groups downward) — it collides with every ascending-convention
      chain, so the cycle partner is the Section 5.1 protocol itself;
    * a *reversed symbolic pair* — chain A acquires ``b`` while holding
      ``a`` and chain B acquires ``a`` while holding ``b`` on the same
      file expression.
    """
    findings: List[Finding] = []
    if "CSAR011" not in enable:
        return findings

    def emit(edge, message: str) -> None:
        supp = supp_of_path.get(edge.path, {})
        if _suppressed(supp, edge.line, "CSAR011"):
            return
        findings.append(Finding(
            edge.path, edge.line, 0, "CSAR011", message,
            witness=_witness_note(edge, witnesses)))

    from repro.analysis.summaries import group_value
    edges = program.order_edges()
    seen: Set[Tuple] = set()
    for qname, edge in edges:
        if not edge.descending:
            continue
        key = (edge.path, edge.line, edge.held, edge.acquired)
        if key in seen:
            continue
        seen.add(key)
        shape = ("groups iterated in descending order"
                 if edge.loop_carried else
                 f"group {edge.acquired} acquired while group "
                 f"{edge.held} is held")
        emit(edge,
             f"static lock-order cycle on file {edge.file_text}: {shape} "
             "— collides with every chain following the ascending "
             f"Section 5.1 convention; witness chain {qname}: "
             f"{_format_chain((), edge.chain)} "
             f"[fix: {RULES['CSAR011'].fixit}]")

    # Reversed symbolic pairs: (a held -> b acquired) vs (b -> a).
    by_pair: Dict[Tuple[str, str, str], List[Tuple[str, object]]] = {}
    for qname, edge in edges:
        if edge.descending or edge.loop_carried:
            continue
        if group_value(edge.held) is not None \
                and group_value(edge.acquired) is not None:
            continue  # numeric pairs are fully ordered, handled above
        by_pair.setdefault((edge.file_text, edge.held, edge.acquired),
                           []).append((qname, edge))
    for (file_text, held, acquired), members in sorted(by_pair.items()):
        reverse = by_pair.get((file_text, acquired, held))
        if not reverse or held >= acquired:
            continue  # report each unordered pair once
        qname, edge = members[0]
        rev_qname, rev_edge = reverse[0]
        emit(edge,
             f"static lock-order cycle on file {file_text}: "
             f"{qname} acquires {acquired} while holding {held} "
             f"({_format_chain((), edge.chain)}) but {rev_qname} "
             f"acquires {held} while holding {acquired} "
             f"({_format_chain((), rev_edge.chain)}) "
             f"[fix: {RULES['CSAR011'].fixit}]")
    return findings


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def lint_source(source: str, path: str = "<string>",
                enable: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint one module given as a string (a one-module program)."""
    return _lint_sources({path: source}, enable, None)


def iter_python_files(paths: Iterable[str]) -> Iterable[str]:
    """Expand files and directory trees, deduplicated: a file reachable
    both directly and through a parent directory is yielded once."""
    seen: Set[str] = set()

    def once(path: str) -> bool:
        real = os.path.realpath(path)
        if real in seen:
            return False
        seen.add(real)
        return True

    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames
                               if d not in ("__pycache__", ".git")]
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        candidate = os.path.join(dirpath, filename)
                        if once(candidate):
                            yield candidate
        elif once(path):
            yield path


def lint_paths(paths: Iterable[str],
               enable: Optional[Iterable[str]] = None,
               witnesses=None) -> List[Finding]:
    """Lint files and directory trees as one program; findings sorted by
    location."""
    sources: Dict[str, str] = {}
    for path in iter_python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as fp:
                sources[path] = fp.read()
        except OSError:
            continue
    return _lint_sources(sources, enable, witnesses)


def _enabled_codes(enable: Optional[Iterable[str]]) -> Set[str]:
    """The codes to run, every registered rule by default.  An unknown
    code is an error: a misspelt or retired code in ``[tool.csar-lint]
    enable`` would otherwise switch rules off without a word."""
    if enable is None:
        return set(all_codes())
    codes = set(enable)
    unknown = sorted(codes - set(RULES))
    if unknown:
        raise ConfigError(f"unknown csar-lint rule code(s): "
                          f"{', '.join(unknown)}")
    return codes


def _lint_sources(sources: Dict[str, str],
                  enable: Optional[Iterable[str]],
                  witnesses) -> List[Finding]:
    """The one lint pass: condense ``sources`` into a
    :class:`~repro.analysis.summaries.Program` (call graph + lock and
    buffer summaries), run the per-module rules with callee effects
    visible, then the whole-program CSAR011 over the global lock-order
    graph.  ``witnesses`` is an optional list of LockSan order-inversion
    records (see :func:`load_witnesses`) cross-referenced into CSAR011
    findings."""
    from repro.analysis.summaries import Program

    enabled = _enabled_codes(enable)
    program = Program.from_sources(sources)
    findings: List[Finding] = []
    supp_of_path: Dict[str, Dict[int, Optional[Set[str]]]] = {}
    for path, source in sources.items():
        linter = FileLinter(path, source, program, enabled)
        findings.extend(linter.run())
        supp_of_path[path] = linter._supp
    findings.extend(check_order_cycles(program, enabled, supp_of_path,
                                       witnesses))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    unique: List[Finding] = []
    seen: Set[Tuple] = set()
    for finding in findings:
        key = (finding.path, finding.line, finding.col, finding.code,
               finding.message)
        if key not in seen:
            seen.add(key)
            unique.append(finding)
    return unique


# ----------------------------------------------------------------------
# baselines
# ----------------------------------------------------------------------
#: Version of the ``--baseline`` file payload.
BASELINE_SCHEMA_VERSION = 1


#: a ``path.py:LINE`` location inside a message (a witness-chain hop)
_MESSAGE_LINE = re.compile(r"(\.py):\d+")


def baseline_key(finding: Finding) -> Tuple[str, str, str]:
    """Baseline identity: location-line-free so mere drift in line
    numbers does not resurrect a baselined finding — neither the
    finding's own line nor the ``file.py:LINE`` hops of the witness
    chain its message quotes — and witness-free so dynamic-witness
    availability does not churn the file."""
    return (finding.path, finding.code,
            _MESSAGE_LINE.sub(r"\1", finding.message))


def write_baseline(findings: List[Finding], path: str) -> None:
    entries = sorted({baseline_key(f) for f in findings})
    payload = {
        "schema_version": BASELINE_SCHEMA_VERSION,
        "entries": [{"path": p, "code": c, "message": m}
                    for p, c, m in entries],
    }
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2)
        fp.write("\n")


def load_baseline(path: str) -> Set[Tuple[str, str, str]]:
    with open(path, "r", encoding="utf-8") as fp:
        data = json.load(fp)
    version = data.get("schema_version")
    if version != BASELINE_SCHEMA_VERSION:
        raise ValueError(f"unsupported baseline schema_version "
                         f"{version!r} (expected "
                         f"{BASELINE_SCHEMA_VERSION})")
    return {(e["path"], e["code"], e["message"])
            for e in data.get("entries", ())}


def apply_baseline(findings: List[Finding],
                   entries: Set[Tuple[str, str, str]],
                   ) -> Tuple[List[Finding], int]:
    """Split findings into (new, suppressed-count) against a baseline."""
    new = [f for f in findings if baseline_key(f) not in entries]
    return new, len(findings) - len(new)


def stale_entries(findings: List[Finding],
                  entries: Set[Tuple[str, str, str]],
                  paths: List[str]) -> List[Tuple[str, str, str]]:
    """The baseline entries under the linted ``paths`` that match no
    finding: a fixed finding's entry, which would otherwise hide the
    next finding with the same key.  Entries for files outside
    ``paths`` are not judged."""
    roots = [os.path.abspath(p) for p in paths]
    keys = {baseline_key(f) for f in findings}
    return sorted(
        entry for entry in entries if entry not in keys
        and any(os.path.commonpath([root, os.path.abspath(entry[0])])
                == root for root in roots))


def baseline_from_pyproject(root: str = ".") -> Optional[str]:
    """The ``[tool.csar-lint] baseline`` path, if configured (resolved
    relative to ``root``)."""
    section = _pyproject_section(root)
    baseline = section.get("baseline")
    if isinstance(baseline, str):
        return os.path.join(root, baseline)
    return None


# ----------------------------------------------------------------------
# LockSan witness files (written by ``csar-repro explore --smoke``)
# ----------------------------------------------------------------------
#: Version of the ``--witnesses`` file payload.
WITNESS_SCHEMA_VERSION = 1


def save_witnesses(witnesses: List[dict], path: str) -> None:
    payload = {"schema_version": WITNESS_SCHEMA_VERSION,
               "witnesses": witnesses}
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2)
        fp.write("\n")


def load_witnesses(path: str) -> List[dict]:
    with open(path, "r", encoding="utf-8") as fp:
        data = json.load(fp)
    version = data.get("schema_version")
    if version != WITNESS_SCHEMA_VERSION:
        raise ValueError(f"unsupported witness schema_version "
                         f"{version!r} (expected "
                         f"{WITNESS_SCHEMA_VERSION})")
    return list(data.get("witnesses", ()))


def _pyproject_section(root: str = ".") -> dict:
    """The parsed ``[tool.csar-lint]`` table (empty when unavailable)."""
    candidate = os.path.join(root, "pyproject.toml")
    if not os.path.exists(candidate):
        return {}
    try:
        import tomllib
    except ImportError:  # pragma: no cover - python < 3.11
        return {}
    with open(candidate, "rb") as fp:
        data = tomllib.load(fp)
    section = data.get("tool", {}).get("csar-lint", {})
    return section if isinstance(section, dict) else {}


def enabled_codes_from_pyproject(root: str = ".") -> Optional[List[str]]:
    """The ``[tool.csar-lint] enable`` list, if configured."""
    enable = _pyproject_section(root).get("enable")
    if isinstance(enable, list):
        return [str(code) for code in enable]
    return None


def format_text(findings: List[Finding]) -> str:
    lines = [f.format() for f in findings]
    if findings:
        lines.append(f"{len(findings)} finding"
                     f"{'s' if len(findings) != 1 else ''}")
    return "\n".join(lines)


def format_json(findings: List[Finding]) -> str:
    """Serialize findings as a versioned JSON document.

    The payload is ``{"schema_version": N, "findings": [...]}`` so CI
    and external tooling can detect format changes; see
    ``docs/ANALYSIS.md`` for the field reference.
    """
    return json.dumps(
        {"schema_version": LINT_SCHEMA_VERSION,
         "findings": [
             {"path": f.path, "line": f.line, "col": f.col,
              "code": f.code, "message": f.message, "fixit": f.fixit,
              "witness": f.witness}
             for f in findings]},
        indent=2)


def format_sarif(findings: List[Finding]) -> str:
    """Serialize findings as SARIF 2.1.0 for CI code-scanning upload."""
    rules = [
        {"id": code,
         "name": RULES[code].name,
         "shortDescription": {"text": RULES[code].summary},
         "help": {"text": RULES[code].fixit},
         "defaultConfiguration": {"level": "error"}}
        for code in all_codes()]
    results = []
    for f in findings:
        message = f.message
        if f.witness:
            message += f" ({f.witness})"
        results.append({
            "ruleId": f.code,
            "level": "error",
            "message": {"text": message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.path},
                    "region": {"startLine": f.line,
                               "startColumn": f.col + 1}}}],
        })
    payload = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "csar-lint",
                "informationUri":
                    "https://example.invalid/csar-repro/docs/ANALYSIS.md",
                "rules": rules}},
            "results": results}],
    }
    return json.dumps(payload, indent=2)

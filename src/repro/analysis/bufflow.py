"""Buffer-provenance dataflow for ``csar-lint`` (CSAR013/014).

The zero-copy payload path works because of one discipline: a numpy
buffer is *either* private and writable *or* shared and frozen, never
both.  This module proves each function keeps that discipline, with an
abstract domain over the per-function CFG
(:mod:`repro.analysis.cfg`) + worklist engine
(:func:`repro.analysis.dataflow.run_forward`) tracking, per local
variable, where its buffer came from:

``FROZEN_VIEW``
    aliases bytes some payload already shares: ``Payload.slice()``
    results, ``.data`` attribute loads, ``iter_segments()`` loop
    targets, anything a callee summary says returns a frozen view, and
    buffers after an explicit freeze (``_freeze``/
    ``flags.writeable = False`` — mutating those raises at run time).
``PRIVATE_WRITABLE``
    a fresh allocation this function owns: ``_writable_copy()``,
    ``.copy()``, ``np.zeros``/``np.empty``-family calls, or a callee
    that returns one.

The rules:

* **CSAR013** ``mutate-shared-view`` — an in-place mutation
  (``v[i] = x``, ``v += x``, ``out=v``, a mutating callee) or a thaw
  (``v.flags.writeable = True``) on a value that may be a frozen view;
* **CSAR014** ``writable-escape-without-freeze`` — a private writable
  buffer stored into an attribute/subscript/container or passed to a
  callee that retains it, with no dominating freeze (capturing into a
  ``Payload`` counts as freezing: its constructor freezes).  A reused
  scratch buffer is this rule's case: storing the private allocation
  into ``self._scratch`` unfrozen is what lets the next write refill
  bytes an earlier payload still shares.

Interprocedural mode rides the same callgraph the lock summaries use:
:func:`build_buffer_summaries` condenses every function bottom-up into
a :class:`BufferSummary` (what it returns; which parameters it
mutates, thaws, or retains), substituted at call sites through
:func:`repro.analysis.summaries._binding`, and findings report
``caller -> helper`` witness chains exactly like CSAR010.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, FunctionInfo, normalize_call
from repro.analysis.cfg import EXC, build_cfg
from repro.analysis.dataflow import _own_stmt_nodes, run_forward
from repro.analysis.rules import RULES
from repro.analysis.summaries import ChainLink, _binding, format_chain

#: The provenance tags.
FROZEN_VIEW = "frozen-view"
PRIVATE_WRITABLE = "private-writable"

#: ``np.<allocator>()`` calls returning a fresh writable array.
_NP_ALLOCATORS = frozenset((
    "zeros", "empty", "ones", "full", "arange",
    "zeros_like", "empty_like", "ones_like", "full_like"))
_NP_MODULES = ("np", "numpy")

#: Method calls returning a private writable buffer / a frozen view.
_PRIVATE_COPY_ATTRS = frozenset(("_writable_copy", "copy"))
_FROZEN_VIEW_ATTRS = frozenset(("slice",))

#: Payload constructors: capture *freezes* its buffer argument (kills
#: PRIVATE_WRITABLE); the wrapper itself carries no buffer tag.
_PAYLOAD_CTORS = frozenset(("Payload", "SegmentedPayload"))

#: Container methods that retain a reference to their argument.
_CONTAINER_ADD_ATTRS = frozenset(("append", "add", "insert", "extend",
                                  "appendleft"))

#: Known freezing helpers (``_freeze(arr)`` in storage/payload.py).
_FREEZE_NAMES = frozenset(("_freeze",))

#: Known intra mutators: bare-name call -> index of the mutated arg.
_MUTATOR_CALLS = {"xor_into_at": 0}


# ----------------------------------------------------------------------
# domain
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BufToken:
    """One provenance fact: variable ``var`` may hold a ``tag`` buffer
    born at ``line`` (with an interprocedural witness ``chain``)."""

    tid: int
    var: str
    tag: str
    line: int
    chain: Tuple[ChainLink, ...] = ()


@dataclass(frozen=True)
class ParamEffect:
    """One externally visible effect on a parameter's buffer."""

    param: str
    op: str                        # "mutate" | "thaw" | "retain"
    frozen: bool                   # retains: stored only after a freeze
    chain: Tuple[ChainLink, ...]   # chain[0] is this function's own site


@dataclass(frozen=True)
class ReturnTag:
    """One provenance the function's return value may carry."""

    tag: str
    chain: Tuple[ChainLink, ...]


@dataclass(frozen=True)
class BufferSummary:
    """The externally visible buffer behaviour of one function."""

    qname: str
    path: str
    returns: Tuple[ReturnTag, ...] = ()
    params: Tuple[ParamEffect, ...] = ()


@dataclass(frozen=True)
class BufFinding:
    """One rule violation, before lint.py turns it into a Finding."""

    code: str
    node: ast.AST
    message: str


class BufferContext:
    """Resolves one function's call sites against buffer summaries."""

    def __init__(self, graph: CallGraph,
                 summaries: Dict[str, BufferSummary],
                 info: FunctionInfo) -> None:
        self.graph = graph
        self.summaries = summaries
        self.info = info

    def resolve(self, call: ast.Call) -> List[
            Tuple[FunctionInfo, BufferSummary, Dict[str, ast.expr]]]:
        res = self.graph.resolve_call(self.info, call)
        if not res.confident or not res.targets:
            return []
        out = []
        for qname in res.targets:
            if qname in self.summaries and qname in self.graph.functions:
                callee = self.graph.functions[qname]
                out.append((callee, self.summaries[qname],
                            _binding(callee, call)))
        return out


# ----------------------------------------------------------------------
# the per-function analysis
# ----------------------------------------------------------------------
def _writeable_flag_target(target: ast.expr) -> Optional[str]:
    """The ``v`` of a ``v.flags.writeable = ...`` assignment target."""
    if (isinstance(target, ast.Attribute) and target.attr == "writeable"
            and isinstance(target.value, ast.Attribute)
            and target.value.attr == "flags"
            and isinstance(target.value.value, ast.Name)):
        return target.value.value.id
    return None


def _out_kwarg_var(call: ast.Call) -> Optional[str]:
    """The base variable of an ``out=...`` keyword (``np.bitwise_xor(...,
    out=dst)`` / ``out=dst[a:b]`` mutate ``dst`` in place)."""
    for kw in call.keywords:
        if kw.arg != "out":
            continue
        value = kw.value
        if isinstance(value, ast.Subscript):
            value = value.value
        if isinstance(value, ast.Name):
            return value.id
    return None


class BufferAnalysis:
    """Buffer-provenance dataflow over one function."""

    def __init__(self, func: ast.FunctionDef,
                 interproc: Optional[BufferContext] = None,
                 qname: Optional[str] = None, path: str = "") -> None:
        self.func = func
        self.interproc = interproc
        self.qname = qname or func.name
        self.path = path
        args = func.args
        self.params: List[str] = [
            a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        self.tokens: List[BufToken] = []
        self._token_ids: Dict[Tuple, int] = {}
        self.cfg = build_cfg(func)
        self.facts = run_forward(self.cfg, self._transfer)

    # -- token plumbing -------------------------------------------------
    def _token(self, var: str, tag: str, line: int,
               chain: Tuple[ChainLink, ...] = ()) -> int:
        key = (var, tag, line, chain)
        tid = self._token_ids.get(key)
        if tid is None:
            tid = len(self.tokens)
            self._token_ids[key] = tid
            self.tokens.append(BufToken(tid, var, tag, line, chain))
        return tid

    def _live(self, fact: FrozenSet[int], var: str,
              tag: Optional[str] = None) -> List[BufToken]:
        return [self.tokens[t] for t in sorted(fact)
                if self.tokens[t].var == var
                and (tag is None or self.tokens[t].tag == tag)]

    def _kill(self, fact: FrozenSet[int],
              names: Iterable[str]) -> FrozenSet[int]:
        names = set(names)
        if not names:
            return fact
        return frozenset(t for t in fact
                         if self.tokens[t].var not in names)

    def _kill_tag(self, fact: FrozenSet[int], var: str,
                  tag: str) -> FrozenSet[int]:
        return frozenset(t for t in fact
                         if not (self.tokens[t].var == var
                                 and self.tokens[t].tag == tag))

    # -- provenance of an expression ------------------------------------
    def _rhs_tags(self, expr: ast.expr, fact: FrozenSet[int],
                  ) -> List[Tuple[str, Tuple[ChainLink, ...]]]:
        if isinstance(expr, ast.Name):
            return [(t.tag, t.chain) for t in sorted(
                (self.tokens[i] for i in fact if
                 self.tokens[i].var == expr.id),
                key=lambda t: t.tid)]
        if isinstance(expr, ast.Subscript):
            # A basic slice of an array is a *view*: same provenance.
            return self._rhs_tags(expr.value, fact)
        if isinstance(expr, ast.IfExp):
            return (self._rhs_tags(expr.body, fact)
                    + self._rhs_tags(expr.orelse, fact))
        if isinstance(expr, ast.Attribute):
            if expr.attr in ("data", "_data"):
                return [(FROZEN_VIEW, ())]
            return []
        if isinstance(expr, ast.Call):
            return self._call_tags(expr, fact)
        return []

    def _call_tags(self, call: ast.Call, fact: FrozenSet[int],
                   ) -> List[Tuple[str, Tuple[ChainLink, ...]]]:
        recv, attr, bare = normalize_call(call)
        if attr in _FROZEN_VIEW_ATTRS:
            return [(FROZEN_VIEW, ())]
        if attr in _PRIVATE_COPY_ATTRS:
            return [(PRIVATE_WRITABLE, ())]
        if (attr in _NP_ALLOCATORS and isinstance(recv, ast.Name)
                and recv.id in _NP_MODULES):
            return [(PRIVATE_WRITABLE, ())]
        if (bare or attr) in _PAYLOAD_CTORS:
            return []  # a freezing capture (see _apply)
        if self.interproc is not None:
            out = []
            for _callee, summary, _mapping in self.interproc.resolve(call):
                out.extend((rt.tag, rt.chain) for rt in summary.returns)
            return out
        return []

    # -- transfer function ----------------------------------------------
    def _transfer(self, node_index: int, fact: FrozenSet[int],
                  kind: str) -> FrozenSet[int]:
        if kind == EXC:
            # Aborted statements never completed their effects.
            return fact
        node = self.cfg.nodes[node_index]
        if node.stmt is None or node.label != "stmt":
            return fact
        return self._apply(node.stmt, fact)

    def _apply(self, stmt: ast.stmt,
               fact: FrozenSet[int]) -> FrozenSet[int]:
        # ``_freeze(v)`` anywhere in the statement freezes v below it —
        # and so does handing v to a Payload constructor, which freezes
        # its buffer argument in place before capturing it.
        for node in _own_stmt_nodes(stmt):
            if not isinstance(node, ast.Call):
                continue
            _recv, attr, bare = normalize_call(node)
            name = bare or attr
            if name in _FREEZE_NAMES or name in _PAYLOAD_CTORS:
                for arg in node.args:
                    if not isinstance(arg, ast.Name):
                        continue
                    if (name in _PAYLOAD_CTORS
                            and not self._live(fact, arg.id,
                                               PRIVATE_WRITABLE)):
                        # Only retag arguments known to be private
                        # buffers: Payload(length, buf) also takes plain
                        # ints.
                        continue
                    fact = self._kill_tag(fact, arg.id,
                                          PRIVATE_WRITABLE)
                    fact = fact | {self._token(arg.id, FROZEN_VIEW,
                                               stmt.lineno)}

        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            names = [n.id for n in ast.walk(stmt.target)
                     if isinstance(n, ast.Name)]
            fact = self._kill(fact, names)
            if names and isinstance(stmt.iter, ast.Call):
                _recv, attr, _bare = normalize_call(stmt.iter)
                if attr == "iter_segments":
                    # ``for at, seg in p.iter_segments()``: each segment
                    # is a read-only view of the payload's bytes.
                    fact = fact | {self._token(names[-1], FROZEN_VIEW,
                                               stmt.lineno)}
            return fact

        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            flag_var = _writeable_flag_target(target)
            if flag_var is not None:
                if (isinstance(stmt.value, ast.Constant)
                        and stmt.value.value is False):
                    # Freeze: the buffer is now safely shareable (and
                    # mutating it would raise) — retag as frozen.
                    fact = self._kill_tag(fact, flag_var,
                                          PRIVATE_WRITABLE)
                    fact = fact | {self._token(flag_var, FROZEN_VIEW,
                                               stmt.lineno)}
                return fact
            if isinstance(target, ast.Name):
                gens = self._rhs_tags(stmt.value, fact)
                fact = self._kill(fact, (target.id,))
                for tag, chain in gens:
                    fact = fact | {self._token(target.id, tag,
                                               stmt.lineno, chain)}
                return fact
            if isinstance(target, (ast.Tuple, ast.List)):
                return self._kill(fact, (e.id for e in target.elts
                                         if isinstance(e, ast.Name)))
            return fact

        if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) \
                and isinstance(stmt.target, ast.Name):
            if isinstance(stmt, ast.AnnAssign):
                if stmt.value is None:
                    return fact
                gens = self._rhs_tags(stmt.value, fact)
                fact = self._kill(fact, (stmt.target.id,))
                return fact | {self._token(stmt.target.id, tag,
                                           stmt.lineno, chain)
                               for tag, chain in gens}
            # AugAssign mutates in place: provenance unchanged.
            return fact
        return fact

    # ------------------------------------------------------------------
    # statement-level observations (shared by findings and summaries)
    # ------------------------------------------------------------------
    def _mutated_vars(self, stmt: ast.stmt) -> List[Tuple[str, str]]:
        """``(var, how)`` pairs this statement mutates in place."""
        out: List[Tuple[str, str]] = []
        if isinstance(stmt, ast.AugAssign):
            target = stmt.target
            if isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Name):
                out.append((target.id, "augmented assignment"))
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name):
                    out.append((target.value.id, "subscript store"))
        for node in _own_stmt_nodes(stmt):
            if not isinstance(node, ast.Call):
                continue
            var = _out_kwarg_var(node)
            if var is not None:
                out.append((var, "out= argument"))
            _recv, _attr, bare = normalize_call(node)
            arg_index = _MUTATOR_CALLS.get(bare or "")
            if arg_index is not None and len(node.args) > arg_index:
                arg = node.args[arg_index]
                if isinstance(arg, ast.Name):
                    out.append((arg.id, f"{bare}()"))
        return out

    def _thawed_vars(self, stmt: ast.stmt) -> List[str]:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            var = _writeable_flag_target(stmt.targets[0])
            if var is not None and not (
                    isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is False):
                return [var]
        return []

    def _stored_names(self, stmt: ast.stmt) -> List[Tuple[str, ast.AST]]:
        """Names this statement stores somewhere that outlives it."""
        out: List[Tuple[str, ast.AST]] = []
        if isinstance(stmt, ast.Assign):
            stored = any(isinstance(t, (ast.Attribute, ast.Subscript))
                         and _writeable_flag_target(t) is None
                         for t in stmt.targets)
            if stored and isinstance(stmt.value, ast.Name):
                out.append((stmt.value.id, stmt.value))
        for node in _own_stmt_nodes(stmt):
            if not isinstance(node, ast.Call):
                continue
            _recv, attr, _bare = normalize_call(node)
            if attr not in _CONTAINER_ADD_ATTRS:
                continue
            for arg in node.args:
                elts = arg.elts if isinstance(arg, (ast.Tuple, ast.List)) \
                    else [arg]
                out.extend((e.id, e) for e in elts
                           if isinstance(e, ast.Name))
        return out

    def _own_calls(self, stmt: ast.stmt) -> List[ast.Call]:
        return [n for n in _own_stmt_nodes(stmt)
                if isinstance(n, ast.Call)]

    def _stmt_facts(self) -> Iterable[Tuple[ast.stmt, FrozenSet[int]]]:
        """Each reachable statement with its IN fact (deduplicated —
        ``finally`` copies visit the same statement several times)."""
        seen: Dict[int, FrozenSet[int]] = {}
        order: List[ast.stmt] = []
        for node in self.cfg.nodes:
            if node.label != "stmt" or node.stmt is None:
                continue
            fact = self.facts.get(node.index)
            if fact is None:
                continue
            key = id(node.stmt)
            if key in seen:
                seen[key] = seen[key] | fact
            else:
                seen[key] = fact
                order.append(node.stmt)
        for stmt in order:
            yield stmt, seen[id(stmt)]

    # ------------------------------------------------------------------
    # the rules
    # ------------------------------------------------------------------
    def findings(self) -> List[BufFinding]:
        out: List[BufFinding] = []
        reported: Set[Tuple] = set()

        def report(code: str, node: ast.AST, dedupe: Tuple,
                   message: str) -> None:
            if dedupe in reported:
                return
            reported.add(dedupe)
            out.append(BufFinding(
                code, node, f"{message} [fix: {RULES[code].fixit}]"))

        for stmt, fact in self._stmt_facts():
            # CSAR013: thaw of a may-frozen view.
            for var in self._thawed_vars(stmt):
                for token in self._live(fact, var, FROZEN_VIEW):
                    report(
                        "CSAR013", stmt, (id(stmt), "thaw", var),
                        f"flags.writeable = True on '{var}', which may "
                        f"alias a frozen payload view"
                        + self._via(token))
            # CSAR013: in-place mutation of a may-frozen view.
            for var, how in self._mutated_vars(stmt):
                for token in self._live(fact, var, FROZEN_VIEW):
                    report(
                        "CSAR013", stmt, (id(stmt), "mutate", var, how),
                        f"in-place mutation ({how}) of '{var}', which "
                        f"may alias a frozen payload view"
                        + self._via(token))
            # CSAR014: raw escape of a private writable buffer.
            for var, node in self._stored_names(stmt):
                for token in self._live(fact, var, PRIVATE_WRITABLE):
                    report(
                        "CSAR014", stmt, (id(stmt), "escape", var),
                        f"private writable buffer '{var}' escapes with "
                        f"no dominating freeze" + self._via(token))
            # Interprocedural: callee effects on our buffers.
            for call in self._own_calls(stmt):
                self._check_call(call, stmt, fact, report)
        return out

    def _via(self, token: BufToken) -> str:
        if not token.chain:
            return ""
        chain = format_chain(
            ((self.qname, self.path, token.line),), token.chain)
        return f": provenance {chain}"

    def _check_call(self, call: ast.Call, stmt: ast.stmt,
                    fact: FrozenSet[int], report) -> None:
        if self.interproc is None:
            return
        _recv, attr, bare = normalize_call(call)
        if (bare or attr) in _PAYLOAD_CTORS:
            return  # a freezing capture (see _apply)
        for _callee, summary, mapping in self.interproc.resolve(call):
            for effect in summary.params:
                actual = mapping.get(effect.param)
                if not isinstance(actual, ast.Name):
                    continue
                var = actual.id
                chain = format_chain(
                    ((self.qname, self.path, call.lineno),),
                    effect.chain)
                if effect.op in ("mutate", "thaw") \
                        and self._live(fact, var, FROZEN_VIEW):
                    report(
                        "CSAR013", call,
                        (id(stmt), "call", var, effect.op,
                         summary.qname),
                        f"'{var}' may alias a frozen payload view and "
                        f"is {'thawed' if effect.op == 'thaw' else 'mutated in place'} "
                        f"by a callee: {chain}")
                elif effect.op == "retain" and not effect.frozen \
                        and self._live(fact, var, PRIVATE_WRITABLE):
                    report(
                        "CSAR014", call,
                        (id(stmt), "call", var, "retain",
                         summary.qname),
                        f"private writable buffer '{var}' is retained "
                        f"unfrozen by a callee: {chain}")

    # ------------------------------------------------------------------
    # summary extraction
    # ------------------------------------------------------------------
    def return_tags(self) -> Tuple[ReturnTag, ...]:
        out: Dict[Tuple, ReturnTag] = {}
        for node in self.cfg.nodes:
            if node.label != "stmt" or not isinstance(node.stmt,
                                                      ast.Return):
                continue
            fact = self.facts.get(node.index)
            if fact is None or node.stmt.value is None:
                continue
            site: ChainLink = (self.qname, self.path, node.stmt.lineno)
            for tag, chain in self._rhs_tags(node.stmt.value, fact):
                key = (tag, chain)
                if key not in out:
                    out[key] = ReturnTag(tag, (site,) + tuple(chain))
        return tuple(out.values())

    def param_effects(self) -> Tuple[ParamEffect, ...]:
        params = set(self.params)
        out: Dict[Tuple, ParamEffect] = {}

        def add(effect: ParamEffect) -> None:
            key = (effect.param, effect.op)
            if key not in out:
                out[key] = effect
            elif effect.op == "retain" and not effect.frozen \
                    and out[key].frozen:
                out[key] = effect  # an unfrozen retain is the riskier one

        for stmt, fact in self._stmt_facts():
            site: ChainLink = (self.qname, self.path, stmt.lineno)
            for var in self._thawed_vars(stmt):
                if var in params:
                    add(ParamEffect(var, "thaw", False, (site,)))
            for var, _how in self._mutated_vars(stmt):
                if var in params:
                    add(ParamEffect(var, "mutate", False, (site,)))
            for var, _node in self._stored_names(stmt):
                if var in params:
                    frozen = bool(self._live(fact, var, FROZEN_VIEW))
                    add(ParamEffect(var, "retain", frozen, (site,)))
            if self.interproc is None:
                continue
            for call in self._own_calls(stmt):
                _recv, attr, bare = normalize_call(call)
                if (bare or attr) in _PAYLOAD_CTORS:
                    continue  # freezing capture, not a raw retain
                call_site: ChainLink = (self.qname, self.path,
                                        call.lineno)
                for _callee, summary, mapping in \
                        self.interproc.resolve(call):
                    for effect in summary.params:
                        actual = mapping.get(effect.param)
                        if not isinstance(actual, ast.Name) \
                                or actual.id not in params:
                            continue
                        frozen = effect.frozen or (
                            effect.op == "retain" and bool(
                                self._live(fact, actual.id,
                                           FROZEN_VIEW)))
                        add(ParamEffect(
                            actual.id, effect.op, frozen,
                            (call_site,) + tuple(effect.chain)))
        return tuple(out.values())


# ----------------------------------------------------------------------
# whole-program summaries
# ----------------------------------------------------------------------
def summarize_buffer_function(info: FunctionInfo, graph: CallGraph,
                              summaries: Dict[str, BufferSummary],
                              ) -> BufferSummary:
    ctx = BufferContext(graph, summaries, info)
    analysis = BufferAnalysis(info.node, interproc=ctx,
                              qname=info.qname, path=info.path)
    return BufferSummary(qname=info.qname, path=info.path,
                         returns=analysis.return_tags(),
                         params=analysis.param_effects())


def build_buffer_summaries(graph: CallGraph) -> Dict[str, BufferSummary]:
    """Buffer summaries for every function, bottom-up over the SCCs."""
    summaries: Dict[str, BufferSummary] = {}
    for scc in graph.sccs():
        cyclic = len(scc) > 1 or any(
            q in graph.edges.get(q, ()) for q in scc)
        for _round in range(2 if cyclic else 1):
            for qname in scc:
                info = graph.functions[qname]
                summaries[qname] = summarize_buffer_function(
                    info, graph, summaries)
    return summaries


def buffer_summaries(program) -> Dict[str, BufferSummary]:
    """The (memoized) buffer summaries of one lint run's Program."""
    cached = getattr(program, "_buffer_summaries", None)
    if cached is None:
        cached = build_buffer_summaries(program.graph)
        program._buffer_summaries = cached
    return cached


def buffer_context_for(program,
                       func: ast.FunctionDef) -> Optional[BufferContext]:
    """An interproc hook for a function of ``program``'s parse."""
    info = program.graph.info_of(func)
    if info is None:
        return None
    return BufferContext(program.graph, buffer_summaries(program), info)

"""Per-function lock-effect summaries for ``csar-lint``.

For every function in a :class:`~repro.analysis.callgraph.CallGraph`,
this module runs the existing CFG + lock-ownership dataflow
(:class:`~repro.analysis.dataflow.LockAnalysis`) and condenses the
result into a :class:`LockEffectSummary`:

* **acquired** — lock keys the function can still hold on a normal
  exit (its net-positive lock delta), each with the witness call chain
  down to the raw acquire site;
* **released** — keys the function releases but did not itself acquire
  (helper-release idiom), split into *must* (released on every normal
  path) and *may* (conditional);
* **held_at_raise** — keys that may be held when an exception
  propagates out;
* **yields_while_held** — keys held across at least one yield;
* **io_yield** — whether the function (transitively, through confident
  call edges) yields on long-latency I/O
  (``rpc``/``get``/``stream``/``transfer``/``send``/``recv``);
* **escaping** — request variables whose ownership escapes (the
  protocol-carried idiom);
* **order_edges** — acquires-while-holding pairs feeding the global
  lock-order graph (CSAR011), including loop-carried descending
  acquisition.

Summaries are computed bottom-up over the call graph's
strongly-connected components; cyclic components get one refinement
round with their first-pass summaries visible.  At a call site, a
callee's summary is *substituted*: formal parameter names in its lock
keys are rewritten to the caller's actual argument expressions (and
``self`` to the receiver), so ``iod.locks.acquire(name, g, xid)`` in a
helper becomes ``client.iods[0].locks.acquire(meta.name, g, xid)`` in
the caller — textually comparable with the caller's own releases.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import (
    CallGraph, FunctionInfo, PRIMITIVE_ATTRS, normalize_call,
    spawn_argument_calls)
from repro.analysis.cfg import EXC
from repro.analysis.dataflow import LockAnalysis, run_forward

#: Yielded call names counted as long-latency non-lock I/O (CSAR007).
IO_YIELD_NAMES = frozenset(("rpc", "get", "stream", "transfer", "send",
                            "recv"))

#: One step of a witness call chain: (qname, path, line).
ChainLink = Tuple[str, str, int]


# ----------------------------------------------------------------------
# summary data model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LockKey:
    """A lock identified by its receiver and argument texts."""

    receiver: str
    args: Tuple[str, ...]

    def format(self) -> str:
        return f"{self.receiver}.acquire({', '.join(self.args)})"


@dataclass(frozen=True)
class AcquiredLock:
    """A key the function may still hold when it returns."""

    key: LockKey
    kind: str                      # "acquire" | "request"
    returned: bool                 # ownership handed back via ``return``
    chain: Tuple[ChainLink, ...]   # chain[0] is this function's own site


@dataclass(frozen=True)
class ReleasedLock:
    """A key the function releases without having acquired it."""

    key: LockKey
    must: bool                     # released on every normal path


@dataclass(frozen=True)
class OrderEdge:
    """One acquires-while-holding observation (file-matched)."""

    file_text: str
    held: str                      # group expression of the held lock
    acquired: str                  # group expression being acquired
    descending: bool               # statically violates ascending order
    loop_carried: bool             # same site, descending loop
    path: str
    line: int
    chain: Tuple[ChainLink, ...]


@dataclass(frozen=True)
class LockEffectSummary:
    """The externally-visible lock behaviour of one function."""

    qname: str
    path: str
    acquired: Tuple[AcquiredLock, ...] = ()
    released: Tuple[ReleasedLock, ...] = ()
    held_at_raise: Tuple[LockKey, ...] = ()
    yields_while_held: Tuple[LockKey, ...] = ()
    io_yield: bool = False
    escaping: Tuple[str, ...] = ()
    order_edges: Tuple[OrderEdge, ...] = ()

    @property
    def net_delta(self) -> int:
        """Locks this function may add to its caller's held set."""
        return len(self.acquired)


# ----------------------------------------------------------------------
# call-site effects (what the dataflow consumes)
# ----------------------------------------------------------------------
@dataclass
class CallSiteEffects:
    """A callee summary set, substituted into the caller's namespace."""

    call: ast.Call
    acquired: Tuple[AcquiredLock, ...]
    released: Tuple[ReleasedLock, ...]
    io_yield: bool


class _Substituter(ast.NodeTransformer):
    def __init__(self, mapping: Dict[str, ast.expr]) -> None:
        self.mapping = mapping

    def visit_Name(self, node: ast.Name):  # noqa: N802 (ast API)
        rep = self.mapping.get(node.id)
        return ast.copy_location(rep, node) if rep is not None else node


def substitute_text(text: str, mapping: Dict[str, ast.expr]) -> str:
    """Rewrite formal-parameter names in an unparsed expression."""
    if not mapping:
        return text
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        return text
    new = _Substituter(mapping).visit(tree.body)
    return ast.unparse(new)


def _binding(callee: FunctionInfo, call: ast.Call) -> Dict[str, ast.expr]:
    """Map the callee's formal parameter names to actual argument ASTs."""
    args_node = callee.node.args
    formals = [a.arg for a in args_node.posonlyargs + args_node.args]
    mapping: Dict[str, ast.expr] = {}
    actuals = list(call.args)
    receiver, _attr, _bare = normalize_call(call)
    if (formals and formals[0] in ("self", "cls") and callee.cls
            and receiver is not None
            and not (isinstance(receiver, ast.Call)
                     and isinstance(receiver.func, ast.Name)
                     and receiver.func.id == "super")):
        mapping[formals[0]] = receiver
        formals = formals[1:]
    for formal, actual in zip(formals, actuals):
        mapping[formal] = actual
    for kw in call.keywords:
        if kw.arg is not None and kw.arg in set(formals):
            mapping[kw.arg] = kw.value
    # Unbound formals fall back to their defaults, right-aligned.
    defaults = args_node.defaults
    if defaults:
        defaulted = formals[len(formals) - len(defaults):] \
            if len(defaults) <= len(formals) else formals
        for formal, default in zip(defaulted,
                                   defaults[-len(defaulted):]):
            mapping.setdefault(formal, default)
    return mapping


def _substitute_key(key: LockKey, mapping: Dict[str, ast.expr]) -> LockKey:
    return LockKey(substitute_text(key.receiver, mapping),
                   tuple(substitute_text(a, mapping) for a in key.args))


class InterprocContext:
    """Resolves one function's call sites against computed summaries.

    Handed to :class:`~repro.analysis.dataflow.LockAnalysis` as its
    ``interproc`` hook; only *confident* call-graph edges contribute
    (see :mod:`repro.analysis.callgraph`).  Callees without a summary
    yet (first pass of a cyclic SCC) contribute nothing.
    """

    def __init__(self, graph: CallGraph,
                 summaries: Dict[str, LockEffectSummary],
                 info: FunctionInfo) -> None:
        self.graph = graph
        self.summaries = summaries
        self.info = info

    def call_effects(self, call: ast.Call) -> Optional[CallSiteEffects]:
        res = self.graph.resolve_call(self.info, call)
        if not res.confident or not res.targets:
            return None
        targets = [(self.graph.functions[q], self.summaries[q])
                   for q in res.targets
                   if q in self.summaries and q in self.graph.functions]
        if not targets:
            return None
        acquired: Dict[Tuple[str, Tuple[str, ...], str], AcquiredLock] = {}
        released: Dict[LockKey, bool] = {}
        released_in_all: Dict[LockKey, int] = {}
        io_yield = False
        for callee, summary in targets:
            mapping = _binding(callee, call)
            io_yield = io_yield or summary.io_yield
            for acq in summary.acquired:
                key = _substitute_key(acq.key, mapping)
                ident = (key.receiver, key.args, acq.kind)
                if ident not in acquired:
                    acquired[ident] = AcquiredLock(
                        key, acq.kind, acq.returned, acq.chain)
            for rel in summary.released:
                key = _substitute_key(rel.key, mapping)
                released[key] = released.get(key, False) or rel.must
                if rel.must:
                    released_in_all[key] = released_in_all.get(key, 0) + 1
        if not acquired and not released and not io_yield:
            return None
        # A release is only *must* at this call site when every possible
        # callee must-releases it.
        rel_out = tuple(
            ReleasedLock(key, released_in_all.get(key, 0) == len(targets))
            for key in released)
        return CallSiteEffects(call, tuple(acquired.values()), rel_out,
                               io_yield)


# ----------------------------------------------------------------------
# group/file argument helpers (shared with the CSAR011 checker)
# ----------------------------------------------------------------------
_KWARG = re.compile(r"^[A-Za-z_]\w*=(?!=)")


def file_text_of(args: Tuple[str, ...]) -> Optional[str]:
    """The ``file`` argument text of an ``acquire(file, group, xid)``."""
    for arg in args:
        if arg.startswith("file="):
            return arg[len("file="):]
    if args and not _KWARG.match(args[0]):
        return args[0]
    return None


def group_text_of(args: Tuple[str, ...]) -> Optional[str]:
    """The ``group`` argument text of an ``acquire(file, group, xid)``."""
    for arg in args:
        if arg.startswith("group="):
            return arg[len("group="):]
    if len(args) >= 2 and not _KWARG.match(args[1]):
        return args[1]
    return None


def group_value(text: Optional[str]) -> Optional[int]:
    if text is None:
        return None
    try:
        value = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return None
    return value if isinstance(value, int) else None


def _loop_direction(func: ast.FunctionDef,
                    stmt: ast.stmt) -> Optional[str]:
    """Direction of the innermost literal-direction loop around ``stmt``
    (``"asc"`` / ``"desc"`` / None)."""
    best: Optional[ast.For] = None
    for node in ast.walk(func):
        if not isinstance(node, ast.For):
            continue
        if any(sub is stmt for body_stmt in node.body
               for sub in ast.walk(body_stmt)):
            if best is None or node.lineno >= best.lineno:
                best = node
    if best is None:
        return None
    it = best.iter
    if (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
            and it.func.id == "range"):
        if len(it.args) < 3:
            return "asc"
        step = it.args[2]
        if isinstance(step, ast.UnaryOp) and isinstance(step.op, ast.USub):
            return "desc"
        if isinstance(step, ast.Constant) and isinstance(step.value, int):
            return "desc" if step.value < 0 else "asc"
        return None
    if isinstance(it, (ast.Tuple, ast.List)):
        values = []
        for elt in it.elts:
            if not (isinstance(elt, ast.Constant)
                    and isinstance(elt.value, int)):
                return None
            values.append(elt.value)
        if len(values) >= 2:
            if values == sorted(values):
                return "asc"
            if values == sorted(values, reverse=True):
                return "desc"
    return None


# ----------------------------------------------------------------------
# summarizing one function
# ----------------------------------------------------------------------
def yielded_calls(func: ast.FunctionDef) -> List[ast.Call]:
    """Calls that are the value of a ``yield``/``yield from`` in
    ``func``'s own body (not nested scopes)."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
              ast.ClassDef)
    out: List[ast.Call] = []
    todo: List[ast.AST] = list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, scopes):
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)) \
                and isinstance(node.value, ast.Call):
            out.append(node.value)
        todo.extend(ast.iter_child_nodes(node))
    return out


def _own_io_yield(func: ast.FunctionDef) -> bool:
    for call in yielded_calls(func):
        _recv, attr, bare = normalize_call(call)
        if (attr or bare) in IO_YIELD_NAMES:
            return True
    return False


def _must_released(analysis: LockAnalysis,
                   events: Dict[LockKey, Set[int]]) -> Dict[LockKey, bool]:
    """Which release keys are released on *every* normal path.

    Uses the may-analysis dual: seed every key at entry, kill it at its
    certain release statements; a key that can still reach the normal
    exit has a release-avoiding path, so it is only *may*-released.
    """
    keys = sorted(events, key=lambda k: (k.receiver, k.args))
    index = {key: i for i, key in enumerate(keys)}
    stmt_kills: Dict[int, Set[int]] = {}
    for key, stmt_ids in events.items():
        for sid in stmt_ids:
            stmt_kills.setdefault(sid, set()).add(index[key])

    def transfer(node_index: int, fact, kind: str):
        if kind == EXC:
            return fact
        node = analysis.cfg.nodes[node_index]
        if node.stmt is None or node.label != "stmt":
            return fact
        kills = stmt_kills.get(id(node.stmt))
        if not kills:
            return fact
        return frozenset(i for i in fact if i not in kills)

    facts = run_forward(analysis.cfg, transfer,
                        frozenset(range(len(keys))))
    avoiding = facts.get(analysis.cfg.exit) or frozenset()
    return {key: index[key] not in avoiding for key in events}


def summarize_function(info: FunctionInfo, graph: CallGraph,
                       summaries: Dict[str, LockEffectSummary],
                       ) -> LockEffectSummary:
    """Build one function's summary against already-computed callees."""
    ctx = InterprocContext(graph, summaries, info)
    analysis = LockAnalysis(info.node, interproc=ctx)
    io_yield = _own_io_yield(info.node)
    if not io_yield:
        spawned = spawn_argument_calls(info.node)
        for call in yielded_calls(info.node):
            if id(call) in spawned:
                continue
            _recv, attr, _bare = normalize_call(call)
            if attr in PRIMITIVE_ATTRS:
                continue
            eff = analysis.call_effect_of(call)
            if eff is not None and eff.io_yield:
                io_yield = True
                break

    held_exit = analysis.held_at_exit()
    held_raise = analysis.held_at_raise()
    acquired: List[AcquiredLock] = []
    held_raise_keys: List[LockKey] = []
    escaping: List[str] = []
    for token in analysis.tokens:
        if token.guarded:
            continue
        key = LockKey(token.receiver, token.args)
        if token.escapes and not token.returned:
            if token.var:
                escaping.append(token.var)
            continue
        site: ChainLink = (info.qname, info.path, token.call.lineno)
        chain = (site,) + tuple(token.chain)
        if token.handoff or token.tid in held_exit:
            acquired.append(AcquiredLock(key, token.kind, token.returned,
                                         chain))
        if token.tid in held_raise and token.kind == "acquire" \
                and not token.handoff:
            held_raise_keys.append(key)

    # Releases of locks this function never acquired: raw unmatched
    # release calls plus callee releases that matched no local token.
    events_must: Dict[LockKey, Set[int]] = {}
    all_released: Set[LockKey] = set()
    for receiver, args, stmt_id, certain in analysis.unmatched_releases:
        key = LockKey(receiver, args)
        all_released.add(key)
        if certain:
            events_must.setdefault(key, set()).add(stmt_id)
    must_map = _must_released(analysis, events_must) if events_must else {}
    released = tuple(sorted(
        (ReleasedLock(key, bool(must_map.get(key))) for key in
         all_released),
        key=lambda r: (r.key.receiver, r.key.args)))

    ywh: Set[LockKey] = set()
    for _node, held in analysis.yields_while_held():
        for token in held:
            ywh.add(LockKey(token.receiver, token.args))

    order_edges: List[OrderEdge] = []
    seen_edges: Set[Tuple] = set()
    for held_tok, acq_tok, stmt in analysis.acquire_order_pairs():
        file_held = file_text_of(held_tok.args)
        file_acq = file_text_of(acq_tok.args)
        if file_held is None or file_held != file_acq:
            continue
        g_held = group_text_of(held_tok.args)
        g_acq = group_text_of(acq_tok.args)
        if g_held is None or g_acq is None:
            continue
        loop_carried = held_tok.tid == acq_tok.tid
        if loop_carried:
            if _loop_direction(info.node, stmt) != "desc":
                continue
            descending = True
        else:
            v_held, v_acq = group_value(g_held), group_value(g_acq)
            if v_held is not None and v_acq is not None:
                if v_held == v_acq:
                    continue
                descending = v_held > v_acq
            elif g_held == g_acq:
                continue
            else:
                descending = False
        line = getattr(stmt, "lineno", acq_tok.call.lineno)
        site: ChainLink = (info.qname, info.path, line)
        chain = (site,) + tuple(acq_tok.chain) + tuple(held_tok.chain)
        dedupe = (file_acq, g_held, g_acq, descending, loop_carried)
        if dedupe in seen_edges:
            continue
        seen_edges.add(dedupe)
        order_edges.append(OrderEdge(
            file_acq, g_held, g_acq, descending, loop_carried,
            info.path, line, chain))

    return LockEffectSummary(
        qname=info.qname,
        path=info.path,
        acquired=tuple(sorted(
            acquired, key=lambda a: (a.key.receiver, a.key.args))),
        released=released,
        held_at_raise=tuple(sorted(
            set(held_raise_keys), key=lambda k: (k.receiver, k.args))),
        yields_while_held=tuple(sorted(
            ywh, key=lambda k: (k.receiver, k.args))),
        io_yield=io_yield,
        escaping=tuple(sorted(set(escaping))),
        order_edges=tuple(sorted(
            order_edges, key=lambda e: (e.path, e.line, e.held,
                                        e.acquired))),
    )


def build_summaries(graph: CallGraph) -> Dict[str, LockEffectSummary]:
    """Summaries for every function, bottom-up over the SCCs."""
    summaries: Dict[str, LockEffectSummary] = {}
    for scc in graph.sccs():
        cyclic = len(scc) > 1 or any(
            q in graph.edges.get(q, ()) for q in scc)
        for _round in range(2 if cyclic else 1):
            for qname in scc:
                info = graph.functions[qname]
                summaries[qname] = summarize_function(info, graph,
                                                      summaries)
    return summaries


# ----------------------------------------------------------------------
# the whole-program bundle
# ----------------------------------------------------------------------
class Program:
    """A call graph plus its lock-effect summaries (one lint run's
    interprocedural state)."""

    def __init__(self, graph: CallGraph,
                 summaries: Dict[str, LockEffectSummary]) -> None:
        self.graph = graph
        self.summaries = summaries

    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "Program":
        graph = CallGraph.from_sources(sources)
        return cls(graph, build_summaries(graph))

    def tree_for(self, path: str) -> Optional[ast.Module]:
        return self.graph.trees.get(path)

    def context_for(self, func: ast.FunctionDef) -> Optional[InterprocContext]:
        """An interproc hook for a function of *this* program's parse."""
        info = self.graph.info_of(func)
        if info is None:
            return None
        return InterprocContext(self.graph, self.summaries, info)

    def order_edges(self) -> List[Tuple[str, OrderEdge]]:
        out: List[Tuple[str, OrderEdge]] = []
        for qname in sorted(self.summaries):
            for edge in self.summaries[qname].order_edges:
                out.append((qname, edge))
        return out

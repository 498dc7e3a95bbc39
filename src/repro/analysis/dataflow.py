"""Forward dataflow over :mod:`repro.analysis.cfg`, plus the lock
ownership analysis behind CSAR001 and CSAR010 and the acquire-order
pairs behind CSAR011.

The framework is a standard worklist fixpoint: facts are frozensets, the
join is set union (a *may* analysis), and the transfer function is
edge-sensitive — it sees the edge kind, so a statement's effects can be
withheld on exceptional edges (an aborted acquire never acquired).

The lock analysis tracks *tokens*, one per lexical acquisition site:

* ``X.acquire(...)`` — the Section 5.1 parity-lock idiom
  (:class:`~repro.redundancy.locks.ParityLockTable`);
* ``var = X.request()`` (zero-argument) — a raw
  :class:`~repro.sim.resources.Resource` slot;

matched against ``X.release(...)`` / ``X.cancel(...)`` sites by receiver
text and argument text (acquire tokens) or by the bound variable (request
tokens).  With-statement requests (``with X.request() as r:``) release on
``__exit__`` and are never tracked.  A request variable that *escapes* —
stored into an attribute/subscript/container, returned, yielded, or
passed to a non-release call — hands ownership elsewhere, so the token is
dropped at the escape site: the protocol-carried idiom
(``self._held[key] = request``) analyzes clean by construction.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, \
    Set, Tuple

from repro.analysis.cfg import CFG, EXC, build_cfg

Fact = FrozenSet[int]


def run_forward(cfg: CFG,
                transfer: Callable[[int, Fact, str], Fact],
                initial: Fact = frozenset()) -> Dict[int, Optional[Fact]]:
    """Propagate facts forward to a fixpoint; returns IN facts per node.

    Unreachable nodes map to ``None``.  Termination: facts are finite
    sets joined by union, so per-node facts grow monotonically.
    """
    facts: Dict[int, Optional[Fact]] = {i: None for i in
                                        range(len(cfg.nodes))}
    facts[cfg.entry] = initial
    worklist = deque([cfg.entry])
    while worklist:
        n = worklist.popleft()
        fact = facts[n]
        assert fact is not None
        for succ, kind in cfg.succs.get(n, ()):
            out = transfer(n, fact, kind)
            cur = facts[succ]
            new = out if cur is None else cur | out
            if new != cur:
                facts[succ] = new
                worklist.append(succ)
    return facts


# ----------------------------------------------------------------------
# lock tokens
# ----------------------------------------------------------------------
_ACQUIRE_ATTR = "acquire"
_REQUEST_ATTR = "request"
_RELEASE_ATTRS = ("release", "cancel")


@dataclass
class LockToken:
    """One lexical acquisition site."""

    tid: int
    call: ast.Call                   # the acquire/request call
    kind: str                        # "acquire" | "request"
    receiver: str                    # unparse of the call's receiver
    args: Tuple[str, ...]            # unparsed positional + keyword args
    var: Optional[str] = None        # bound name (request tokens)
    guarded: bool = False            # with-item: released by __exit__
    escapes: bool = False            # ownership handed elsewhere
    release_sites: List[ast.Call] = field(default_factory=list)
    #: any matching release lives in an except handler or finally block
    release_in_cleanup: bool = False
    #: acquired by a callee (interprocedural mode), not a lexical
    #: primitive call — ``call`` is then the helper call site
    derived: bool = False
    #: witness chain below this site: (qname, path, line) per hop
    chain: Tuple = ()
    #: derived token with no local release: the callee hands the lock
    #: to the surrounding protocol (message-carried release); excluded
    #: from rule participation but still exported in summaries
    handoff: bool = False
    #: ownership returned to the caller (``return request``)
    returned: bool = False


def _arg_texts(call: ast.Call) -> Tuple[str, ...]:
    parts = [ast.unparse(a) for a in call.args]
    parts += [f"{kw.arg}={ast.unparse(kw.value)}" for kw in call.keywords]
    return tuple(parts)


def _receiver_text(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return ast.unparse(call.func.value)
    return None


def _call_attr(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_stmt_nodes(stmt: ast.stmt) -> Iterable[ast.AST]:
    """All AST nodes of one statement, not descending into nested scopes
    or (for compound statements) into nested blocks."""
    if isinstance(stmt, (ast.If, ast.While)):
        roots: List[ast.AST] = [stmt.test]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        roots = [stmt.target, stmt.iter]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        roots = [item.context_expr for item in stmt.items]
    elif isinstance(stmt, ast.Try):
        roots = []
    elif isinstance(stmt, _SCOPES):
        roots = []
    else:
        roots = [stmt]
    for root in roots:
        for node in ast.walk(root):
            if isinstance(node, _SCOPES):
                continue
            yield node


class LockAnalysis:
    """Lock-ownership dataflow over one generator function.

    After construction:

    * :attr:`tokens` — every acquisition site with its classification
      inputs (release sites, guardedness, escapes);
    * :meth:`held_at_exit` / :meth:`held_at_raise` — may-held facts at
      the two function exits;
    * :meth:`acquire_order_pairs` — acquires made while another lock
      may be held, for the CSAR011 order graph.
    """

    def __init__(self, func: ast.FunctionDef, interproc=None) -> None:
        self.func = func
        self.interproc = interproc
        self.cfg = build_cfg(func)
        self.tokens: List[LockToken] = []
        self._token_of_call: Dict[int, LockToken] = {}  # id(call) -> token
        #: id(call) -> CallSiteEffects from the interproc context
        self._call_effects: Dict[int, object] = {}
        #: id(call) -> derived tokens created for that call site
        self._derived_of_call: Dict[int, List[LockToken]] = {}
        #: releases matching no local token, exported to summaries:
        #: (receiver text, arg texts, id(enclosing stmt), certain)
        self.unmatched_releases: List[Tuple[str, Tuple[str, ...],
                                            int, bool]] = []
        self._assigned_var: Dict[int, str] = {}
        self._collect_tokens()
        if interproc is not None:
            self._collect_derived_tokens()
        self._match_releases_and_escapes()
        if interproc is not None:
            self._match_callee_releases()
        self._mark_returns()
        self._mark_handoffs()
        #: per statement object: ordered (op, token id) effects
        self._effects: Dict[int, List[Tuple[str, int]]] = {}
        self._effects_done: Set[int] = set()
        self._collect_effects()
        self.facts = run_forward(self.cfg, self._transfer)

    # -- token discovery ------------------------------------------------
    def _collect_tokens(self) -> None:
        guarded_calls: Set[int] = set()
        for node in self._walk_function():
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    for sub in ast.walk(item.context_expr):
                        guarded_calls.add(id(sub))
        assigned_var = self._assigned_var
        for node in self._walk_function():
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                value = node.value
                # ``req = yield from helper()`` binds the helper's
                # return value, so the call is the assignment source.
                if isinstance(value, (ast.Yield, ast.YieldFrom)) \
                        and value.value is not None:
                    value = value.value
                assigned_var[id(value)] = node.targets[0].id
        for node in self._walk_function():
            if not isinstance(node, ast.Call):
                continue
            attr = _call_attr(node)
            receiver = _receiver_text(node)
            if receiver is None:
                continue
            if attr == _ACQUIRE_ATTR:
                kind = "acquire"
            elif attr == _REQUEST_ATTR and not node.args \
                    and not node.keywords:
                kind = "request"
            else:
                continue
            token = LockToken(
                tid=len(self.tokens), call=node, kind=kind,
                receiver=receiver, args=_arg_texts(node),
                var=assigned_var.get(id(node)),
                guarded=id(node) in guarded_calls)
            self.tokens.append(token)
            self._token_of_call[id(node)] = token

    def _walk_function(self) -> Iterable[ast.AST]:
        todo: List[ast.AST] = list(self.func.body)
        while todo:
            node = todo.pop()
            yield node
            if isinstance(node, _SCOPES):
                continue
            todo.extend(ast.iter_child_nodes(node))

    # -- interprocedural tokens -----------------------------------------
    def _collect_derived_tokens(self) -> None:
        """One token per lock a confident callee may leave held."""
        from repro.analysis.callgraph import PRIMITIVE_ATTRS, \
            spawn_argument_calls
        spawned = spawn_argument_calls(self.func)
        for node in self._walk_function():
            if not isinstance(node, ast.Call) or id(node) in spawned:
                continue
            if id(node) in self._token_of_call:
                continue  # a raw primitive site, never a call-graph edge
            if _call_attr(node) in PRIMITIVE_ATTRS:
                continue
            effects = self.interproc.call_effects(node)
            if effects is None:
                continue
            self._call_effects[id(node)] = effects
            for acq in effects.acquired:
                token = LockToken(
                    tid=len(self.tokens), call=node, kind=acq.kind,
                    receiver=acq.key.receiver, args=acq.key.args,
                    var=(self._assigned_var.get(id(node))
                         if acq.returned else None),
                    derived=True, chain=tuple(acq.chain))
                self.tokens.append(token)
                self._derived_of_call.setdefault(id(node), []) \
                    .append(token)

    def _match_callee_releases(self) -> None:
        """Callee release effects count as release sites of local
        tokens, exactly like lexical ``X.release(...)`` calls."""
        cleanup_spans = self._cleanup_line_spans()
        for node in self._walk_function():
            if not isinstance(node, ast.Call):
                continue
            effects = self._call_effects.get(id(node))
            if effects is None:
                continue
            for rel in effects.released:
                for token in self._tokens_matching_key(
                        rel.key.receiver, rel.key.args):
                    token.release_sites.append(node)
                    line = getattr(node, "lineno", 0)
                    if any(lo <= line <= hi for lo, hi in cleanup_spans):
                        token.release_in_cleanup = True

    def _tokens_matching_key(self, receiver: str,
                             args: Tuple[str, ...]) -> List[LockToken]:
        """Local tokens a callee's release of (receiver, args) frees.

        Mirrors :meth:`_tokens_released_by`: bound-variable matches,
        then receiver matches with argument-exact ones preferred.
        """
        arg_names: Set[str] = set()
        for text in args:
            try:
                arg_names |= _names_in(ast.parse(text, mode="eval"))
            except SyntaxError:
                pass
        out = []
        for token in self.tokens:
            if token.guarded:
                continue
            if token.var is not None and (token.var in arg_names
                                          or receiver == token.var):
                out.append(token)
            elif token.kind == "acquire" and receiver == token.receiver:
                out.append(token)
        exact = [t for t in out if t.kind == "acquire" and t.args == args]
        if exact:
            return exact + [t for t in out if t.kind != "acquire"]
        return out

    def _mark_returns(self) -> None:
        """``return request`` transfers ownership to the caller."""
        for node in self._walk_function():
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            if isinstance(node.value, ast.Name):
                for token in self.tokens:
                    if token.var == node.value.id:
                        token.returned = True
            elif isinstance(node.value, ast.Call):
                token = self._token_of_call.get(id(node.value))
                if token is not None:
                    token.returned = True
                for derived in self._derived_of_call.get(
                        id(node.value), ()):
                    derived.returned = True

    def _mark_handoffs(self) -> None:
        for token in self.tokens:
            if token.derived and not token.release_sites \
                    and not token.returned:
                token.handoff = True

    # -- release / escape matching --------------------------------------
    def _match_releases_and_escapes(self) -> None:
        cleanup_spans = self._cleanup_line_spans()
        for node in self._walk_function():
            if isinstance(node, ast.Call) \
                    and _call_attr(node) in _RELEASE_ATTRS:
                for token in self._tokens_released_by(node):
                    token.release_sites.append(node)
                    line = getattr(node, "lineno", 0)
                    if any(lo <= line <= hi for lo, hi in cleanup_spans):
                        token.release_in_cleanup = True
        for token in self.tokens:
            if token.var is not None and self._var_escapes(token):
                token.escapes = True

    def _cleanup_line_spans(self) -> List[Tuple[int, int]]:
        """Line ranges of except-handler bodies and finally blocks."""
        spans: List[Tuple[int, int]] = []
        for node in self._walk_function():
            if not isinstance(node, ast.Try):
                continue
            for blocks in ([h.body for h in node.handlers]
                           + [node.finalbody]):
                if blocks:
                    spans.append((blocks[0].lineno,
                                  max(getattr(s, "end_lineno", s.lineno)
                                      for s in blocks)))
        return spans

    def _tokens_released_by(self, call: ast.Call) -> List[LockToken]:
        receiver = _receiver_text(call)
        arg_names = {n for a in call.args for n in _names_in(a)}
        out = []
        for token in self.tokens:
            if token.guarded:
                continue
            if token.var is not None and (token.var in arg_names
                                          or receiver == token.var):
                out.append(token)
            elif token.kind == "acquire" and receiver == token.receiver:
                out.append(token)
        if not out:
            return out
        # Acquire tokens on the same receiver: prefer argument-exact
        # matches (several groups of one table in one function), fall
        # back to receiver-wide when nothing matches textually.
        release_args = _arg_texts(call)
        exact = [t for t in out if t.kind == "acquire"
                 and t.args == release_args]
        if exact:
            by_var = [t for t in out if t.kind != "acquire"]
            return exact + by_var
        return out

    def _var_escapes(self, token: LockToken) -> bool:
        name = token.var
        assert name is not None
        for node in self._walk_function():
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)) \
                    and node.value is not None \
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == name) \
                    and name in _names_in(node.value):
                # ``yield req`` waits on the request (not an escape);
                # anything wrapping the name hands it away.
                return True
            if isinstance(node, ast.Call) and node is not token.call \
                    and _call_attr(node) not in _RELEASE_ATTRS:
                in_args = any(name in _names_in(a) for a in node.args)
                in_kwargs = any(name in _names_in(k.value)
                                for k in node.keywords)
                if in_args or in_kwargs:
                    return True
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                value = getattr(node, "value", None)
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                stored = any(isinstance(t, (ast.Attribute, ast.Subscript))
                             for t in targets)
                if stored and value is not None \
                        and name in _names_in(value):
                    return True
            if isinstance(node, (ast.List, ast.Tuple, ast.Set, ast.Dict)) \
                    and name in _names_in(node):
                return True
        return False

    # -- per-statement effects ------------------------------------------
    def _collect_effects(self) -> None:
        for cfg_node in self.cfg.nodes:
            stmt = cfg_node.stmt
            if stmt is None or cfg_node.label != "stmt":
                continue
            if id(stmt) in self._effects_done:
                continue  # shared by finally copies; computed once
            self._effects_done.add(id(stmt))
            effects = self._effects.setdefault(id(stmt), [])
            kills: List[Tuple[str, int]] = []
            gens: List[Tuple[str, int]] = []
            for node in _own_stmt_nodes(stmt):
                if not isinstance(node, ast.Call):
                    continue
                token = self._token_of_call.get(id(node))
                if token is not None and not token.guarded:
                    gens.append(("gen", token.tid))
                if _call_attr(node) in _RELEASE_ATTRS:
                    released = self._tokens_released_by(node)
                    for released_token in released:
                        kills.append(("kill", released_token.tid))
                    if not released:
                        receiver = _receiver_text(node)
                        if receiver is not None:
                            self.unmatched_releases.append(
                                (receiver, _arg_texts(node), id(stmt),
                                 True))
                for derived in self._derived_of_call.get(id(node), ()):
                    # Hand-off tokens never enter the facts: the callee
                    # owns the protocol, not this function's paths.
                    if not derived.handoff:
                        gens.append(("gen", derived.tid))
                call_effects = self._call_effects.get(id(node))
                if call_effects is not None:
                    for rel in call_effects.released:
                        matched = self._tokens_matching_key(
                            rel.key.receiver, rel.key.args)
                        if matched:
                            # Only a release on every callee path frees
                            # the token; a conditional one stays a
                            # may-release (release_sites only).
                            if rel.must:
                                for token in matched:
                                    kills.append(("kill", token.tid))
                        else:
                            self.unmatched_releases.append(
                                (rel.key.receiver, rel.key.args,
                                 id(stmt), rel.must))
            # Escapes drop the token where the hand-off happens.
            for token in self.tokens:
                if token.escapes and self._stmt_escapes(stmt, token):
                    kills.append(("kill", token.tid))
            effects.extend(kills + gens)

    def _stmt_escapes(self, stmt: ast.stmt, token: LockToken) -> bool:
        name = token.var
        if name is None:
            return False
        for node in _own_stmt_nodes(stmt):
            if node is token.call:
                continue
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)) \
                    and node.value is not None \
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == name) \
                    and name in _names_in(node.value):
                return True
            if isinstance(node, ast.Call) \
                    and _call_attr(node) not in _RELEASE_ATTRS \
                    and (any(name in _names_in(a) for a in node.args)
                         or any(name in _names_in(k.value)
                                for k in node.keywords)):
                return True
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                value = getattr(node, "value", None)
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                if any(isinstance(t, (ast.Attribute, ast.Subscript))
                       for t in targets) and value is not None \
                        and name in _names_in(value):
                    return True
            if isinstance(node, (ast.List, ast.Tuple, ast.Set, ast.Dict)) \
                    and name in _names_in(node):
                return True
        return False

    # -- transfer --------------------------------------------------------
    def _transfer(self, node_index: int, fact: Fact, kind: str) -> Fact:
        if kind == EXC:
            # The statement aborted mid-evaluation: acquires did not
            # happen (the primitives self-cancel on interrupt) and
            # releases cannot be assumed to have run.
            return fact
        cfg_node = self.cfg.nodes[node_index]
        if cfg_node.stmt is None or cfg_node.label != "stmt":
            return fact
        effects = self._effects.get(id(cfg_node.stmt))
        if not effects:
            return fact
        out = set(fact)
        for op, tid in effects:
            if op == "kill":
                out.discard(tid)
            else:
                out.add(tid)
        return frozenset(out)

    # -- queries ---------------------------------------------------------
    def held_at_exit(self) -> Fact:
        return self.facts.get(self.cfg.exit) or frozenset()

    def held_at_raise(self) -> Fact:
        return self.facts.get(self.cfg.raise_exit) or frozenset()

    def acquire_order_pairs(self) -> List[Tuple[LockToken, LockToken,
                                                ast.stmt]]:
        """``(held, acquired, stmt)`` triples: an acquire-kind token
        generated at ``stmt`` while another acquire-kind token may
        already be held.  A token held across its own re-acquisition
        (``held is acquired``) is a loop-carried pair — the loop body
        acquires a fresh group each iteration while keeping the last.
        Feeds the CSAR011 lock-order graph.
        """
        out: List[Tuple[LockToken, LockToken, ast.stmt]] = []
        seen: Set[Tuple[int, int, int]] = set()
        for cfg_node in self.cfg.nodes:
            stmt = cfg_node.stmt
            if stmt is None or cfg_node.label != "stmt":
                continue
            effects = self._effects.get(id(stmt))
            if not effects:
                continue
            gen_tids = [tid for op, tid in effects if op == "gen"]
            if not gen_tids:
                continue
            fact = self.facts.get(cfg_node.index) or frozenset()
            for tid in gen_tids:
                acquired = self.tokens[tid]
                if acquired.kind != "acquire":
                    continue
                for held_tid in sorted(fact):
                    held = self.tokens[held_tid]
                    if held.kind != "acquire":
                        continue
                    key = (held_tid, tid, id(stmt))
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append((held, acquired, stmt))
        return out

"""Statement-level control-flow graphs for ``csar-lint`` analyses.

The graph models the execution of one function body under the
simulator's exception model: exceptions originate at ``yield``
expressions (an :class:`~repro.sim.engine.Interrupt` or a failed event
thrown into the generator), at explicit ``raise`` statements, and at
``assert``.  Plain calls never raise in this model — the lock/table
primitives report protocol errors through the sanitizer, and anything
else raising is a bug the runtime surfaces on its own.

Shape of the graph:

* one :class:`Node` per statement occurrence; compound statements
  (``if``/``while``/``for``/``try``/``with``) get a node for their
  header only, with their blocks built as separate chains;
* synthetic ``entry``, ``exit`` (normal return) and ``raise-exit``
  (unhandled exception) nodes;
* edges carry a kind: ``"normal"`` for fall-through and branch edges,
  ``"exc"`` for edges taken when the statement's evaluation is aborted
  by an exception.  Dataflow transfer functions use the kind to decide
  whether the statement's effects happened: an aborted
  ``yield from table.acquire(...)`` never acquired (the table cancels
  its own request on interrupt), so the exceptional edge propagates the
  *pre*-state;
* ``finally`` blocks are duplicated per continuation (normal
  completion, exception propagation, ``return``, ``break``,
  ``continue``) so each copy flows to the right place;
* a ``try``'s handlers hang off a synthetic dispatch node; typed
  handlers keep an unhandled-propagation edge, a catch-all handler
  (bare ``except``, ``except Exception``/``BaseException``) removes it.

The same AST statement can appear in several nodes (the ``finally``
copies); analyses key their per-program-point facts by node id, and
per-statement effects by the statement object.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

#: Edge kinds.
NORMAL = "normal"
EXC = "exc"

#: Exception-type names treated as catching everything.
_CATCH_ALL_NAMES = ("Exception", "BaseException")


@dataclass
class Node:
    """One program point: a statement occurrence or a synthetic marker."""

    index: int
    stmt: Optional[ast.stmt]
    label: str = "stmt"  # "entry" | "exit" | "raise-exit" |
                         # "exc-dispatch" | "stmt"


class CFG:
    """A per-function control-flow graph (see the module docstring)."""

    def __init__(self) -> None:
        self.nodes: List[Node] = []
        #: node index -> [(successor index, edge kind)]
        self.succs: Dict[int, List[Tuple[int, str]]] = {}
        self.entry = self.new_node(None, "entry")
        self.exit = self.new_node(None, "exit")
        self.raise_exit = self.new_node(None, "raise-exit")

    def new_node(self, stmt: Optional[ast.stmt], label: str = "stmt") -> int:
        node = Node(len(self.nodes), stmt, label)
        self.nodes.append(node)
        return node.index

    def add_edge(self, src: int, dst: int, kind: str = NORMAL) -> None:
        self.succs.setdefault(src, []).append((dst, kind))


@dataclass(frozen=True)
class _Ctx:
    """Where control transfers out of the current block go."""

    exc: int                      # unhandled exception
    ret: int                      # return statements
    brk: Optional[int] = None     # break (None outside loops)
    cont: Optional[int] = None    # continue


def _stmt_can_raise(stmt: ast.stmt) -> bool:
    """Whether evaluating this (simple) statement can be aborted.

    Only yields and asserts can, in the interrupt-driven model; nested
    function definitions do not execute their bodies here.
    """
    if isinstance(stmt, ast.Assert):
        return True
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return False
    return any(isinstance(n, (ast.Yield, ast.YieldFrom))
               for n in ast.walk(stmt))


def _loop_runs_at_least_once(stmt: ast.stmt) -> bool:
    """Whether the loop body provably executes (non-empty literal
    iterable, or ``while True``)."""
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return isinstance(stmt.iter, (ast.Tuple, ast.List)) \
            and bool(stmt.iter.elts)
    if isinstance(stmt, ast.While):
        return isinstance(stmt.test, ast.Constant) and bool(stmt.test.value)
    return False


def _is_catch_all(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    for t in types:
        name = t.id if isinstance(t, ast.Name) else (
            t.attr if isinstance(t, ast.Attribute) else None)
        if name in _CATCH_ALL_NAMES:
            return True
    return False


class _Builder:
    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg

    # -- blocks ---------------------------------------------------------
    def block(self, stmts: List[ast.stmt], follow: int, ctx: _Ctx) -> int:
        """Build a statement list; returns its entry node (or ``follow``
        when empty)."""
        entry = follow
        for stmt in reversed(stmts):
            entry = self.stmt(stmt, entry, ctx)
        return entry

    # -- statements -----------------------------------------------------
    def stmt(self, stmt: ast.stmt, follow: int, ctx: _Ctx) -> int:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            node = cfg.new_node(stmt)
            cfg.add_edge(node, self.block(stmt.body, follow, ctx))
            cfg.add_edge(node, self.block(stmt.orelse, follow, ctx))
            return node
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            # Loop headers (test/iter) cannot contain yields, so they
            # never raise in this model.
            header = cfg.new_node(stmt)
            if _loop_runs_at_least_once(stmt):
                # ``for x in (3, 5)``: the zero-iteration exit edge
                # would be a phantom path — route the first iteration
                # unconditionally through the body and only let the
                # back-edge header exit.
                back = cfg.new_node(stmt)
                inner = replace(ctx, brk=follow, cont=back)
                body = self.block(stmt.body, back, inner)
                cfg.add_edge(header, body)
                cfg.add_edge(back, body)
                cfg.add_edge(back, self.block(stmt.orelse, follow, ctx))
                return header
            inner = replace(ctx, brk=follow, cont=header)
            cfg.add_edge(header, self.block(stmt.body, header, inner))
            cfg.add_edge(header, self.block(stmt.orelse, follow, ctx))
            return header
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            node = cfg.new_node(stmt)
            cfg.add_edge(node, self.block(stmt.body, follow, ctx))
            return node
        if isinstance(stmt, ast.Try):
            return self.try_stmt(stmt, follow, ctx)
        if isinstance(stmt, ast.Return):
            node = cfg.new_node(stmt)
            cfg.add_edge(node, ctx.ret)
            return node
        if isinstance(stmt, ast.Raise):
            node = cfg.new_node(stmt)
            cfg.add_edge(node, ctx.exc, EXC)
            return node
        if isinstance(stmt, ast.Break):
            node = cfg.new_node(stmt)
            cfg.add_edge(node, ctx.brk if ctx.brk is not None else follow)
            return node
        if isinstance(stmt, ast.Continue):
            node = cfg.new_node(stmt)
            cfg.add_edge(node, ctx.cont if ctx.cont is not None else follow)
            return node
        # Simple statement (including nested def/class headers).
        node = cfg.new_node(stmt)
        cfg.add_edge(node, follow)
        if _stmt_can_raise(stmt):
            cfg.add_edge(node, ctx.exc, EXC)
        return node

    def try_stmt(self, stmt: ast.Try, follow: int, ctx: _Ctx) -> int:
        cfg = self.cfg
        if stmt.finalbody:
            # One finally copy per continuation actually used.
            fin_norm = self.block(stmt.finalbody, follow, ctx)
            fin_exc = self.block(stmt.finalbody, ctx.exc, ctx)
            fin_ret = self.block(stmt.finalbody, ctx.ret, ctx)
            fin_brk = self.block(stmt.finalbody, ctx.brk, ctx) \
                if ctx.brk is not None else None
            fin_cont = self.block(stmt.finalbody, ctx.cont, ctx) \
                if ctx.cont is not None else None
        else:
            fin_norm, fin_exc, fin_ret = follow, ctx.exc, ctx.ret
            fin_brk, fin_cont = ctx.brk, ctx.cont
        outer = _Ctx(exc=fin_exc, ret=fin_ret, brk=fin_brk, cont=fin_cont)

        if stmt.handlers:
            dispatch = cfg.new_node(stmt, "exc-dispatch")
            caught_all = False
            for handler in stmt.handlers:
                entry = self.block(handler.body, fin_norm, outer)
                cfg.add_edge(dispatch, entry)
                caught_all = caught_all or _is_catch_all(handler)
            if not caught_all:
                cfg.add_edge(dispatch, fin_exc, EXC)
            body_exc = dispatch
        else:
            body_exc = fin_exc
        body_ctx = _Ctx(exc=body_exc, ret=fin_ret, brk=fin_brk,
                        cont=fin_cont)
        # Exceptions in ``else`` are not caught by this try's handlers.
        body_follow = self.block(stmt.orelse, fin_norm, outer) \
            if stmt.orelse else fin_norm
        return self.block(stmt.body, body_follow, body_ctx)


def build_cfg(func: ast.FunctionDef) -> CFG:
    """Build the CFG of one function's body."""
    cfg = CFG()
    ctx = _Ctx(exc=cfg.raise_exit, ret=cfg.exit)
    builder = _Builder(cfg)
    cfg.add_edge(cfg.entry, builder.block(func.body, cfg.exit, ctx))
    return cfg

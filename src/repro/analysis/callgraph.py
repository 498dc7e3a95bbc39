"""A module-level call graph over a set of Python sources.

The graph is the substrate of ``csar-lint``: per-function lock-effect
summaries (:mod:`repro.analysis.summaries`) are computed bottom-up over
its strongly-connected components, and the whole-program rules (CSAR010,
CSAR011) walk its edges to build witness call chains.

Construction is purely syntactic (stdlib :mod:`ast`, no imports are
executed) and deliberately *may*-style:

* bare-name calls resolve through the defining module's top-level
  functions, then its ``from x import y`` aliases;
* ``self.m(...)`` / ``cls.m(...)`` resolve through the enclosing class
  and its base classes (by name, within the parsed universe);
* ``super().m(...)`` starts the lookup at the base classes;
* ``Class.m(...)`` and ``module.f(...)`` resolve through imported or
  local class/module names;
* ``getattr(x, "lit")(...)`` is normalized to ``x.lit(...)`` first;
* any other ``obj.m(...)`` falls back to *every* parsed method named
  ``m`` — these edges are recorded with ``confident=False`` and excluded
  from summary application (a low-confidence union of unrelated
  ``write`` methods would drown the analysis in phantom lock effects),
  but they still appear in the graph for navigation and SCC grouping.

Lock primitives (``acquire``/``release``/``cancel``/``request``) are the
*atoms* of the lock analysis: calls to them are never call-graph edges,
so the analysis cannot descend into
:class:`~repro.redundancy.locks.ParityLockTable` and double-count its
internal bookkeeping.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

#: Method names treated as lock-analysis primitives, never call edges.
PRIMITIVE_ATTRS = frozenset(("acquire", "release", "cancel", "request"))

#: Receiver methods whose call arguments run in a *new* process: a
#: generator handed to ``env.process(...)`` executes concurrently, so
#: its lock effects must not be attributed to the spawning statement.
SPAWN_ATTRS = frozenset(("process",))

#: Cap on name-based fallback targets; a method name shared more widely
#: than this resolves to nothing (it carries no information).
_FALLBACK_CAP = 24


@dataclass
class FunctionInfo:
    """One parsed function or method."""

    qname: str                    # "module.Class.method" | "module.func"
    module: str                   # dotted module name (derived from path)
    path: str                     # file the function was parsed from
    node: ast.FunctionDef
    name: str                     # bare function/method name
    cls: Optional[str] = None     # simple enclosing-class name, if any


@dataclass
class ClassInfo:
    """One parsed class: its bases (as written) and its methods."""

    qname: str
    module: str
    name: str
    bases: Tuple[str, ...]                       # unparsed base exprs
    methods: Dict[str, str] = field(default_factory=dict)  # name -> qname


@dataclass(frozen=True)
class Resolution:
    """The outcome of resolving one call site."""

    targets: Tuple[str, ...]      # callee qnames (may be empty)
    confident: bool               # False for name-based fallback edges


_NO_TARGETS = Resolution((), True)


def module_name_of(path: str) -> str:
    """Derive a dotted module name from a file path.

    Anything up to and including the last ``src`` component is stripped
    (the repo layout), ``__init__`` is dropped, and separators become
    dots.  Uniqueness is what matters, not installability.
    """
    norm = os.path.normpath(path)
    parts = [p for p in norm.split(os.sep) if p not in ("", ".", "..")]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<module>"


def normalize_call(call: ast.Call) -> Tuple[Optional[ast.expr],
                                            Optional[str], Optional[str]]:
    """``(receiver expr, attribute, bare name)`` of a call's callee.

    ``getattr(x, "lit")(...)`` is folded into an ``x.lit`` attribute
    access so the literal-attribute idiom resolves like a plain method
    call.
    """
    func = call.func
    if (isinstance(func, ast.Call) and isinstance(func.func, ast.Name)
            and func.func.id == "getattr" and len(func.args) >= 2
            and isinstance(func.args[1], ast.Constant)
            and isinstance(func.args[1].value, str)):
        return func.args[0], func.args[1].value, None
    if isinstance(func, ast.Attribute):
        return func.value, func.attr, None
    if isinstance(func, ast.Name):
        return None, None, func.id
    return None, None, None


class CallGraph:
    """Functions, classes, and resolved call edges of a file set."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: confident call edges: caller qname -> sorted callee qnames
        self.edges: Dict[str, Tuple[str, ...]] = {}
        #: name-based fallback edges (graph-only, not summarized)
        self.may_edges: Dict[str, Tuple[str, ...]] = {}
        self.trees: Dict[str, ast.Module] = {}     # path -> parsed module
        self.sources: Dict[str, str] = {}          # path -> source text
        self._by_node: Dict[int, FunctionInfo] = {}  # id(ast node) -> info
        self._module_funcs: Dict[str, Dict[str, str]] = {}
        self._module_classes: Dict[str, Dict[str, str]] = {}
        self._imports: Dict[str, Dict[str, str]] = {}
        self._methods_by_name: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "CallGraph":
        graph = cls()
        for path in sorted(sources):
            graph._add_module(path, sources[path])
        graph._build_edges()
        return graph

    def _add_module(self, path: str, source: str) -> None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return
        module = module_name_of(path)
        self.trees[path] = tree
        self.sources[path] = source
        funcs = self._module_funcs.setdefault(module, {})
        classes = self._module_classes.setdefault(module, {})
        imports = self._imports.setdefault(module, {})
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self._record_import(module, stmt, imports)
            elif isinstance(stmt, ast.FunctionDef):
                qname = f"{module}.{stmt.name}"
                info = FunctionInfo(qname, module, path, stmt, stmt.name)
                self.functions[qname] = info
                self._by_node[id(stmt)] = info
                funcs[stmt.name] = qname
            elif isinstance(stmt, ast.ClassDef):
                cqname = f"{module}.{stmt.name}"
                cinfo = ClassInfo(
                    cqname, module, stmt.name,
                    tuple(ast.unparse(b) for b in stmt.bases))
                self.classes[cqname] = cinfo
                classes[stmt.name] = cqname
                for sub in stmt.body:
                    if not isinstance(sub, ast.FunctionDef):
                        continue
                    qname = f"{cqname}.{sub.name}"
                    info = FunctionInfo(qname, module, path, sub,
                                        sub.name, cls=stmt.name)
                    self.functions[qname] = info
                    self._by_node[id(sub)] = info
                    cinfo.methods[sub.name] = qname
                    self._methods_by_name.setdefault(
                        sub.name, []).append(qname)

    def _record_import(self, module: str, stmt: ast.stmt,
                       imports: Dict[str, str]) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    imports[top] = top
        elif isinstance(stmt, ast.ImportFrom):
            base = stmt.module or ""
            if stmt.level:
                package = module.rsplit(".", stmt.level)[0] \
                    if module.count(".") >= stmt.level else ""
                base = f"{package}.{base}".strip(".") if base else package
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base \
                    else alias.name

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def info_of(self, node: ast.FunctionDef) -> Optional[FunctionInfo]:
        """The :class:`FunctionInfo` for an AST node of *this* graph's
        own parse (node identity, not position)."""
        return self._by_node.get(id(node))

    def _dotted_candidates(self, dotted: str) -> List[str]:
        """Parsed qnames matching a dotted name, exactly or by suffix."""
        hits = []
        for registry in (self.functions, self.classes):
            if dotted in registry:
                hits.append(dotted)
        if hits:
            return hits
        suffix = "." + dotted
        for registry in (self.functions, self.classes):
            hits.extend(q for q in registry if q.endswith(suffix))
        return sorted(set(hits))

    def _class_by_name(self, module: str, name: str) -> Optional[ClassInfo]:
        """Resolve a class name as seen from ``module``."""
        local = self._module_classes.get(module, {})
        if name in local:
            return self.classes[local[name]]
        dotted = self._imports.get(module, {}).get(name)
        if dotted:
            for q in self._dotted_candidates(dotted):
                if q in self.classes:
                    return self.classes[q]
        # Unique global match: better than nothing for cross-module bases.
        matches = [c for c in self.classes.values() if c.name == name]
        if len(matches) == 1:
            return matches[0]
        return None

    def _mro_lookup(self, cinfo: ClassInfo, attr: str,
                    skip_own: bool = False,
                    _seen: Optional[set] = None) -> Optional[str]:
        seen = _seen if _seen is not None else set()
        if cinfo.qname in seen:
            return None
        seen.add(cinfo.qname)
        if not skip_own and attr in cinfo.methods:
            return cinfo.methods[attr]
        for base_text in cinfo.bases:
            base_name = base_text.rsplit(".", 1)[-1]
            base = self._class_by_name(cinfo.module, base_name)
            if base is None:
                continue
            hit = self._mro_lookup(base, attr, _seen=seen)
            if hit is not None:
                return hit
        return None

    # ------------------------------------------------------------------
    # call resolution
    # ------------------------------------------------------------------
    def resolve_call(self, caller: FunctionInfo,
                     call: ast.Call) -> Resolution:
        """Resolve one call site to candidate callees (see module doc)."""
        receiver, attr, bare = normalize_call(call)
        if bare is not None:
            return self._resolve_name(caller, bare)
        if attr is None:
            return _NO_TARGETS
        if attr in PRIMITIVE_ATTRS:
            return _NO_TARGETS
        return self._resolve_attr(caller, receiver, attr)

    def _resolve_name(self, caller: FunctionInfo, name: str) -> Resolution:
        funcs = self._module_funcs.get(caller.module, {})
        if name in funcs:
            return Resolution((funcs[name],), True)
        dotted = self._imports.get(caller.module, {}).get(name)
        if dotted:
            hits = self._dotted_candidates(dotted)
            funcs_only = [h for h in hits if h in self.functions]
            if funcs_only:
                return Resolution(tuple(sorted(funcs_only)), True)
            # Imported class called = constructor.
            inits = [self.classes[h].methods["__init__"] for h in hits
                     if h in self.classes
                     and "__init__" in self.classes[h].methods]
            if inits:
                return Resolution(tuple(sorted(inits)), True)
        classes = self._module_classes.get(caller.module, {})
        if name in classes:
            cinfo = self.classes[classes[name]]
            init = cinfo.methods.get("__init__")
            if init:
                return Resolution((init,), True)
        return _NO_TARGETS

    def _resolve_attr(self, caller: FunctionInfo,
                      receiver: Optional[ast.expr],
                      attr: str) -> Resolution:
        # self.m() / cls.m(): the enclosing class hierarchy.
        if (isinstance(receiver, ast.Name)
                and receiver.id in ("self", "cls") and caller.cls):
            cinfo = self._class_by_name(caller.module, caller.cls)
            if cinfo is not None:
                hit = self._mro_lookup(cinfo, attr)
                if hit is not None:
                    return Resolution((hit,), True)
        # super().m(): start at the bases.
        if (isinstance(receiver, ast.Call)
                and isinstance(receiver.func, ast.Name)
                and receiver.func.id == "super" and caller.cls):
            cinfo = self._class_by_name(caller.module, caller.cls)
            if cinfo is not None:
                hit = self._mro_lookup(cinfo, attr, skip_own=True)
                if hit is not None:
                    return Resolution((hit,), True)
            return _NO_TARGETS
        # Class.m(...) or module.f(...).
        if isinstance(receiver, ast.Name):
            cinfo = self._class_by_name(caller.module, receiver.id)
            if cinfo is not None:
                hit = self._mro_lookup(cinfo, attr)
                if hit is not None:
                    return Resolution((hit,), True)
            dotted = self._imports.get(caller.module, {}).get(receiver.id)
            if dotted:
                hits = [h for h in
                        self._dotted_candidates(f"{dotted}.{attr}")
                        if h in self.functions]
                if hits:
                    return Resolution(tuple(sorted(hits)), True)
        # Name-based fallback: every parsed method with this name.
        if attr.startswith("__"):
            return _NO_TARGETS
        candidates = self._methods_by_name.get(attr, ())
        if 0 < len(candidates) <= _FALLBACK_CAP:
            return Resolution(tuple(sorted(candidates)), False)
        return _NO_TARGETS

    # ------------------------------------------------------------------
    # edges and SCCs
    # ------------------------------------------------------------------
    def _build_edges(self) -> None:
        for qname, info in self.functions.items():
            confident: set = set()
            fallback: set = set()
            for call in iter_own_calls(info.node):
                res = self.resolve_call(info, call)
                (confident if res.confident else fallback).update(
                    res.targets)
            self.edges[qname] = tuple(sorted(confident))
            self.may_edges[qname] = tuple(sorted(fallback - confident))

    def sccs(self) -> List[List[str]]:
        """Strongly-connected components of the *confident* edge set, in
        reverse topological order (callees before callers) — the order
        summaries must be computed in."""
        index_of: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Dict[str, bool] = {}
        stack: List[str] = []
        counter = [0]
        out: List[List[str]] = []

        def strongconnect(v: str) -> None:
            # Iterative Tarjan (explicit stack) so deep call chains
            # cannot hit the recursion limit.
            work = [(v, 0)]
            while work:
                node, ei = work[-1]
                if ei == 0:
                    index_of[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack[node] = True
                advanced = False
                edges = self.edges.get(node, ())
                while ei < len(edges):
                    succ = edges[ei]
                    ei += 1
                    if succ not in index_of:
                        work[-1] = (node, ei)
                        work.append((succ, 0))
                        advanced = True
                        break
                    if on_stack.get(succ):
                        low[node] = min(low[node], index_of[succ])
                if advanced:
                    continue
                work.pop()
                if low[node] == index_of[node]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        scc.append(w)
                        if w == node:
                            break
                    out.append(sorted(scc))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])

        for qname in sorted(self.functions):
            if qname not in index_of:
                strongconnect(qname)
        return out


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def iter_own_calls(func: ast.FunctionDef) -> Iterable[ast.Call]:
    """Call nodes in ``func``'s own body (no nested scopes)."""
    todo: List[ast.AST] = list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, _SCOPES):
            continue
        if isinstance(node, ast.Call):
            yield node
        todo.extend(ast.iter_child_nodes(node))


def spawn_argument_calls(root: ast.AST) -> set:
    """ids of call nodes nested in the arguments of a ``*.process(...)``
    call — generators that run in a *separate* process, whose effects
    must not be charged to the spawning statement."""
    out: set = set()
    for node in ast.walk(root):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in SPAWN_ATTRS):
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Call):
                    out.add(id(sub))
    return out

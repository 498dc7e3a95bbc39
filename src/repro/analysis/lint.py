"""``csar-lint``: static protocol checks for CSAR simulation code.

A stdlib-:mod:`ast` analysis with CSAR-specific rules (see
:mod:`repro.analysis.rules` for the registry and ``docs/ANALYSIS.md``
for worked examples).  There is one pass: the linted files (or the
sources handed to :func:`lint_sources`) become a
:class:`~repro.analysis.summaries.Program` — call graph plus
per-function lock and buffer summaries — and every rule below sees
callee effects through it.

* **CSAR001** — a generator function acquires a lock/resource
  (``*.acquire(...)`` or ``*.request()``) that a path can exit without
  releasing: never released at all, released on some paths but still
  held on a normal exit, or leaked when a blocking yield is
  interrupted.  Checked flow-sensitively: a CFG
  (:mod:`repro.analysis.cfg`) plus a forward lock-ownership dataflow
  (:mod:`repro.analysis.dataflow`) decide whether any normal or
  exceptional exit can still hold the token — no ``try/finally`` shape
  matching.  A token whose release lives in an ``except`` handler or
  ``finally`` block is exempt from the interrupt-leak variant, and a
  request whose ownership escapes (stored, returned, passed on) is the
  protocol-carried idiom and is not reported.
* **CSAR010** — a lock acquired by a helper that a caller path can
  exit still holding, reported at the call with its ``caller ->
  helper`` chain.
* **CSAR011** — a cycle or a descending edge on the global
  acquires-while-holding graph, against the Section 5.1 ascending-group
  order.
* **CSAR013/014** — the buffer-provenance rules
  (:mod:`repro.analysis.bufflow`): in-place mutation or thaw of a
  may-frozen payload view, and a private writable buffer escaping with
  no dominating freeze.  Flow-sensitive over the same CFG engine as the
  lock rules; callee buffer summaries ride the call graph and findings
  carry ``caller -> helper`` chains.

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

from repro.analysis.bufflow import BufferAnalysis, buffer_context_for
from repro.analysis.dataflow import LockAnalysis
from repro.analysis.rules import RULES, all_codes
from repro.analysis.summaries import Program, format_chain, group_value

#: Version of the ``--format=json`` payload (see ``docs/ANALYSIS.md``).
LINT_SCHEMA_VERSION = 1


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
# the per-file linter
# ----------------------------------------------------------------------
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _is_generator(func: ast.FunctionDef) -> bool:
    """``func``'s own body yields (nested scopes do not count)."""
    todo: List[ast.AST] = list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return False


class FileLinter:
    """Run every per-module rule over one module of a
    :class:`~repro.analysis.summaries.Program`, which supplies the parse
    and the callee summaries."""

    def __init__(self, path: str, source: str, program) -> None:
        self.path = path
        self.source = source
        self.program = program
        self.findings: List[Finding] = []
        self._supp = _suppressions(source)

    # -- plumbing -------------------------------------------------------
    def _report(self, code: str, node: ast.AST, message: str) -> None:
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
        buf_scoped = self._is_bufflow_scoped()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                if _is_generator(node):
                    self._check_lock_dataflow(node)
                if buf_scoped:
                    self._check_bufflow(node)
        return self.findings

    def _is_bufflow_scoped(self) -> bool:
        """CSAR013/014 apply wherever payload bytes travel or rest:
        ``redundancy``/``pvfs`` modules, ``analysis`` (sanitizers,
        seeded bugs) and ``storage`` — the payload rope, and the block
        store that keeps the written payloads' own arrays.  ``hw``/
        ``sim`` never hold content and stay out of scope."""
        parts = os.path.normpath(self.path).split(os.sep)
        return any(part in ("redundancy", "pvfs", "analysis", "storage")
                   for part in parts)

    # -- CSAR013 / CSAR014 (buffer provenance) --------------------------
    def _check_bufflow(self, func: ast.FunctionDef) -> None:
        ctx = buffer_context_for(self.program, func)
        qname = ctx.info.qname if ctx is not None else func.name
        analysis = BufferAnalysis(func, interproc=ctx, qname=qname,
                                  path=self.path)
        for finding in analysis.findings():
            self._report(finding.code, finding.node, finding.message)

    # -- CSAR001 (CFG + dataflow) ---------------------------------------
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
            elif token.tid in held_exit:
                self._report(
                    "CSAR001", call,
                    f"{desc}() released on some paths but still held on "
                    "at least one normal exit "
                    f"[fix: {RULES['CSAR001'].fixit}]")
            elif token.tid in held_raise and not token.release_in_cleanup:
                self._report(
                    "CSAR001", call,
                    f"{desc}() released on the normal path but leaked "
                    "when the blocking yield is interrupted "
                    f"[fix: {RULES['CSAR001'].fixit}]")

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
        chain = format_chain(((caller.qname, caller.path, call.lineno),),
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


def check_order_cycles(program,
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

    def emit(edge, message: str) -> None:
        supp = supp_of_path.get(edge.path, {})
        if _suppressed(supp, edge.line, "CSAR011"):
            return
        findings.append(Finding(
            edge.path, edge.line, 0, "CSAR011", message,
            witness=_witness_note(edge, witnesses)))

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
             f"{format_chain((), edge.chain)} "
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
             f"({format_chain((), edge.chain)}) but {rev_qname} "
             f"acquires {held} while holding {acquired} "
             f"({format_chain((), rev_edge.chain)}) "
             f"[fix: {RULES['CSAR011'].fixit}]")
    return findings


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
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


def lint_paths(paths: Iterable[str], witnesses=None) -> List[Finding]:
    """Lint files and directory trees as one program; findings sorted by
    location."""
    sources: Dict[str, str] = {}
    for path in iter_python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as fp:
                sources[path] = fp.read()
        except OSError:
            continue
    return lint_sources(sources, witnesses)


def lint_sources(sources: Dict[str, str],
                 witnesses=None) -> List[Finding]:
    """The one lint pass over ``{path: source}``: condense it into a
    :class:`~repro.analysis.summaries.Program` (call graph + lock and
    buffer summaries), run the per-module rules with callee effects
    visible, then the whole-program CSAR011 over the global lock-order
    graph.  ``witnesses`` is an optional list of LockSan order-inversion
    records (see :func:`load_witnesses`) cross-referenced into CSAR011
    findings."""
    program = Program.from_sources(sources)
    findings: List[Finding] = []
    supp_of_path: Dict[str, Dict[int, Optional[Set[str]]]] = {}
    for path, source in sources.items():
        linter = FileLinter(path, source, program)
        findings.extend(linter.run())
        supp_of_path[path] = linter._supp
    findings.extend(check_order_cycles(program, supp_of_path, witnesses))
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

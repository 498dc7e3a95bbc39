"""The CFG builder (repro.analysis.cfg) that underpins the
flow-sensitive lint rules: edge structure for straight-line code,
branches, loops (including the runs-at-least-once refinement), and the
interrupt-driven exception model (exceptional edges only at yields)."""

import ast

from repro.analysis.cfg import EXC, build_cfg


def cfg_of(source):
    tree = ast.parse(source)
    return build_cfg(tree.body[0])


def stmts_of(cfg):
    """Map node index -> first unparsed line (synthetics excluded)."""
    out = {}
    for node in cfg.nodes:
        if node.stmt is not None and node.label == "stmt":
            out[node.index] = ast.unparse(node.stmt).splitlines()[0]
    return out


def edges(cfg, kind=None):
    out = []
    for src, succs in cfg.succs.items():
        for dst, k in succs:
            if kind is None or k == kind:
                out.append((src, dst))
    return out


def path_avoiding(cfg, start, goal, avoid):
    """Is there a path start -> goal that touches no node in ``avoid``?"""
    seen = {start}
    todo = [start]
    while todo:
        n = todo.pop()
        if n == goal:
            return True
        for succ, _kind in cfg.succs.get(n, ()):
            if succ not in seen and succ not in avoid:
                seen.add(succ)
                todo.append(succ)
    return False


def reachable(cfg):
    """Node indices reachable from ``entry``."""
    seen = {cfg.entry}
    todo = [cfg.entry]
    while todo:
        for succ, _kind in cfg.succs.get(todo.pop(), ()):
            if succ not in seen:
                seen.add(succ)
                todo.append(succ)
    return seen


def only(stmts, text):
    matches = [i for i, s in stmts.items() if s == text]
    assert len(matches) >= 1, f"no node for {text!r}"
    return matches[0]


class TestStraightLine:
    def test_linear_statements_reachable(self):
        cfg = cfg_of("def f():\n    a = 1\n    b = 2\n    return b\n")
        stmts = stmts_of(cfg)
        reach = reachable(cfg)
        assert only(stmts, "a = 1") in reach
        assert only(stmts, "b = 2") in reach
        assert cfg.exit in reach

    def test_branch_arms_both_reachable(self):
        cfg = cfg_of(
            "def f(x):\n"
            "    if x:\n"
            "        a = 1\n"
            "    else:\n"
            "        a = 2\n"
            "    return a\n")
        stmts = stmts_of(cfg)
        reach = reachable(cfg)
        assert only(stmts, "a = 1") in reach
        assert only(stmts, "a = 2") in reach


class TestLoops:
    def test_general_loop_has_zero_iteration_path(self):
        cfg = cfg_of(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        use(x)\n"
            "    return 1\n")
        stmts = stmts_of(cfg)
        body = {i for i, s in stmts.items() if s == "use(x)"}
        # `xs` may be empty: entry must reach the return without the body.
        assert path_avoiding(cfg, cfg.entry, only(stmts, "return 1"), body)

    def test_literal_tuple_loop_always_enters_body(self):
        cfg = cfg_of(
            "def f():\n"
            "    for g in (3, 5):\n"
            "        use(g)\n"
            "    return 1\n")
        stmts = stmts_of(cfg)
        body = {i for i, s in stmts.items() if s == "use(g)"}
        # Non-empty literal iterable: no zero-iteration phantom path.
        assert not path_avoiding(cfg, cfg.entry, only(stmts, "return 1"),
                                 body)

    def test_while_true_always_enters_body(self):
        cfg = cfg_of(
            "def f():\n"
            "    while True:\n"
            "        if done():\n"
            "            break\n"
            "    return 1\n")
        stmts = stmts_of(cfg)
        body = {i for i, s in stmts.items() if s.startswith("if ")}
        assert not path_avoiding(cfg, cfg.entry, only(stmts, "return 1"),
                                 body)

    def test_break_exits_literal_loop(self):
        cfg = cfg_of(
            "def f():\n"
            "    for g in (3, 5):\n"
            "        break\n"
            "    return 1\n")
        stmts = stmts_of(cfg)
        assert only(stmts, "return 1") in reachable(cfg)


class TestExceptionModel:
    def test_yield_has_exceptional_edge(self):
        cfg = cfg_of(
            "def f(env):\n"
            "    yield env.timeout(1)\n"
            "    return 1\n")
        stmts = stmts_of(cfg)
        y = only(stmts, "yield env.timeout(1)")
        assert (y, cfg.raise_exit) in edges(cfg, EXC)

    def test_plain_call_has_no_exceptional_edge(self):
        cfg = cfg_of(
            "def f():\n"
            "    helper()\n"
            "    return 1\n")
        assert edges(cfg, EXC) == []

    def test_catch_all_handler_removes_propagation(self):
        cfg = cfg_of(
            "def f(env):\n"
            "    try:\n"
            "        yield env.timeout(1)\n"
            "    except Exception:\n"
            "        cleanup()\n"
            "    return 1\n")
        assert cfg.raise_exit not in reachable(cfg)

    def test_typed_handler_keeps_propagation(self):
        cfg = cfg_of(
            "def f(env):\n"
            "    try:\n"
            "        yield env.timeout(1)\n"
            "    except ValueError:\n"
            "        cleanup()\n"
            "    return 1\n")
        assert cfg.raise_exit in reachable(cfg)

    def test_finally_duplicated_per_continuation(self):
        cfg = cfg_of(
            "def f(env):\n"
            "    try:\n"
            "        yield env.timeout(1)\n"
            "    finally:\n"
            "        release()\n"
            "    return 1\n")
        stmts = stmts_of(cfg)
        # Normal completion and exception propagation each need a copy.
        copies = [i for i, s in stmts.items() if s == "release()"]
        assert len(copies) >= 2
        reach = reachable(cfg)
        assert any(c in reach for c in copies)
        assert cfg.raise_exit in reach

"""The forward dataflow framework and the lock-ownership analysis
(repro.analysis.dataflow) behind CSAR001 and CSAR010."""

import ast

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import LockAnalysis, run_forward


def analysis_of(source):
    tree = ast.parse(source)
    return LockAnalysis(tree.body[0])


class TestFramework:
    def test_union_join_is_a_may_analysis(self):
        # gens on one branch only must survive to the join point.
        source = (
            "def f(x, table):\n"
            "    if x:\n"
            "        yield from table.acquire('f', 3, xid=1)\n"
            "    done()\n")
        la = analysis_of(source)
        stmts = {i: n.stmt for i, n in enumerate(la.cfg.nodes)
                 if n.stmt is not None and n.label == "stmt"}
        done_node = next(i for i, s in stmts.items()
                         if "done()" in ast.unparse(s))
        assert la.facts[done_node]  # held-on-one-branch reaches the join

    def test_unreachable_nodes_have_none_fact(self):
        source = (
            "def f():\n"
            "    return 1\n"
            "    dead()\n")
        tree = ast.parse(source)
        cfg = build_cfg(tree.body[0])
        facts = run_forward(cfg, lambda n, fact, kind: fact)
        dead = next(i for i, node in enumerate(cfg.nodes)
                    if node.stmt is not None
                    and "dead" in ast.unparse(node.stmt))
        assert facts[dead] is None


class TestTokenCollection:
    def test_acquire_token_with_receiver_and_args(self):
        la = analysis_of(
            "def f(table):\n"
            "    yield from table.acquire('f', 3, xid=1)\n"
            "    table.release('f', 3, xid=1)\n")
        assert len(la.tokens) == 1
        token = la.tokens[0]
        assert token.kind == "acquire"
        assert token.receiver == "table"
        assert token.release_sites

    def test_with_guarded_request_not_tracked_as_leak(self):
        la = analysis_of(
            "def f(lock):\n"
            "    with lock.request() as req:\n"
            "        yield req\n")
        assert all(t.guarded for t in la.tokens)
        assert not la.held_at_exit()

    def test_escaping_request_drops_ownership(self):
        la = analysis_of(
            "def f(self, lock):\n"
            "    req = lock.request()\n"
            "    self._held[0] = req\n"
            "    yield req\n")
        token = la.tokens[0]
        assert token.escapes
        assert not la.held_at_exit()


class TestHeldQueries:
    def test_balanced_acquire_release_clean(self):
        la = analysis_of(
            "def f(table, env):\n"
            "    yield from table.acquire('f', 3, xid=1)\n"
            "    try:\n"
            "        yield env.timeout(1)\n"
            "    finally:\n"
            "        table.release('f', 3, xid=1)\n")
        assert not la.held_at_exit()
        assert not la.held_at_raise()

    def test_missing_release_held_at_exit(self):
        la = analysis_of(
            "def f(table, env):\n"
            "    yield from table.acquire('f', 3, xid=1)\n"
            "    yield env.timeout(1)\n")
        assert la.held_at_exit()

    def test_interrupt_path_leak_held_at_raise_only(self):
        # Released on the normal path, but the yield in the window can
        # raise and the release is not in cleanup.
        la = analysis_of(
            "def f(table, env):\n"
            "    yield from table.acquire('f', 3, xid=1)\n"
            "    yield env.timeout(1)\n"
            "    table.release('f', 3, xid=1)\n")
        assert not la.held_at_exit()
        assert la.held_at_raise()
        assert not la.tokens[0].release_in_cleanup

    def test_conditional_release_held_on_one_exit_path(self):
        la = analysis_of(
            "def f(ok, table, env):\n"
            "    yield from table.acquire('f', 3, xid=1)\n"
            "    if ok:\n"
            "        table.release('f', 3, xid=1)\n")
        assert la.held_at_exit()  # the no-release arm reaches exit held

    def test_exc_edge_propagates_pre_state(self):
        # An aborted acquire never acquired: the raise-exit fact from
        # the acquiring statement's own exception must be empty.
        la = analysis_of(
            "def f(table):\n"
            "    yield from table.acquire('f', 3, xid=1)\n"
            "    table.release('f', 3, xid=1)\n")
        assert not la.held_at_raise()

    def test_argument_exact_release_matching(self):
        # Two groups on one table: releasing group 3 must not release
        # group 5's token.
        la = analysis_of(
            "def f(table, env):\n"
            "    yield from table.acquire('f', 3, xid=1)\n"
            "    yield from table.acquire('f', 5, xid=1)\n"
            "    table.release('f', 3, xid=1)\n"
            "    yield env.timeout(1)\n")
        assert la.held_at_exit()
        held = {la.tokens[t].args for t in la.held_at_exit()}
        assert ("'f'", "5", "xid=1") in held
        assert ("'f'", "3", "xid=1") not in held

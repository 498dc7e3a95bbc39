"""Module-level call graph (repro.analysis.callgraph): confident vs
fallback resolution, SCC condensation, and call normalization."""

import ast

from pathlib import Path

from repro.analysis.callgraph import (CallGraph, PRIMITIVE_ATTRS,
                                      module_name_of, normalize_call)

HERE = Path(__file__).resolve().parent
SHAPES = str(HERE / "ip_fixtures" / "callgraph_shapes.py")
LEAKS = str(HERE / "ip_fixtures" / "leak_chain.py")
MOD = module_name_of(SHAPES)
LEAK_MOD = module_name_of(LEAKS)


def graph_of(path):
    return CallGraph.from_sources({path: Path(path).read_text()})


def shapes_graph():
    return graph_of(SHAPES)


class TestConstruction:
    def test_every_function_and_method_is_a_node(self):
        g = shapes_graph()
        assert {f"{MOD}.{name}" for name in (
            "even", "odd", "standalone", "Base.ping", "Base.pong",
            "Derived.pong", "Derived.delegate", "literal_getattr",
            "duck_call")} <= set(g.functions)

    def test_module_name_strips_through_src(self):
        assert module_name_of("src/repro/pvfs/iod.py") == "repro.pvfs.iod"
        assert module_name_of(
            "tests/analysis/ip_fixtures/leak_chain.py") \
            == "tests.analysis.ip_fixtures.leak_chain"
        assert LEAK_MOD.endswith("ip_fixtures.leak_chain")

    def test_bare_name_calls_resolve_confidently(self):
        g = shapes_graph()
        assert set(g.edges[f"{MOD}.standalone"]) \
            == {f"{MOD}.even", f"{MOD}.odd"}

    def test_super_call_resolves_through_mro(self):
        g = shapes_graph()
        assert f"{MOD}.Base.pong" in g.edges[f"{MOD}.Derived.pong"]

    def test_explicit_class_method_call_resolves(self):
        g = shapes_graph()
        assert f"{MOD}.Base.pong" in g.edges[f"{MOD}.Derived.delegate"]

    def test_self_method_call_resolves_through_mro(self):
        g = shapes_graph()
        assert f"{MOD}.Base.pong" in g.edges[f"{MOD}.Base.ping"]


class TestFallback:
    def test_unknown_receiver_gets_may_edges_only(self):
        g = shapes_graph()
        qname = f"{MOD}.duck_call"
        assert set(g.edges[qname]) == set()
        assert set(g.may_edges[qname]) \
            == {f"{MOD}.Base.pong", f"{MOD}.Derived.pong"}

    def test_literal_getattr_folds_to_attribute_dispatch(self):
        g = shapes_graph()
        qname = f"{MOD}.literal_getattr"
        assert f"{MOD}.Base.ping" in g.may_edges[qname]

    def test_lock_primitives_are_never_call_edges(self):
        assert "acquire" in PRIMITIVE_ATTRS and "release" in PRIMITIVE_ATTRS
        g = graph_of(LEAKS)
        take = f"{LEAK_MOD}.take"
        assert set(g.edges[take]) == set()
        assert set(g.may_edges[take]) == set()


class TestSCCs:
    def test_mutual_recursion_is_one_scc(self):
        g = shapes_graph()
        cycles = [sorted(scc) for scc in g.sccs() if len(scc) > 1]
        assert [f"{MOD}.even", f"{MOD}.odd"] in cycles

    def test_reverse_topological_order(self):
        # Every confident edge must point at an earlier-or-same SCC:
        # callees are summarized before their callers.
        g = shapes_graph()
        position = {}
        for index, scc in enumerate(g.sccs()):
            for qname in scc:
                position[qname] = index
        for src, dsts in g.edges.items():
            for dst in dsts:
                assert position[dst] <= position[src]


class TestNormalizeCall:
    def test_plain_attribute_call(self):
        call = ast.parse("self.locks.acquire(f, g, x)", mode="eval").body
        receiver, attr, bare = normalize_call(call)
        assert ast.unparse(receiver) == "self.locks"
        assert attr == "acquire"
        assert bare is None

    def test_bare_name_call(self):
        call = ast.parse("helper(x)", mode="eval").body
        assert normalize_call(call) == (None, None, "helper")

    def test_literal_getattr_folded(self):
        call = ast.parse("getattr(obj, 'ping')()", mode="eval").body
        receiver, attr, bare = normalize_call(call)
        assert ast.unparse(receiver) == "obj"
        assert attr == "ping"
        assert bare is None

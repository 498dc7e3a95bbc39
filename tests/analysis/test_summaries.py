"""Lock-effect summaries (repro.analysis.summaries): bottom-up
computation over SCCs, parameter substitution, and order edges."""

from pathlib import Path

import pytest

from repro.analysis import lint
from repro.analysis.summaries import Program

from repro.analysis.callgraph import module_name_of

HERE = Path(__file__).resolve().parent
IP_FIXTURES = HERE / "ip_fixtures"
LEAKS = module_name_of(str(IP_FIXTURES / "leak_chain.py"))
ORDER = module_name_of(str(IP_FIXTURES / "order_cycle.py"))


@pytest.fixture(scope="module")
def program():
    return Program.from_sources(
        {path: Path(path).read_text()
         for path in lint.iter_python_files([str(IP_FIXTURES)])})


class TestEffects:
    def test_acquiring_helper_has_positive_net_delta(self, program):
        take = program.summaries[f"{LEAKS}.take"]
        assert take.net_delta == 1
        assert [a.key.format() for a in take.acquired] \
            == ["table.acquire('f', 3, xid)"]

    def test_suppressed_acquire_still_enters_summary(self, program):
        # take's acquire carries `# csar-lint: disable=CSAR001`;
        # suppression silences the *report*, not the effect.
        assert program.summaries[f"{LEAKS}.take"].acquired

    def test_releasing_helper_records_must_release(self, program):
        drop = program.summaries[f"{LEAKS}.drop"]
        assert [(r.key.format(), r.must) for r in drop.released] \
            == [("table.acquire('f', 3, xid)", True)]

    def test_caller_with_finally_release_is_balanced(self, program):
        clean = program.summaries[f"{LEAKS}.helper_release_clean"]
        assert clean.net_delta == 0
        assert not clean.acquired

    def test_conditional_release_leaves_lease_escaping_upward(self, program):
        leaky = program.summaries[f"{LEAKS}.conditional_leak"]
        assert leaky.net_delta == 1
        (acq,) = leaky.acquired
        # Substitution rewrote the helper's formals into caller terms...
        assert acq.key.format() == "table.acquire('f', 3, xid)"
        # ...and the chain names the helper hop for the CSAR010 message.
        assert any(qname == f"{LEAKS}.take" for qname, _p, _l in acq.chain)

    def test_io_yield_propagates_through_yielded_callees(self, program):
        assert program.summaries[f"{LEAKS}.io_helper"].io_yield
        assert program.summaries[f"{LEAKS}.hold_across_callee"].io_yield


class TestOrderEdges:
    def test_descending_range_loop_is_a_descending_edge(self, program):
        sweep = program.summaries[f"{ORDER}.descending_sweep"]
        (edge,) = sweep.order_edges
        assert edge.descending and edge.loop_carried
        assert edge.file_text == "'f'"

    def test_ascending_range_loop_has_no_edges(self, program):
        assert not program.summaries[f"{ORDER}.ascending_sweep"].order_edges

    def test_symbolic_pair_recorded_without_direction(self, program):
        (edge,) = program.summaries[f"{ORDER}.a_then_b"].order_edges
        assert (edge.held, edge.acquired) == ("a", "b")
        assert not edge.descending and not edge.loop_carried
        (rev,) = program.summaries[f"{ORDER}.b_then_a"].order_edges
        assert (rev.held, rev.acquired) == ("b", "a")

    def test_program_exposes_global_edge_list(self, program):
        owners = {qname for qname, _edge in program.order_edges()}
        assert {f"{ORDER}.descending_sweep", f"{ORDER}.a_then_b",
                f"{ORDER}.b_then_a"} <= owners

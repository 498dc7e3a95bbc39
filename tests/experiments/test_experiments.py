"""Tests for the experiment framework: tables, registry, tiny-scale runs.

Benchmark-grade shape assertions live in ``benchmarks/``; these tests
cover the machinery and that each experiment *runs* at minimal scale.
"""

import pytest

from repro.errors import ConfigError
from repro.experiments import REGISTRY, get_experiment
from repro.experiments.base import ExpTable, list_experiments


class TestExpTable:
    def make(self):
        return ExpTable("t", "demo", ["k", "a", "b"])

    def test_add_row_and_column(self):
        t = self.make()
        t.add_row("x", 1, 2)
        t.add_row("y", 3, 4)
        assert t.column("a") == [1, 3]
        assert t.column("b") == [2, 4]

    def test_row_width_checked(self):
        t = self.make()
        with pytest.raises(ValueError):
            t.add_row("x", 1)

    def test_cell_lookup(self):
        t = self.make()
        t.add_row("x", 1, 2)
        assert t.cell("x", "b") == 2
        with pytest.raises(KeyError):
            t.cell("nope", "b")

    def test_format_contains_everything(self):
        t = self.make()
        t.add_row("x", 1.5, 2)
        t.notes.append("a note")
        out = t.format()
        assert "demo" in out
        assert "1.50" in out
        assert "a note" in out
        # Aligned: header row and data row have same display width.
        lines = out.splitlines()
        assert len(lines[1]) == len(lines[2])


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        expected = {"fig1", "fig3", "fig4a", "fig4b", "fig5a", "fig5b",
                    "fig6a", "fig6b", "fig7a", "fig7b", "fig8", "table2",
                    "ablation-writebuf", "ablation-parity",
                    "ablation-stripe-unit"}
        assert expected <= set(REGISTRY)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            get_experiment("fig99")

    def test_list_is_sorted(self):
        ids = [e.id for e in list_experiments()]
        assert ids == sorted(ids)


class TestTinyScaleRuns:
    """Each experiment must complete and produce a well-formed table even
    at aggressive down-scaling (smoke only — shapes are benchmarks' job).
    """

    @pytest.mark.parametrize("exp_id,scale", [
        ("fig1", 1.0),
        ("fig3", 0.1),
        ("fig4a", 0.1),
        ("fig4b", 0.1),
        ("fig5a", 0.25),
        ("fig5b", 0.25),
        ("ablation-writebuf", 0.25),
        ("ablation-parity", 0.25),
    ])
    def test_experiment_runs(self, exp_id, scale):
        table = get_experiment(exp_id).run(scale=scale)
        assert table.rows
        assert all(len(r) == len(table.headers) for r in table.rows)
        assert table.format()

    @pytest.mark.parametrize("exp_id", ["fig6a", "fig7b"])
    def test_btio_experiments_run_at_minimum_scale(self, exp_id):
        table = get_experiment(exp_id).run(scale=0.025)
        assert [row[0] for row in table.rows] == [4, 9, 16, 25]
        for row in table.rows:
            assert all(v > 0 for v in row[1:])

    def test_fig8_runs_small(self):
        table = get_experiment("fig8").run(scale=0.02)
        assert len(table.rows) == 4
        for row in table.rows:
            assert row[1] == pytest.approx(1.0)  # raid0 normalized

    def test_table2_runs_small(self):
        # The storage arithmetic on one aligned and one all-overflow row;
        # the nine-row table (its FLASH rows run full size whatever the
        # scale) is measured by benchmarks/test_claims.py.
        from repro.experiments import table2_storage

        specs = {spec[0]: spec for spec in table2_storage._rows(0.02)}
        assert len(specs) == 9
        rows = {label: table2_storage._row(*specs[label])
                for label in ("BTIO Class A", "Hartree-Fock")}
        for label, raid0, raid1, raid5, hybrid in rows.values():
            assert raid1 == pytest.approx(2 * raid0, rel=0.02)
            assert raid5 == pytest.approx(1.2 * raid0, rel=0.03)
            assert raid5 <= hybrid * 1.001
        assert rows["BTIO Class A"][4] == pytest.approx(
            rows["BTIO Class A"][3], rel=1e-6)      # stripe-aligned
        assert rows["Hartree-Fock"][4] == pytest.approx(
            rows["Hartree-Fock"][2], rel=0.01)      # all overflow

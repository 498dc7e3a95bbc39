"""Smoke tests of the benchmark itself: ``pytest bench/`` (outside tier-1).

Every workload runs at its tiny size, in this process.
"""

from __future__ import annotations

import io
import json
import os
import re

import pytest

from bench import compare, negative_control, run
from bench.compare import is_host_time

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TRACE_SPAN_KEYS = {"name", "workload", "scheme", "client", "op_id", "parent",
                   "sim_start", "sim_end"}


@pytest.fixture(scope="module")
def traced():
    """One traced tiny measurement per workload, seed 1."""
    return {w: run.measure(w, 1, 0.0, True, size="tiny") for w in WORKLOADS}


def test_spec_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] \
        + WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(traced, workload):
    result = traced[workload]
    assert result["correct"], result["failures"]
    for trace in (False, True):
        line = json.loads(run.contract_line({**result, "trace": trace}, SPEC))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        declared = SPEC["per_layer" if trace else "end_to_end"]
        assert set(line["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]] > 0
    # nothing measured goes unreported
    declared = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(result["metrics"]) == declared


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_file_has_phase_and_op_spans(traced, workload):
    path = os.path.join(run.ROOT, traced[workload]["trace_file"])
    with open(path, encoding="utf-8") as fp:
        trace = json.load(fp)
    assert trace["workload"] == workload and trace["spans"]
    for span in trace["spans"]:
        assert TRACE_SPAN_KEYS <= set(span)
    assert any("host_start" in span for span in trace["spans"])
    assert traced[workload]["metrics"]["trace_overhead_ratio"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_exactly_and_seed_changes_inputs(traced, workload):
    first = traced[workload]
    again = run.measure(workload, 1, 0.0, False, size="tiny")
    assert again["sim_digest"] == first["sim_digest"]
    assert again["input_digest"] == first["input_digest"]
    for name, value in again["metrics"].items():
        if not is_host_time(name):
            assert first["metrics"][name] == value, name
    other = run.measure(workload, 2, 0.0, False, size="tiny")
    if workload == "btio_extent":
        # BTIO's access pattern has no random element
        assert other["input_digest"] == first["input_digest"]
    else:
        assert other["input_digest"] != first["input_digest"]


def test_negative_control_convicts_the_seeded_bug():
    assert negative_control.run(seeded=False).failed == 0
    assert negative_control.run(seeded=True).failed > 0


def test_compare_flags_model_changes_and_regressions(traced, tmp_path):
    results = {w: {**traced[w], "trace": False} for w in WORKLOADS}
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"results": results}))
    out = io.StringIO()
    assert compare.compare(str(a), str(a), out) == 0
    assert "worse" not in out.getvalue()
    assert "model changed" not in out.getvalue()

    slow = json.loads(a.read_text())
    victim = slow["results"]["stream_content"]
    victim["metrics"]["wall_s"] *= 1.5
    victim["samples"]["wall_s"] = [v * 1.5 for v in victim["samples"]["wall_s"]]
    victim["metrics"]["sim_mb_s.raid5"] *= 0.9
    b = tmp_path / "b.json"
    b.write_text(json.dumps(slow))
    out = io.StringIO()
    assert compare.compare(str(a), str(b), out) == 1
    assert "wall_s" in out.getvalue() and "worse" in out.getvalue()
    assert "model changed" in out.getvalue()

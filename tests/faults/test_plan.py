"""Fault-plan data model: validation, JSON round-trip, seeded sampling."""

import json

import pytest

from repro.errors import FaultPlanError
from repro.faults.plan import (FAULT_KINDS, PLAN_SCHEMA_VERSION, STEP_NAMES,
                               FaultPlan, FaultSpec, Trigger, load_plan,
                               sample_plan)


def test_round_trip_preserves_every_field(tmp_path):
    plan = FaultPlan(seed=7, scheme="raid5", num_servers=5, num_ops=12,
                     note="round trip", faults=[
                         FaultSpec("crash", 1, Trigger("time", 0.25)),
                         FaultSpec("restart_crash", 2, Trigger("op", 3),
                                   restart_after=0.1),
                         FaultSpec("link_drop", 0,
                                   Trigger("step",
                                           "raid5.rmw.before_writeback",
                                           nth=2),
                                   count=1, direction="req"),
                         FaultSpec("link_delay", 3, Trigger("time", 1.0),
                                   count=4, delay=0.01, direction="reply"),
                         FaultSpec("disk_slow", 4, Trigger("op", 0),
                                   count=8, factor=4.5),
                         FaultSpec("torn_write", 2, Trigger("op", 5),
                                   frac=0.25),
                     ])
    plan.validate()
    path = tmp_path / "plan.json"
    plan.dump(str(path))
    loaded = load_plan(str(path))
    assert loaded == plan
    assert loaded.to_json() == plan.to_json()


def test_unknown_schema_version_is_rejected():
    data = FaultPlan(seed=0, scheme="raid5", num_servers=5,
                     num_ops=1).to_json()
    data["schema_version"] = PLAN_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema_version"):
        FaultPlan.from_json(data)


def test_unknown_top_level_keys_are_ignored():
    # A saved failing plan carries "failure"/"digest" alongside the plan.
    data = FaultPlan(seed=0, scheme="hybrid", num_servers=5,
                     num_ops=4).to_json()
    data["failure"] = {"kind": "differential"}
    data["digest"] = "abc"
    plan = FaultPlan.from_json(data)
    assert plan.scheme == "hybrid"


@pytest.mark.parametrize("bad, match", [
    (FaultSpec("no-such-kind", 0, Trigger("time", 1.0)), "unknown fault"),
    (FaultSpec("crash", 9, Trigger("time", 1.0)), "9"),
    (FaultSpec("crash", 0, Trigger("step", "no.such.step")),
     "unknown protocol step"),
    (FaultSpec("crash", 0, Trigger("op", -1)), "ordinal"),
    (FaultSpec("restart_crash", 0, Trigger("time", 1.0)), "restart_after"),
    (FaultSpec("link_delay", 0, Trigger("time", 1.0)), "delay"),
    (FaultSpec("disk_slow", 0, Trigger("time", 1.0)), "factor"),
    (FaultSpec("torn_write", 0, Trigger("time", 1.0), frac=1.0), "frac"),
    (FaultSpec("link_dup", 0, Trigger("time", 1.0), direction="up"),
     "direction"),
])
def test_validation_rejects_malformed_specs(bad, match):
    with pytest.raises(FaultPlanError, match=match):
        bad.validate(5)


def test_sampling_is_seed_deterministic():
    for seed in range(20):
        a = sample_plan(seed, "raid5", 5, 10)
        b = sample_plan(seed, "raid5", 5, 10)
        assert a == b
        assert json.dumps(a.to_json(), sort_keys=True) == \
            json.dumps(b.to_json(), sort_keys=True)


def test_sampled_plans_obey_the_single_fault_model():
    for seed in range(40):
        for scheme in ("raid0", "raid1", "raid5", "hybrid"):
            plan = sample_plan(seed, scheme, 5, 10)
            plan.validate()
            # Single-fault tolerance: at most one server is ever lost.
            crashed = {spec.server for spec in plan.faults
                       if spec.kind in ("crash", "restart_crash",
                                        "torn_write", "disk_error")}
            assert len(crashed) <= 1
            for spec in plan.faults:
                assert spec.kind in FAULT_KINDS
                if spec.trigger.kind == "step":
                    assert spec.trigger.at in STEP_NAMES

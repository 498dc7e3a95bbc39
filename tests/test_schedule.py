"""``tools/schedule.py --check`` cannot pass vacuously: its comparison
names every changed, missing and extra entry of the manifest."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_schedule():
    spec = importlib.util.spec_from_file_location(
        "schedule", ROOT / "tools" / "schedule.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_diff_names_changed_missing_and_extra_entries():
    schedule = load_schedule()
    old = {"chaos": {"0": {"raid5": "aaa", "hybrid": "bbb"}},
           "golden": {"stream-flows": {"now": 1.5, "metrics": {}}}}
    new = {"chaos": {"0": {"raid5": "ccc"}, "64": {"raid5": "ddd"}},
           "golden": {"stream-flows": {"now": 1.5, "metrics": {}}}}
    assert schedule.diff(old, new) == [
        "chaos/0/hybrid: bbb -> (missing)",
        "chaos/0/raid5: aaa -> ccc",
        "chaos/64/raid5: (missing) -> ddd",
    ]
    assert schedule.diff(old, old) == []


def test_a_nested_change_names_its_leaf_and_an_emptied_dict_shows():
    schedule = load_schedule()
    old = {"golden": {"s": {"metrics": {"net.bytes": 10, "rx.mgr": 2}}}}
    new = {"golden": {"s": {"metrics": {}}}}
    assert schedule.diff(old, new) == [
        "golden/s/metrics: (missing) -> {}",
        "golden/s/metrics/net.bytes: 10 -> (missing)",
        "golden/s/metrics/rx.mgr: 2 -> (missing)",
    ]


def test_the_committed_manifest_has_every_section():
    manifest = json.loads(load_schedule().MANIFEST.read_text())
    assert sorted(manifest) == ["bench", "chaos", "golden", "matrix"]
    assert len(manifest["golden"]) == 11
    assert sorted(manifest["chaos"], key=int) == [str(s) for s in range(64)]
    assert len(manifest["matrix"]) == 60
    assert {w: sorted(seeds) for w, seeds in manifest["bench"].items()} == {
        w: ["1", "7"] for w in ("btio_extent", "chaos_hardened",
                                "degraded_rebuild", "smallwrite_shared",
                                "stream_content")}

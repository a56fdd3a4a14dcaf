"""scripts/bench_ab.py on canned run.py output: parsing, quartiles, ratios
and win counts. Nothing here runs or times a benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

SPECS = [
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "item_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def canned_stdout(items_per_s, p50_ms, kind_p50, failed=0, attempted=100):
    lines = [
        {"provenance": {"workload": "subordination", "seed": 1}},
        {"summary": {"items": attempted, "kinds": {k: {"items": 10, "p50_ms": v}
                                                   for k, v in kind_p50.items()}}},
        {"correct": failed == 0, "attempted": attempted, "failed": failed,
         "metrics": {"items_per_s": {"value": items_per_s, "unit": "1/s"},
                     "item_p50_ms": {"value": p50_ms, "unit": "ms"}}},
    ]
    return "note: not json\n" + "\n".join(json.dumps(obj) for obj in lines) + "\n"


def make_runs(parent, change):
    """One run per (pair, side) from lists of (items_per_s, p50_ms, kind_p50)."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, vals in (("parent", p), ("change", c)):
            rec = bench_ab.parse_run(canned_stdout(*vals))
            rec.update(pair=pair, seed=pair, side=side, first=side == "parent")
            runs.append(rec)
    return runs


def test_parse_run_reads_last_line_and_kinds():
    rec = bench_ab.parse_run(canned_stdout(20.0, 30.0, {"ph_d1": 12.5}, failed=1))
    assert rec["result"]["failed"] == 1
    assert rec["result"]["metrics"]["items_per_s"]["value"] == 20.0
    assert rec["kind_p50_ms"] == {"ph_d1": 12.5}
    assert rec["provenance"]["seed"] == 1


def test_parse_run_without_result_raises():
    with pytest.raises(ValueError):
        bench_ab.parse_run('{"summary": {}}\n')


def test_parse_seeds():
    assert bench_ab.parse_seeds("11-14") == [11, 12, 13, 14]
    assert bench_ab.parse_seeds("7") == [7]


def test_summary_quartiles_ratios_and_wins():
    parent = [(10.0, 50.0, {"a": 4.0}), (12.0, 40.0, {"a": 6.0}),
              (14.0, 45.0, {"a": 5.0}), (16.0, 35.0, {"a": 5.0}), (18.0, 30.0, {"a": 5.0})]
    # the change is faster on four pairs and slower on the last
    change = [(20.0, 20.0, {"a": 2.0}), (24.0, 20.0, {"a": 3.0}),
              (28.0, 20.0, {"a": 2.5}), (32.0, 20.0, {"a": 2.5}), (17.0, 31.0, {"a": 2.5})]
    out = bench_ab.summarize(make_runs(parent, change), SPECS)
    assert out["pairs_complete"] == 5 and out["runs_failed"] == 0

    ips = out["metrics"]["items_per_s"]
    assert (ips["parent"]["q1"], ips["parent"]["median"], ips["parent"]["q3"]) == (12.0, 14.0, 16.0)
    assert ips["parent"]["iqr_over_median"] == pytest.approx(4.0 / 14.0)
    assert (ips["change"]["q1"], ips["change"]["median"], ips["change"]["q3"]) == (20.0, 24.0, 28.0)
    assert ips["ratio_of_medians"] == pytest.approx(24.0 / 14.0)
    assert ips["change_wins"] == 4 and ips["pairs"] == 5
    assert ips["bound"] == 0.25 and ips["better"] == "higher"

    p50 = out["metrics"]["item_p50_ms"]
    assert p50["change_wins"] == 4  # lower is better: 31 > 30 loses
    assert p50["ratio_of_medians"] == pytest.approx(20.0 / 40.0)

    assert out["kind_p50_ms_median"]["a"]["parent"] == 5.0
    assert out["kind_p50_ms_median"]["a"]["change"] == 2.5
    assert out["kind_p50_ms_median"]["a"]["ratio"] == pytest.approx(0.5)
    assert out["fail_frac"] == {"parent": [0.0] * 5, "change": [0.0] * 5}


def test_failed_runs_drop_their_pair():
    runs = make_runs([(10.0, 50.0, {}), (12.0, 40.0, {})], [(20.0, 20.0, {}), (24.0, 20.0, {})])
    runs[3] = {"error": "exit 3", "pair": 1, "seed": 1, "side": "change", "first": False}
    out = bench_ab.summarize(runs, SPECS)
    assert out["pairs_complete"] == 1 and out["runs_failed"] == 1
    assert out["metrics"]["items_per_s"]["pairs"] == 1
    assert out["metrics"]["items_per_s"]["ratio_of_medians"] == pytest.approx(2.0)

"""The summary arithmetic of tools/ab_bench.py, on synthetic run records."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "ok_frac", "unit": "fraction", "better": "higher", "bound": 0.01},
]


def record(workload, pair, side, wall_s, ok_frac=1.0):
    metrics = {"wall_s": {"value": wall_s, "unit": "s"},
               "ok_frac": {"value": ok_frac, "unit": "fraction"}}
    return {"workload": workload, "pair": pair, "side": side, "exit_code": 0,
            "result": {"correct": True, "metrics": metrics}}


def test_quartiles_interpolate_linearly():
    assert ab_bench.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_bench.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert ab_bench.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_medians_wins_and_parent_iqr():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4]
    change = [0.9, 1.0, 1.3, 1.0, 1.1]     # pair 3 loses
    records = [record("w", i + 1, "parent", p) for i, p in enumerate(parent)]
    records += [record("w", i + 1, "change", c, ok_frac=0.5 if i == 0 else 1.0)
                for i, c in enumerate(change)]
    summary = ab_bench.summarize(records, METRICS)["w"]
    assert summary["pairs"] == 5
    wall = summary["wall_s"]
    assert wall["parent"]["median"] == 1.2 and wall["change"]["median"] == 1.0
    assert wall["parent"]["iqr"] == pytest.approx(0.2)
    assert wall["pairs_change_better"] == 4
    assert wall["change_vs_parent"] == pytest.approx(-1 / 6)
    # higher is better: a tie is no win, and pair 1 is a loss
    assert summary["ok_frac"]["pairs_change_better"] == 0
    assert summary["ok_frac"]["change"]["median"] == 1.0

    verdict = ab_bench.claim_verdict(ab_bench.summarize(records, METRICS), "w", "wall_s")
    assert verdict["pairs_change_better"] == 4 and verdict["pairs"] == 5
    assert verdict["median_gain"] == pytest.approx(0.2)
    assert not verdict["holds"]      # 4 of 5 wins is below 9 of 10


def test_claim_holds_only_beyond_the_parent_iqr():
    parent = [1.0 + 0.01 * i for i in range(10)]
    fast = [p - 0.1 for p in parent]
    slight = [p - 0.001 for p in parent]
    for change, holds in ((fast, True), (slight, False)):
        records = [record("w", i + 1, side, v)
                   for side, values in (("parent", parent), ("change", change))
                   for i, v in enumerate(values)]
        verdict = ab_bench.claim_verdict(ab_bench.summarize(records, METRICS), "w", "wall_s")
        assert verdict["pairs_change_better"] == 10
        assert verdict["holds"] is holds


def test_unpaired_and_failed_runs_are_left_out():
    records = [record("w", 1, "parent", 1.0), record("w", 1, "change", 0.9),
               record("w", 2, "parent", 1.0), record("v", 1, "parent", 2.0)]
    failed = record("w", 3, "change", 0.1)
    failed.update(exit_code=1, result=None)
    summary = ab_bench.summarize(records + [failed], METRICS)
    assert summary["w"]["wall_s"]["pairs_compared"] == 1
    assert "wall_s" not in summary["v"]
    assert ab_bench.run_failure(failed, METRICS) is not None
    assert ab_bench.run_failure(records[0], METRICS) is None
    missing = record("w", 1, "parent", 1.0)
    del missing["result"]["metrics"]["ok_frac"]
    assert "ok_frac" in ab_bench.run_failure(missing, METRICS)

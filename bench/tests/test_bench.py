"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402

wl = run.import_workloads()
import tracing  # noqa: E402
from netdecide import bifurcation  # noqa: E402
from netdecide.graphs import PopulationSpec  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_runs():
    """One pass of every workload at tiny size, untraced and traced."""
    return {(w, trace): bench("--workload", w, "--seed", "5", "--seconds", "0",
                              "--trace", str(trace), "--tiny")
            for w in WORKLOADS for trace in (0, 1)}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(tiny_runs, trace, section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for w in WORKLOADS:
        proc = tiny_runs[w, trace]
        assert proc.returncode == 0, proc.stderr
        result = last_json(proc.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected, w
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_settle_ensemble_spends_at_least_six_field_calls_per_step(tiny_runs):
    metrics = last_json(tiny_runs["settle_ensemble", 1].stdout)["metrics"]
    assert metrics["solver.steps"]["value"] > 0
    assert metrics["solver.nfev_per_step"]["value"] >= 6


def test_failed_check_raises_fail_frac_and_exit_code(monkeypatch, capsys):
    monkeypatch.setitem(wl.TOL, "settle_residual", -1.0)
    code = run.main(["--workload", "settle_ensemble", "--seed", "5", "--seconds", "0",
                     "--tiny"])
    result = last_json(capsys.readouterr().out)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "settle_ensemble", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_children_of_other_layers():
    tracer = tracing.Tracer()
    field = tracer.wrap("dynamics", "normalized_field", lambda: time.sleep(0.002))
    inner = tracer.wrap("solver", "_integrate", lambda: (field(), field()))
    outer = tracer.wrap("solver", "integrate", lambda: inner())
    outer()
    s = tracer.summarize()
    assert s.count["normalized_field"] == 2
    assert s.field_calls_in_solver == 2
    assert s.top["solver"] == s.total["integrate"]
    assert s.self_time["solver"] == s.total["integrate"] - s.total["normalized_field"]
    assert s.self_time["dynamics"] == s.top["dynamics"] == s.total["normalized_field"]


def test_traced_problem_keeps_finite_difference_jac_p():
    original = bifurcation.reduced3_problem
    tracer = tracing.Tracer()
    with tracing.patched(tracing.patch_points(tracer)):
        problem = bifurcation.reduced3_problem(PopulationSpec(2, 2, 2), 1.0, 1.0)
        assert problem.jac_p is None
        problem.fp(np.zeros(3), 1.0)
    assert bifurcation.reduced3_problem is original
    s = tracer.summarize()
    assert s.count["f"] == 2            # the central difference, through the traced f
    assert s.count["reduced3_field"] == 2


def test_speed_probe_reports_time_at_reference_speed(monkeypatch):
    import hostspeed

    monkeypatch.setattr(hostspeed, "sample", lambda: 2 * hostspeed.C_REF)
    probe = hostspeed.SpeedProbe(interval=10.0)
    probe.start()
    assert probe.stop(1.0) == pytest.approx(0.5)

from __future__ import annotations

import json
import shutil
import types
import typing
import warnings

import numpy as np
import pytest
from conftest import deadline
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netdecide import bifurcation as bif
from netdecide import experiments as ex
from netdecide import solver
from netdecide.cli import COMMANDS, SWEEP_SCENARIOS, load_config, main
from netdecide.dynamics import Decision
from netdecide.solver import MAX_STEPS, EstimatorRun

TWO_DYADS = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]


def write_cfg(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestSimulate:
    def test_pre_bifurcation_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json",
                        {"graph": {"kind": "complete", "n": 10}, "u": 0.5,
                         "t_end": 50.0})
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "terminal max-norm" in out
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["terminal_norm"] < 1e-6

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_nan_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {"u": float("nan")})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "non-finite number NaN" in capsys.readouterr().err

    def test_negative_u_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {"u": -1.0})
        assert main(["simulate", "--config", cfg]) == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {"u": 0.5, "wat": 1})
        assert main(["simulate", "--config", cfg]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_config_echoed_with_defaults(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {"u": 0.5})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["u"] == 0.5
        assert echoed["t_end"] == 50.0          # default materialized
        assert echoed["graph"]["kind"] == "complete"

    def test_nonfinite_weights_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json",
                        {"graph": {"kind": "weights", "weights": [0, float("nan"), 1, 0]}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert main(["validate", "--command", "simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err.count("finite") == 2

    def test_non_integer_size_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {"graph": {"kind": "complete", "n": 10.7}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integral_float_size_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {"graph": {"kind": "population",
                                                         "n1": 2.0, "n2": 2, "n3": 6.0}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header.split(",")[-1] == "x_10"

    def test_linalg_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # Each command looks its runner up on `experiments` when it runs, so
        # a runner rebound there is the one that runs.
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        cfg = write_cfg(tmp_path, "cfg.json", {"u": 0.5})
        for runner, argv in [("run_simulate", ["simulate", "--config", cfg]),
                             ("run_pitchfork_diagram", ["continue"]),
                             ("run_adaptive", ["adaptive"]),
                             ("run_hysteresis", ["sweep", "--scenario", "hysteresis"])]:
            with monkeypatch.context() as m:
                m.setattr(ex, runner, singular)
                assert main(argv + ["--out", str(tmp_path / runner)]) == 3, runner
            assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("graph", [{"kind": "directed_ring", "n": 0},
                                       {"kind": "weights", "weights": []}])
    def test_zero_agent_graph_exits_2(self, tmp_path, capsys, graph):
        cfg = write_cfg(tmp_path, "cfg.json", {"graph": graph})
        assert main(["validate", "--command", "simulate", "--config", cfg]) == 2
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.count("at least one agent") == 2

    def test_weights_size_zero_exits_2(self, tmp_path):
        # "n": 0 is a size, not a missing one, so the 4 weights do not fit it.
        cfg = write_cfg(tmp_path, "cfg.json",
                        {"graph": {"kind": "weights", "n": 0, "weights": [0, 1, 1, 0]}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_seed_override(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {"u": 1.5})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--seed", "7"]) == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["seed"] == 7


class TestContinue:
    def test_writes_singular_point(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json",
                        {"graph": {"kind": "complete", "n": 10},
                         "u_range": [0.5, 1.5]})
        out = tmp_path / "out"
        assert main(["continue", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["singular_params"][0] - 1.0) < 1e-6
        points = json.loads((out / "singular_points.json").read_text())
        assert points["singular_points"][0]["kind"] == "pitchfork"

    def test_identical_bytes_on_rerun(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json",
                        {"graph": {"kind": "complete", "n": 5}})
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["continue", "--config", cfg, "--out", str(a)]) == 0
        assert main(["continue", "--config", cfg, "--out", str(b)]) == 0
        for name in ("branch_trunk.csv", "singular_points.json", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_disconnected_graph_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json",
                        {"graph": {"kind": "weights", "n": 4, "weights": TWO_DYADS}})
        assert main(["continue", "--config", cfg]) == 2
        assert "strongly connected" in capsys.readouterr().err

    def test_zero_agent_graph_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {"graph": {"kind": "directed_ring", "n": 0}})
        assert main(["continue", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "at least one agent" in capsys.readouterr().err


class TestSweep:
    def test_value_sensitivity(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {"nu_grid": [0.5, 1.0]})
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", "value_sensitivity",
                     "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "curves.csv").read_text().splitlines()
        assert lines[0] == "nu,us_star_hat,us_star_numeric,rel_error"
        assert len(lines) == 3

    def test_nan_in_grid_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {"nu_grid": [float("nan"), 1.0]})
        assert main(["sweep", "--scenario", "value_sensitivity", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert "non-finite number NaN" in capsys.readouterr().err

    def test_unknown_scenario_lists_names(self, tmp_path, capsys):
        assert main(["sweep", "--scenario", "nope"]) == 2
        err = capsys.readouterr().err
        assert "value_sensitivity" in err and "hysteresis" in err


class TestAdaptive:
    def test_symmetric_diagnostics(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["adaptive", "--case", "symmetric", "--out", str(out)]) == 0
        assert "ubar_c" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ubar_c"] is not None
        assert abs(abs(summary["terminal_y"]) - 0.5) < 1e-3

    @pytest.mark.parametrize("graph, message", [
        ({"kind": "directed_ring", "n": 0}, "at least one agent"),
        ({"kind": "complete", "n": 1}, "two agents"),
    ])
    def test_too_few_agents_exit_2(self, tmp_path, capsys, graph, message):
        cfg = write_cfg(tmp_path, "cfg.json", {"graph": graph})
        assert main(["adaptive", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_unknown_case_in_config_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {"case": "bogus"})
        assert main(["adaptive", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "unknown adaptive case 'bogus'" in capsys.readouterr().err

    def test_runs_longer_than_max_steps_finish(self, tmp_path, monkeypatch):
        # The step budgets grow with the horizon: the estimator attempts about
        # 3 700 steps of its cap and Dormand-Prince about 440 of 50 000 time
        # units, both above this MAX_STEPS, as a small epsilon makes them
        # above the real one.
        monkeypatch.setattr(solver, "MAX_STEPS", 300)
        cfg = write_cfg(tmp_path, "cfg.json", {
            "graph": {"kind": "weights", "weights": [[0, 0.5], [0.5, 0]]}, "x0_amplitude": 1})
        assert main(["adaptive", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_estimator_at_time_cap_exits_3(self, tmp_path, capsys, monkeypatch):
        def capped(x, g, alpha, tol):
            return EstimatorRun(np.zeros(len(x)), 20.0, 10 * tol, 0.0, 100, 3)

        monkeypatch.setattr(ex, "integrate_nonsmooth", capped)
        assert main(["adaptive", "--case", "symmetric", "--out", str(tmp_path / "out")]) == 3
        assert "estimator did not reach estimator_tol" in capsys.readouterr().err


class TestNumericalFailure:
    """A config that validates and then fails numerically exits 3 with the reason."""

    @pytest.mark.parametrize("command, doc, message", [
        ("simulate", {"graph": {"kind": "weights", "weights": [[0, 1e16], [1e16, 0]]}},
         "step-size underflow (at t = 0)"),
        ("adaptive", {"estimator_tol": 1e-300}, "estimator step underflow"),
        ("adaptive", {"horizon_factor": 0.001}, "adaptive run reached its horizon"),
        ("sweep", {"scenario": "hysteresis", "horizon": 1e-3},
         "quasi-static settle failed at beta_B = 0.0"),
        # information alone holds |y| above y_th, so ubar falls below zero
        ("adaptive", {"graph": {"kind": "population", "n1": 1, "n2": 1, "n3": 1},
                      "beta_b": 3.0, "ubar0": 1.0, "epsilon": 0.0625, "y_th": 0.25,
                      "x0_amplitude": 0.0, "horizon_factor": 3.0},
         "social effort u must be nonnegative: the mean effort ubar fell to"),
    ], ids=["simulate-step_underflow", "adaptive-estimator_underflow", "adaptive-horizon",
            "hysteresis-settle", "adaptive-negative_effort"])
    def test_config_exits_3(self, tmp_path, capsys, command, doc, message):
        cfg = write_cfg(tmp_path, "cfg.json", doc)
        assert main(["validate", "--command", command, "--config", cfg]) == 0
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert f"numerical failure: {message}" in capsys.readouterr().err

    def test_stiff_field_exits_3_within_the_step_budget(self, tmp_path, capsys):
        # Weights of 1e10 pin the explicit step near 4e-10: without a budget
        # the default run of t_end = 50 would take about 1e11 steps.
        cfg = write_cfg(tmp_path, "cfg.json",
                        {"graph": {"kind": "weights", "weights": [[0, 1e10], [1e10, 0]]}})
        assert main(["validate", "--command", "simulate", "--config", cfg]) == 0
        with deadline(10.0):
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        # the budget is MAX_STEPS plus t_end over the first step 0.01
        assert (f"numerical failure: {MAX_STEPS + 5000} attempted steps did not reach t = 50"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("scale, message", [
        (0.0, "singular Newton matrix"), (1e3, "Newton did not converge"),
    ], ids=["singular", "not_converged"])
    def test_newton_failure_exits_3(self, tmp_path, capsys, monkeypatch, scale, message):
        # No config is known to reach these raises; a scaled Jacobian makes
        # the quintic sweep's start solve reach them.
        real = bif._jacobian
        monkeypatch.setattr(bif, "_jacobian", lambda y, degrees, weights, u:
                            scale * real(y, degrees, weights, u))
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", "quintic_transition", "--out", str(out)]) == 3
        assert f"numerical failure: {message}" in capsys.readouterr().err


class TestValidate:
    def test_accepts_good_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {"u": 0.5})
        assert main(["validate", "--command", "simulate", "--config", cfg]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_rejects_bad_config_without_running(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {"u": -2.0})
        assert main(["validate", "--command", "simulate", "--config", cfg]) == 2

    def test_nan_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {"scenario": "hysteresis", "u": float("nan")})
        assert main(["validate", "--command", "sweep", "--config", cfg]) == 2
        assert "non-finite number NaN" in capsys.readouterr().err

    def test_command_key_in_config(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json",
                        {"command": "sweep", "scenario": "hysteresis",
                         "beta_b_step": 0.5})
        assert main(["validate", "--config", cfg]) == 0

    @pytest.mark.parametrize("command, doc", [
        ("simulate", {"graph": {"kind": "complete", "n": 200000}}),
        ("adaptive", {"graph": {"kind": "population", "n1": 100000, "n2": 100000,
                                "n3": 0}}),
        ("sweep", {"scenario": "hysteresis", "n3": 200000}),
        ("sweep", {"scenario": "reduction_demo", "n3": 200000}),
    ])
    def test_graph_above_size_ceiling_exits_2_before_building(self, tmp_path, capsys,
                                                              monkeypatch, command, doc):
        def refuse(*args, **kwargs):
            raise AssertionError("a graph builder was called")

        for name in ("complete_graph", "directed_ring", "three_population_graph"):
            monkeypatch.setattr(ex, name, refuse)
        cfg = write_cfg(tmp_path, "cfg.json", doc)
        assert main(["validate", "--command", command, "--config", cfg]) == 2
        assert "agents are allowed" in capsys.readouterr().err
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_disconnected_continue_graph_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json",
                        {"graph": {"kind": "weights", "n": 4, "weights": TWO_DYADS}})
        assert main(["validate", "--command", "continue", "--config", cfg]) == 2
        assert "strongly connected" in capsys.readouterr().err

    @pytest.mark.parametrize("graph, message", [
        ({"kind": "directed_ring", "n": 4}, "symmetric weights"),
        ({"kind": "complete", "n": 1}, "two agents"),
    ])
    def test_adaptive_graph_fails_estimator_exits_2(self, tmp_path, capsys, graph, message):
        cfg = write_cfg(tmp_path, "cfg.json", {"graph": graph})
        assert main(["validate", "--command", "adaptive", "--config", cfg]) == 2
        assert message in capsys.readouterr().err

    def test_disconnected_adaptive_graph_exits_2(self, tmp_path, capsys):
        # lambda2 = 0: the estimator cannot converge, so both commands reject
        # the config at load instead of failing at run time.
        cfg = write_cfg(tmp_path, "cfg.json",
                        {"graph": {"kind": "weights", "n": 4, "weights": TWO_DYADS}})
        assert main(["validate", "--command", "adaptive", "--config", cfg]) == 2
        assert "connected undirected graph" in capsys.readouterr().err
        out = tmp_path / "out"
        assert main(["adaptive", "--config", cfg, "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, doc, message", [
        ("sweep", {"scenario": "value_sensitivity", "h_max": 0}, "unknown config keys"),
        ("sweep", {"scenario": "value_sensitivity", "u_scan": [1.1, 0.9]}, "u_scan"),
        ("sweep", {"scenario": "value_sensitivity", "n1": 10, "n2": 12}, "n1 = n2"),
        ("sweep", {"scenario": "uninformed_influence", "n3_values": [2]}, "integer"),
        ("sweep", {"scenario": "pitchfork_diagram",
                   "graph": {"kind": "weights", "n": 4, "weights": TWO_DYADS}},
         "strongly connected"),
        ("simulate", {"beta_a": 1.0}, "require a population graph"),
        ("simulate", {"u": 0.1, "utilde_amplitude": 0.2}, "|utilde_amplitude| exceeds u"),
        ("adaptive", {"beta_a": 1.0}, "require a population graph"),
        ("adaptive", {"horizon_factor": 0}, "horizon_factor must be positive"),
        ("simulate", {"seed": "x"}, "'seed' must be an integer"),
        ("simulate", {"seed": 1.5}, "'seed' must be an integer"),
        ("adaptive", {"seed": "x"}, "'seed' must be an integer"),
        ("adaptive", {"seed": 1.5}, "'seed' must be an integer"),
        ("sweep", {"scenario": "reduction_demo", "seed": "x"}, "'seed' must be an integer"),
        ("sweep", {"scenario": "reduction_demo", "seed": 1.5}, "'seed' must be an integer"),
        ("adaptive", {"jump_band": "x"}, "jump_band must be a finite number"),
        ("sweep", {"scenario": "quintic_transition", "beta_grid": 5}, "beta_grid must be a list"),
        ("sweep", {"scenario": "hysteresis", "n1": "a"}, "'n1' must be an integer"),
        ("sweep", {"scenario": "hysteresis", "n1": 2.5}, "'n1' must be an integer"),
        ("sweep", {"scenario": "hysteresis", "n1": 0, "n2": 0, "n3": 1},
         "at least two agents"),
        ("sweep", {"scenario": "quintic_transition", "n1": -1}, "'n1' must be nonnegative"),
        ("sweep", {"scenario": "quintic_transition", "n1": 2, "n2": 3},
         "quintic scenario requires n1 = n2 (swap symmetry)"),
        ("sweep", {"scenario": "value_sensitivity", "n3": -5}, "'n3' must be nonnegative"),
        ("sweep", {"scenario": "value_sensitivity", "nu_grid": []}, "and at least one"),
        ("simulate", {"graph": {"kind": "complete"}}, "'n' must be an integer, got None"),
        ("simulate", {"graph": {"kind": "weights"}}, "a weights graph needs weights"),
        ("simulate", {"graph": {"kind": "population", "n1": 2}},
         "'n2' must be an integer, got None"),
        ("simulate", {"graph": 5}, "graph must be a dict"),
        ("continue", {"u_range": [0.5]}, "u_range must be a list of 2 entries"),
        ("sweep", {"scenario": "value_sensitivity", "u_scan": [0.9]},
         "u_scan must be a list of 2 entries"),
        ("continue", {"graph": {"kind": "complete", "n": 1}}, "at least two agents"),
        ("continue", {"graph": {"kind": "weights", "weights": [[0]]}}, "at least two agents"),
        ("continue", {"u_branch_end": 0.8}, "above u_range[1]"),
        ("continue", {"u_branch_end": 1.0}, "above u_range[1]"),
        ("continue", {"u_range": [0.5, 1.0]}, "u_range end 1.0 is a singular point"),
        ("continue", {"u_range": [1.0, 1.5]}, "u_range end 1.0 is a singular point"),
        ("continue", {"graph": {"kind": "directed_ring", "n": 6}, "u_range": [0.5, 1.0]},
         "u_range end 1.0 is a singular point"),
        ("sweep", {"scenario": "uninformed_influence", "nu_grid": []}, "and at least one"),
        ("sweep", {"scenario": "uninformed_influence", "n3_values": []}, "distinct"),
        ("sweep", {"scenario": "uninformed_influence", "n3_values": [3, 3]}, "distinct"),
        ("sweep", {"scenario": "quintic_transition", "n3": 0, "a13": 0.0}, "positive degree"),
        ("continue", {"h_max": 1e-7}, "at least H_MIN"),
        ("continue", {"h_max": 1e-5}, "more than MAX_POINTS"),
        ("sweep", {"scenario": "quintic_transition", "h_max": 1e-4}, "more than MAX_POINTS"),
        ("adaptive", {"ubar0": 0.1, "utilde_amplitude": 0.2}, "|utilde_amplitude| exceeds ubar0"),
        ("sweep", {"scenario": "reduction_demo", "n1": 0, "n2": 2, "n3": 2},
         "needs at least one agent"),
        ("sweep", {"scenario": "reduction_demo", "n3": 0}, "needs at least one agent"),
        ("sweep", {"scenario": "value_sensitivity", "n1": 10**40, "n2": 10**40},
         "N^9 overflows a float"),
        ("sweep", {"scenario": "uninformed_influence", "n_total": 10**40 + 1},
         "N^9 overflows a float"),
        ("sweep", {"scenario": "hysteresis", "beta_b_max": 1e300, "beta_b_step": 1.0},
         "at most MAX_SWEEP_POINTS"),
        ("sweep", {"scenario": "quintic_transition", "beta_grid": []},
         "beta_grid must hold at least one information strength"),
        # both print as "1", so the second beta's results overwrote the first's
        ("sweep", {"scenario": "quintic_transition", "beta_grid": [1.0, 1.0000001]},
         "must differ in their %g output tags"),
    ], ids=["value_sensitivity-h_max", "value_sensitivity-u_scan",
            "value_sensitivity-n1_n2", "uninformed_influence-n3",
            "pitchfork_diagram-disconnected", "simulate-beta",
            "simulate-negative_effort", "adaptive-beta",
            "adaptive-horizon_factor", "simulate-seed_str", "simulate-seed_float",
            "adaptive-seed_str", "adaptive-seed_float", "reduction_demo-seed_str",
            "reduction_demo-seed_float", "adaptive-jump_band", "quintic_transition-beta_grid",
            "hysteresis-n1_str", "hysteresis-n1_float", "hysteresis-one_agent",
            "quintic_transition-n1_negative", "quintic_transition-n1_n2", "value_sensitivity-n3_negative",
            "value_sensitivity-empty_nu_grid",
            "complete-no_n", "weights-no_weights", "population-no_n2_n3", "graph-not_object",
            "continue-short_u_range", "value_sensitivity-short_u_scan",
            "continue-one_agent_complete", "continue-one_agent_weights",
            "continue-branch_end_below_pitchfork", "continue-branch_end_at_pitchfork",
            "continue-range_ends_at_pitchfork", "continue-range_starts_at_pitchfork",
            "continue-ring_range_ends_at_pitchfork",
            "uninformed_influence-empty_nu_grid", "uninformed_influence-no_n3",
            "uninformed_influence-duplicate_n3", "quintic_transition-zero_degree_group",
            "continue-h_max_below_h_min", "continue-h_max_cannot_finish",
            "quintic_transition-h_max_cannot_finish", "adaptive-negative_effort",
            "reduction_demo-empty_informed_group", "reduction_demo-empty_uninformed_group",
            "value_sensitivity-series_overflow", "uninformed_influence-series_overflow",
            "hysteresis-grid_too_large", "quintic_transition-empty_beta_grid",
            "quintic_transition-beta_tags_collide"])
    def test_runner_preconditions_checked_at_load(self, tmp_path, capsys,
                                                  command, doc, message):
        # validate is the load step of each command, so it rejects every
        # config its command would reject, and the command writes nothing.
        cfg = write_cfg(tmp_path, "cfg.json", doc)
        assert main(["validate", "--command", command, "--config", cfg]) == 2
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.count(message) == 2
        assert not out.exists()

    def test_hysteresis_grid_counted_without_building(self, tmp_path, capsys):
        # 1.2e10 points: only validate runs, for np.arange would ask for 96 GB
        cfg = write_cfg(tmp_path, "cfg.json", {"scenario": "hysteresis", "beta_b_step": 1e-9})
        assert main(["validate", "--command", "sweep", "--config", cfg]) == 2
        assert "the beta_B grid has 1.2e+10 points" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["value_sensitivity", "uninformed_influence"])
    @pytest.mark.parametrize("nu_grid", [[1e-320], [1e200, 1.0]], ids=["inverse", "cube"])
    def test_nu_outside_float_range_exits_2(self, tmp_path, capsys, scenario, nu_grid):
        cfg = write_cfg(tmp_path, "cfg.json", {"scenario": scenario, "nu_grid": nu_grid})
        assert main(["validate", "--command", "sweep", "--config", cfg]) == 2
        assert "positive and finite" in capsys.readouterr().err

    def test_integral_float_count_runs(self, tmp_path):
        # A count field accepts what a graph size accepts: 4.0 is the count 4.
        cfg = write_cfg(tmp_path, "cfg.json", {"scenario": "reduction_demo", "n1": 4.0,
                                               "t_end": 1.0, "bound_horizon": 0.5})
        assert main(["validate", "--command", "sweep", "--config", cfg]) == 0
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text())["n1"] == 4

    def test_adaptive_bad_type_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {"epsilon": "abc"})
        assert main(["validate", "--command", "adaptive", "--config", cfg]) == 2
        assert "invalid configuration" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Property: validate either accepts a config or rejects it with exit 2
# ---------------------------------------------------------------------------

# Bounds: a JSON integer is in [-3, 6] and a graph's "n" in [-3, 20], so a
# generated graph has at most 20 agents (a population at most 18); lists and
# objects have at most 4 entries, and a config at most 4 keys.
JSON_LEAVES = (st.none() | st.booleans() | st.integers(-3, 6)
               | st.floats(-5.0, 25.0, allow_nan=False) | st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=8)
NUMBERS = st.integers(-3, 20) | st.floats(-1.0, 25.0, allow_nan=False)
SQUARE = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([0, 1, 0.5, -1]), min_size=n, max_size=n), min_size=n, max_size=n))
GRAPHS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["complete", "directed_ring", "population", "weights"])
     | JSON_VALUES},
    optional={"n": st.integers(-3, 20) | JSON_VALUES,
              **{key: st.integers(-3, 6) | JSON_VALUES for key in ("n1", "n2", "n3")},
              "weight": NUMBERS | JSON_VALUES,
              "weights": SQUARE | JSON_VALUES,
              "coupling": SQUARE | JSON_VALUES})


def _field_values(annotation):
    """JSON values of every type, and values of the field's own type."""
    if typing.get_origin(annotation) is tuple:
        typed = st.lists(NUMBERS, max_size=4)
    elif isinstance(annotation, types.UnionType):
        typed = st.none() | NUMBERS
    else:
        typed = {int: st.integers(-3, 20), float: NUMBERS, dict: GRAPHS,
                 str: st.sampled_from(list(ex.ADAPTIVE_CASES))}[annotation]
    return typed | JSON_VALUES


def _config_docs(command: str, scenario: str | None):
    """Up to 4 keys, each a scenario field or an unknown key."""
    cls = SWEEP_SCENARIOS[scenario][0] if scenario else COMMANDS[command][0]
    values = {key: _field_values(tp) for key, tp in typing.get_type_hints(cls).items()}
    values |= {key: JSON_VALUES for key in ("scenario", "case", "bogus") if key not in values}
    entry = st.sampled_from(sorted(values)).flatmap(
        lambda key: st.tuples(st.just(key), values[key]))
    docs = st.lists(entry, max_size=4).map(dict)
    if scenario is None:
        return docs
    return st.tuples(docs, st.sampled_from([scenario]) | JSON_VALUES).map(
        lambda pair: {**pair[0], "scenario": pair[1]})


TARGETS = [(command, None) for command in COMMANDS] + [("sweep", name) for name in SWEEP_SCENARIOS]


@pytest.mark.parametrize("command, scenario", TARGETS,
                         ids=[scenario or command for command, scenario in TARGETS])
def test_validate_exits_0_or_2(tmp_path_factory, command, scenario):
    path = tmp_path_factory.mktemp("property") / "cfg.json"

    @given(_config_docs(command, scenario))
    def check(doc):
        path.write_text(json.dumps(doc))
        with deadline(10.0):
            code = main(["validate", "--command", command, "--config", str(path)])
        assert code in (0, 2)

    check()


# ---------------------------------------------------------------------------
# Property: a nu sweep that validate accepts runs to a finite result
# ---------------------------------------------------------------------------

# Bounds: 1 to 3 values of nu, each any positive float (subnormals included);
# for value sensitivity n1 = n2 in [1, 20] or [1, 1e40] and n3 in [0, 100]
# or [0, 1e40]; for uninformed influence n_total in [2, 40] or [2, 1e40].
NU_GRIDS = st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                    min_size=1, max_size=3)
DEFAULT_NU_GRID = list(ex.ValueSensitivityScenario().nu_grid)


@pytest.mark.parametrize("scenario", ["value_sensitivity", "uninformed_influence"])
def test_nu_sweep_that_validates_runs(tmp_path_factory, scenario):
    root = tmp_path_factory.mktemp("nu_sweep")
    path, out = root / "cfg.json", root / "out"

    @given(NU_GRIDS, st.integers(1, 20) | st.integers(1, 10**40),
           st.integers(0, 100) | st.integers(0, 10**40),
           st.integers(2, 40) | st.integers(2, 10**40))
    @example([1e-320], 10, 80, 7)
    @example([1e200], 10, 80, 7)
    @example([50.0], 10, 80, 7)
    @example([1e90], 1, 100, 7)
    # populations whose series coefficient overflows (N^9 > 1.8e308)
    @example(DEFAULT_NU_GRID, 10**40, 80, 7)
    @example(DEFAULT_NU_GRID, 10, 80, 10**40 + 1)
    def check(nu_grid, n, n3, n_total):
        doc = {"scenario": scenario, "nu_grid": nu_grid}
        if scenario == "value_sensitivity":
            doc |= {"n1": n, "n2": n, "n3": n3}
        else:
            doc |= {"n_total": n_total}
        path.write_text(json.dumps(doc))
        shutil.rmtree(out, ignore_errors=True)
        # an overflow that the load check lets through warns, and fails here
        with deadline(10.0), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if main(["validate", "--command", "sweep", "--config", str(path)]) != 0:
                return
            code = main(["sweep", "--config", str(path), "--out", str(out)])
        assert code in (0, 3)
        if code == 0:
            rows = (out / "curves.csv").read_text().splitlines()[1:]
            assert np.all(np.isfinite([[float(v) for v in row.split(",")] for row in rows]))
            load_config(str(out / "summary.json"))

    check()


# ---------------------------------------------------------------------------
# Property: a continue config that validate accepts runs, and tags each point
# as eigvals/slogdet of the Jacobian do
# ---------------------------------------------------------------------------

# Bounds: every graph has at most 12 agents (a weights graph 1 to 12, with
# off-diagonal weights in {0, 0.5, 1, 2}, symmetrized or not; a population
# graph 0 to 4 agents per group, with an optional coupling of the same values
# off its unit diagonal); u_range entries and u_branch_end are floats in
# (0, 3].
WEIGHT = st.sampled_from([0.0, 0.5, 1.0, 2.0])


def _square(n):
    return st.lists(st.lists(WEIGHT, min_size=n, max_size=n), min_size=n, max_size=n)


def _weights_graph(matrix, symmetric):
    w = np.array(matrix)
    np.fill_diagonal(w, 0.0)
    return {"kind": "weights", "weights": (w + w.T if symmetric else w).tolist()}


def _population_graph(sizes, coupling):
    doc = {"kind": "population", **dict(zip(("n1", "n2", "n3"), sizes))}
    if coupling is not None:
        c = np.array(coupling)
        np.fill_diagonal(c, 1.0)
        doc["coupling"] = c.tolist()
    return doc


CONTINUE_GRAPHS = (
    st.builds(lambda n: {"kind": "complete", "n": n}, st.integers(1, 12))
    | st.builds(lambda n: {"kind": "directed_ring", "n": n}, st.integers(1, 12))
    | st.builds(_population_graph, st.tuples(*[st.integers(0, 4)] * 3), st.none() | _square(3))
    | st.builds(_weights_graph, st.integers(1, 12).flatmap(_square), st.booleans()))
EFFORTS = st.floats(min_value=0.0, max_value=3.0, exclude_min=True)
# (u_range[0], u_range[1], u_branch_end): distinct, in increasing order or
# in any order
EFFORT_TRIPLES = st.lists(EFFORTS, min_size=3, max_size=3, unique=True).flatmap(
    lambda e: st.sampled_from([sorted(e), e]))


def test_continue_that_validates_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("continue")
    path, out = root / "cfg.json", root / "out"

    @given(CONTINUE_GRAPHS, EFFORT_TRIPLES)
    @example({"kind": "complete", "n": 10}, (0.5, 1.5, 0.8))
    @example({"kind": "complete", "n": 10}, (0.5, 1.5, 1.0))
    @example({"kind": "complete", "n": 10}, (0.5, 1.0, 2.2))
    @example({"kind": "complete", "n": 10}, (1.0, 1.5, 2.2))
    @example({"kind": "directed_ring", "n": 6}, (0.5, 1.0, 2.2))
    def check(graph, efforts):
        *u_range, u_branch_end = efforts
        path.write_text(json.dumps({"graph": graph, "u_range": u_range,
                                    "u_branch_end": u_branch_end}))
        shutil.rmtree(out, ignore_errors=True)
        with deadline(10.0):
            if main(["validate", "--command", "continue", "--config", str(path)]) != 0:
                return
            code = main(["continue", "--config", str(path), "--out", str(out)])
        assert code in (0, 3)
        if code != 0:
            return
        g = ex.graph_from_config(graph)
        for csv in out.glob("branch_*.csv"):
            rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
            for param, *x, n_unstable, det_j in rows:
                jac = bif.jacobian(np.array(x), g, param)
                assert n_unstable == np.sum(np.linalg.eigvals(jac).real > bif.STABILITY_MARGIN)
                # past kappa_2 = 1/(n eps), det J is 0 within round-off and
                # has no sign (a range that ends on a singular point)
                if np.linalg.cond(jac) < 1 / (len(jac) * bif.EPS):
                    assert np.sign(det_j) == np.linalg.slogdet(jac)[0]
            if csv.name != "branch_trunk.csv":
                # a switched branch runs from its pitchfork to u_branch_end
                assert rows[-1, 0] == u_branch_end

    check()


# ---------------------------------------------------------------------------
# Property: a simulation that validate accepts runs, and ends at its horizon
# with a decision
# ---------------------------------------------------------------------------

# Bounds: a complete graph or directed ring of 2 to 12 agents, or a
# population of 1 to 4 agents per group; u in [0, 3]; beta_a and beta_b in
# [-3, 3], on populations only; utilde_amplitude in [0, 0.5]; t_end in
# (0, 50]; rtol and atol in [1e-10, 1e-4].
TOLERANCES = st.floats(1e-10, 1e-4)
SIMULATE_GRAPHS = (
    st.builds(lambda kind, n: {"graph": {"kind": kind, "n": n}},
              st.sampled_from(["complete", "directed_ring"]), st.integers(2, 12))
    | st.builds(lambda sizes, beta_a, beta_b: {
        "graph": {"kind": "population", **dict(zip(("n1", "n2", "n3"), sizes))},
        "beta_a": beta_a, "beta_b": beta_b},
        st.tuples(*[st.integers(1, 4)] * 3), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))


def test_simulate_that_validates_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("simulate")
    path, out = root / "cfg.json", root / "out"

    @given(SIMULATE_GRAPHS, st.floats(0.0, 3.0), st.floats(0.0, 0.5),
           st.floats(0.0, 50.0, exclude_min=True), TOLERANCES, TOLERANCES)
    def check(graph, u, utilde_amplitude, t_end, rtol, atol):
        path.write_text(json.dumps({**graph, "u": u, "utilde_amplitude": utilde_amplitude,
                                    "t_end": t_end, "rtol": rtol, "atol": atol}))
        shutil.rmtree(out, ignore_errors=True)
        with deadline(10.0):
            if main(["validate", "--command", "simulate", "--config", str(path)]) != 0:
                return
            code = main(["simulate", "--config", str(path), "--out", str(out)])
        assert code in (0, 3)
        if code != 0:
            return
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows[-1, 0] == t_end
        summary = json.loads((out / "summary.json").read_text())
        assert summary["decision"] in {d.value for d in Decision}

    check()


# ---------------------------------------------------------------------------
# Property: a quintic transition sweep that validate accepts runs, and each
# continued branch ends at an end of its range
# ---------------------------------------------------------------------------

# Bounds: n1 = n2 in [1, 3] and n3 in [0, 3]; a12 and a13 in
# {0, 0.25, 0.5, 1, 2}; 1 or 2 values of beta in [0, 4]; u_range an
# increasing pair of distinct floats in (0, 3]; h_max in [0.01, 0.1].
COUPLINGS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])


def test_quintic_sweep_that_validates_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("quintic")
    path, out = root / "cfg.json", root / "out"

    @given(st.integers(1, 3), st.integers(0, 3), COUPLINGS, COUPLINGS,
           st.lists(st.floats(0.0, 4.0), min_size=1, max_size=2),
           st.lists(EFFORTS, min_size=2, max_size=2, unique=True).map(sorted),
           st.floats(0.01, 0.1))
    # the default scenario from an effort of 1e-9, at the edge of u >= 0
    @example(2, 2, 0.25, 1.0, [1.0, 3.0], [1e-9, 3.0], 0.02)
    def check(n, n3, a12, a13, beta_grid, u_range, h_max):
        path.write_text(json.dumps({"scenario": "quintic_transition", "n1": n, "n2": n,
                                    "n3": n3, "a12": a12, "a13": a13,
                                    "beta_grid": beta_grid, "u_range": u_range,
                                    "h_max": h_max}))
        shutil.rmtree(out, ignore_errors=True)
        with deadline(10.0):
            if main(["validate", "--command", "sweep", "--config", str(path)]) != 0:
                return
            code = main(["sweep", "--config", str(path), "--out", str(out)])
        assert code in (0, 3)
        if code != 0:
            return
        u0, u1 = u_range
        for csv in out.glob("*_beta_*.csv"):
            rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
            # the trunk runs over u_range, an outer branch over (u0 / 2, u1)
            ends = (u0, u1) if csv.name.startswith("trunk") else (u0 / 2, u1)
            assert rows[-1, 0] in ends

    check()


# ---------------------------------------------------------------------------
# Property: a reduction demo that validate accepts runs, and both of its
# trajectories end at t_end
# ---------------------------------------------------------------------------

# Bounds: 0 to 4 agents per group; u in [0, 3]; beta_a and beta_b in [-3, 3];
# x0_amplitude in [0, 2]; t_end in (0, 50]; bound_horizon in (0, 10].
def test_reduction_demo_that_validates_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("reduction")
    path, out = root / "cfg.json", root / "out"

    @given(st.tuples(*[st.integers(0, 4)] * 3), st.floats(0.0, 3.0), st.floats(-3.0, 3.0),
           st.floats(-3.0, 3.0), st.floats(0.0, 2.0), st.floats(0.0, 50.0, exclude_min=True),
           st.floats(0.0, 10.0, exclude_min=True))
    # an empty group has no mean opinion: the reduced start would be NaN
    @example((0, 2, 2), 2.0, 1.0, 1.0, 1.0, 20.0, 4.0)
    @example((4, 4, 0), 2.0, 1.0, 1.0, 1.0, 20.0, 4.0)
    def check(sizes, u, beta_a, beta_b, x0_amplitude, t_end, bound_horizon):
        path.write_text(json.dumps({"scenario": "reduction_demo",
                                    **dict(zip(("n1", "n2", "n3"), sizes)),
                                    "u": u, "beta_a": beta_a, "beta_b": beta_b,
                                    "x0_amplitude": x0_amplitude, "t_end": t_end,
                                    "bound_horizon": bound_horizon}))
        shutil.rmtree(out, ignore_errors=True)
        # a NaN the load check lets through warns, and fails here
        with deadline(10.0), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if main(["validate", "--command", "sweep", "--config", str(path)]) != 0:
                return
            code = main(["sweep", "--config", str(path), "--out", str(out)])
        assert code in (0, 3)
        if code != 0:
            return
        for name in ("trajectory.csv", "reduced_trajectory.csv"):
            rows = np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)
            assert rows[-1, 0] == t_end
        assert np.isfinite(json.loads((out / "summary.json").read_text())["max_group_diff"])

    check()


# ---------------------------------------------------------------------------
# Property: a hysteresis sweep that validate accepts runs, and its loop is
# finite from beta_b_min on
# ---------------------------------------------------------------------------

# Bounds: 0 to 3 agents per group; u in [0, 3]; beta_a and beta_b_min in
# [-6, 6], beta_b_max - beta_b_min in [0, 12] and beta_b_step in [1, 6], so a
# grid has at most 13 points; settle_tol in [1e-10, 1e-4]; horizon in
# (0, 200]; 25 examples.  `sweep --scenario pitchfork_diagram` runs the
# scenario and runner of `continue`, whose property is
# test_continue_that_validates_runs.
def test_hysteresis_sweep_that_validates_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("hysteresis")
    path, out = root / "cfg.json", root / "out"

    @settings(max_examples=25)
    @given(st.tuples(*[st.integers(0, 3)] * 3), st.floats(0.0, 3.0), st.floats(-6.0, 6.0),
           st.floats(-6.0, 6.0), st.floats(0.0, 12.0), st.floats(1.0, 6.0), TOLERANCES,
           st.floats(0.0, 200.0, exclude_min=True))
    # grids of 1e300 points (np.arange refuses them) and of 1.2e10 points (96 GB)
    @example((5, 5, 10), 1.2, 5.0, 0.0, 1e300, 1.0, 1e-8, 200.0)
    @example((5, 5, 10), 1.2, 5.0, 0.0, 12.0, 1e-9, 1e-8, 200.0)
    def check(sizes, u, beta_a, beta_b_min, width, beta_b_step, settle_tol, horizon):
        path.write_text(json.dumps({"scenario": "hysteresis",
                                    **dict(zip(("n1", "n2", "n3"), sizes)), "u": u,
                                    "beta_a": beta_a, "beta_b_min": beta_b_min,
                                    "beta_b_max": beta_b_min + width,
                                    "beta_b_step": beta_b_step, "settle_tol": settle_tol,
                                    "horizon": horizon}))
        shutil.rmtree(out, ignore_errors=True)
        with deadline(10.0):
            if main(["validate", "--command", "sweep", "--config", str(path)]) != 0:
                return
            code = main(["sweep", "--config", str(path), "--out", str(out)])
        assert code in (0, 3)
        if code != 0:
            return
        rows = np.loadtxt(out / "loop.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows[0, 0] == beta_b_min
        assert np.isfinite(rows).all()

    check()


# ---------------------------------------------------------------------------
# Property: an adaptive run that validate accepts runs, and its trajectory
# ends with a finite state
# ---------------------------------------------------------------------------

# Bounds: a complete graph of 2 to 6 agents, or a population of 1 to 3 agents
# per group with beta_a and beta_b in [-3, 3]; ubar0 in (0, 2]; epsilon in
# [0.02, 0.1]; y_th in [0.1, 1.5]; utilde_amplitude in [0, 0.3]; x0_amplitude
# in [0, 0.1]; jump_band None or in (0, 1]; horizon_factor in (0, 100], so the
# horizon is at most 5000; 25 examples.
ADAPTIVE_GRAPHS = (
    st.builds(lambda n: {"graph": {"kind": "complete", "n": n}, "beta_a": 0.0, "beta_b": 0.0},
              st.integers(2, 6))
    | st.builds(lambda sizes, beta_a, beta_b: {
        "graph": {"kind": "population", **dict(zip(("n1", "n2", "n3"), sizes))},
        "beta_a": beta_a, "beta_b": beta_b},
        st.tuples(*[st.integers(1, 3)] * 3), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))


def test_adaptive_that_validates_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("adaptive")
    path, out = root / "cfg.json", root / "out"

    @settings(max_examples=25)
    @given(st.sampled_from(list(ex.ADAPTIVE_CASES)), ADAPTIVE_GRAPHS,
           st.floats(0.0, 2.0, exclude_min=True), st.floats(0.02, 0.1), st.floats(0.1, 1.5),
           st.floats(0.0, 0.3), st.floats(0.0, 0.1),
           st.none() | st.floats(0.0, 1.0, exclude_min=True),
           st.floats(0.0, 100.0, exclude_min=True))
    # information alone holds |y| above y_th: ubar falls below zero at run time
    @example("symmetric", {"graph": {"kind": "population", "n1": 1, "n2": 1, "n3": 1},
                           "beta_a": 0.0, "beta_b": 3.0}, 1.0, 0.0625, 0.25, 0.0, 0.0, None, 3.0)
    def check(case, graph, ubar0, epsilon, y_th, utilde_amplitude, x0_amplitude, jump_band,
              horizon_factor):
        path.write_text(json.dumps({**graph, "case": case, "ubar0": ubar0,
                                    "epsilon": epsilon, "y_th": y_th,
                                    "utilde_amplitude": utilde_amplitude,
                                    "x0_amplitude": x0_amplitude, "jump_band": jump_band,
                                    "horizon_factor": horizon_factor}))
        shutil.rmtree(out, ignore_errors=True)
        with deadline(10.0):
            if main(["validate", "--command", "adaptive", "--config", str(path)]) != 0:
                return
            code = main(["adaptive", "--config", str(path), "--out", str(out)])
        assert code in (0, 3)
        if code != 0:
            return
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.isfinite(rows[-1]).all()

    check()

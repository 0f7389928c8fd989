from __future__ import annotations

import json
import shutil
import types
import typing
import warnings

import numpy as np
import pytest
from conftest import deadline
from hypothesis import example, given
from hypothesis import strategies as st

from netdecide import experiments as ex
from netdecide.cli import COMMANDS, SWEEP_SCENARIOS, load_config, main
from netdecide.solver import EstimatorRun

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

    def test_estimator_at_time_cap_exits_3(self, tmp_path, capsys, monkeypatch):
        def capped(x, g, alpha, tol):
            return EstimatorRun(np.zeros(len(x)), 20.0, 10 * tol, 0.0, 100, 3)

        monkeypatch.setattr(ex, "integrate_nonsmooth", capped)
        assert main(["adaptive", "--case", "symmetric", "--out", str(tmp_path / "out")]) == 3
        assert "estimator did not reach estimator_tol" in capsys.readouterr().err


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
    ], ids=["value_sensitivity-h_max", "value_sensitivity-u_scan",
            "value_sensitivity-n1_n2", "uninformed_influence-n3",
            "pitchfork_diagram-disconnected", "simulate-beta", "adaptive-beta",
            "adaptive-horizon_factor", "simulate-seed_str", "simulate-seed_float",
            "adaptive-seed_str", "adaptive-seed_float", "reduction_demo-seed_str",
            "reduction_demo-seed_float", "adaptive-jump_band", "quintic_transition-beta_grid",
            "hysteresis-n1_str", "hysteresis-n1_float", "hysteresis-one_agent",
            "quintic_transition-n1_negative", "quintic_transition-n1_n2", "value_sensitivity-n3_negative",
            "value_sensitivity-empty_nu_grid",
            "complete-no_n", "weights-no_weights", "population-no_n2_n3", "graph-not_object",
            "continue-short_u_range", "value_sensitivity-short_u_scan",
            "continue-one_agent_complete", "continue-one_agent_weights"])
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
# for value sensitivity n1 = n2 in [1, 20] and n3 in [0, 100].
NU_GRIDS = st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                    min_size=1, max_size=3)


@pytest.mark.parametrize("scenario", ["value_sensitivity", "uninformed_influence"])
def test_nu_sweep_that_validates_runs(tmp_path_factory, scenario):
    root = tmp_path_factory.mktemp("nu_sweep")
    path, out = root / "cfg.json", root / "out"

    @given(NU_GRIDS, st.integers(1, 20), st.integers(0, 100))
    @example([1e-320], 10, 80)
    @example([1e200], 10, 80)
    @example([50.0], 10, 80)
    @example([1e90], 1, 100)
    def check(nu_grid, n, n3):
        doc = {"scenario": scenario, "nu_grid": nu_grid}
        if scenario == "value_sensitivity":
            doc |= {"n1": n, "n2": n, "n3": n3}
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

from __future__ import annotations

import json

import numpy as np
import pytest

from netdecide import experiments as ex
from netdecide.cli import main

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

    def test_linalg_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(ex, "run_simulate", singular)
        cfg = write_cfg(tmp_path, "cfg.json", {"u": 0.5})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "numerical failure" in capsys.readouterr().err

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


class TestSweep:
    def test_value_sensitivity(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {"nu_grid": [0.5, 1.0]})
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", "value_sensitivity",
                     "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "curves.csv").read_text().splitlines()
        assert lines[0] == "nu,us_star_hat,us_star_numeric,rel_error"
        assert len(lines) == 3

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


class TestValidate:
    def test_accepts_good_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {"u": 0.5})
        assert main(["validate", "--command", "simulate", "--config", cfg]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_rejects_bad_config_without_running(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {"u": -2.0})
        assert main(["validate", "--command", "simulate", "--config", cfg]) == 2

    def test_command_key_in_config(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json",
                        {"command": "sweep", "scenario": "hysteresis",
                         "beta_b_step": 0.5})
        assert main(["validate", "--config", cfg]) == 0

    def test_disconnected_continue_graph_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json",
                        {"graph": {"kind": "weights", "n": 4, "weights": TWO_DYADS}})
        assert main(["validate", "--command", "continue", "--config", cfg]) == 2
        assert "strongly connected" in capsys.readouterr().err

    def test_adaptive_bad_type_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cfg.json", {"epsilon": "abc"})
        assert main(["validate", "--command", "adaptive", "--config", cfg]) == 2
        assert "invalid configuration" in capsys.readouterr().err

"""Command-line front end.

Subcommands: simulate, continue, sweep, adaptive, validate.  Configs are JSON
documents validated strictly (unknown keys rejected, numeric preconditions
checked at load time); every run echoes its fully resolved configuration to
config.json in the output directory so it can be reproduced exactly.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure.
The default output root is $NETDECIDE_OUT or ./netdecide_out.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments as ex
from .bifurcation import BifurcationError
from .graphs import is_strongly_connected
from .solver import SolverError


class ConfigError(ValueError):
    pass


SWEEP_SCENARIOS = {
    "value_sensitivity": (ex.ValueSensitivityScenario, ex.run_value_sensitivity),
    "uninformed_influence": (ex.UninformedInfluenceScenario, ex.run_uninformed_influence),
    "hysteresis": (ex.HysteresisScenario, ex.run_hysteresis),
    "quintic_transition": (ex.QuinticScenario, ex.run_quintic_transition),
    "reduction_demo": (ex.ReductionScenario, ex.run_reduction_demo),
    "pitchfork_diagram": (ex.PitchforkScenario, ex.run_pitchfork_diagram),
}

ADAPTIVE_CASES = ("symmetric", "case1", "case2")


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return doc


def build_scenario(cls, doc: dict, **extra):
    """Construct a scenario dataclass from a document, strictly."""
    doc = {**doc, **extra}
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ConfigError(
            f"unknown config keys {unknown}; valid keys: {sorted(fields)}")
    coerced = {}
    for key, value in doc.items():
        ftype = fields[key].type
        if isinstance(value, list) and "tuple" in str(ftype):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        coerced[key] = value
    try:
        return cls(**coerced)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def _out_dir(args, default_name: str) -> Path:
    if args.out:
        return Path(args.out)
    root = os.environ.get("NETDECIDE_OUT", "netdecide_out")
    return Path(root) / default_name


def _apply_seed(doc: dict, args) -> dict:
    if getattr(args, "seed", None) is not None:
        doc = {**doc, "seed": args.seed}
    return doc


def _simulate_scenario(doc: dict, args):
    scenario = build_scenario(ex.SimulateScenario, _apply_seed(doc, args))
    ex.graph_from_config(scenario.graph)
    return scenario, "simulate"


def _continue_scenario(doc: dict, args):
    scenario = build_scenario(ex.PitchforkScenario, doc)
    if not is_strongly_connected(ex.graph_from_config(scenario.graph)):
        raise ConfigError("continuation requires a strongly connected graph")
    return scenario, "continue"


def _sweep_scenario(doc: dict, args):
    name = getattr(args, "scenario", None) or doc.pop("scenario", None)
    if name not in SWEEP_SCENARIOS:
        raise ConfigError(
            f"unknown scenario {name!r}; valid scenarios: "
            + ", ".join(sorted(SWEEP_SCENARIOS)))
    doc.pop("scenario", None)
    cls = SWEEP_SCENARIOS[name][0]
    if "seed" in {f.name for f in dataclasses.fields(cls)}:
        doc = _apply_seed(doc, args)
    return build_scenario(cls, doc), name


def _adaptive_scenario(doc: dict, args):
    doc = _apply_seed(doc, args)
    case = getattr(args, "case", None) or doc.pop("case", "symmetric")
    if case not in ADAPTIVE_CASES:
        raise ConfigError(f"unknown adaptive case {case!r}; valid cases: "
                          + ", ".join(ADAPTIVE_CASES))
    doc.pop("case", None)
    known = {f.name for f in dataclasses.fields(ex.AdaptiveScenario)} - {"case"}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; valid keys: {sorted(known)}")
    try:
        scenario = ex.adaptive_scenario(case, **doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    ex.graph_from_config(scenario.graph)
    return scenario, f"adaptive_{case}"


# (doc, args) -> (scenario, default output name); validate runs these too, so
# it accepts exactly the configs the commands accept.
SCENARIO_BUILDERS = {
    "simulate": _simulate_scenario,
    "continue": _continue_scenario,
    "sweep": _sweep_scenario,
    "adaptive": _adaptive_scenario,
}


def cmd_simulate(args) -> int:
    scenario, name = _simulate_scenario(load_config(args.config), args)
    out = _out_dir(args, name)
    result = ex.run_simulate(scenario, out_dir=out)
    print(f"terminal max-norm {result.terminal_norm:.6e}, "
          f"field max-norm {result.terminal_field_norm:.6e}, "
          f"decision {result.decision.value}")
    print(f"artifacts in {out}")
    return 0


def cmd_continue(args) -> int:
    scenario, name = _continue_scenario(load_config(args.config), args)
    out = _out_dir(args, name)
    result = ex.run_pitchfork_diagram(scenario, out_dir=out)
    print(f"singular points: {result.singular_params}")
    print(f"artifacts in {out}")
    return 0


def cmd_sweep(args) -> int:
    scenario, name = _sweep_scenario(load_config(args.config), args)
    runner = SWEEP_SCENARIOS[name][1]
    out = _out_dir(args, name)
    kwargs = {}
    if runner is ex.run_value_sensitivity:
        kwargs["jobs"] = args.jobs
    runner(scenario, out_dir=out, **kwargs)
    print(f"artifacts in {out}")
    return 0


def cmd_adaptive(args) -> int:
    scenario, name = _adaptive_scenario(load_config(args.config), args)
    out = _out_dir(args, name)
    result = ex.run_adaptive(scenario, out_dir=out)
    d = result.diagnostics
    print(f"ubar_c {d['ubar_c']}, terminal |y| {abs(d['terminal_y']):.6f}, "
          f"terminal ubar {d['terminal_ubar']:.6f}")
    print(f"artifacts in {out}")
    return 0


def cmd_validate(args) -> int:
    doc = load_config(args.config)
    command = args.command_name or doc.get("command")
    doc.pop("command", None)
    if command not in SCENARIO_BUILDERS:
        raise ConfigError(
            f"validate needs a command (--command or a 'command' key); got {command!r}")
    SCENARIO_BUILDERS[command](doc, args)
    print("config ok")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netdecide",
        description="Networked opinion dynamics: simulation, continuation, "
                    "and adaptive bifurcation control.",
        epilog="Output root: --out, else $NETDECIDE_OUT, else ./netdecide_out.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, jobs=False):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        if jobs:
            p.add_argument("--jobs", type=int, default=1,
                           help="parallel workers for sweep grids (default 1)")

    p = sub.add_parser("simulate", help="integrate the model and classify the decision")
    common(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("continue", help="trace a bifurcation diagram")
    common(p)
    p.set_defaults(handler=cmd_continue)

    p = sub.add_parser("sweep", help="run a named scenario sweep")
    p.add_argument("--scenario", help="scenario name ("
                   + ", ".join(sorted(SWEEP_SCENARIOS)) + ")")
    common(p, jobs=True)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("adaptive", help="run the adaptive closed loop")
    p.add_argument("--case", choices=ADAPTIVE_CASES, help="qualitative case")
    common(p)
    p.set_defaults(handler=cmd_adaptive)

    p = sub.add_parser("validate", help="check a config without running")
    p.add_argument("--command", dest="command_name",
                   choices=("simulate", "continue", "sweep", "adaptive"),
                   help="command the config is for")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    # LinAlgError subclasses ValueError, so it must be caught first.
    except (SolverError, BifurcationError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

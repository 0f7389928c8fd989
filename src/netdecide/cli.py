"""Command-line front end.

Subcommands: simulate, continue, sweep, adaptive, validate.  Configs are JSON
documents validated strictly (unknown keys rejected); each scenario's
constructor checks its runner's preconditions, so a config that loads is one
its command can run, and validate is exactly that load step.  Every run echoes
its fully resolved configuration to config.json in the output directory so it
can be reproduced exactly.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure.
The default output root is $NETDECIDE_OUT or ./netdecide_out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import types
import typing
from pathlib import Path

import numpy as np

from . import experiments as ex
from .bifurcation import BifurcationError
from .graphs import agent_count
from .solver import SolverError


class ConfigError(ValueError):
    pass


# Runners are named, not bound: they are looked up on `experiments` when a
# command runs, so a runner rebound there (by a test or a tracer) is the one
# that runs.
COMMANDS = {
    "simulate": (ex.SimulateScenario, "run_simulate"),
    "continue": (ex.PitchforkScenario, "run_pitchfork_diagram"),
    "adaptive": (ex.AdaptiveScenario, "run_adaptive"),
}

SWEEP_SCENARIOS = {
    "value_sensitivity": (ex.ValueSensitivityScenario, "run_value_sensitivity"),
    "uninformed_influence": (ex.UninformedInfluenceScenario, "run_uninformed_influence"),
    "hysteresis": (ex.HysteresisScenario, "run_hysteresis"),
    "quintic_transition": (ex.QuinticScenario, "run_quintic_transition"),
    "reduction_demo": (ex.ReductionScenario, "run_reduction_demo"),
    "pitchfork_diagram": (ex.PitchforkScenario, "run_pitchfork_diagram"),
}

# The line a command prints about its result, before "artifacts in ...".
REPORTS = {
    "simulate": lambda r: (f"terminal max-norm {r.terminal_norm:.6e}, "
                           f"field max-norm {r.terminal_field_norm:.6e}, "
                           f"decision {r.decision.value}"),
    "continue": lambda r: f"singular points: {r.singular_params}",
    "adaptive": lambda r: (f"ubar_c {r.diagnostics['ubar_c']}, "
                           f"terminal |y| {abs(r.diagnostics['terminal_y']):.6f}, "
                           f"terminal ubar {r.diagnostics['terminal_ubar']:.6f}"),
}


def _reject_constant(name: str):
    raise ConfigError(f"non-finite number {name} in config")


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return doc


def _field_value(key: str, value, annotation):
    """`value` checked against its field's annotation: a list becomes a
    tuple, and an int (a count or a seed) is what graphs.agent_count accepts."""
    if isinstance(annotation, types.UnionType):             # float | None
        if value is None:
            return None
        (annotation,) = [a for a in typing.get_args(annotation) if a is not type(None)]
    if typing.get_origin(annotation) is tuple:
        args = typing.get_args(annotation)
        size = None if args[-1] is Ellipsis else len(args)
        if not isinstance(value, list) or size not in (None, len(value)):
            raise ConfigError(f"{key} must be a list" + (f" of {size} entries" if size else ""))
        return tuple(_field_value(key, v, args[0]) for v in value)
    if annotation is int:
        return agent_count(value, key)
    if annotation is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ConfigError(f"{key} must be a finite number, got {value!r}")
        return value
    if not isinstance(value, annotation):
        raise ConfigError(f"{key} must be a {annotation.__name__}, got {value!r}")
    return value


def build_scenario(cls, doc: dict):
    """Construct a scenario dataclass from a document, strictly: each value
    is checked against its field's annotation, then the constructor checks
    the runner's preconditions."""
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(doc) - set(hints))
    if unknown:
        raise ConfigError(
            f"unknown config keys {unknown}; valid keys: {sorted(hints)}")
    try:
        return cls(**{key: _field_value(key, value, hints[key]) for key, value in doc.items()})
    # OverflowError: an integer too large for a float
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def _out_dir(args, default_name: str) -> Path:
    if args.out:
        return Path(args.out)
    root = os.environ.get("NETDECIDE_OUT", "netdecide_out")
    return Path(root) / default_name


def resolve(command: str, doc: dict, args):
    """Load a command's config: (scenario, runner name, default output name).

    Each scenario's constructor holds its runner's preconditions, so this is
    the whole load step; validate runs it and nothing else.
    """
    doc = dict(doc)
    if command == "sweep":
        name = getattr(args, "scenario", None) or doc.get("scenario")
        doc.pop("scenario", None)
        if not isinstance(name, str) or name not in SWEEP_SCENARIOS:
            raise ConfigError(
                f"unknown scenario {name!r}; valid scenarios: "
                + ", ".join(sorted(SWEEP_SCENARIOS)))
        cls, runner = SWEEP_SCENARIOS[name]
    elif command == "adaptive":
        case = getattr(args, "case", None) or doc.pop("case", "symmetric")
        doc.pop("case", None)
        # an unhashable case cannot be looked up; build_scenario rejects it
        defaults = ex.ADAPTIVE_CASES.get(case, {}) if isinstance(case, str) else {}
        doc = {**defaults, **doc, "case": case}
        cls, runner = COMMANDS[command]
        name = f"adaptive_{case}"
    else:
        cls, runner = COMMANDS[command]
        name = command
    seed = getattr(args, "seed", None)
    if seed is not None and "seed" in typing.get_type_hints(cls):
        doc["seed"] = seed
    return build_scenario(cls, doc), runner, name


def cmd_run(args) -> int:
    scenario, runner, name = resolve(args.command, load_config(args.config), args)
    out = _out_dir(args, name)
    result = getattr(ex, runner)(scenario, out_dir=out)
    if args.command in REPORTS:
        print(REPORTS[args.command](result))
    print(f"artifacts in {out}")
    return 0


def cmd_validate(args) -> int:
    doc = load_config(args.config)
    command = args.command_name or doc.get("command")
    doc.pop("command", None)
    if command not in (*COMMANDS, "sweep"):
        raise ConfigError(
            f"validate needs a command (--command or a 'command' key); got {command!r}")
    resolve(command, doc, args)
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

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="override the scenario seed")

    p = sub.add_parser("simulate", help="integrate the model and classify the decision")
    common(p)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("continue", help="trace a bifurcation diagram")
    common(p)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("sweep", help="run a named scenario sweep")
    p.add_argument("--scenario", help="scenario name ("
                   + ", ".join(sorted(SWEEP_SCENARIOS)) + ")")
    common(p)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("adaptive", help="run the adaptive closed loop")
    p.add_argument("--case", choices=list(ex.ADAPTIVE_CASES), help="qualitative case")
    common(p)
    p.set_defaults(handler=cmd_run)

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

"""The invocation list of tools/default_outputs.py, the byte-identity check."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from netdecide import experiments as ex
from netdecide.cli import COMMANDS, SWEEP_SCENARIOS

_PATH = Path(__file__).resolve().parent.parent / "tools" / "default_outputs.py"
_SPEC = importlib.util.spec_from_file_location("default_outputs", _PATH)
default_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(default_outputs)


def _values(flag: str) -> set[str]:
    return {argv[argv.index(flag) + 1] for argv in default_outputs.INVOCATIONS.values()
            if flag in argv}


def test_invocations_cover_every_command_scenario_and_case():
    # a scenario or case missing here would have no byte-identity check
    commands = {argv[0] for argv in default_outputs.INVOCATIONS.values()}
    assert commands == {*COMMANDS, "sweep"}
    assert _values("--scenario") == set(SWEEP_SCENARIOS)
    assert _values("--case") == set(ex.ADAPTIVE_CASES)

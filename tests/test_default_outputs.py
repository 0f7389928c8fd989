"""The byte-identity gate: the 10 default invocations of
tools/default_outputs.py against the committed listing of their outputs.

``default_outputs.sha256`` is the tool's listing, whose first line names the
host that made it (numpy, BLAS, SIMD extensions).  On that host every output
must have its committed SHA-256.  On any host, each CSV column must keep its
committed count, sum and sum of squares (``default_outputs_columns.json``)
within COLUMN_RTOL of the column's scale.  That tolerance assumes that
another numpy or BLAS moves only the last bits of an output, far less than a
state moved by 1e-8.

A change that moves an output on purpose rewrites both files, with

    PYTHONPATH=src python tests/test_default_outputs.py

and states the size of each move in CHANGES.md.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from netdecide import experiments as ex
from netdecide.cli import COMMANDS, SWEEP_SCENARIOS

_PATH = Path(__file__).resolve().parent.parent / "tools" / "default_outputs.py"
_SPEC = importlib.util.spec_from_file_location("default_outputs", _PATH)
default_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(default_outputs)

LISTING = Path(__file__).with_name("default_outputs.sha256")
COLUMNS = Path(__file__).with_name("default_outputs_columns.json")
# A column's sum may move by COLUMN_RTOL sqrt(count * sum of squares), which
# bounds its magnitude, and its sum of squares by COLUMN_RTOL of itself; each
# also by COLUMN_ATOL per value, for the columns that are 0 throughout.
COLUMN_RTOL = 1e-9
COLUMN_ATOL = 1e-12


def _values(flag: str) -> set[str]:
    return {argv[argv.index(flag) + 1] for argv in default_outputs.INVOCATIONS.values()
            if flag in argv}


def test_invocations_cover_every_command_scenario_and_case():
    # a scenario or case missing here would have no byte-identity check
    commands = {argv[0] for argv in default_outputs.INVOCATIONS.values()}
    assert commands == {*COMMANDS, "sweep"}
    assert _values("--scenario") == set(SWEEP_SCENARIOS)
    assert _values("--case") == set(ex.ADAPTIVE_CASES)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> Path:
    out_dir = tmp_path_factory.mktemp("default_outputs")
    assert default_outputs.run_all(out_dir) == []
    return out_dir


def test_every_output_has_its_committed_digest(outputs):
    host, *digests = LISTING.read_text().splitlines()
    if default_outputs.host() != host:
        pytest.skip(f"the digests were listed on another host ({host[2:]}); "
                    f"the column sums compare here")
    assert default_outputs.listing(outputs)[1:] == digests


def test_no_two_invocations_write_the_same_outputs(outputs):
    # the gate is as wide as its distinct invocations
    written = {}
    for line in default_outputs.listing(outputs)[1:]:
        digest, path = line.split("  ", 1)
        name, _, file = path.partition("/")
        if file:                                    # not <name>.stdout
            written.setdefault(name, set()).add((file, digest))
    by_outputs = {}
    for name, files in written.items():
        by_outputs.setdefault(frozenset(files), []).append(name)
    assert [names for names in by_outputs.values() if len(names) > 1] == []


def test_every_csv_column_keeps_its_committed_sums(outputs):
    want = json.loads(COLUMNS.read_text())
    got = default_outputs.column_stats(outputs)
    # the same files, with the same columns
    assert {f: list(c) for f, c in got.items()} == {f: list(c) for f, c in want.items()}
    moved = []
    for name, columns in want.items():
        for column, (count, total, squares) in columns.items():
            got_count, got_total, got_squares = got[name][column]
            atol = COLUMN_ATOL * count
            if not (got_count == count
                    and abs(got_total - total) <= COLUMN_RTOL * math.sqrt(count * squares) + atol
                    and abs(got_squares - squares) <= COLUMN_RTOL * squares + atol):
                moved.append(f"{name} {column}: {got[name][column]} != {[count, total, squares]}")
    assert not moved, "\n".join(moved)


def write_reference() -> None:
    """Run the invocations and rewrite the committed listing and column sums."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        failed = default_outputs.run_all(out_dir)
        if failed:
            sys.exit(f"invocations failed: {failed}")
        LISTING.write_text("\n".join(default_outputs.listing(out_dir)) + "\n")
        stats = default_outputs.column_stats(out_dir)
        COLUMNS.write_text("{\n" + ",\n".join(f"{json.dumps(name)}: {json.dumps(columns)}"
                                               for name, columns in stats.items()) + "\n}\n")


if __name__ == "__main__":
    write_reference()

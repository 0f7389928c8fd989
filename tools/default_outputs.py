"""Run the 10 default netdecide invocations and print a SHA-256 of each output.

Usage, from any directory:

    python tools/default_outputs.py OUT_DIR

The invocations are ``simulate --seed 3``, ``continue``, ``adaptive --case``
symmetric, case1 and case2, and ``sweep --scenario`` for each of the five
scenarios.  Each runs as ``python -m netdecide.cli`` on the ``src`` tree of the
checkout that holds this script, and writes into OUT_DIR/<name>/; OUT_DIR
should be new or empty.  Its stdout is saved as OUT_DIR/<name>.stdout, with
OUT_DIR replaced by ``OUT``, so the listings of two checkouts compare equal
when their outputs do.

The script prints the host line (``host``), then one line ``<sha256>  <path
relative to OUT_DIR>`` per file, sorted by path.  Diffing the listings of two
checkouts is the byte-identity check of their default outputs.  It exits 1 if
any invocation exits nonzero, after naming it on stderr.

A digest rests on the numpy build, BLAS and SIMD extensions of the host that
made it.  ``column_stats`` gives what another host compares instead: per CSV
column, the count, sum and sum of squares.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
SWEEPS = ("value_sensitivity", "uninformed_influence", "hysteresis",
          "quintic_transition", "reduction_demo")
INVOCATIONS = {
    "simulate": ["simulate", "--seed", "3"],
    "continue": ["continue"],
    **{f"adaptive_{case}": ["adaptive", "--case", case]
       for case in ("symmetric", "case1", "case2")},
    **{f"sweep_{name}": ["sweep", "--scenario", name] for name in SWEEPS},
}


def run_all(out_dir: Path) -> list[str]:
    """Run every invocation into out_dir; return the names that failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    failed = []
    for name, argv in INVOCATIONS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "netdecide.cli", *argv, "--out", str(out_dir / name)],
            env=env, capture_output=True, text=True)
        (out_dir / f"{name}.stdout").write_text(proc.stdout.replace(str(out_dir), "OUT"))
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            failed.append(name)
    return failed


def host() -> str:
    """``# numpy <version>, blas <name> <version>, simd <extensions found>``:
    what the bytes of the outputs rest on."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:       # numpy before 1.25 only prints its build
        return f"# numpy {np.__version__}"
    blas = config["Build Dependencies"]["blas"]
    simd = " ".join(config["SIMD Extensions"]["found"])
    return f"# numpy {np.__version__}, blas {blas['name']} {blas['version']}, simd {simd}"


def _files(out_dir: Path) -> list[Path]:
    return sorted(p for p in out_dir.rglob("*") if p.is_file())


def listing(out_dir: Path) -> list[str]:
    """The host line and one ``<sha256>  <path>`` line per file, sorted by path."""
    return [host()] + [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
                       f"{path.relative_to(out_dir).as_posix()}" for path in _files(out_dir)]


def column_stats(out_dir: Path) -> dict[str, dict[str, list[float]]]:
    """Per CSV file and column, [count, sum, sum of squares] of its values,
    the sums rounded to 10 significant digits."""
    stats = {}
    for path in _files(out_dir):
        if path.suffix != ".csv":
            continue
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        columns = stats[path.relative_to(out_dir).as_posix()] = {}
        for i, name in enumerate(header):
            values = [float(row[i]) for row in rows]
            columns[name] = [len(values), float(f"{math.fsum(values):.10g}"),
                             float(f"{math.fsum(v * v for v in values):.10g}")]
    return stats


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = Path(argv[0]).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    failed = run_all(out_dir)
    print("\n".join(listing(out_dir)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

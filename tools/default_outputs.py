"""Run the 11 default netdecide invocations and print a SHA-256 of each output.

Usage, from any directory:

    python tools/default_outputs.py OUT_DIR

The invocations are ``simulate --seed 3``, ``continue``, ``adaptive --case``
symmetric, case1 and case2, and ``sweep --scenario`` for each of the six
scenarios.  Each runs as ``python -m netdecide.cli`` on the ``src`` tree of the
checkout that holds this script, and writes into OUT_DIR/<name>/; OUT_DIR
should be new or empty.  Its stdout is saved as OUT_DIR/<name>.stdout, with
OUT_DIR replaced by ``OUT``, so the listings of two checkouts compare equal
when their outputs do.

The script prints one line ``<sha256>  <path relative to OUT_DIR>`` per
file, sorted by path.  Diffing the listings of two checkouts is the
byte-identity check of their default outputs.  It exits 1 if any invocation
exits nonzero, after naming it on stderr.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SWEEPS = ("value_sensitivity", "uninformed_influence", "hysteresis",
          "quintic_transition", "reduction_demo", "pitchfork_diagram")
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


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = Path(argv[0]).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    failed = run_all(out_dir)
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out_dir).as_posix()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

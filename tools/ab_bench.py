"""A/B benchmark of two revisions: alternating pairs of ``bench/run.py`` runs.

Usage, from inside the repository:

    python tools/ab_bench.py --parent REV --change REV --out BENCH_<n>.json \\
        [--pairs 10] [--seconds 20] [--claim settle_ensemble:wall_s] [--what TEXT] [--tiny]

Each revision (any git tree-ish: a commit, a tag, or the tree of the index
from ``git write-tree``) is extracted with ``git archive`` into a temporary
directory, so the runs see committed files only.  For each workload, pair i
runs ``python3 bench/run.py --workload W --seed i --seconds S --trace 0`` once
on each side; odd pairs run the parent first, even pairs the change.  The
workloads, the metrics with their better direction and bound, and the default
``--seconds`` come from BENCHMARK.json.

The output file holds the command, both revisions, the claim (or null), every
run's ``bench-env`` and result lines, and per workload and end-to-end metric:
both medians and quartiles, the change's relative move, the pairs the change
won and the parent's interquartile range.  With ``--claim`` it also states
whether the change won at least 9 of 10 pairs and moved the median by more
than the parent's interquartile range.  The file is rewritten after every
pair, so an interrupted run keeps what it measured.

Exit code 0 when every run printed ``"correct": true`` with every end-to-end
metric, 1 otherwise, 2 on bad arguments or a revision git cannot archive.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SIDES = ("parent", "change")
# The claimed metric must improve on at least this share of the pairs.
CLAIM_WIN_SHARE = 0.9


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) by linear interpolation between order statistics."""
    data = sorted(values)

    def at(p):
        pos = p * (len(data) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(data) - 1)
        return data[lo] + (pos - lo) * (data[hi] - data[lo])

    return at(0.25), at(0.5), at(0.75)


def summarize(records: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric, both sides' medians, the change's pair wins
    and the parent's interquartile range.

    ``records`` are run records (keys workload, pair, side and result, the
    parsed last line of bench/run.py); ``metrics`` are BENCHMARK.json's
    end_to_end entries.  A pair counts for the change when its value is
    strictly better in the metric's direction.
    """
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in records):
        values = {}
        for r in records:
            if r["workload"] == workload and r["result"] is not None:
                for name, entry in r["result"]["metrics"].items():
                    values.setdefault(name, {}).setdefault(r["pair"], {})[r["side"]] = (
                        entry["value"])
        out = {"pairs": len({r["pair"] for r in records if r["workload"] == workload})}
        for metric in metrics:
            name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
            both = [v for v in values.get(name, {}).values() if len(v) == 2]
            if not both:
                continue
            parent = [v["parent"] for v in both]
            change = [v["change"] for v in both]
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            out[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": {"median": pm, "q1": p1, "q3": p3, "iqr": p3 - p1},
                "change": {"median": cm, "q1": c1, "q3": c3},
                "change_vs_parent": (cm - pm) / pm if pm else None,
                "pairs_change_better": sum(sign * (v["change"] - v["parent"]) < 0
                                           for v in both),
                "pairs_compared": len(both),
                "bound": metric["bound"],
            }
        summary[workload] = out
    return summary


def claim_verdict(summary: dict, workload: str, metric: str) -> dict:
    """Whether the change won CLAIM_WIN_SHARE of the pairs and improved the
    median by more than the parent's interquartile range."""
    entry = summary.get(workload, {}).get(metric)
    if entry is None:
        return {"holds": False, "reason": "no paired runs"}
    sign = 1 if entry["better"] == "lower" else -1
    gain = sign * (entry["parent"]["median"] - entry["change"]["median"])
    wins, pairs = entry["pairs_change_better"], entry["pairs_compared"]
    return {
        "pairs_change_better": wins,
        "pairs": pairs,
        "median_gain": gain,
        "parent_iqr": entry["parent"]["iqr"],
        "holds": wins >= CLAIM_WIN_SHARE * pairs and gain > entry["parent"]["iqr"],
    }


def extract(rev: str, dest: Path) -> str:
    """Extract the tree-ish ``rev`` into ``dest``; return its resolved hash."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev],
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                             capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """One ``bench/run.py --trace 0`` run: exit code, bench-env line, result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=checkout, env={**os.environ, **THREAD_ENV},
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env_line = next((line for line in lines if line.startswith("bench-env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"exit_code": proc.returncode, "bench_env": env_line, "result": result,
            "stderr": proc.stderr[-2000:] or None}


def run_failure(record: dict, metrics: list[dict]) -> str | None:
    """Why a run record does not count as a good run, or None."""
    result = record["result"]
    if record["exit_code"] != 0 or result is None or result.get("correct") is not True:
        return f"exit {record['exit_code']}, result {result and result.get('correct')}"
    missing = [m["name"] for m in metrics if m["name"] not in result.get("metrics", {})]
    return f"missing metrics {missing}" if missing else None


def parse_args(argv, spec: dict):
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git tree-ish of the parent side")
    parser.add_argument("--change", required=True, help="git tree-ish of the change side")
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--claim", help="WORKLOAD:METRIC that the change claims to improve")
    parser.add_argument("--what", help="one paragraph on what is compared")
    parser.add_argument("--tiny", action="store_true", help="pass --tiny to bench/run.py")
    args = parser.parse_args(argv)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.pairs < 1 or not args.seconds >= 0:
        parser.error("--pairs must be at least 1 and --seconds nonnegative")
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        if workload not in names or metric not in better:
            parser.error(f"--claim {args.claim!r} must be one of {names}, a colon and one "
                         f"of {list(better)}")
        args.claim = {"workload": workload, "metric": metric, "better": better[metric]}
    return args


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv, spec)
    metrics, claim = spec["end_to_end"], args.claim
    doc = {
        "what": args.what,
        "command": shlex.join(["python", "tools/ab_bench.py", *argv]),
        "order": "pairs alternate which side runs first (odd pairs: parent first)",
        "claimed": claim,
    }
    records, failures = [], []
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        checkouts = {}
        for side in SIDES:
            rev = getattr(args, side)
            try:
                doc[side] = {"rev": rev, "sha": extract(rev, Path(tmp) / side)}
            except subprocess.CalledProcessError as exc:
                print(f"ab_bench: cannot archive {side} {rev!r}: {exc}", file=sys.stderr)
                return 2
            checkouts[side] = Path(tmp) / side
        for workload in (w["name"] for w in spec["workloads"]):
            for pair in range(1, args.pairs + 1):
                for side in (SIDES if pair % 2 else SIDES[::-1]):
                    record = {"workload": workload, "seed": pair, "pair": pair, "side": side,
                              **run_bench(checkouts[side], workload, pair, args.seconds,
                                          args.tiny)}
                    failure = run_failure(record, metrics)
                    if failure is None:
                        del record["stderr"]
                    else:
                        failures.append(f"{workload} pair {pair} {side}: {failure}")
                        print(f"ab_bench: {failures[-1]}", file=sys.stderr)
                    records.append(record)
                    print(f"ab_bench: {workload} pair {pair} {side} done", file=sys.stderr)
                doc["summary"] = summarize(records, metrics)
                if claim is not None:
                    doc["claim_result"] = claim_verdict(doc["summary"], claim["workload"],
                                                        claim["metric"])
                doc["failures"] = failures
                doc["runs"] = records
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

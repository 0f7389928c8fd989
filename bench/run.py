"""Benchmark of the netdecide package.

Run from the repository root:

    python3 bench/run.py --workload settle_ensemble --seed 1 --seconds 20 --trace 0

Workloads: settle_ensemble, pitchfork_large, adaptive_cli, reduced_branches
(see workloads.py for what each runs and why).  A run builds the workload's
operations from the seed, then repeats passes over them (one pass runs every
operation once) until ``--seconds`` have gone by, checking every output.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.  Their
times are corrected for the speed of the core they ran on (hostspeed.py); the
raw values are in the ``bench-env`` line.  ``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of the traced passes (tracing.py, README.md), the tracing overhead,
and writes the spans to .bench_out/.  The traced outputs must equal the
untraced ones exactly.

Output: a line ``bench-env {...}`` (machine, versions, thread setting, git
sha, sample counts), then as the last line one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 when every check passed,
1 when one failed, 2 when netdecide cannot be imported from ./src.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("settle_ensemble", "pitchfork_large", "adaptive_cli", "reduced_branches")

# One BLAS/OpenMP thread: with default threading the n = 100 pitchfork
# diagram swung from 0.85 s to 1.99 s on a 2-core machine, with one thread
# 0.74-0.86 s.  Set before numpy is imported, and passed to set-up children.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_SAMPLES = 5           # fresh processes timed per run; setup_s is their median
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="netdecide benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure passes until this many seconds have gone by")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (for the benchmark's own tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time import and input building once, print it, exit")
    return parser.parse_args(argv)


def import_workloads():
    """Import netdecide from ./src (never an installed copy) and the workloads."""
    src = ROOT / "src"
    for path in (str(BENCH_DIR), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import netdecide

    if Path(netdecide.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"netdecide was imported from {netdecide.__file__}, not {src}")
    import workloads

    return workloads


@dataclass
class PassResult:
    latencies: list = field(default_factory=list)
    raw_latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    fingerprints: list = field(default_factory=list)
    bytes_written: int = 0


def run_pass(ops, tracer=None, first_op_id: int = 0, probe=None) -> PassResult:
    """Run every operation once, timing the call and checking its output.

    With a ``probe`` each latency is corrected for the core's speed.
    """
    result = PassResult()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = first_op_id + i
        if probe is not None:
            probe.start()
        t0 = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            output, failure = None, f"{type(exc).__name__}: {exc}"
        else:
            failure = None
        finally:
            raw = time.perf_counter() - t0
            latency = probe.stop(raw) if probe is not None else raw
        if failure is not None:
            fingerprint = None
        else:
            if op.out_dir is not None and op.out_dir.exists():
                result.bytes_written += sum(
                    p.stat().st_size for p in op.out_dir.rglob("*") if p.is_file())
            try:
                failure, fingerprint = op.check(output)
            except Exception as exc:  # an output the check cannot read is a failure
                failure, fingerprint = f"check raised {type(exc).__name__}: {exc}", None
        if op.out_dir is not None:
            shutil.rmtree(op.out_dir, ignore_errors=True)
        result.latencies.append(latency)
        result.raw_latencies.append(raw)
        result.fingerprints.append(repr(fingerprint))
        if failure is not None:
            result.failures.append(f"{op.label}: {failure}")
    if tracer is not None:
        tracer.current_op = -1
    return result


def setup_samples(args, first: dict) -> list[dict]:
    """``first`` plus set-up times of fresh processes (import + input building)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.tiny:
        cmd.append("--tiny")
    samples = [first]
    for _ in range((2 if args.tiny else SETUP_SAMPLES) - 1):
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV},
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def setup_time(t_import: float) -> dict:
    """Set-up time since ``t_import``, raw and corrected by a speed sample taken now."""
    import hostspeed

    raw = time.perf_counter() - t_import
    return {"setup_s": hostspeed.corrected(raw, [hostspeed.sample()]), "raw_s": raw}


def measure(args, wl, t_import: float, work_dir: Path):
    """Untraced run: end-to-end metrics."""
    ops = wl.WORKLOADS[args.workload](args.seed, args.tiny, work_dir)
    setup = setup_samples(args, setup_time(t_import))
    import hostspeed
    import numpy as np

    probe = hostspeed.SpeedProbe()
    passes = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < args.seconds:
        passes.append(run_pass(ops, probe=probe))
    latencies = [lat for p in passes for lat in p.latencies]
    raw = [lat for p in passes for lat in p.raw_latencies]
    failures = [f for p in passes for f in p.failures]

    p95 = float(np.percentile(latencies, 95))
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "wall_s": statistics.median(sum(p.latencies) for p in passes),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p95_ms": p95 * 1e3,
        "ok_frac": 1.0 - len(failures) / len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "op_samples": len(latencies),
        "op_samples_beyond_p95": int(sum(lat > p95 for lat in latencies)),
        "raw": {
            "setup_s": statistics.median(s["raw_s"] for s in setup),
            "wall_s": statistics.median(sum(p.raw_latencies) for p in passes),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_p95_ms": float(np.percentile(raw, 95)) * 1e3,
        },
        "speed_factor": statistics.median(r / c for r, c in zip(raw, latencies)),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return len(latencies), failures, metrics, info


def measure_traced(args, wl, work_dir: Path):
    """Alternate untraced and traced passes: per-layer metrics and overhead."""
    import tracing

    tracer = tracing.Tracer()
    points = tracing.patch_points(tracer)
    with tracing.patched(points):
        ops = wl.WORKLOADS[args.workload](args.seed, args.tiny, work_dir)
    setup_graph_ms = tracer.summarize().top["graphs"] * 1e-6

    untraced, traced, rows, failures = [], [], [], []
    attempted = 0
    begin = time.perf_counter()
    while not rows or time.perf_counter() - begin < args.seconds:
        reference = run_pass(ops)
        i0 = len(tracer)
        tracer.counts.clear()
        with tracing.patched(points):
            got = run_pass(ops, tracer, first_op_id=len(rows) * len(ops))
        rows.append(tracing.layer_metrics(tracer.summarize(i0), tracer.counts,
                                          got.bytes_written))
        untraced.append(sum(reference.latencies))
        traced.append(sum(got.latencies))
        attempted += 2 * len(ops)
        failures += reference.failures + got.failures
        failures += [f"{op.label}: traced output differs from untraced output"
                     for op, a, b in zip(ops, reference.fingerprints, got.fingerprints)
                     if a != b]

    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    values["graphs.build_ms"] += setup_graph_ms
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    spans_path = OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(spans_path)
    info = {
        "passes": len(rows),
        "ops_per_pass": len(ops),
        "spans": len(tracer),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_wall_s": statistics.median(untraced),
        "traced_wall_s": statistics.median(traced),
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in tracing.LAYER_UNITS.items()}
    return attempted, failures, metrics, info


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha() -> str | None:
    """HEAD of ./.git when the checkout is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """SHA-256 of the package sources, which identifies code outside git too."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    t_import = time.perf_counter()
    try:
        wl = import_workloads()
    except ImportError as exc:
        print(f"bench: cannot import netdecide from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    work_dir = OUT_ROOT / f"work-{os.getpid()}"
    if args.setup_only:
        wl.WORKLOADS[args.workload](args.seed, args.tiny, work_dir)
        print(json.dumps(setup_time(t_import)))
        return 0
    try:
        if args.trace:
            attempted, failures, metrics, info = measure_traced(args, wl, work_dir)
        else:
            attempted, failures, metrics, info = measure(args, wl, t_import, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for failure in failures[:20]:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            **info, "env": environment()}
    print("bench-env " + json.dumps(info))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    os.environ.update(THREAD_ENV)
    sys.exit(main())

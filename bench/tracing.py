"""Span tracing of netdecide from outside the package.

The tracer rebinds the public entry points of each layer, and the callables
handed into the bifurcation layer, in the namespace where the caller looks
them up (``netdecide.experiments.integrate``, ``netdecide.bifurcation.
normalized_field``, ...).  Nothing under ``src/`` changes.  Every wrapped call
records one span: name, parent span, operation id, start and end.  Spans stay
in memory and are written out when the run ends.

A layer's self time is the time its outermost spans cover minus the time
covered by their direct children of other layers.  Calls are synchronous and
nested, so the children of a span never overlap.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

import numpy as np

FIELDS = ("normalized_field", "hetero_field", "reduced3_field", "ata_reduced3_field")
PROBLEM_FACTORIES = ("normalized_problem", "reduced3_problem", "ata_problem")
RUNNERS = ("run_pitchfork_diagram", "run_quintic_transition", "run_value_sensitivity",
           "run_adaptive")
WRITERS = ("write_csv", "write_json", "Trajectory.to_csv")

# Per-layer metrics printed by a traced run, with their units.  README.md maps
# each one to the end-to-end metric and workload it should move.
LAYER_UNITS = {
    "graphs.build_ms": "ms",
    "dynamics.field_calls": "count",
    "dynamics.field_s": "s",
    "dynamics.field_us": "us",
    "solver.s": "s",
    "solver.self_s": "s",
    "solver.steps": "count",
    "solver.nfev_per_step": "calls/step",
    "solver.estimator_s": "s",
    "solver.estimator_steps": "count",
    "solver.estimator_reject_frac": "fraction",
    "bifurcation.continue_s": "s",
    "bifurcation.points": "count",
    "bifurcation.point_ms": "ms",
    "bifurcation.self_s": "s",
    "bifurcation.callback_s": "s",
    "bifurcation.f_per_point": "calls/point",
    "bifurcation.jac_per_point": "calls/point",
    "bifurcation.switch_s": "s",
    "bifurcation.singular_points": "count",
    "experiments.runner_s": "s",
    "experiments.self_s": "s",
    "experiments.write_s": "s",
    "experiments.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span store plus the counters read from returned objects."""

    def __init__(self):
        self.names: list[tuple[str, str]] = []       # (layer, span name)
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self.current_op = -1
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.name_id)

    def wrap(self, layer: str, name: str, fn, on_result=None):
        """Return ``fn`` recording one span per call; ``on_result`` reads counters."""
        nid = len(self.names)
        self.names.append((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.current_op)
            self.start.append(0)
            self.end.append(0)
            self._stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    def summarize(self, i0: int = 0, i1: int | None = None) -> "SpanSummary":
        """Totals over spans [i0, i1), which must start with an empty stack."""
        i1 = len(self) if i1 is None else i1
        top: Counter = Counter()
        foreign: Counter = Counter()
        count: Counter = Counter()
        total: Counter = Counter()
        under_solver = [False] * (i1 - i0)
        field_calls_in_solver = 0
        for i in range(i0, i1):
            layer, name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            parent_layer = self.names[self.name_id[p]][0] if p >= 0 else None
            count[name] += 1
            total[name] += dur
            if parent_layer != layer:
                top[layer] += dur
                if parent_layer is not None:
                    foreign[parent_layer] += dur
            parent_in_solver = p >= 0 and under_solver[p - i0]
            under_solver[i - i0] = layer == "solver" or parent_in_solver
            if layer == "dynamics" and parent_in_solver:
                field_calls_in_solver += 1
        self_time = {layer: top[layer] - foreign[layer] for layer in top}
        return SpanSummary(top, self_time, count, total, field_calls_in_solver)

    def save(self, path: Path) -> None:
        """Write every span; ``names`` holds "layer:name" for each ``name_id``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array([f"{layer}:{name}" for layer, name in self.names]),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


@dataclass
class SpanSummary:
    top: Counter                 # ns covered by each layer's outermost spans
    self_time: dict              # ns of each layer minus its other-layer children
    count: Counter               # calls per span name
    total: Counter               # ns per span name
    field_calls_in_solver: int   # dynamics spans with a solver span above them

    def names_count(self, names) -> int:
        return sum(self.count[n] for n in names)

    def names_s(self, names) -> float:
        return sum(self.total[n] for n in names) * 1e-9


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(s: SpanSummary, counts: Counter, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_s)."""
    ns = 1e-9
    field_calls = s.names_count(FIELDS)
    steps = counts["solver.steps"]
    est_steps, est_rejected = counts["estimator.steps"], counts["estimator.rejected"]
    points = counts["bifurcation.points"]
    continue_s = s.names_s(["continue_branch"])
    return {
        "graphs.build_ms": s.top["graphs"] * 1e-6,
        "dynamics.field_calls": field_calls,
        "dynamics.field_s": s.top["dynamics"] * ns,
        "dynamics.field_us": _ratio(s.top["dynamics"] * 1e-3, field_calls),
        "solver.s": s.top["solver"] * ns,
        "solver.self_s": s.self_time.get("solver", 0) * ns,
        "solver.steps": steps,
        "solver.nfev_per_step": _ratio(s.field_calls_in_solver, steps),
        "solver.estimator_s": s.top["estimator"] * ns,
        "solver.estimator_steps": est_steps,
        "solver.estimator_reject_frac": _ratio(est_rejected, est_steps + est_rejected),
        "bifurcation.continue_s": continue_s,
        "bifurcation.points": points,
        "bifurcation.point_ms": _ratio(continue_s * 1e3, points),
        "bifurcation.self_s": s.self_time.get("bifurcation", 0) * ns,
        "bifurcation.callback_s": s.top["callback"] * ns,
        "bifurcation.f_per_point": _ratio(s.count["f"], points),
        "bifurcation.jac_per_point": _ratio(s.count["jac_x"] + s.count["jac_p"], points),
        "bifurcation.switch_s": s.names_s(["branch_switch"]),
        "bifurcation.singular_points": counts["bifurcation.singular_points"],
        "experiments.runner_s": s.names_s(RUNNERS),
        "experiments.self_s": s.self_time.get("experiments", 0) * ns,
        "experiments.write_s": s.names_s(WRITERS),
        "experiments.bytes_written": bytes_written,
        "cli.self_s": s.self_time.get("cli", 0) * ns,
    }


def _count_steps(counts, result):
    trajectory, _hits = result
    counts["solver.steps"] += len(trajectory.times) - 1


def _count_estimator(counts, run):
    counts["estimator.steps"] += run.n_steps
    counts["estimator.rejected"] += run.n_rejected


def _count_branch(counts, branch):
    counts["bifurcation.points"] += len(branch.points)
    counts["bifurcation.singular_points"] += len(branch.singular_points)


def patch_points(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(namespace, attribute, traced replacement) for every traced name."""
    from netdecide import bifurcation, cli, dynamics, experiments, graphs, solver

    points = []

    def add(namespace, attr, layer, on_result=None):
        fn = getattr(namespace, attr)
        points.append((namespace, attr, tracer.wrap(layer, attr, fn, on_result)))

    # graphs: the benchmark builds through ``graphs``, the runners through
    # the names ``experiments`` imported.
    for namespace in (graphs, experiments):
        add(namespace, "complete_graph", "graphs")
        add(namespace, "three_population_graph", "graphs")
    add(experiments, "graph_from_config", "graphs")

    # dynamics: every module that calls a field looks it up in its own globals.
    for namespace in (dynamics, experiments, bifurcation):
        for attr in FIELDS:
            if hasattr(namespace, attr):
                add(namespace, attr, "dynamics")

    # solver: runners call the names they imported; integrate and
    # integrate_to_equilibrium reach _integrate through solver's globals.
    for namespace in (solver, experiments):
        add(namespace, "integrate", "solver")
        add(namespace, "integrate_to_equilibrium", "solver")
        add(namespace, "_integrate", "solver", _count_steps)
    add(experiments, "integrate_nonsmooth", "estimator", _count_estimator)

    # bifurcation: runners call through the module object ``bif``.
    add(bifurcation, "continue_branch", "bifurcation", _count_branch)
    add(bifurcation, "branch_switch", "bifurcation")
    add(bifurcation, "newton_solve", "bifurcation")
    add(bifurcation, "ubar_star", "bifurcation")
    for attr in PROBLEM_FACTORIES:
        factory = getattr(bifurcation, attr)
        points.append((bifurcation, attr, _traced_factory(tracer, bifurcation, factory)))

    for attr in RUNNERS + ("write_csv", "write_json"):
        add(experiments, attr, "experiments")
    points.append((solver.Trajectory, "to_csv",
                   tracer.wrap("experiments", "Trajectory.to_csv", solver.Trajectory.to_csv)))

    add(cli, "main", "cli")
    return points


def _traced_factory(tracer: Tracer, bifurcation, factory):
    """Wrap f, jac_x and jac_p of each problem the factory returns.

    A jac_p the factory left as None stays None, so the finite-difference
    path of ``ContinuationProblem.fp`` still runs (through the traced f).
    """
    f_wrap = functools.partial(tracer.wrap, "callback", "f")
    jac_x_wrap = functools.partial(tracer.wrap, "callback", "jac_x")
    jac_p_wrap = functools.partial(tracer.wrap, "callback", "jac_p")

    @functools.wraps(factory)
    def traced_factory(*args, **kwargs):
        problem = factory(*args, **kwargs)
        return bifurcation.ContinuationProblem(
            f=f_wrap(problem.f),
            jac_x=jac_x_wrap(problem.jac_x),
            jac_p=None if problem.jac_p is None else jac_p_wrap(problem.jac_p),
        )

    return traced_factory


@contextlib.contextmanager
def patched(points):
    """Bind the traced replacements for the duration of the block."""
    originals = [(namespace, attr, getattr(namespace, attr)) for namespace, attr, _ in points]
    try:
        for namespace, attr, replacement in points:
            setattr(namespace, attr, replacement)
        yield
    finally:
        for namespace, attr, original in reversed(originals):
            setattr(namespace, attr, original)


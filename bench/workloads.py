"""Workloads of the netdecide benchmark.

A workload turns the benchmark seed into a fixed list of operations on the
public API of ``netdecide``; the program sees only the generated inputs.  One
pass runs every operation once, and a run repeats passes for the measured
time.  Each operation carries the reference check that feeds ``ok_frac``,
with the tolerances of the acceptance tests, and a fingerprint of its outputs
that a traced pass must reproduce exactly.

The reason for each workload is the docstring of its function below.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from netdecide import bifurcation, cli, dynamics, experiments, graphs, solver

# Bound here, before any tracing rebinds the module attribute, so the
# settle check always evaluates the untraced field.
_REFERENCE_FIELD = dynamics.normalized_field

# Reference-check tolerances.  Tests raise a check above its tolerance by
# overriding an entry; the program inputs below never read this table.
TOL = {
    "settle_residual": 1e-8,      # ||f(x)||_inf at a settled member
    "pitchfork_param": 1e-6,      # |u* - 1| of the single trunk singular point
    "branch_end": 1e-4,           # switched-branch ends against +-y_s(2.2) * 1
    "adaptive_terminal": 1e-3,    # terminal_abs_y_minus_yth from summary.json
    "value_rel_error": 0.05,      # value-sensitivity rel_error at every nu
}


@dataclass
class Op:
    """One timed call into netdecide plus the check behind it.

    ``check(result)`` returns ``(failure, fingerprint)``: ``failure`` is None
    when the output passes, and ``fingerprint`` is compared between untraced
    and traced passes.  ``out_dir`` is the directory the call writes, which
    the harness measures and removes after the check.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str | None, Any]]
    out_dir: Path | None = None


# ---------------------------------------------------------------------------
# settle_ensemble
# ---------------------------------------------------------------------------

SETTLE_U = (0.7, 1.3, 1.8)          # deadlock below the pitchfork at u = 1, decisions above
SETTLE_BETA_A = 1.0
SETTLE_BETA_B = (0.5, 1.0, 1.5)
SETTLE_MEMBERS_PER_POINT = 8
SETTLE_X0_AMPLITUDE = 2.0
SETTLE_CFG = solver.IntegratorConfig(rtol=1e-10, atol=1e-12)   # as in run_hysteresis
SETTLE_TOL = 1e-8
SETTLE_HORIZON = 200.0
SETTLE_DECISION = dynamics.DecisionConfig(eta=0.1)


def settle_ensemble(seed: int, tiny: bool, work_dir: Path) -> list[Op]:
    """Seeded random initial opinions on the 5/5/10 three-population graph.

    Why: almost all of the time is Dormand-Prince stepping plus field
    evaluation, with no events, no continuation and no file output.  ROADMAP
    item 2 (stage combination, ensemble axis, settle test on the FSAL stage)
    shows here; no other workload times the stepper on its own.  The (u,
    beta_B) grid sits on both sides of the pitchfork, so members end in
    deadlock as well as in decisions for A and B.  72 members per pass keep
    the seed-to-seed spread of the pass time small.
    """
    spec = graphs.PopulationSpec(5, 5, 10)
    g = graphs.three_population_graph(spec)
    rng = np.random.default_rng(seed)
    u_grid, beta_b_grid, members = SETTLE_U, SETTLE_BETA_B, SETTLE_MEMBERS_PER_POINT
    if tiny:
        u_grid, beta_b_grid, members = (0.7, 1.8), (1.0,), 2
    ops = []
    for u in u_grid:
        for beta_b in beta_b_grid:
            beta = dynamics.beta_vector(spec, SETTLE_BETA_A, beta_b)
            for k in range(members):
                x0 = SETTLE_X0_AMPLITUDE * rng.uniform(-1.0, 1.0, g.n)
                ops.append(_settle_op(f"settle u={u} beta_B={beta_b} #{k}", g, u, beta, x0))
    return ops


def _settle_op(label, g, u, beta, x0) -> Op:
    def field(t, x):
        return dynamics.normalized_field(x, g, u, beta)

    def run():
        x, settled, elapsed = solver.integrate_to_equilibrium(
            field, x0, SETTLE_CFG, tol=SETTLE_TOL, horizon=SETTLE_HORIZON)
        return x, settled, elapsed, dynamics.classify_decision(x, SETTLE_DECISION)

    def check(result):
        x, settled, elapsed, decision = result
        residual = float(np.abs(_REFERENCE_FIELD(x, g, u, beta)).max())
        failure = None
        if not settled:
            failure = f"not settled within horizon {SETTLE_HORIZON}"
        elif residual > TOL["settle_residual"]:
            failure = f"||f(x)||_inf = {residual:.3e} > {TOL['settle_residual']:.1e}"
        return failure, (x.tobytes(), settled, elapsed, decision.value)

    return Op(label, run, check)


# ---------------------------------------------------------------------------
# pitchfork_large
# ---------------------------------------------------------------------------

PITCHFORK_N = 200
PITCHFORK_U_RANGE = (0.5, 1.5)
PITCHFORK_BRANCH_END = 2.2


def pitchfork_large(seed: int, tiny: bool, work_dir: Path) -> list[Op]:
    """``run_pitchfork_diagram`` on the complete graph with n = 200.

    Why: the trunk over u in [0.5, 1.5], the pitchfork at u = 1 and both
    switched branches to u = 2.2 are dominated by the continuation layer's
    dense linear algebra (``eigvals`` only to tag stability, ``slogdet``,
    bordered solves), and the solver is never called.  ROADMAP item 5 shows
    here, and settle_ensemble predicts no change for it.  The scenario is
    fixed by the paper's diagram, so the seed does not enter.
    """
    n = 10 if tiny else PITCHFORK_N
    scenario = experiments.PitchforkScenario(
        graph={"kind": "complete", "n": n}, u_range=PITCHFORK_U_RANGE,
        u_branch_end=PITCHFORK_BRANCH_END)
    y_end = bifurcation.y_s(PITCHFORK_BRANCH_END)

    def run():
        return experiments.run_pitchfork_diagram(scenario)

    def check(result):
        fingerprint = (
            result.singular_params,
            [sp.kind for sp in result.trunk.singular_points],
            [len(br.points) for br in (result.trunk, result.upper, result.lower)
             if br is not None],
            [br.points[-1].x.tobytes() for br in (result.upper, result.lower)
             if br is not None],
        )
        return _pitchfork_failure(result, y_end), fingerprint

    return [Op(f"run_pitchfork_diagram n={n}", run, check)]


def _pitchfork_failure(result, y_end: float) -> str | None:
    params = result.singular_params
    if len(params) != 1:
        return f"expected one trunk singular point, found {len(params)}"
    if abs(params[0] - 1.0) > TOL["pitchfork_param"]:
        return f"|u* - 1| = {abs(params[0] - 1.0):.3e}"
    for name, branch, sign in (("upper", result.upper, 1.0), ("lower", result.lower, -1.0)):
        if branch is None:
            return f"no {name} branch"
        end = branch.points[-1]
        gap = max(abs(end.param - PITCHFORK_BRANCH_END),
                  float(np.abs(end.x - sign * y_end).max()))
        if gap > TOL["branch_end"]:
            return f"{name} branch end misses +-y_s(2.2) by {gap:.3e}"
    return None


# ---------------------------------------------------------------------------
# adaptive_cli
# ---------------------------------------------------------------------------

ADAPTIVE_CASES = ("symmetric", "case1", "case2")


def adaptive_cli(seed: int, tiny: bool, work_dir: Path) -> list[Op]:
    """``netdecide adaptive --case c`` in-process, for every case c.

    Why: it uses the solver layer differently from settle_ensemble: a long
    horizon (500/epsilon), an augmented state (x, ubar), bisection event
    location, a stop condition that calls the field, and the non-smooth
    estimator ``integrate_nonsmooth``.  It is also the only workload that
    writes files (about 1.6 MB of CSV/JSON per pass), so an ensemble-only
    speed-up that slows single trajectories, or slower output writing, shows
    here.  The seed is passed as ``--seed`` and draws the initial opinions.
    """
    ops = []
    for case in ("symmetric",) if tiny else ADAPTIVE_CASES:
        out = work_dir / f"adaptive_{case}"
        argv = ["adaptive", "--case", case, "--out", str(out), "--seed", str(seed)]
        ops.append(Op(f"netdecide {' '.join(argv[:3])}", _cli_runner(argv),
                      _adaptive_check(out), out_dir=out))
    return ops


def _cli_runner(argv):
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    return run


def _adaptive_check(out: Path):
    def check(code):
        if code != 0:
            return f"exit code {code}", None
        summary = json.loads((out / "summary.json").read_text())
        gap = summary["terminal_abs_y_minus_yth"]
        failure = None
        if not gap < TOL["adaptive_terminal"]:
            failure = f"terminal_abs_y_minus_yth = {gap:.3e}"
        return failure, _digest(out)
    return check


def _digest(directory: Path) -> str:
    """SHA-256 over the names and contents of every file under a directory."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# reduced_branches
# ---------------------------------------------------------------------------

QUINTIC_EXPECTED = {1.0: "supercritical", 3.0: "subcritical-with-two-folds"}


def reduced_branches(seed: int, tiny: bool, work_dir: Path) -> list[Op]:
    """``run_quintic_transition`` and ``run_value_sensitivity`` at their defaults.

    Why: continuation on 3x3 systems, where Python per-point overhead, fold
    refinement, singular-point classification, branch switching and the
    finite-difference ``jac_p`` of ``reduced3_problem``/``ata_problem``
    dominate, not LAPACK.  ROADMAP item 3 (the quotient model replaces these
    hand-written fields) shows here, and it is the must-not-slow side of item
    5, which pitchfork_large alone would hide.  The scenarios are the paper's
    defaults, so the seed does not enter.

    One operation runs both runners.  The value-sensitivity call costs about
    a tenth of the quintic one, and the median of two operations of such
    unequal cost falls on a low quantile of the slow one, which moved by a
    quarter between runs on a host whose speed drifts.
    """
    quintic = experiments.QuinticScenario()
    sensitivity = experiments.ValueSensitivityScenario()

    def run():
        return (experiments.run_quintic_transition(quintic),
                experiments.run_value_sensitivity(sensitivity))

    def check(result):
        diagrams, values = result
        found = {d.beta: d.classification for d in diagrams}
        worst = float(values.rel_error.max())
        failure = None
        if found != QUINTIC_EXPECTED:
            failure = f"quintic classifications {found}, expected {QUINTIC_EXPECTED}"
        elif not worst <= TOL["value_rel_error"]:
            failure = f"value sensitivity max rel_error = {worst:.3e}"
        fingerprint = ([(d.beta, d.classification, d.u_star, d.fold_params,
                         len(d.trunk.points)) for d in diagrams],
                       values.us_numeric.tobytes())
        return failure, fingerprint

    return [Op("run_quintic_transition + run_value_sensitivity", run, check)]


WORKLOADS = {
    "settle_ensemble": settle_ensemble,
    "pitchfork_large": pitchfork_large,
    "adaptive_cli": adaptive_cli,
    "reduced_branches": reduced_branches,
}

"""Scenario runners reproducing the figure- and theorem-level claims at desk
scale: pitchfork diagram, hysteresis loop, supercritical-to-subcritical
transition, model-reduction demo, value-sensitivity curves, uninformed-agent
influence, and the three adaptive-control cases.

Every runner is deterministic given its scenario (seeded RNG, no wall-clock
state) and can write a self-describing output directory: config.json with all
defaults materialized, one or more CSV data files, and summary.json.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bifurcation as bif
from .dynamics import (
    AdaptiveConfig,
    Decision,
    DecisionConfig,
    beta_vector,
    classify_decision,
    group_opinion,
    normalized_field,
    reduced3_field,
)
from .graphs import Graph, PopulationSpec, complete_graph, directed_ring, three_population_graph
from .solver import (
    FMT,
    IntegratorConfig,
    SolverError,
    Trajectory,
    _integrate,
    integrate,
    integrate_nonsmooth,
    integrate_to_equilibrium,
)


# ---------------------------------------------------------------------------
# Graph configuration language (shared with the CLI)
# ---------------------------------------------------------------------------

def graph_from_config(cfg: dict) -> Graph:
    """Build a graph from a {"kind": ...} document."""
    kind = cfg.get("kind")
    if kind == "complete":
        return complete_graph(int(cfg["n"]), float(cfg.get("weight", 1.0)))
    if kind == "directed_ring":
        return directed_ring(int(cfg["n"]), float(cfg.get("weight", 1.0)))
    if kind == "population":
        return three_population_graph(population_spec_from_config(cfg))
    if kind == "weights":
        w = np.array(cfg["weights"], dtype=float)
        n = int(cfg.get("n", 0)) or int(round(len(np.ravel(w)) ** 0.5))
        return Graph(np.reshape(w, (n, n)))
    raise ValueError(f"unknown graph kind {kind!r}; expected complete, "
                     "directed_ring, population, or weights")


def population_spec_from_config(cfg: dict) -> PopulationSpec:
    coupling = np.array(cfg.get("coupling", np.ones((3, 3))), dtype=float)
    return PopulationSpec(int(cfg["n1"]), int(cfg["n2"]), int(cfg["n3"]),
                          coupling=coupling.reshape(3, 3))


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _as_jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _as_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_jsonable(v) for v in obj]
    if isinstance(obj, Decision):
        return obj.value
    return obj


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(_as_jsonable(doc), sort_keys=True, indent=2) + "\n")


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([FMT % v for v in row])


def config_hash(doc: dict) -> str:
    blob = json.dumps(_as_jsonable(doc), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _scenario_dict(scenario) -> dict:
    return _as_jsonable(dataclasses.asdict(scenario))


def _prepare_out(out_dir, scenario) -> Path | None:
    if out_dir is None:
        return None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "config.json", _scenario_dict(scenario))
    return out


def _branch_csv(path: Path, branch: bif.Branch, state_names: list[str]) -> None:
    pts = branch.points
    cols = [np.array([p.param for p in pts])]
    header = ["param"] + state_names + ["n_unstable", "det_J"]
    states = np.array([p.x for p in pts])
    cols += [states[:, i] for i in range(states.shape[1])]
    cols.append(np.array([float(p.n_unstable) for p in pts]))
    cols.append(np.array([p.det_sign * np.exp(min(p.log_abs_det, 700.0)) for p in pts]))
    write_csv(path, header, cols)


def _singular_points_doc(branches: dict[str, bif.Branch]) -> list[dict]:
    docs = []
    for name, br in branches.items():
        for sp in br.singular_points:
            docs.append({
                "branch": name,
                "kind": sp.kind,
                "param": sp.param,
                "state": sp.x,
                "nullvec": sp.null_right,
            })
    return docs


# ---------------------------------------------------------------------------
# Pitchfork diagram
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PitchforkScenario:
    graph: dict = field(default_factory=lambda: {"kind": "complete", "n": 10})
    u_range: tuple[float, float] = (0.5, 1.5)
    u_branch_end: float = 2.2
    h_max: float = 0.1

    def __post_init__(self):
        if self.u_range[0] < 0 or self.u_range[1] <= self.u_range[0]:
            raise ValueError("u_range must be an increasing pair of nonnegative efforts")
        if self.h_max <= 0:
            raise ValueError("h_max must be positive")


@dataclass
class PitchforkResult:
    trunk: bif.Branch
    upper: bif.Branch | None
    lower: bif.Branch | None
    singular_params: list[float]


def run_pitchfork_diagram(scenario: PitchforkScenario = PitchforkScenario(),
                          out_dir=None) -> PitchforkResult:
    """Trace the undecided trunk, locate its singularity, switch branches."""
    g = graph_from_config(scenario.graph)
    problem = bif.normalized_problem(g)
    cfg = bif.ContinuationConfig(h_max=scenario.h_max)
    trunk = bif.continue_branch(problem, np.zeros(g.n), scenario.u_range[0],
                                scenario.u_range, cfg=cfg, symmetric_trunk=True)
    pitchforks = [sp for sp in trunk.singular_points if sp.kind == "pitchfork"]
    upper = lower = None
    if pitchforks:
        sp = pitchforks[0]
        for direction in (+1, -1):
            seed = bif.branch_switch(problem, sp, direction)
            ref = np.concatenate([seed.x - sp.x, [seed.param - sp.param]])
            br = bif.continue_branch(problem, seed.x, seed.param,
                                     (sp.param, scenario.u_branch_end),
                                     cfg=cfg, initial_reference=ref)
            # orient by the sign of the consensus component
            if br.points[-1].x.mean() >= 0:
                upper = br
            else:
                lower = br
    result = PitchforkResult(trunk=trunk, upper=upper, lower=lower,
                             singular_params=[sp.param for sp in trunk.singular_points])
    out = _prepare_out(out_dir, scenario)
    if out is not None:
        names = [f"x_{i + 1}" for i in range(g.n)]
        branches = {"trunk": trunk}
        _branch_csv(out / "branch_trunk.csv", trunk, names)
        if upper is not None:
            _branch_csv(out / "branch_upper.csv", upper, names)
            branches["upper"] = upper
        if lower is not None:
            _branch_csv(out / "branch_lower.csv", lower, names)
            branches["lower"] = lower
        write_json(out / "singular_points.json", {"singular_points": _singular_points_doc(branches)})
        write_json(out / "summary.json", {
            "config_sha256": config_hash(_scenario_dict(scenario)),
            "singular_params": result.singular_params,
            "singular_kinds": [sp.kind for sp in trunk.singular_points],
            "n_trunk_points": len(trunk.points),
        })
    return result


# ---------------------------------------------------------------------------
# Hysteresis loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HysteresisScenario:
    n1: int = 5
    n2: int = 5
    n3: int = 10
    u: float = 1.2
    beta_a: float = 5.0
    beta_b_min: float = 0.0
    beta_b_max: float = 12.0
    beta_b_step: float = 0.1
    settle_tol: float = 1e-8
    horizon: float = 200.0

    def __post_init__(self):
        if self.u < 0:
            raise ValueError("social effort u must be nonnegative")
        if self.beta_b_step <= 0 or self.beta_b_max <= self.beta_b_min:
            raise ValueError("information sweep grid must be increasing")
        if self.settle_tol <= 0 or self.horizon <= 0:
            raise ValueError("settle tolerance and horizon must be positive")


@dataclass
class HysteresisResult:
    beta_b_grid: np.ndarray
    y_up: np.ndarray
    y_down: np.ndarray
    switch_up: float | None
    switch_down: float | None
    loop_width: float | None


def run_hysteresis(scenario: HysteresisScenario = HysteresisScenario(),
                   out_dir=None) -> HysteresisResult:
    """Quasi-static sweep of the opposing information strength, both ways.

    At each grid point the network settles from the previous settled state
    (settle-then-step), making the loop rate-independent by construction.
    """
    spec = PopulationSpec(scenario.n1, scenario.n2, scenario.n3)
    g = three_population_graph(spec)
    grid = np.arange(scenario.beta_b_min,
                     scenario.beta_b_max + 0.5 * scenario.beta_b_step,
                     scenario.beta_b_step)
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)

    def settle(x0, beta_b):
        beta = beta_vector(spec, scenario.beta_a, beta_b)
        f = lambda t, x: normalized_field(x, g, scenario.u, beta)
        x, ok, _ = integrate_to_equilibrium(f, x0, cfg, tol=scenario.settle_tol,
                                            horizon=scenario.horizon)
        if not ok:
            raise SolverError(f"quasi-static settle failed at beta_B = {beta_b}")
        return x

    x = np.zeros(g.n)
    y_up = []
    for bb in grid:
        x = settle(x, bb)
        y_up.append(group_opinion(x))
    y_down = []
    for bb in grid[::-1]:
        x = settle(x, bb)
        y_down.append(group_opinion(x))
    y_up = np.array(y_up)
    y_down = np.array(y_down[::-1])

    switch_up = switch_down = None
    if (y_up < 0).any():
        switch_up = float(grid[int(np.argmax(y_up < 0))])
    if (y_down > 0).any():
        switch_down = float(grid[::-1][int(np.argmax(y_down[::-1] > 0))])
    width = None
    if switch_up is not None and switch_down is not None:
        width = switch_up - switch_down

    result = HysteresisResult(grid, y_up, y_down, switch_up, switch_down, width)
    out = _prepare_out(out_dir, scenario)
    if out is not None:
        write_csv(out / "loop.csv", ["beta_b", "y_up", "y_down"], [grid, y_up, y_down])
        write_json(out / "summary.json", {
            "config_sha256": config_hash(_scenario_dict(scenario)),
            "switch_up": switch_up,
            "switch_down": switch_down,
            "loop_width": width,
        })
    return result


# ---------------------------------------------------------------------------
# Supercritical -> subcritical transition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuinticScenario:
    """Swap-symmetric informed network whose pitchfork changes criticality.

    The default weakly couples the two informed groups (a12 < 1) so that the
    transition falls between beta = 1 and beta = 3; strongly coupled
    populations stay supercritical far beyond that.
    """

    n1: int = 2
    n2: int = 2
    n3: int = 2
    a12: float = 0.25
    a13: float = 1.0
    beta_grid: tuple[float, ...] = (1.0, 3.0)
    u_range: tuple[float, float] = (0.4, 3.0)
    h_max: float = 0.02

    def population_spec(self) -> PopulationSpec:
        c = np.array([[1.0, self.a12, self.a13],
                      [self.a12, 1.0, self.a13],
                      [self.a13, self.a13, 1.0]])
        return PopulationSpec(self.n1, self.n2, self.n3, coupling=c)


@dataclass
class QuinticDiagram:
    beta: float
    classification: str          # "supercritical" | "subcritical-with-two-folds" | "ambiguous"
    u_star: float | None
    fold_params: list[float]
    trunk: bif.Branch
    outer: list[bif.Branch]


def _deadlock_start(spec: PopulationSpec, u0: float, beta: float) -> np.ndarray:
    d1 = spec.degrees[0]
    guess = np.array([beta / (d1 + u0), -beta / (d1 + u0), 0.0])
    return bif.newton_solve(lambda y: reduced3_field(y, spec, u0, beta, beta),
                            lambda y: bif.reduced3_jacobian(y, spec, u0),
                            guess)


def run_quintic_transition(scenario: QuinticScenario = QuinticScenario(),
                           out_dir=None) -> list[QuinticDiagram]:
    """Classify the bifurcation diagram of the symmetric trunk per beta."""
    spec = scenario.population_spec()
    diagrams = []
    for beta in scenario.beta_grid:
        problem = bif.reduced3_problem(spec, beta, beta)
        u0 = scenario.u_range[0]
        cfg = bif.ContinuationConfig(h_max=scenario.h_max)
        trunk = bif.continue_branch(problem, _deadlock_start(spec, u0, beta), u0,
                                    scenario.u_range, cfg=cfg, symmetric_trunk=True)
        pitchforks = [sp for sp in trunk.singular_points if sp.kind == "pitchfork"]
        outer = []
        folds = []
        classification = "ambiguous"
        u_star = None
        if pitchforks:
            sp = pitchforks[0]
            u_star = sp.param
            ok = True
            for direction in (+1, -1):
                try:
                    seed = bif.branch_switch(problem, sp, direction)
                except bif.BifurcationError:
                    ok = False
                    break
                ref = np.concatenate([seed.x - sp.x, [seed.param - sp.param]])
                br = bif.continue_branch(problem, seed.x, seed.param,
                                         (scenario.u_range[0] / 2, scenario.u_range[1]),
                                         cfg=cfg, initial_reference=ref)
                outer.append(br)
                folds += [s.param for s in br.singular_points if s.kind == "fold"]
            if ok:
                n_folds = len(folds)
                if n_folds == 0:
                    classification = "supercritical"
                elif n_folds == 2:
                    classification = "subcritical-with-two-folds"
        diagrams.append(QuinticDiagram(beta=beta, classification=classification,
                                       u_star=u_star, fold_params=sorted(folds),
                                       trunk=trunk, outer=outer))

    out = _prepare_out(out_dir, scenario)
    if out is not None:
        names = ["y1", "y2", "y3"]
        for diag in diagrams:
            tag = ("%g" % diag.beta).replace(".", "p")
            _branch_csv(out / f"trunk_beta_{tag}.csv", diag.trunk, names)
            for i, br in enumerate(diag.outer):
                _branch_csv(out / f"outer{i}_beta_{tag}.csv", br, names)
        write_json(out / "summary.json", {
            "config_sha256": config_hash(_scenario_dict(scenario)),
            "classifications": {("%g" % d.beta): d.classification for d in diagrams},
            "u_star": {("%g" % d.beta): d.u_star for d in diagrams},
            "folds": {("%g" % d.beta): d.fold_params for d in diagrams},
        })
    return diagrams


# ---------------------------------------------------------------------------
# Model-reduction demo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionScenario:
    n1: int = 4
    n2: int = 4
    n3: int = 4
    u: float = 2.0
    beta_a: float = 1.0
    beta_b: float = 1.0
    x0_amplitude: float = 1.0
    seed: int = 0
    t_end: float = 20.0
    bound_horizon: float = 4.0

    def __post_init__(self):
        if self.u < 0 or self.t_end <= 0 or self.bound_horizon <= 0:
            raise ValueError("effort and horizons must be nonnegative/positive")


@dataclass
class ReductionResult:
    trajectory: Trajectory
    reduced_trajectory: Trajectory
    sample_times: np.ndarray
    spread_values: np.ndarray
    spread_bounds: np.ndarray
    bound_satisfied: bool
    group_means_full: np.ndarray
    group_means_reduced: np.ndarray
    max_group_diff: float


def group_spread(x: np.ndarray, groups) -> float:
    """Sum over groups of half the squared pairwise opinion differences."""
    total = 0.0
    for grp in groups:
        xg = x[grp]
        total += 0.5 * float(((xg[:, None] - xg[None, :]) ** 2).sum())
    return total


def run_reduction_demo(scenario: ReductionScenario = ReductionScenario(),
                       out_dir=None) -> ReductionResult:
    """Full network vs three-group reduction: exponential collapse and match."""
    spec = PopulationSpec(scenario.n1, scenario.n2, scenario.n3)
    g = three_population_graph(spec)
    rng = np.random.default_rng(scenario.seed)
    x0 = scenario.x0_amplitude * rng.uniform(-1, 1, g.n)
    beta = beta_vector(spec, scenario.beta_a, scenario.beta_b)
    cfg = IntegratorConfig(rtol=1e-11, atol=1e-13, max_time=scenario.t_end)
    traj = integrate(lambda t, x: normalized_field(x, g, scenario.u, beta), x0, cfg)

    d_min = spec.degrees.min()
    v0 = group_spread(x0, g.groups)
    mask = traj.times <= scenario.bound_horizon
    sample_times = traj.times[mask]
    spread_values = np.array([group_spread(x, g.groups) for x in traj.states[mask]])
    spread_bounds = v0 * np.exp(-d_min * sample_times) * (1 + 1e-6)
    bound_ok = bool(np.all(spread_values <= spread_bounds))

    y0 = np.array([x0[grp].mean() for grp in g.groups])
    reduced = integrate(
        lambda t, y: reduced3_field(y, spec, scenario.u, scenario.beta_a, scenario.beta_b),
        y0, cfg)
    gm_full = np.array([traj.final_state[grp].mean() for grp in g.groups])
    gm_red = reduced.final_state
    result = ReductionResult(
        trajectory=traj, reduced_trajectory=reduced, sample_times=sample_times,
        spread_values=spread_values, spread_bounds=spread_bounds,
        bound_satisfied=bound_ok, group_means_full=gm_full,
        group_means_reduced=gm_red,
        max_group_diff=float(np.abs(gm_full - gm_red).max()),
    )
    out = _prepare_out(out_dir, scenario)
    if out is not None:
        traj.to_csv(out / "trajectory.csv")
        reduced.to_csv(out / "reduced_trajectory.csv")
        write_csv(out / "spread.csv", ["t", "V", "bound"],
                  [sample_times, spread_values, spread_bounds])
        write_json(out / "summary.json", {
            "config_sha256": config_hash(_scenario_dict(scenario)),
            "bound_satisfied": bound_ok,
            "group_means_full": gm_full,
            "group_means_reduced": gm_red,
            "max_group_diff": result.max_group_diff,
        })
    return result


# ---------------------------------------------------------------------------
# Value sensitivity and uninformed influence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValueSensitivityScenario:
    n1: int = 10
    n2: int = 10
    n3: int = 80
    nu_grid: tuple[float, ...] = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    u_scan: tuple[float, float] = (0.9, 1.1)
    h_max: float = 0.02

    def __post_init__(self):
        if any(nu <= 0 for nu in self.nu_grid):
            raise ValueError("alternative values nu must be positive")


def _u_star_continuation(args) -> float:
    """Singular effort of the deadlock branch located by continuation."""
    n, n3, beta, u_scan, h_max = args
    big_n = 2 * n + n3
    problem = bif.ata_problem(n, n3, beta)
    ys = bif.ystar_root(u_scan[0], beta, big_n)
    start = np.array([ys, -ys, 0.0])
    cfg = bif.ContinuationConfig(h_max=h_max)
    branch = bif.continue_branch(problem, start, u_scan[0], u_scan, cfg=cfg,
                                 symmetric_trunk=True)
    pitchforks = [sp for sp in branch.singular_points if sp.kind == "pitchfork"]
    if not pitchforks:
        raise bif.BifurcationError(
            f"no singular point on the deadlock branch in u range {u_scan}")
    return float(pitchforks[0].param)


@dataclass
class ValueSensitivityResult:
    nu_grid: np.ndarray
    us_hat: np.ndarray
    us_numeric: np.ndarray
    rel_error: np.ndarray


def run_value_sensitivity(scenario: ValueSensitivityScenario = ValueSensitivityScenario(),
                          out_dir=None, jobs: int = 1) -> ValueSensitivityResult:
    """Series vs continuation estimate of the raw-effort bifurcation point.

    Equal-value alternatives: the inertia is 1/nu, the normalized information
    strength is beta = nu^2, and the raw effort is u_S = u / nu.
    """
    if scenario.n1 != scenario.n2:
        raise ValueError("value-sensitivity scenario requires n1 = n2")
    n, n3 = scenario.n1, scenario.n3
    big_n = 2 * n + n3
    nu_grid = np.array(scenario.nu_grid, dtype=float)
    us_hat = np.array([bif.us_star_hat(nu, big_n, n3) for nu in nu_grid])
    tasks = [(n, n3, nu ** 2, scenario.u_scan, scenario.h_max) for nu in nu_grid]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            u_stars = list(pool.map(_u_star_continuation, tasks))
    else:
        u_stars = [_u_star_continuation(t) for t in tasks]
    us_numeric = np.array(u_stars) / nu_grid
    rel_error = np.abs(us_hat - us_numeric) / us_numeric
    result = ValueSensitivityResult(nu_grid, us_hat, us_numeric, rel_error)
    out = _prepare_out(out_dir, scenario)
    if out is not None:
        write_csv(out / "curves.csv", ["nu", "us_star_hat", "us_star_numeric", "rel_error"],
                  [nu_grid, us_hat, us_numeric, rel_error])
        write_json(out / "summary.json", {
            "config_sha256": config_hash(_scenario_dict(scenario)),
            "max_rel_error": float(rel_error.max()),
            "hat_decreasing": bool(np.all(np.diff(us_hat) < 0)),
            "numeric_decreasing": bool(np.all(np.diff(us_numeric) < 0)),
        })
    return result


@dataclass(frozen=True)
class UninformedInfluenceScenario:
    n_total: int = 7
    n3_values: tuple[int, ...] = (1, 3, 5)
    nu_grid: tuple[float, ...] = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)


@dataclass
class UninformedInfluenceResult:
    nu_grid: np.ndarray
    curves: dict[int, np.ndarray]
    ordered: bool


def run_uninformed_influence(scenario: UninformedInfluenceScenario = UninformedInfluenceScenario(),
                             out_dir=None) -> UninformedInfluenceResult:
    """Bifurcation-point approximation curves for several uninformed counts."""
    nu_grid = np.array(scenario.nu_grid, dtype=float)
    curves = {}
    for n3 in scenario.n3_values:
        if (scenario.n_total - n3) % 2 != 0 or scenario.n_total - n3 < 2:
            raise ValueError(f"n1 = n2 = (N - n3)/2 must be a positive integer; "
                             f"got N = {scenario.n_total}, n3 = {n3}")
        curves[n3] = np.array([bif.us_star_hat(nu, scenario.n_total, n3) for nu in nu_grid])
    ordered = True
    n3s = sorted(scenario.n3_values)
    for small, large in zip(n3s[:-1], n3s[1:]):
        if not np.all(curves[large] < curves[small]):
            ordered = False
    result = UninformedInfluenceResult(nu_grid, curves, ordered)
    out = _prepare_out(out_dir, scenario)
    if out is not None:
        header = ["nu"] + [f"us_hat_n3_{n3}" for n3 in scenario.n3_values]
        cols = [nu_grid] + [curves[n3] for n3 in scenario.n3_values]
        write_csv(out / "curves.csv", header, cols)
        write_json(out / "summary.json", {
            "config_sha256": config_hash(_scenario_dict(scenario)),
            "ordered_larger_n3_lower": ordered,
        })
    return result


# ---------------------------------------------------------------------------
# Adaptive bifurcation control
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdaptiveScenario:
    """Two-phase adaptive run: consensus estimation, then slow effort feedback.

    Cases: "symmetric" (no information; passage through the pitchfork with a
    bifurcation delay), "case1" (net preference; smooth slide from deadlock to
    decision), "case2" (near-balanced strong information in the subcritical
    regime; the deadlock branch folds and the trajectory jumps).
    """

    case: str = "symmetric"
    graph: dict = field(default_factory=lambda: {"kind": "complete", "n": 10})
    beta_a: float = 0.0
    beta_b: float = 0.0
    ubar0: float = 0.9
    epsilon: float = 0.01
    y_th: float = 0.5
    utilde_amplitude: float = 0.0
    x0_amplitude: float = 1e-3
    seed: int = 0
    alpha: float = 1.0
    estimator_tol: float = 1e-9
    escape_band: float = 0.05
    jump_band: float | None = None
    horizon_factor: float = 500.0
    stop_tol: float = 1e-7

    def __post_init__(self):
        if self.epsilon <= 0 or self.y_th <= 0:
            raise ValueError("epsilon and y_th must be positive")
        if self.ubar0 <= 0:
            raise ValueError("initial mean effort must be positive")
        if self.alpha <= 0 or self.estimator_tol <= 0:
            raise ValueError("estimator gain and tolerance must be positive")
        if self.escape_band <= 0 or self.stop_tol <= 0:
            raise ValueError("bands and tolerances must be positive")


def adaptive_scenario(case: str, **overrides) -> AdaptiveScenario:
    """Scenario defaults per qualitative case of the adaptive dynamics."""
    if case == "symmetric":
        base = {}
    elif case == "case1":
        base = dict(graph={"kind": "population", "n1": 2, "n2": 2, "n3": 6},
                    beta_a=0.3, beta_b=0.2, ubar0=0.5)
    elif case == "case2":
        base = dict(graph={"kind": "population", "n1": 2, "n2": 2, "n3": 2,
                           "coupling": [[1.0, 0.25, 1.0], [0.25, 1.0, 1.0], [1.0, 1.0, 1.0]]},
                    beta_a=3.05, beta_b=3.0, ubar0=1.2, y_th=1.0, jump_band=0.45)
    else:
        raise ValueError(f"unknown adaptive case {case!r}; "
                         "expected symmetric, case1, or case2")
    base.update(overrides)
    return AdaptiveScenario(case=case, **base)


@dataclass
class AdaptiveResult:
    trajectory: Trajectory
    diagnostics: dict


def _utilde_pattern(n: int, amplitude: float) -> float | np.ndarray:
    # Homogeneous efforts stay scalar, so the field takes its scalar-u path.
    if amplitude == 0.0:
        return 0.0
    pattern = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
    if n % 2 == 1:
        pattern[-1] = 0.0
    return amplitude * pattern


def run_adaptive(scenario: AdaptiveScenario, out_dir=None) -> AdaptiveResult:
    """Phase 1: estimator on frozen opinions.  Phase 2: slow effort feedback.

    After the finite-time estimator has converged it tracks the running
    average exactly (sliding mode), so phase 2 uses the true average opinion;
    if phase 1 ends at its time cap without reaching tolerance, the run
    proceeds with the stale-w live-x estimate and warns.
    """
    g = graph_from_config(scenario.graph)
    n = g.n
    if scenario.graph.get("kind") == "population":
        spec = population_spec_from_config(scenario.graph)
        beta = beta_vector(spec, scenario.beta_a, scenario.beta_b)
    elif scenario.beta_a == 0.0 and scenario.beta_b == 0.0:
        beta = None
    else:
        raise ValueError("informed cases need a population graph")
    utilde = _utilde_pattern(n, scenario.utilde_amplitude)
    acfg = AdaptiveConfig(epsilon=scenario.epsilon, y_th=scenario.y_th)
    rng = np.random.default_rng(scenario.seed)
    x0 = scenario.x0_amplitude * rng.uniform(-1, 1, n)

    # phase 1: opinions and efforts frozen while the estimator converges
    est_run = integrate_nonsmooth(np.zeros(n), x0, g, scenario.alpha,
                                  tol=scenario.estimator_tol, raise_on_cap=False)
    estimator_converged = est_run.error <= scenario.estimator_tol
    if not estimator_converged:
        warnings.warn(
            f"estimator stopped at its time cap with error {est_run.error:.2e}; "
            "continuing with the live estimate", stacklevel=2)
    w = est_run.w
    lap = g.laplacian

    def y_estimate(x):
        if estimator_converged:
            return float(x.mean())
        return float((lap @ w + x)[0])

    # phase 2: fast opinions coupled to the slow mean-effort update
    def rhs(t, z):
        x, ub = z[:n], z[n]
        dx = normalized_field(x, g, ub + utilde, beta)
        yh = y_estimate(x)
        return np.concatenate([dx, [acfg.epsilon * (acfg.y_th ** 2 - yh ** 2)]])

    def stop(t, z):
        x = z[:n]
        yh = y_estimate(x)
        if abs(yh ** 2 - acfg.y_th ** 2) >= scenario.stop_tol:
            return False
        return bool(np.abs(normalized_field(x, g, z[n] + utilde, beta)).max()
                    < scenario.stop_tol)

    events = [lambda t, z: abs(z[:n].mean()) - scenario.escape_band,
              lambda t, z: abs(z[:n].mean()) - acfg.y_th]
    band = scenario.jump_band
    if band is not None:
        events.append(lambda t, z: abs(z[:n].mean()) - band)

    z0 = np.concatenate([x0, [scenario.ubar0]])
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-13,
                           max_time=scenario.horizon_factor / scenario.epsilon)
    traj, hits = _integrate(rhs, z0, cfg, events=events, stop_condition=stop)

    states = traj.states[:, :n]
    ubars = traj.states[:, n]
    ys = states.mean(axis=1)
    channels = {"ubar": ubars, "y": ys}
    trajectory = Trajectory(traj.times, states, channels)

    escape_hits = [h for h in hits if h.index == 0]
    th_hits = [h for h in hits if h.index == 1]
    jump_hits = [h for h in hits if h.index == 2]
    ubar_c = float(escape_hits[0].state[n]) if escape_hits else None

    ubar_star_value = None
    if beta is None:
        ubar_star_value = bif.ubar_star(g, utilde).ubar
    diagnostics = {
        "case": scenario.case,
        "ubar0": scenario.ubar0,
        "ubar_star": ubar_star_value,
        "ubar_c": ubar_c,
        "expected_ubar_c": (None if ubar_star_value is None
                            else 2 * ubar_star_value - scenario.ubar0),
        "threshold_hit_time": float(th_hits[0].time) if th_hits else None,
        "jump_time": float(jump_hits[0].time) if jump_hits else None,
        "ubar_at_jump": float(jump_hits[0].state[n]) if jump_hits else None,
        "terminal_y": float(ys[-1]),
        "terminal_ubar": float(ubars[-1]),
        "terminal_abs_y_minus_yth": float(abs(abs(ys[-1]) - acfg.y_th)),
        "terminal_dubar": float(acfg.epsilon * (acfg.y_th ** 2 - ys[-1] ** 2)),
        "settled": bool(stop(traj.times[-1], traj.states[-1])),
        "estimator_converged": estimator_converged,
        "estimator_time": est_run.s_elapsed,
        "estimator_error": est_run.error,
        "estimator_steps": est_run.n_steps,
    }
    if not diagnostics["settled"] and not th_hits:
        raise SolverError("adaptive run reached its horizon without the group "
                          "opinion approaching the decision threshold")
    result = AdaptiveResult(trajectory=trajectory, diagnostics=diagnostics)
    out = _prepare_out(out_dir, scenario)
    if out is not None:
        trajectory.to_csv(out / "trajectory.csv")
        write_json(out / "summary.json", {
            "config_sha256": config_hash(_scenario_dict(scenario)),
            **diagnostics,
        })
    return result


# ---------------------------------------------------------------------------
# Generic simulate runner (CLI surface)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulateScenario:
    graph: dict = field(default_factory=lambda: {"kind": "complete", "n": 10})
    u: float = 0.5
    beta_a: float = 0.0
    beta_b: float = 0.0
    utilde_amplitude: float = 0.0
    x0_amplitude: float = 1e-3
    seed: int = 0
    t_end: float = 50.0
    rtol: float = 1e-8
    atol: float = 1e-10
    eta: float = 0.1
    delta_tol: float = 1e-6

    def __post_init__(self):
        if self.u < 0:
            raise ValueError("social effort u must be nonnegative")
        if self.t_end <= 0 or self.rtol <= 0 or self.atol <= 0:
            raise ValueError("horizon and tolerances must be positive")
        if self.eta <= 0 or self.delta_tol < 0:
            raise ValueError("decision thresholds must be positive")


@dataclass
class SimulateResult:
    trajectory: Trajectory
    terminal_norm: float
    terminal_field_norm: float
    decision: Decision


def run_simulate(scenario: SimulateScenario, out_dir=None) -> SimulateResult:
    """Integrate the model with efforts u + utilde and classify the terminal state."""
    g = graph_from_config(scenario.graph)
    if scenario.graph.get("kind") == "population":
        spec = population_spec_from_config(scenario.graph)
        beta = beta_vector(spec, scenario.beta_a, scenario.beta_b)
    elif scenario.beta_a == 0.0 and scenario.beta_b == 0.0:
        beta = None
    else:
        raise ValueError("beta_a/beta_b require a population graph")
    efforts = scenario.u + _utilde_pattern(g.n, scenario.utilde_amplitude)
    f = lambda t, x: normalized_field(x, g, efforts, beta)
    rng = np.random.default_rng(scenario.seed)
    x0 = scenario.x0_amplitude * rng.uniform(-1, 1, g.n)
    cfg = IntegratorConfig(rtol=scenario.rtol, atol=scenario.atol,
                           max_time=scenario.t_end)
    traj = integrate(f, x0, cfg)
    x_end = traj.final_state
    decision = classify_decision(x_end, DecisionConfig(eta=scenario.eta,
                                                       delta_tol=scenario.delta_tol))
    result = SimulateResult(
        trajectory=traj,
        terminal_norm=float(np.abs(x_end).max()),
        terminal_field_norm=float(np.abs(f(traj.final_time, x_end)).max()),
        decision=decision,
    )
    out = _prepare_out(out_dir, scenario)
    if out is not None:
        traj.to_csv(out / "trajectory.csv")
        write_json(out / "summary.json", {
            "config_sha256": config_hash(_scenario_dict(scenario)),
            "terminal_norm": result.terminal_norm,
            "terminal_field_norm": result.terminal_field_norm,
            "decision": decision.value,
            "group_opinion": group_opinion(x_end),
        })
    return result

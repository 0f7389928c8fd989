"""Scenario runners reproducing the figure- and theorem-level claims at desk
scale: pitchfork diagram, hysteresis loop, supercritical-to-subcritical
transition, model-reduction demo, value-sensitivity curves, uninformed-agent
influence, and the three adaptive-control cases.

Every runner is deterministic given its scenario (seeded RNG, no wall-clock
state).  Given an out_dir it writes, through ``_write_outputs`` alone:
config.json, the scenario with every default materialized; its CSV tables;
and summary.json, whose ``config_sha256`` is the SHA-256 of the compact,
sorted-key JSON of that same config dict (not of the bytes of config.json,
which is indented).  The other files each runner writes:

- run_pitchfork_diagram: branch_trunk.csv, and branch_upper.csv and
  branch_lower.csv for the branches found; singular_points.json, whose
  entries carry "multiplicity" only when it exceeds 1;
- run_hysteresis: loop.csv;
- run_quintic_transition: trunk_beta_<b>.csv for each b in beta_grid, and
  outer0_beta_<b>.csv and outer1_beta_<b>.csv when that trunk has a pitchfork;
- run_reduction_demo: trajectory.csv, reduced_trajectory.csv, spread.csv;
- run_value_sensitivity, run_uninformed_influence: curves.csv;
- run_adaptive, run_simulate: trajectory.csv.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bifurcation as bif
from . import dynamics
from .dynamics import (
    NEGATIVE_EFFORT,
    NEGATIVE_EFFORTS,
    Decision,
    DecisionConfig,
    beta_vector,
    classify_decision,
    group_opinion,
    normalized_field,
)
from .graphs import (
    Graph,
    PopulationSpec,
    agent_count,
    complete_graph,
    directed_ring,
    is_strongly_connected,
    lambda2,
    three_population_graph,
)
from .solver import (
    DISCONNECTED_GRAPH,
    LAMBDA2_MIN,
    IntegratorConfig,
    SolverError,
    Trajectory,
    _integrate,
    integrate,
    integrate_nonsmooth,
    integrate_to_equilibrium,
    write_csv,
)


# ---------------------------------------------------------------------------
# Graph configuration language (shared with the CLI)
# ---------------------------------------------------------------------------

# Most agents a config may ask for: a dense 128 MiB weight matrix, and dense
# linear algebra cubic in n.  With one BLAS thread on an idle core of a 2-vCPU
# x86 host, the pitchfork diagram of complete-4096 loads in 9.5 s and runs in
# 37 s (peak RSS 0.82 GB), that of path-4096, a weights document, in 12 s and
# 35 s (1.47 GB); writing the outputs adds 3 s and 36 s (+0.94 GB) respectively.
MAX_AGENTS = 4096


def _graph_size(n: int) -> int:
    """n, or a ValueError, raised before anything is allocated, above MAX_AGENTS."""
    if n > MAX_AGENTS:
        raise ValueError(f"a graph of {n} agents needs a {8 * n * n / 2 ** 30:.3g} GiB "
                         f"weight matrix; at most {MAX_AGENTS} agents are allowed")
    return n


# The keys of a graph document, by kind.
GRAPH_KEYS = {
    "complete": ("kind", "n", "weight"),
    "directed_ring": ("kind", "n", "weight"),
    "population": ("kind", "n1", "n2", "n3", "coupling"),
    "weights": ("kind", "weights"),
}


def _is_number(value) -> bool:
    # float() would also read true and "2" as numbers
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _numbers(value, key: str) -> np.ndarray:
    """Nested lists of JSON numbers as a float array; a bool, a string or
    null anywhere in them is rejected."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            # a list of plain ints and floats, a row of a parsed matrix, at C speed
            if not set(map(type, v)) <= {int, float}:
                stack.extend(v)
        elif not _is_number(v):
            raise ValueError(f"{key!r} must hold numbers only, got {v!r}")
    return np.array(value, dtype=float)


def graph_from_config(cfg: dict) -> Graph:
    """Build a graph from a {"kind": ...} document, strictly: a key outside
    its kind's ``GRAPH_KEYS`` is rejected; a missing size reads as None."""
    if not isinstance(cfg, dict):
        raise ValueError(f"a graph must be a JSON object, got {cfg!r}")
    kind = cfg.get("kind")
    if not (isinstance(kind, str) and kind in GRAPH_KEYS):
        raise ValueError(f"unknown graph kind {kind!r}; expected complete, "
                         "directed_ring, population, or weights")
    unknown = sorted(map(str, set(cfg) - set(GRAPH_KEYS[kind])))
    if unknown:
        raise ValueError(f"unknown keys {unknown} in a {kind} graph; "
                         f"valid keys: {sorted(GRAPH_KEYS[kind])}")
    if kind == "population":
        spec = population_spec_from_config(cfg)
        _graph_size(spec.n_total)
        return three_population_graph(spec)
    if kind == "weights":
        if "weights" not in cfg:
            raise ValueError("a weights graph needs weights")
        w = _numbers(cfg["weights"], "weights")
        _graph_size(len(w) if w.ndim == 2 else 0)     # Graph refuses any other shape
        return Graph(w)
    n = _graph_size(agent_count(cfg.get("n"), "n"))
    weight = cfg.get("weight", 1.0)
    if not _is_number(weight):
        raise ValueError(f"'weight' must be a number, got {weight!r}")
    return (complete_graph if kind == "complete" else directed_ring)(n, float(weight))


def population_spec_from_config(cfg: dict) -> PopulationSpec:
    coupling = _numbers(cfg["coupling"], "coupling") if "coupling" in cfg else np.ones((3, 3))
    sizes = [agent_count(cfg.get(key), key) for key in ("n1", "n2", "n3")]
    return PopulationSpec(*sizes, coupling=coupling)


def _check_range(name: str, p_range: tuple[float, float]) -> None:
    # Each check is written so that NaN fails it.
    if len(p_range) != 2 or not 0 <= p_range[0] < p_range[1]:
        raise ValueError(f"{name} must be an increasing pair of nonnegative efforts")


def _check_reachable(name: str, width: float, h_max: float) -> None:
    # A step moves p by at most its RMS arclength, and no step after the first
    # is longer than h_max, so MAX_POINTS points cover at most this width.
    if width > h_max * (bif.MAX_POINTS - 1):
        raise ValueError(f"{name} is {width:g} wide, more than MAX_POINTS = "
                         f"{bif.MAX_POINTS} points of h_max = {h_max:g} can cover")


def _check_continuation(name: str, p_range: tuple[float, float], h_max: float) -> None:
    _check_range(name, p_range)
    if not h_max >= bif.H_MIN:
        raise ValueError(f"h_max must be at least H_MIN = {bif.H_MIN:g}")
    _check_reachable(name, p_range[1] - p_range[0], h_max)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _tolist(obj):
    # json's fallback: a numpy array or scalar (float64 is a float already)
    return obj.tolist()


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2, default=_tolist) + "\n")


def _write_outputs(out_dir, scenario, tables: dict, summary: dict,
                   documents: dict | None = None) -> None:
    """Write the output directory of a run (the contract in the module
    docstring): config.json, one CSV per (header, columns) table, the JSON
    documents, and summary.json led by config_sha256."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # the fields are JSON-ready and the scenario frozen: no deep copy, which
    # asdict makes, of a weights list of up to MAX_AGENTS^2 entries
    config = {f.name: getattr(scenario, f.name) for f in dataclasses.fields(scenario)}
    write_json(out / "config.json", config)
    for name, (header, columns) in tables.items():
        write_csv(out / name, header, columns)
    for name, doc in (documents or {}).items():
        write_json(out / name, doc)
    digest = hashlib.sha256(json.dumps(config, sort_keys=True, default=_tolist).encode())
    write_json(out / "summary.json", {"config_sha256": digest.hexdigest(), **summary})


def _branch_table(branch: bif.Branch, state_names: list[str]):
    pts = branch.points
    states = np.array([p.x for p in pts])
    header = ["param"] + state_names + ["n_unstable", "det_J"]
    cols = [np.array([p.param for p in pts]), *states.T,
            np.array([float(p.n_unstable) for p in pts]),
            np.array([p.det_sign * np.exp(min(p.log_abs_det, 700.0)) for p in pts])]
    return header, cols


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
                "refined": sp.refined,
                **({"multiplicity": sp.multiplicity} if sp.multiplicity > 1 else {}),
            })
    return docs


# ---------------------------------------------------------------------------
# Pitchfork diagram
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PitchforkScenario:
    """The load check builds the continuation problem on the consensus line
    (``bif.quotient_problem``), checks the ends of u_range on it, and keeps
    (quotient, lift), read-only, as ``_built``, a plain attribute, not a
    field: it holds closures, so the scenario does not pickle."""

    graph: dict = field(default_factory=lambda: {"kind": "complete", "n": 10})
    u_range: tuple[float, float] = (0.5, 1.5)
    u_branch_end: float = 2.2

    def __post_init__(self):
        _check_continuation("u_range", self.u_range, bif.H_MAX)
        if not self.u_range[1] < self.u_branch_end < np.inf:
            # every trunk pitchfork lies in u_range; a branch must run past it
            raise ValueError("u_branch_end must be finite and above u_range[1]")
        # a switched branch runs from its pitchfork, at most u_range[1]
        _check_reachable("(u_range[1], u_branch_end)", self.u_branch_end - self.u_range[1],
                         bif.H_MAX)
        g = graph_from_config(self.graph)
        if g.n < 2:
            # one agent has d = 0, so J = 0 and the bordered matrix is singular
            raise ValueError("continuation requires at least two agents")
        if not is_strongly_connected(g):
            raise ValueError("continuation requires a strongly connected graph")
        quotient, lift = bif.quotient_problem(g)
        # f_p = 0 on the trunk x = 0, so its bordered matrix is singular with J.
        # On an undirected graph the trunk's crossings are u = 1 / mu_k
        # (``lift.trunk``), and an end within REFINE_TOL of one is rejected:
        # whether the trunk reports it would rest on its last bits.
        for u in self.u_range:
            if (np.any(np.abs(lift.trunk.at - u) <= bif.REFINE_TOL) if lift.trunk is not None
                    else np.linalg.slogdet(lift.network.jac_x(np.zeros(g.n), u))[0] == 0):
                raise ValueError(f"u_range end {u} is a singular point of the trunk x = 0")
        object.__setattr__(self, "_built", (quotient, lift))


@dataclass
class PitchforkResult:
    trunk: bif.Branch
    upper: bif.Branch | None
    lower: bif.Branch | None
    singular_params: list[float]


def run_pitchfork_diagram(scenario: PitchforkScenario = PitchforkScenario(),
                          out_dir=None) -> PitchforkResult:
    """Trace the undecided trunk, locate its singularity, switch branches.

    Both branches are continued on the (quotient, lift) that the scenario
    built when it loaded (``bif.quotient_problem``), one unknown y on the
    consensus line x = y 1, so a run builds no network.  Every point is
    lifted to the agents and tagged on the network's J; det flips of modes
    off the line are found there too.  On an undirected graph the trunk
    x = 0 is tagged instead from the lift's spectrum of D^-1/2 A D^-1/2,
    which reports every eigenvalue crossing in u_range, each at u = 1 / mu_k
    and with its multiplicity, not only the det flips (``lift.trunk``);
    `singular_params` lists them all.  The trunk's first pitchfork, at u = 1
    on a trunk that starts below it, has the null vector 1 (J = -L there),
    so its branch is switched and continued on the line as well
    (``bif.switched_branch``); a first pitchfork off the line is continued
    on the network.

    With no information vector the field is odd, f(-x, u) = -f(x, u), so the
    branch on the -1 side of the pitchfork is the mirror image of the one on
    the +1 side: only that one is continued, and the other is its
    ``bif.reflected`` image.  The mirror is exact, not approximate: every
    step of the continuation commutes with x -> -x (the bordered matrix of
    the mirrored point is S B S with S = diag(-1, ..., -1, +1), partial
    pivoting picks the same pivots, rounding is sign-symmetric, tanh is odd
    and sech^2 even, and J(-x) = J(x)), so the continued -1 branch would
    equal it bit for bit.
    """
    quotient, lift = scenario._built
    trunk, sp = bif.trace_trunk(quotient, np.zeros(len(lift.sizes)), scenario.u_range,
                                lift=lift)
    upper = lower = None
    if sp is not None:
        branch = bif.switched_branch(quotient, sp, +1, (sp.param, scenario.u_branch_end),
                                     lift=lift)
        for br in (branch, bif.reflected(branch)):
            # orient by the sign of the consensus component
            if br.points[-1].x.mean() >= 0:
                upper = br
            else:
                lower = br
    result = PitchforkResult(trunk=trunk, upper=upper, lower=lower,
                             singular_params=[sp.param for sp in trunk.singular_points])
    if out_dir is not None:
        names = [f"x_{i + 1}" for i in range(len(lift.cells))]
        branches = {name: br for name, br in
                    (("trunk", trunk), ("upper", upper), ("lower", lower)) if br is not None}
        _write_outputs(out_dir, scenario,
                       {f"branch_{name}.csv": _branch_table(br, names)
                        for name, br in branches.items()},
                       {"singular_params": result.singular_params,
                        "singular_kinds": [sp.kind for sp in trunk.singular_points],
                        "n_trunk_points": len(trunk.points)},
                       {"singular_points.json":
                        {"singular_points": _singular_points_doc(branches)}})
    return result


# ---------------------------------------------------------------------------
# Hysteresis loop
# ---------------------------------------------------------------------------

# Most beta_B grid points a hysteresis sweep may ask for.  Each point costs two
# settles of the network (about 6 ms each at the defaults, 1.4 s for the 121
# points of the default sweep), so the largest sweep runs about 20 minutes;
# a grid of 1.2e10 points would also need 96 GB before the first settle.
MAX_SWEEP_POINTS = 100_000


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

    def __post_init__(self):
        if not self.u >= 0:
            raise ValueError(NEGATIVE_EFFORT)
        if not (self.beta_b_step > 0 and self.beta_b_max > self.beta_b_min):
            raise ValueError("information sweep grid must be increasing")
        # run_hysteresis's np.arange has ceil(points) points
        points = (self.beta_b_max + 0.5 * self.beta_b_step - self.beta_b_min) / self.beta_b_step
        if not points <= MAX_SWEEP_POINTS:
            raise ValueError(f"the beta_B grid has {points:.3g} points; at most "
                             f"MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS} are allowed")
        _graph_size(PopulationSpec(self.n1, self.n2, self.n3).n_total)


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
        x, ok, _ = integrate_to_equilibrium(f, x0, cfg)
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
    if out_dir is not None:
        _write_outputs(out_dir, scenario,
                       {"loop.csv": (["beta_b", "y_up", "y_down"], [grid, y_up, y_down])},
                       {"switch_up": switch_up, "switch_down": switch_down,
                        "loop_width": width})
    return result


# ---------------------------------------------------------------------------
# Supercritical -> subcritical transition
# ---------------------------------------------------------------------------

# The group swap y -> -(y2, y1, y3) of the three-group model, as a bif.reflected perm.
GROUP_SWAP = (1, 0, 2)


def _beta_tag(beta: float) -> str:
    """The name of one beta in the quintic transition's summary."""
    return "%g" % beta


@dataclass(frozen=True)
class QuinticScenario:
    """Swap-symmetric informed network whose pitchfork changes criticality.

    The default weakly couples the two informed groups (a12 < 1) so that the
    transition falls between beta = 1 and beta = 3; strongly coupled
    populations stay supercritical far beyond that.  The two informed groups
    have n1 agents each: that and beta_A = beta_B = beta make the model
    swap-symmetric, which gives the trunk its pitchfork and lets
    ``run_quintic_transition`` mirror one outer branch into the other.
    beta_grid must hold at least one beta, every beta finite, and no two
    with the same ``"%g"`` tag, which names each beta's files and summary
    entries.
    """

    n1: int = 2
    n3: int = 2
    a12: float = 0.25
    a13: float = 1.0
    beta_grid: tuple[float, ...] = (1.0, 3.0)
    u_range: tuple[float, float] = (0.4, 3.0)
    h_max: float = 0.02         # largest step, in RMS arclength ||dy||^2/3 + du^2

    def __post_init__(self):
        _check_continuation("u_range", self.u_range, self.h_max)
        if not self.beta_grid:
            raise ValueError("beta_grid must hold at least one information strength")
        if not all(math.isfinite(beta) for beta in self.beta_grid):
            raise ValueError("information strengths beta_grid must be finite")
        tags = [_beta_tag(beta) for beta in self.beta_grid]
        if len(set(tags)) < len(tags):
            raise ValueError(f"information strengths beta_grid {list(self.beta_grid)} "
                             f"must differ in their %g output tags (got {tags})")
        spec = self.population_spec()
        if min(spec.degrees) == 0:
            # with nonnegative coupling that group's row of J3 is 0 everywhere
            raise ValueError("every group of the quintic scenario needs a positive degree")

    def population_spec(self) -> PopulationSpec:
        c = np.array([[1.0, self.a12, self.a13],
                      [self.a12, 1.0, self.a13],
                      [self.a13, self.a13, 1.0]])
        return PopulationSpec(self.n1, self.n1, self.n3, coupling=c)


@dataclass
class QuinticDiagram:
    beta: float
    classification: str          # "supercritical" | "subcritical-with-two-folds" | "ambiguous"
    u_star: float | None
    fold_params: list[float]
    trunk: bif.Branch
    outer: list[bif.Branch]


def run_quintic_transition(scenario: QuinticScenario = QuinticScenario(),
                           out_dir=None) -> list[QuinticDiagram]:
    """Classify the bifurcation diagram of the symmetric trunk per beta.

    With equal informed groups and beta_A = beta_B = beta the reduced field is
    equivariant under the group swap P y = -(y2, y1, y3): Q and the degrees are
    invariant under exchanging groups 1 and 2, the coupling is swap-symmetric by
    construction, and b = (beta, -beta, 0), so f(P y, u) = P f(y, u).  The trunk lies in
    Fix(P) = {y2 = -y1, y3 = 0}, where a zero eigenvalue is a fold of the
    trunk, so the null vector phi of a trunk pitchfork has P phi = -phi
    (phi1 = phi2) and the -1 outer branch is the P-image of the +1 one.
    Only the +1 branch is continued: outer[0], the branch towards A, as phi
    is oriented to a nonnegative sum.  outer[1], towards B, is its
    ``bif.reflected`` image under perm (1, 0, 2).  The mirror is exact in
    exact arithmetic but not bit for bit, as ``run_pitchfork_diagram``'s is:
    the permuted dot products sum in another order and partial pivoting on a
    permuted matrix picks other pivots, so the continued -1 branch would differ in
    the last bits (states about 1e-11 apart at the defaults).

    Each beta continues ``bif.model_problem`` on (spec.degrees, spec.quotient)
    with the per-group information, whose derivative in u is the exact
    Q tanh(y); every point is tagged on the 3 x 3 J, whose det_J the CSVs keep.
    """
    spec = scenario.population_spec()
    u0 = scenario.u_range[0]
    d1 = spec.degrees[0]
    diagrams = []
    for beta in scenario.beta_grid:
        problem = bif.model_problem(spec.degrees, spec.quotient,
                                    dynamics._group_information(beta, beta))
        # continue_branch Newton-solves its start from this deadlock guess
        start = np.array([beta / (d1 + u0), -beta / (d1 + u0), 0.0])
        trunk, sp = bif.trace_trunk(problem, start, scenario.u_range, scenario.h_max)
        outer = []
        if sp is not None:
            up = bif.switched_branch(problem, sp, +1, (u0 / 2, scenario.u_range[1]),
                                     scenario.h_max)
            outer = [up, bif.reflected(up, perm=GROUP_SWAP)]
        folds = sorted(s.param for br in outer for s in br.singular_points if s.kind == "fold")
        classification = "ambiguous"
        if sp is not None:
            classification = {0: "supercritical",
                              2: "subcritical-with-two-folds"}.get(len(folds), "ambiguous")
        diagrams.append(QuinticDiagram(beta=beta, classification=classification,
                                       u_star=None if sp is None else sp.param,
                                       fold_params=folds, trunk=trunk, outer=outer))

    if out_dir is not None:
        names = ["y1", "y2", "y3"]
        tables = {}
        for diag in diagrams:
            tag = _beta_tag(diag.beta).replace(".", "p")
            tables[f"trunk_beta_{tag}.csv"] = _branch_table(diag.trunk, names)
            for i, br in enumerate(diag.outer):
                tables[f"outer{i}_beta_{tag}.csv"] = _branch_table(br, names)
        _write_outputs(out_dir, scenario, tables, {
            "classifications": {_beta_tag(d.beta): d.classification for d in diagrams},
            "u_star": {_beta_tag(d.beta): d.u_star for d in diagrams},
            "folds": {_beta_tag(d.beta): d.fold_params for d in diagrams},
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
        if not (self.u >= 0 and self.t_end > 0 and self.bound_horizon > 0):
            raise ValueError("effort and horizons must be nonnegative/positive")
        if min(self.n1, self.n2, self.n3) < 1:
            # an empty group has no mean opinion to start the reduced model from
            raise ValueError("every group of the reduction demo needs at least one agent")
        _graph_size(PopulationSpec(self.n1, self.n2, self.n3).n_total)


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
    v0 = group_spread(x0, spec.groups)
    mask = traj.times <= scenario.bound_horizon
    sample_times = traj.times[mask]
    spread_values = np.array([group_spread(x, spec.groups) for x in traj.states[mask]])
    spread_bounds = v0 * np.exp(-d_min * sample_times) * (1 + 1e-6)
    bound_ok = bool(np.all(spread_values <= spread_bounds))

    y0 = np.array([x0[grp].mean() for grp in spec.groups])
    group_beta = dynamics._group_information(scenario.beta_a, scenario.beta_b)
    reduced_field = bif.model_problem(spec.degrees, spec.quotient, group_beta).f
    reduced = integrate(lambda t, y: reduced_field(y, scenario.u), y0, cfg)
    gm_full = np.array([traj.final_state[grp].mean() for grp in spec.groups])
    gm_red = reduced.final_state
    result = ReductionResult(
        trajectory=traj, reduced_trajectory=reduced, sample_times=sample_times,
        spread_values=spread_values, spread_bounds=spread_bounds,
        bound_satisfied=bound_ok, group_means_full=gm_full,
        group_means_reduced=gm_red,
        max_group_diff=float(np.abs(gm_full - gm_red).max()),
    )
    if out_dir is not None:
        _write_outputs(out_dir, scenario, {
            "trajectory.csv": traj.table(),
            "reduced_trajectory.csv": reduced.table(),
            "spread.csv": (["t", "V", "bound"], [sample_times, spread_values, spread_bounds]),
        }, {
            "bound_satisfied": bound_ok,
            "group_means_full": gm_full,
            "group_means_reduced": gm_red,
            "max_group_diff": result.max_group_diff,
        })
    return result


# ---------------------------------------------------------------------------
# Value sensitivity and uninformed influence
# ---------------------------------------------------------------------------

def _check_nu_grid(nu_grid: tuple[float, ...], u_max: float | None = None) -> None:
    """Reject an empty grid, and a nu at which a number the runner forms is
    not finite.

    ``us_star_hat`` forms 1/nu and nu^3.  ``run_value_sensitivity`` (u_max =
    u_scan[1]) also forms us_numeric = u*/nu <= u_max/nu and rel_error, which
    nu^4 bounds: u* >= 1 (below u = 1, -D + u Q S is nonsingular, as D^-1 Q
    has unit row sums and 0 <= S <= I) and the series coefficient is below 1,
    so rel_error <= nu us_hat / u* <= 1 + nu^4.
    """
    if not nu_grid:
        raise ValueError("alternative values nu must be positive and finite, "
                         "and at least one given")
    nu = np.array(nu_grid, dtype=float)
    with np.errstate(all="ignore"):
        formed = [1.0 / nu, nu ** 3] + ([u_max / nu, nu ** 4] if u_max is not None else [])
        ok = bool(np.all(nu > 0)) and all(np.isfinite(q).all() for q in formed)
    if not ok:
        names = "1/nu and nu^3" if u_max is None else "1/nu, nu^3, nu^4 and u_scan[1]/nu"
        raise ValueError(f"alternative values nu must be positive and finite, with "
                         f"{names} finite; got nu_grid = {list(nu_grid)}")


def _check_series_size(n_agents: int) -> None:
    """Reject a population of N agents at which ``bif.us_star_hat``'s series
    coefficient, which divides by 9 N^9 in floats, overflows (N above about
    1.8e34), as ``_check_nu_grid`` rejects a nu."""
    try:
        bif.us_star_hat(1.0, n_agents, 0)
    except OverflowError:
        raise ValueError(f"a population of N = {n_agents} agents is too large for the "
                         f"series approximation: N^9 overflows a float") from None


@dataclass(frozen=True)
class ValueSensitivityScenario:
    n1: int = 10                # agents in each of the two informed groups
    n3: int = 80
    nu_grid: tuple[float, ...] = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    u_scan: tuple[float, float] = (0.9, 1.1)

    def __post_init__(self):
        _check_range("u_scan", self.u_scan)
        _check_nu_grid(self.nu_grid, u_max=self.u_scan[1])
        PopulationSpec(self.n1, self.n1, self.n3)
        _check_series_size(2 * self.n1 + self.n3)


@dataclass
class ValueSensitivityResult:
    nu_grid: np.ndarray
    us_hat: np.ndarray
    us_numeric: np.ndarray
    rel_error: np.ndarray


def run_value_sensitivity(scenario: ValueSensitivityScenario = ValueSensitivityScenario(),
                          out_dir=None) -> ValueSensitivityResult:
    """Series vs numerical estimate of the raw-effort bifurcation point.

    Equal-value alternatives: the inertia is 1/nu, the normalized information
    strength is beta = nu^2, and the raw effort is u_S = u / nu.  The
    numerical u* is ``bif.ustar_numeric``: the first sign change of det J3
    over u_scan on the closed-form deadlock trunk y = (y*, -y*, 0), bisected
    to 1e-10.  On that trunk only the swap-antisymmetric consensus mode
    crosses zero, so det J3 changes sign once and no continuation is needed.
    """
    n, n3 = scenario.n1, scenario.n3
    big_n = 2 * n + n3
    nu_grid = np.array(scenario.nu_grid, dtype=float)
    us_hat = np.array([bif.us_star_hat(nu, big_n, n3) for nu in nu_grid])
    u_stars = [bif.ustar_numeric(n, n3, nu ** 2, scenario.u_scan) for nu in nu_grid]
    us_numeric = np.array(u_stars) / nu_grid
    rel_error = np.abs(us_hat - us_numeric) / us_numeric
    result = ValueSensitivityResult(nu_grid, us_hat, us_numeric, rel_error)
    if out_dir is not None:
        _write_outputs(out_dir, scenario, {
            "curves.csv": (["nu", "us_star_hat", "us_star_numeric", "rel_error"],
                           [nu_grid, us_hat, us_numeric, rel_error]),
        }, {
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

    def __post_init__(self):
        _check_nu_grid(self.nu_grid)
        _check_series_size(self.n_total)
        if not self.n3_values or len(set(self.n3_values)) != len(self.n3_values):
            raise ValueError(f"n3_values must be a nonempty list of distinct uninformed "
                             f"counts; got {list(self.n3_values)}")
        for n3 in self.n3_values:
            if n3 < 0:
                raise ValueError(f"uninformed counts n3 must be nonnegative; got n3 = {n3}")
            if (self.n_total - n3) % 2 != 0 or self.n_total - n3 < 2:
                raise ValueError(f"n1 = n2 = (N - n3)/2 must be a positive integer; "
                                 f"got N = {self.n_total}, n3 = {n3}")


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
        curves[n3] = np.array([bif.us_star_hat(nu, scenario.n_total, n3) for nu in nu_grid])
    ordered = True
    n3s = sorted(scenario.n3_values)
    for small, large in zip(n3s[:-1], n3s[1:]):
        if not np.all(curves[large] < curves[small]):
            ordered = False
    result = UninformedInfluenceResult(nu_grid, curves, ordered)
    if out_dir is not None:
        header = ["nu"] + [f"us_hat_n3_{n3}" for n3 in scenario.n3_values]
        cols = [nu_grid] + [curves[n3] for n3 in scenario.n3_values]
        _write_outputs(out_dir, scenario, {"curves.csv": (header, cols)},
                      {"ordered_larger_n3_lower": ordered})
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
    regime; the deadlock branch folds and the trajectory jumps).  The load
    check keeps the network it builds for ``run_adaptive`` (``_build_network``).
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
        if self.case not in ADAPTIVE_CASES:
            raise ValueError(f"unknown adaptive case {self.case!r}; "
                             "expected " + ", ".join(ADAPTIVE_CASES))
        if not (self.epsilon > 0 and self.y_th > 0):
            raise ValueError("epsilon and y_th must be positive")
        if not self.ubar0 > 0:
            raise ValueError("initial mean effort must be positive")
        if not (self.alpha > 0 and self.estimator_tol > 0):
            raise ValueError("estimator gain and tolerance must be positive")
        if not (self.escape_band > 0 and self.stop_tol > 0
                and (self.jump_band is None or self.jump_band > 0)):
            raise ValueError("bands and tolerances must be positive")
        if not self.horizon_factor > 0:
            raise ValueError("horizon_factor must be positive")
        # the estimator's graph requirements: undirected, two agents, connected
        if lambda2(_build_network(self, "ubar0", self.ubar0)) <= LAMBDA2_MIN:
            raise ValueError(DISCONNECTED_GRAPH)
        if self.epsilon > 0.1:
            warnings.warn(
                f"epsilon = {self.epsilon} is large; the slow/fast timescale "
                "separation underpinning the adaptive analysis may not hold",
                stacklevel=3,
            )


# Scenario defaults per qualitative case of the adaptive dynamics.
ADAPTIVE_CASES = {
    "symmetric": {},
    "case1": dict(graph={"kind": "population", "n1": 2, "n2": 2, "n3": 6},
                  beta_a=0.3, beta_b=0.2, ubar0=0.5),
    "case2": dict(graph={"kind": "population", "n1": 2, "n2": 2, "n3": 2,
                         "coupling": [[1.0, 0.25, 1.0], [0.25, 1.0, 1.0], [1.0, 1.0, 1.0]]},
                  beta_a=3.05, beta_b=3.0, ubar0=1.2, y_th=1.0, jump_band=0.45),
}


def adaptive_scenario(case: str, **overrides) -> AdaptiveScenario:
    """The scenario of a qualitative case, with its defaults overridden."""
    return AdaptiveScenario(case=case, **{**ADAPTIVE_CASES.get(case, {}), **overrides})


@dataclass
class AdaptiveResult:
    trajectory: Trajectory
    diagnostics: dict


def _build_network(scenario, name: str, u: float) -> Graph:
    """Build the graph g, information beta (None when uninformed; it needs a
    population graph's groups) and effort heterogeneities utilde of an
    adaptive or simulate scenario, reject a mean effort `name` = u that they
    make negative, and keep (g, beta, utilde), read-only, as ``_built``."""
    g, beta = graph_from_config(scenario.graph), None
    if scenario.graph.get("kind") == "population":
        beta = bif._read_only(beta_vector(population_spec_from_config(scenario.graph),
                                          scenario.beta_a, scenario.beta_b))
    elif not (scenario.beta_a == 0.0 and scenario.beta_b == 0.0):
        raise ValueError("beta_a/beta_b require a population graph")
    utilde = _utilde_pattern(g.n, scenario.utilde_amplitude)
    if not np.all(u + utilde >= 0):
        raise ValueError(f"efforts {name} + utilde must be nonnegative: "
                         f"|utilde_amplitude| exceeds {name}")
    object.__setattr__(scenario, "_built", (g, beta, utilde))
    return g


def _utilde_pattern(n: int, amplitude: float) -> float | np.ndarray:
    # Homogeneous efforts stay scalar, so the field takes its scalar-u path.
    if amplitude == 0.0:
        return 0.0
    pattern = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
    if n % 2 == 1:
        pattern[-1] = 0.0
    return bif._read_only(amplitude * pattern)


def run_adaptive(scenario: AdaptiveScenario, out_dir=None) -> AdaptiveResult:
    """Phase 1: estimator on frozen opinions.  Phase 2: slow effort feedback.

    After the finite-time estimator has converged it tracks the running
    average exactly (sliding mode), so phase 2 uses the true average opinion.
    Phase 1 ending at its time cap above estimator_tol raises SolverError.

    Phase 2's right-hand side is normalized_field with efforts ubar + utilde,
    plus d(ubar)/dt = epsilon (y_th^2 - y^2).  What normalized_field checks
    and cannot change during the run (the state length, the shape of the
    efforts, the length of beta) holds by construction, as the state, the
    efforts and beta are all built for the graph's n agents; the sign of the
    efforts, which moves with ubar, is checked on every call.  A valid config
    can drive ubar down until an effort is negative, so that stops the run
    with SolverError and normalized_field's reason.  The events and the
    stop test reuse the mean opinion of the right-hand side's last call when
    they get that very array, which an accepted state is (FSAL, see the
    solver module); the dense states of event location compute their own.
    The trajectory carries the solver's SolverStats.
    """
    g, beta, utilde = scenario._built
    n = g.n
    eps, y_th = scenario.epsilon, scenario.y_th
    rng = np.random.default_rng(scenario.seed)
    x0 = scenario.x0_amplitude * rng.uniform(-1, 1, n)

    # phase 1: opinions and efforts frozen while the estimator converges
    est_run = integrate_nonsmooth(x0, g, scenario.alpha, tol=scenario.estimator_tol)
    if est_run.error > scenario.estimator_tol:
        raise SolverError(f"estimator did not reach estimator_tol within its time cap "
                          f"(error {est_run.error:.2e} > {scenario.estimator_tol:.2e})")

    # phase 2: fast opinions coupled to the slow mean-effort update
    z0 = np.concatenate([x0, [scenario.ubar0]])
    per_agent = isinstance(utilde, np.ndarray)
    negative = NEGATIVE_EFFORTS if per_agent else NEGATIVE_EFFORT
    field_of, degrees, weights = dynamics._field, g.degrees, g.weights
    y_th2 = y_th ** 2
    last_z, last_y = None, 0.0      # the array of the last rhs call and its mean

    def rhs(t, z):
        nonlocal last_z, last_y
        x = z[:n]
        # z[:n].mean() bit for bit (np.mean is the sum, then one division by
        # the count) without np.mean's Python wrappers
        y = float(np.add.reduce(x)) / n
        u = z[n] + utilde
        # Written as not (u >= 0) so that NaN fails the check too.
        if not ((u >= 0).all() if per_agent else u >= 0):
            raise SolverError(f"{negative}: the mean effort ubar fell to {z[n]:.6g}", time=t)
        dz = np.empty(n + 1)
        field_of(x, degrees, weights, u, beta, dz[:n])
        dz[n] = eps * (y_th2 - y ** 2)
        last_z, last_y = z, y
        return dz

    def y_of(z):
        if z is last_z:
            return last_y
        return float(np.add.reduce(z[:n])) / n

    # dz = rhs(t, z) is the step's own last stage, so dz[:n] is the opinion
    # field at the new state; the verdict at the final state is kept.
    settled = False

    def stop(t, z, dz):
        nonlocal settled
        settled = bool(abs(y_of(z) ** 2 - y_th2) < scenario.stop_tol
                       and np.maximum.reduce(np.abs(dz[:n])) < scenario.stop_tol)
        return settled

    events = [lambda t, z: abs(y_of(z)) - scenario.escape_band,
              lambda t, z: abs(y_of(z)) - y_th]
    band = scenario.jump_band
    if band is not None:
        events.append(lambda t, z: abs(y_of(z)) - band)

    cfg = IntegratorConfig(rtol=1e-10, atol=1e-13,
                           max_time=scenario.horizon_factor / scenario.epsilon)
    traj, hits = _integrate(rhs, z0, cfg, events=events, stop_condition=stop)

    states = traj.states[:, :n]
    ubars = traj.states[:, n]
    ys = states.mean(axis=1)
    channels = {"ubar": ubars, "y": ys}
    trajectory = Trajectory(traj.times, states, channels, stats=traj.stats)

    escape_hits = [h for h in hits if h.index == 0]
    th_hits = [h for h in hits if h.index == 1]
    jump_hits = [h for h in hits if h.index == 2]
    ubar_c = float(escape_hits[0].state[n]) if escape_hits else None

    ubar_star_value = bif.ubar_star(g, utilde).ubar if beta is None else None
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
        "terminal_abs_y_minus_yth": float(abs(abs(ys[-1]) - y_th)),
        "terminal_dubar": float(eps * (y_th ** 2 - ys[-1] ** 2)),
        "settled": settled,
        "estimator_time": est_run.s_elapsed,
        "estimator_error": est_run.error,
        "estimator_steps": est_run.n_steps,
    }
    if not diagnostics["settled"] and not th_hits:
        raise SolverError("adaptive run reached its horizon without the group "
                          "opinion approaching the decision threshold")
    result = AdaptiveResult(trajectory=trajectory, diagnostics=diagnostics)
    if out_dir is not None:
        _write_outputs(out_dir, scenario, {"trajectory.csv": trajectory.table()}, diagnostics)
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
    eta: float = 0.1

    def __post_init__(self):
        if not self.u >= 0:
            raise ValueError(NEGATIVE_EFFORT)
        if not self.t_end > 0:
            raise ValueError("horizon t_end must be positive")
        DecisionConfig(eta=self.eta)
        _build_network(self, "u", self.u)


@dataclass
class SimulateResult:
    trajectory: Trajectory
    terminal_norm: float
    terminal_field_norm: float
    decision: Decision


def run_simulate(scenario: SimulateScenario, out_dir=None) -> SimulateResult:
    """Integrate the model with efforts u + utilde and classify the terminal state."""
    g, beta, utilde = scenario._built
    efforts = scenario.u + utilde
    f = lambda t, x: normalized_field(x, g, efforts, beta)
    rng = np.random.default_rng(scenario.seed)
    x0 = scenario.x0_amplitude * rng.uniform(-1, 1, g.n)
    traj = integrate(f, x0, IntegratorConfig(max_time=scenario.t_end))
    x_end = traj.final_state
    decision = classify_decision(x_end, DecisionConfig(eta=scenario.eta))
    result = SimulateResult(
        trajectory=traj,
        terminal_norm=float(np.abs(x_end).max()),
        terminal_field_norm=float(np.abs(f(traj.final_time, x_end)).max()),
        decision=decision,
    )
    if out_dir is not None:
        _write_outputs(out_dir, scenario, {"trajectory.csv": traj.table()}, {
            "terminal_norm": result.terminal_norm,
            "terminal_field_norm": result.terminal_field_norm,
            "decision": decision.value,
            "group_opinion": group_opinion(x_end),
        })
    return result

"""Time integration: adaptive Dormand-Prince 5(4) with events located on
each step's continuous extension by the package's one bisection
(``bifurcation._bisect``), a rejection-controlled Euler scheme for the
discontinuous consensus estimator, and the CSV format of every output table.

The Dormand-Prince loop works in place on small arrays, where each numpy
call costs more than its arithmetic.  It relies on one ownership rule: a
step owns the stage, error and scale buffers it allocates and may update
them in place, and it never modifies an array after passing it to the field,
nor one the field returned, nor the caller's initial state.  Each stage
input is a fresh array, so the state after an accepted step is the very
array of the last stage call (FSAL) and is recorded without a copy.  Every
in-place update performs the same IEEE operations in the same order as the
expression it replaces, so results are bit for bit those of the
allocate-per-operation form.  The error norm's sum, the finiteness check's
max and the settle test's max are ufunc reductions (np.add.reduce,
np.maximum.reduce): the IEEE operations of ndarray.sum and ndarray.max,
without their Python wrappers.

Every run counts what its numerics did (``SolverStats``): field calls,
accepted and rejected steps, the extreme accepted step sizes and the event
bisection halvings, as plain Python numbers on ``Trajectory.stats``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .bifurcation import _bisect
from .graphs import Graph, lambda2

FMT = "%.17g"
# write_csv converts this many rows at a time to Python floats.
CSV_BLOCK_ROWS = 256

# Bisection width of an event time, unless no float lies inside a wider bracket.
EVENT_TIME_TOL = 1e-9

# Attempted steps one integration may take beyond its horizon over its first
# step (each docstring gives its budget).  The horizon term keeps long runs
# going: adaptive case1 at epsilon = 1e-4 attempts about 211 000 steps of its
# 5e6 horizon, the longest run of the tests and the benchmark about 3 300.  A
# stiff field pins the explicit step at its stability limit, below 0.01 once
# its fastest rate passes about 330 (two agents with weights 1e4 take about
# 230 000 steps to t = 50, 1e10 about 1e11); such a run ends here.
MAX_STEPS = 50_000

# The consensus estimator needs lambda2 above this: a connected undirected graph.
LAMBDA2_MIN = 1e-12
DISCONNECTED_GRAPH = "estimator requires a connected undirected graph (lambda2 > 0)"


def write_csv(path: str | Path, header: list[str], columns) -> None:
    """One row per index of the equal-length columns; 17 significant digits.

    csv.writer writes the header, quoting a name that needs it.  A formatted
    number never needs quoting, so each data row is one format string.  The
    rows are zipped from Python floats (tolist), to which FMT gives the bytes
    it gives numpy scalars, faster; converting CSV_BLOCK_ROWS rows at a time
    keeps those floats, four times the size of the array data, few.
    """
    row_format = ",".join([FMT] * len(columns)) + "\r\n"
    columns = [np.asarray(column, dtype=float) for column in columns]
    n_rows = min((len(column) for column in columns), default=0)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerow(header)
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            block = [column[start:start + CSV_BLOCK_ROWS].tolist() for column in columns]
            fh.writelines(row_format % row for row in zip(*block))


class SolverError(RuntimeError):
    """Numerical failure (step underflow, non-finite state, non-convergence)."""

    def __init__(self, message: str, time: float | None = None):
        if time is not None:
            message = f"{message} (at t = {time:.6g})"
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class IntegratorConfig:
    """Error tolerances of the Dormand-Prince pair and the integration span."""

    rtol: float = 1e-8
    atol: float = 1e-10
    max_time: float = 200.0

    def __post_init__(self):
        # Written as not (x > 0) so that NaN fails the check too.
        if not (self.rtol > 0 and self.atol > 0 and self.max_time > 0):
            raise ValueError("tolerances and max_time must be positive")


@dataclass(frozen=True)
class SolverStats:
    """What one Dormand-Prince run did.

    nfev counts field calls: one at the initial state, then six per attempted
    step (FSAL), so nfev == 6 (n_accepted + n_rejected) + 1.  A step retried
    for a non-finite state counts as rejected.  h_min and h_max bound the
    accepted step sizes; n_event_bisections counts the halvings of every
    located event's bracket.
    """

    nfev: int
    n_accepted: int
    n_rejected: int
    h_min: float
    h_max: float
    n_event_bisections: int


@dataclass
class Trajectory:
    """Time-indexed record of a simulated field, plus scalar channels
    (such as "ubar" and "y") with one value per time, and the solver's
    counts when a Dormand-Prince run made it."""

    times: np.ndarray
    states: np.ndarray
    channels: dict[str, np.ndarray] = field(default_factory=dict)
    stats: SolverStats | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if len(self.times) != self.states.shape[0]:
            raise ValueError("times and states lengths differ")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        for name, ch in self.channels.items():
            if len(ch) != len(self.times):
                raise ValueError(f"channel {name!r} length differs from times")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def table(self) -> tuple[list[str], list[np.ndarray]]:
        """(header, columns): t, x_1..x_N, then the channels in insertion order."""
        n = self.states.shape[1]
        header = ["t"] + [f"x_{i + 1}" for i in range(n)] + list(self.channels)
        return header, [self.times, *self.states.T, *self.channels.values()]

    def to_csv(self, path: str | Path) -> None:
        """The table as CSV, 17 significant digits."""
        write_csv(path, *self.table())


@dataclass(frozen=True)
class EventHit:
    index: int
    time: float
    state: np.ndarray


# Dormand-Prince 5(4) tableau; the 5th-order solution is propagated (FSAL).
# Row i of _DP_A holds the stage-i coefficients, zero-padded; row 6 equals the
# 5th-order weights, so the stage-7 input is the new state itself.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.zeros((7, 7))
_DP_A[1, :1] = [1 / 5]
_DP_A[2, :2] = [3 / 40, 9 / 40]
_DP_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_DP_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_DP_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_DP_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])
_DP_ERR = _DP_A[6] - _DP_B4
# (i, row i of _DP_A without its zero padding, node c_i as a Python float)
_DP_STAGES = tuple((i, _DP_A[i, :i].copy(), float(_DP_C[i])) for i in range(1, 7))
# Continuous extension (Hairer, Norsett & Wanner, Solving ODEs I, II.6): over
# a step of length h from x0 with stages k, the state at t0 + theta h is
# x0 + h [theta, theta^2, theta^3, theta^4] (P^T k).  Rows sum to _DP_A[6].
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


# Field calls of one Dormand-Prince step; the first stage is the previous FSAL.
_DP_NFEV = len(_DP_STAGES)


def _dp_step(f, t, x, h, k1):
    """One Dormand-Prince step; returns (x5, err_vector, k).

    k is the (7, n) stage array; k[6] = f(t + h, x5), evaluated at the very
    array x5 (FSAL).
    """
    k = np.empty((7, x.size))
    k[0] = k1
    for i, row, c in _DP_STAGES:
        # x + h * (row @ k[:i]), in place on the fresh stage input
        xi = np.dot(row, k[:i])
        xi *= h
        xi += x
        k[i] = f(t + c * h, xi)
    err = np.dot(_DP_ERR, k)
    err *= h
    return xi, err, k


def _dense_state(x0, h, q, theta):
    """State at t0 + theta h on the continuous extension, q = P^T k."""
    return x0 + h * (np.array([theta, theta ** 2, theta ** 3, theta ** 4]) @ q)


def _locate_event(event, t0, x0, t1, k):
    """Close a bracketed sign change of `event` over the step [t0, t1] with
    ``_bisect`` to EVENT_TIME_TOL.

    Candidate states come from the step's continuous extension built from
    its stages k, so locating an event calls no field.  Returns (time, state,
    number of event calls of the bisection).
    """
    h = t1 - t0
    q = _DP_P.T @ k
    calls = 0

    def sign_at(t):
        nonlocal calls
        calls += 1
        return np.sign(event(t, _dense_state(x0, h, q, (t - t0) / h)))

    t_hit = _bisect(sign_at, t0, t1, np.sign(event(t0, x0)), EVENT_TIME_TOL)
    return t_hit, _dense_state(x0, h, q, (t_hit - t0) / h), calls


def _integrate(field, x0, cfg: IntegratorConfig, events: Sequence[Callable] = (),
               stop_condition: Callable | None = None):
    """Dormand-Prince 5(4) over [0, cfg.max_time]; records every accepted step.

    Each sign change of an event function over an accepted step is located
    on that step's continuous extension.  After each accepted step,
    `stop_condition(t, x, dxdt)` (if given) is called with the new time, the
    new state and dxdt = field(t, x), the FSAL stage the step already holds;
    the integration ends when it returns true.  The first step is
    min(0.01, max_time / 10); a run that would attempt more than MAX_STEPS +
    ceil(max_time / first step) steps raises SolverError.
    Returns (Trajectory with its SolverStats, event hits in time order).
    """
    x = np.array(x0, dtype=float)
    t = 0.0
    t_end = cfg.max_time
    atol, rtol, n = cfg.atol, cfg.rtol, x.size
    times = [t]
    states = [x]
    hits: list[EventHit] = []
    g_prev = [ev(t, x) for ev in events]

    k1 = field(t, x)
    nfev, n_rejected, n_bisections = 1, 0, 0
    h_min, h_max = math.inf, 0.0
    abs_x = np.abs(x)
    # max_time / 10 underflows to 0 below about 2.5e-323, and a zero step
    # would never advance t: such a horizon is one step.
    h = min(0.01, cfg.max_time / 10) or cfg.max_time
    budget = MAX_STEPS + math.ceil(t_end / h)
    while t < t_end:
        h = min(h, t_end - t)
        min_step = 1e-14 * max(abs(t), 1.0)
        while True:
            if len(times) - 1 + n_rejected >= budget:
                raise SolverError(f"{budget} attempted steps did not reach "
                                  f"t = {t_end:g} (stiff field?)", time=t)
            x_new, err, k = _dp_step(field, t, x, h, k1)
            nfev += _DP_NFEV
            # scale = atol + rtol * max(|x|, |x_new|), then the RMS norm of
            # err / scale; the reduced sum / n is np.mean without its wrappers.
            abs_new = np.abs(x_new)
            scale = np.maximum(abs_x, abs_new)
            scale *= rtol
            scale += atol
            err /= scale
            err *= err
            err_norm = math.sqrt(float(np.add.reduce(err)) / n)
            # max() of the absolute values is NaN or inf iff an entry is.
            if not math.isfinite(err_norm) or not math.isfinite(np.maximum.reduce(abs_new)):
                n_rejected += 1
                h *= 0.25
                if h < min_step:
                    raise SolverError("non-finite state", time=t)
                continue
            if err_norm <= 1.0:
                break
            n_rejected += 1
            h *= max(0.2, 0.9 * err_norm ** -0.2)
            if h < min_step:
                raise SolverError("step-size underflow", time=t)
        if h < h_min:
            h_min = h
        if h > h_max:
            h_max = h
        t_new = t + h

        g_new = [ev(t_new, x_new) for ev in events]
        step_hits = []
        for i, (ga, gb) in enumerate(zip(g_prev, g_new)):
            if (ga < 0 < gb) or (gb < 0 < ga) or (gb == 0.0 and ga != 0.0):
                t_hit, x_hit, halvings = _locate_event(events[i], t, x, t_new, k)
                n_bisections += halvings
                step_hits.append(EventHit(i, t_hit, x_hit))
        if step_hits:
            hits.extend(sorted(step_hits, key=lambda hit: hit.time))

        t, x, abs_x, g_prev, k1 = t_new, x_new, abs_new, g_new, k[6]
        h *= min(5.0, max(0.2, 0.9 * (err_norm + 1e-16) ** -0.2))
        times.append(t)
        states.append(x)
        if stop_condition is not None and stop_condition(t, x, k1):
            break

    stats = SolverStats(nfev, len(times) - 1, n_rejected, h_min, h_max, n_bisections)
    return Trajectory(np.array(times), np.array(states), stats=stats), hits


def integrate(field, x0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate a smooth field over [0, cfg.max_time]."""
    traj, _ = _integrate(field, x0, cfg)
    return traj


def integrate_to_equilibrium(field, x0, cfg: IntegratorConfig | None = None,
                             tol: float = 1e-8, horizon: float = 200.0
                             ) -> tuple[np.ndarray, bool, float]:
    """Integrate until ||field||_inf < tol or the horizon is reached.

    The settle test runs through `_integrate`'s `stop_condition(t, x, dxdt)`
    and reads dxdt, the derivative the step already holds, so it calls the
    field no extra time.  The settled flag is the verdict at the final state.

    Returns (final state, settled flag, elapsed time).
    """
    cfg = replace(cfg or IntegratorConfig(), max_time=horizon)
    residual = np.inf

    def settled(t, x, dxdt):
        nonlocal residual
        residual = float(np.maximum.reduce(np.abs(dxdt)))
        return residual < tol

    traj, _ = _integrate(field, x0, cfg, stop_condition=settled)
    return traj.final_state, residual < tol, traj.final_time


# ---------------------------------------------------------------------------
# Nonsmooth estimator phase
# ---------------------------------------------------------------------------

@dataclass
class EstimatorRun:
    """Outcome of the frozen-state estimator integration."""

    w: np.ndarray
    s_elapsed: float
    error: float
    mean_drift: float
    n_steps: int
    n_rejected: int


def integrate_nonsmooth(x: np.ndarray, g: Graph, alpha: float, tol: float) -> EstimatorRun:
    """Drive the consensus estimator dw/ds = -alpha sgn(L(Lw + x)) from w = 0
    to tolerance.

    Explicit Euler with rejection control: a step that fails to decrease the
    estimation error ||Lw + x - mean(x) 1|| is rolled back and retried at half
    the step, so the error decreases monotonically and the elapsed time
    inherits the finite-time bound ||err(0)|| / (alpha lambda2).  The initial
    step is 1e-4 / alpha.  The run stops at twice that bound; then the
    returned error is above tol, and the caller decides what that means.  A
    run that would attempt more than MAX_STEPS steps beyond that time cap
    over the initial step raises SolverError.
    The residual r = Lw + x and the step direction sgn(L r) are formed once
    for each accepted w, and a retry reuses them.
    """
    if alpha <= 0:
        raise ValueError("estimator gain alpha must be positive")
    lam2 = lambda2(g)
    if lam2 <= LAMBDA2_MIN:
        raise SolverError(DISCONNECTED_GRAPH)
    lap = g.laplacian
    x = np.asarray(x, dtype=float)
    w = np.zeros(len(x))
    r = lap @ w + x
    target = float(x.mean())
    err = float(np.linalg.norm(r - target))
    if err <= tol:
        return EstimatorRun(w, 0.0, err, 0.0, 0, 0)

    h0 = 1e-4 / alpha
    cap = 2.0 * err / (alpha * lam2)
    h = h0
    s = 0.0
    mean_drift = 0.0
    n_steps = n_rejected = 0
    h_min = 1e-16 * h0
    budget = MAX_STEPS + math.ceil(cap / h0)

    direction = np.sign(lap @ r)
    while err > tol and s <= cap:
        if n_steps + n_rejected >= budget:
            raise SolverError(f"{budget} attempted estimator steps did not reach "
                              f"tolerance {tol:g}", time=s)
        w_new = w - alpha * h * direction
        r_new = lap @ w_new + x
        err_new = float(np.linalg.norm(r_new - target))
        if err_new >= err:
            h *= 0.5
            n_rejected += 1
            if h < h_min:
                raise SolverError("estimator step underflow", time=s)
            continue
        w, r, err = w_new, r_new, err_new
        direction = np.sign(lap @ r)
        s += h
        n_steps += 1
        mean_drift = max(mean_drift, abs(float(r.mean()) - target))
        h = min(h * 1.3, h0)

    return EstimatorRun(w, s, err, mean_drift, n_steps, n_rejected)

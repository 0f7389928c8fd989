"""Time integration: fixed-step RK4, adaptive Dormand-Prince 5(4), event
location by bisection, and a rejection-controlled Euler scheme for the
discontinuous consensus estimator.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .graphs import Graph, lambda2

FMT = "%.17g"


class SolverError(RuntimeError):
    """Numerical failure (step underflow, non-finite state, non-convergence)."""

    def __init__(self, message: str, time: float | None = None):
        if time is not None:
            message = f"{message} (at t = {time:.6g})"
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class IntegratorConfig:
    """Stepper selection and tolerances.

    method "rk45" is the adaptive embedded pair (default); "rk4" is the
    classical fixed-step scheme with step ``dt``.
    """

    method: str = "rk45"
    dt: float = 0.01
    rtol: float = 1e-8
    atol: float = 1e-10
    max_time: float = 200.0
    event_time_tol: float = 1e-9
    max_step: float | None = None

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        # Written as not (x > 0) so that NaN fails the check too.
        if not (self.dt > 0 and self.rtol > 0 and self.atol > 0):
            raise ValueError("steps and tolerances must be positive")
        if not (self.max_time > 0 and self.event_time_tol > 0):
            raise ValueError("max_time and event tolerances must be positive")
        if self.max_step is not None and not self.max_step > 0:
            raise ValueError("max_step must be positive")


@dataclass
class Trajectory:
    """Time-indexed record of a simulated field, plus optional channels.

    Channels: "ubar" and "y" are scalar series, "yhat" is a (T, N) matrix.
    """

    times: np.ndarray
    states: np.ndarray
    channels: dict[str, np.ndarray] = field(default_factory=dict)

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

    def to_csv(self, path: str | Path) -> None:
        """Header: t, x_1..x_N[, ubar, y, yhat_1..yhat_N], 17 significant digits."""
        n = self.states.shape[1]
        header = ["t"] + [f"x_{i + 1}" for i in range(n)]
        cols = [self.times] + [self.states[:, i] for i in range(n)]
        for name in ("ubar", "y"):
            if name in self.channels:
                header.append(name)
                cols.append(np.asarray(self.channels[name]))
        if "yhat" in self.channels:
            yhat = np.atleast_2d(np.asarray(self.channels["yhat"]))
            header += [f"yhat_{i + 1}" for i in range(yhat.shape[1])]
            cols += [yhat[:, i] for i in range(yhat.shape[1])]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\r\n")
            writer.writerow(header)
            for row in zip(*cols):
                writer.writerow([FMT % v for v in row])

    @classmethod
    def from_csv(cls, path: str | Path) -> "Trajectory":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            data = np.array([[float(v) for v in row] for row in reader])
        idx = {name: i for i, name in enumerate(header)}
        n = sum(1 for name in header if name.startswith("x_"))
        states = data[:, [idx[f"x_{i + 1}"] for i in range(n)]]
        channels = {}
        for name in ("ubar", "y"):
            if name in idx:
                channels[name] = data[:, idx[name]]
        n_hat = sum(1 for name in header if name.startswith("yhat_"))
        if n_hat:
            channels["yhat"] = data[:, [idx[f"yhat_{i + 1}"] for i in range(n_hat)]]
        return cls(times=data[:, 0], states=states, channels=channels)


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


def _rk4_step(f, t, x, h):
    k1 = f(t, x)
    k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = f(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _dp_step(f, t, x, h, k1):
    """One Dormand-Prince step; returns (x5, err_vector, k_last).

    k_last = f(t + h, x5), evaluated at the very array x5 (FSAL).
    """
    k = np.empty((7, x.size))
    k[0] = k1
    for i in range(1, 7):
        xi = x + h * (_DP_A[i, :i] @ k[:i])
        k[i] = f(t + _DP_C[i] * h, xi)
    return xi, h * (_DP_ERR @ k), k[6]


def _locate_event(f, event, t0, x0, t1, time_tol):
    """Bisect a bracketed sign change of `event` over [t0, t1].

    Candidate states are obtained by re-integrating from (t0, x0) with a few
    RK4 substeps, so the located time reflects the trajectory itself rather
    than an interpolant.
    """

    def state_at(t):
        if t == t0:
            return x0
        h = (t - t0) / 4.0
        x = x0
        for i in range(4):
            x = _rk4_step(f, t0 + i * h, x, h)
        return x

    g0 = event(t0, x0)
    lo, hi = t0, t1
    if g0 == 0.0:
        return t0, x0
    # Far from t = 0 the float spacing exceeds time_tol, and the midpoint of
    # two neighbouring floats is one of them: stop a few spacings apart.
    width = max(time_tol, 4.0 * float(np.spacing(max(abs(t0), abs(t1)))))
    for _ in range(200):
        if hi - lo <= width:
            break
        mid = 0.5 * (lo + hi)
        xm = state_at(mid)
        gm = event(mid, xm)
        if gm == 0.0:
            return mid, xm
        if np.sign(gm) == np.sign(g0):
            lo = mid
        else:
            hi = mid
    xh = state_at(hi)
    return hi, xh


def _integrate(field, x0, cfg: IntegratorConfig, t0=0.0,
               events: Sequence[Callable] = (), terminal: set[int] | None = None,
               stop_condition: Callable | None = None):
    """Shared engine for both steppers; records every accepted step.

    After each accepted step, `stop_condition(t, x, dxdt)` (if given) is
    called with the new time, the new state and dxdt = field(t, x); the
    integration ends when it returns true.  The rk45 path passes its FSAL
    stage, so the test costs no field call; the rk4 path evaluates the field.
    Returns (Trajectory, event hits).
    """
    x = np.asarray(x0, dtype=float).copy()
    t = float(t0)
    t_end = t0 + cfg.max_time
    times = [t]
    states = [x.copy()]
    hits: list[EventHit] = []
    g_prev = [ev(t, x) for ev in events]
    terminal = terminal or set()

    adaptive = cfg.method == "rk45"
    if adaptive:
        k1 = field(t, x)
        h = min(cfg.dt, cfg.max_time / 10)
    else:
        h = cfg.dt
    stop = False
    while t < t_end and not stop:
        h = min(h, t_end - t)
        if cfg.max_step is not None:
            h = min(h, cfg.max_step)
        min_step = 1e-14 * max(abs(t), 1.0)
        if adaptive:
            while True:
                x_new, err, k_last = _dp_step(field, t, x, h, k1)
                scale = cfg.atol + cfg.rtol * np.maximum(np.abs(x), np.abs(x_new))
                # RMS norm; sum()/size is np.mean without its Python wrapper.
                err_norm = math.sqrt(float(((err / scale) ** 2).sum()) / x.size)
                if not math.isfinite(err_norm) or not np.isfinite(x_new).all():
                    h *= 0.25
                    if h < min_step:
                        raise SolverError("non-finite state", time=t)
                    continue
                if err_norm <= 1.0:
                    break
                h *= max(0.2, 0.9 * err_norm ** -0.2)
                if h < min_step:
                    raise SolverError("step-size underflow", time=t)
            t_new = t + h
            h_next = h * min(5.0, max(0.2, 0.9 * (err_norm + 1e-16) ** -0.2))
        else:
            x_new = _rk4_step(field, t, x, h)
            if not np.all(np.isfinite(x_new)):
                raise SolverError("non-finite state", time=t)
            t_new = t + h
            h_next = cfg.dt

        g_new = [ev(t_new, x_new) for ev in events]
        step_hits: list[EventHit] = []
        for i, (ga, gb) in enumerate(zip(g_prev, g_new)):
            if (ga < 0 < gb) or (gb < 0 < ga) or (gb == 0.0 and ga != 0.0):
                t_hit, x_hit = _locate_event(field, events[i], t, x, t_new,
                                             cfg.event_time_tol)
                step_hits.append(EventHit(i, t_hit, x_hit))
        step_hits.sort(key=lambda hit: hit.time)
        for pos, hit in enumerate(step_hits):
            if hit.index in terminal:
                # truncate the step at the first terminal hit
                step_hits = step_hits[:pos + 1]
                t_new, x_new = hit.time, hit.state
                g_new = [ev(t_new, x_new) for ev in events]
                stop = True
                break
        hits.extend(step_hits)

        t, x, g_prev = t_new, x_new, g_new
        if adaptive:
            k1, h = k_last, h_next
        if t > times[-1]:
            times.append(t)
            states.append(x.copy())
        if stop_condition is not None:
            # k_last is f(t, x) unless a terminal event moved (t, x).
            dxdt = k1 if adaptive and not stop else field(t, x)
            if stop_condition(t, x, dxdt):
                break

    return Trajectory(np.array(times), np.array(states)), hits


def integrate(field, x0, cfg: IntegratorConfig, t0: float = 0.0) -> Trajectory:
    """Integrate a smooth field over [t0, t0 + cfg.max_time]."""
    traj, _ = _integrate(field, x0, cfg, t0=t0)
    return traj


def integrate_with_events(field, x0, events: Sequence[Callable],
                          cfg: IntegratorConfig, t0: float = 0.0,
                          terminal: set[int] | None = None
                          ) -> tuple[Trajectory, list[EventHit]]:
    """Integrate and localize every sign change of the scalar event functions.

    Each hit time is bisected to cfg.event_time_tol, or to four float
    spacings of t where those are wider.  Events listed in `terminal` stop
    the integration at the hit.
    """
    return _integrate(field, x0, cfg, t0=t0, events=events, terminal=terminal)


def integrate_to_equilibrium(field, x0, cfg: IntegratorConfig | None = None,
                             tol: float = 1e-8, horizon: float = 200.0,
                             t0: float = 0.0) -> tuple[np.ndarray, bool, float]:
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
        residual = float(np.abs(dxdt).max())
        return residual < tol

    traj, _ = _integrate(field, x0, cfg, t0=t0, stop_condition=settled)
    return traj.final_state, residual < tol, traj.final_time - t0


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


def integrate_nonsmooth(w0: np.ndarray, x: np.ndarray, g: Graph, alpha: float,
                        tol: float, raise_on_cap: bool = True) -> EstimatorRun:
    """Drive the consensus estimator dw/ds = -alpha sgn(L(Lw + x)) to tolerance.

    Explicit Euler with rejection control: a step that fails to decrease the
    estimation error ||Lw + x - mean(x) 1|| is rolled back and retried at half
    the step, so the error decreases monotonically and the elapsed time
    inherits the finite-time bound ||err(0)|| / lambda2.  The initial step is
    1e-4 / alpha.  Raises SolverError if the tolerance is not met within
    2 ||err(0)|| / lambda2 time units.
    """
    if alpha <= 0:
        raise ValueError("estimator gain alpha must be positive")
    lam2 = lambda2(g)
    if lam2 <= 1e-12:
        raise SolverError("estimator requires a connected undirected graph (lambda2 > 0)")
    lap = g.laplacian
    x = np.asarray(x, dtype=float)
    w = np.asarray(w0, dtype=float).copy()
    target = float(x.mean())

    def error_of(wv):
        return float(np.linalg.norm(lap @ wv + x - target))

    err = error_of(w)
    if err <= tol:
        return EstimatorRun(w, 0.0, err, 0.0, 0, 0)

    h0 = 1e-4 / alpha
    cap = 2.0 * err / lam2
    h = h0
    s = 0.0
    mean_drift = 0.0
    n_steps = n_rejected = 0
    h_min = 1e-16 * h0

    while err > tol:
        if s > cap:
            if raise_on_cap:
                raise SolverError(
                    f"estimator failed to reach tol {tol:.1e} within time cap "
                    f"{cap:.3g} (error {err:.3e}); check graph assumptions or step",
                    time=s,
                )
            break
        yhat = lap @ w + x
        w_new = w - alpha * h * np.sign(lap @ yhat)
        err_new = error_of(w_new)
        if err_new >= err:
            h *= 0.5
            n_rejected += 1
            if h < h_min:
                raise SolverError("estimator step underflow", time=s)
            continue
        w = w_new
        s += h
        err = err_new
        n_steps += 1
        mean_drift = max(mean_drift, abs(float((lap @ w + x).mean()) - target))
        h = min(h * 1.3, h0)

    return EstimatorRun(w, s, err, mean_drift, n_steps, n_rejected)

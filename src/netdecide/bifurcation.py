"""Equilibria, linear stability, pseudo-arclength continuation with
singularity detection/classification, and closed-form bifurcation-point
approximations for the structured network models.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .dynamics import TANH, Sigmoid, normalized_field, reduced3_field
from .graphs import Graph, PopulationSpec

NEWTON_TOL = 1e-12
REFINE_TOL = 1e-8
SWITCH_OFFSET = 1e-3
STABILITY_MARGIN = 1e-8


class BifurcationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------

def _jacobian(x, degrees, weights, u, sigmoid):
    # np.reshape gives a scalar effort shape (1, 1) and per-agent efforts (n, 1).
    return -np.diag(degrees) + (np.reshape(u, (-1, 1)) * weights) * sigmoid.d1(x)


def jacobian(x: np.ndarray, g: Graph, u: float | np.ndarray,
             sigmoid: Sigmoid = TANH) -> np.ndarray:
    """Jacobian -D + U A diag(S'(x)) of normalized_field; u is one effort or one per agent."""
    return _jacobian(np.asarray(x, dtype=float), g.degrees, g.weights, u, sigmoid)


def reduced3_jacobian(y: np.ndarray, spec: PopulationSpec, u: float,
                      sigmoid: Sigmoid = TANH) -> np.ndarray:
    """3x3 Jacobian of reduced3_field: the same matrix on (spec.degrees, spec.quotient)."""
    return _jacobian(np.asarray(y, dtype=float), spec.degrees, spec.quotient, u, sigmoid)


# ---------------------------------------------------------------------------
# Equilibria
# ---------------------------------------------------------------------------

@dataclass
class Equilibrium:
    x: np.ndarray
    param: float
    eigenvalues: np.ndarray
    stability: str              # "stable" | "saddle" | "nonhyperbolic"
    n_unstable: int
    det_sign: float = 0.0
    log_abs_det: float = -np.inf
    tangent: np.ndarray | None = None


def _stability_of(eigenvalues: np.ndarray) -> tuple[str, int]:
    re = eigenvalues.real
    n_unstable = int(np.sum(re > STABILITY_MARGIN))
    if np.any(np.abs(re) <= STABILITY_MARGIN):
        return "nonhyperbolic", n_unstable
    return ("stable", 0) if n_unstable == 0 else ("saddle", n_unstable)


def _make_equilibrium(x, param, jac):
    eigenvalues = np.linalg.eigvals(jac)
    stability, n_unstable = _stability_of(eigenvalues)
    sign, logdet = np.linalg.slogdet(jac)
    return Equilibrium(x=np.asarray(x, dtype=float), param=float(param),
                       eigenvalues=eigenvalues, stability=stability,
                       n_unstable=n_unstable, det_sign=float(sign),
                       log_abs_det=float(logdet))


def newton_solve(f: Callable, jac: Callable, x0: np.ndarray,
                 tol: float = NEWTON_TOL, max_iter: int = 50) -> np.ndarray:
    """Damped Newton iteration to ||f||_inf <= tol."""
    x = np.asarray(x0, dtype=float).copy()
    fx = np.atleast_1d(f(x))
    norm = np.abs(fx).max()
    for _ in range(max_iter):
        if norm <= tol:
            return x
        try:
            step = np.linalg.solve(np.atleast_2d(jac(x)), -fx)
        except np.linalg.LinAlgError as exc:
            raise BifurcationError(f"singular Newton matrix: {exc}") from exc
        lam = 1.0
        while lam > 1e-6:
            x_new = x + lam * step
            f_new = np.atleast_1d(f(x_new))
            norm_new = np.abs(f_new).max()
            if norm_new < norm or norm_new <= tol:
                break
            lam *= 0.5
        else:
            raise BifurcationError("Newton damping failed to reduce the residual")
        x, fx, norm = x_new, f_new, norm_new
    if norm <= tol:
        return x
    raise BifurcationError(f"Newton did not converge (residual {norm:.3e})")


def find_equilibrium(f: Callable, jac: Callable, x_guess: np.ndarray,
                     param: float = np.nan, tol: float = NEWTON_TOL,
                     max_iter: int = 50) -> Equilibrium:
    """Converge from x_guess and tag stability from the Jacobian spectrum."""
    x = newton_solve(f, jac, x_guess, tol=tol, max_iter=max_iter)
    return _make_equilibrium(x, param, np.atleast_2d(jac(x)))


# ---------------------------------------------------------------------------
# Continuation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuationProblem:
    """Parameterized equilibrium problem f(x, p) = 0 with analytic Jacobians.

    jac_p defaults to a central finite difference when not supplied.
    """

    f: Callable[[np.ndarray, float], np.ndarray]
    jac_x: Callable[[np.ndarray, float], np.ndarray]
    jac_p: Callable[[np.ndarray, float], np.ndarray] | None = None

    def fp(self, x, p, h=1e-7):
        if self.jac_p is not None:
            return self.jac_p(x, p)
        return (np.atleast_1d(self.f(x, p + h)) - np.atleast_1d(self.f(x, p - h))) / (2 * h)


def normalized_problem(g: Graph, beta=None, sigmoid: Sigmoid = TANH) -> ContinuationProblem:
    """Continuation of the normalized network field over u."""
    return ContinuationProblem(
        f=lambda x, u: normalized_field(x, g, u, beta, sigmoid),
        jac_x=lambda x, u: jacobian(x, g, u, sigmoid),
        jac_p=lambda x, u: g.weights @ sigmoid.value(x),
    )


def reduced3_problem(spec: PopulationSpec, beta_a: float, beta_b: float,
                     sigmoid: Sigmoid = TANH) -> ContinuationProblem:
    """Continuation of the three-group reduced field over u."""
    return ContinuationProblem(
        f=lambda y, u: reduced3_field(y, spec, u, beta_a, beta_b, sigmoid),
        jac_x=lambda y, u: reduced3_jacobian(y, spec, u, sigmoid),
    )


# ata_problem builds through this alias: a tracer that rebinds the public name
# to wrap each problem's callbacks must not wrap ata_problem's twice.
_reduced3_problem = reduced3_problem


def ata_problem(n: int, n3: int, beta: float, sigmoid: Sigmoid = TANH) -> ContinuationProblem:
    """Continuation over u of the all-to-all swap-symmetric reduced field:
    the three-group problem with n1 = n2 = n, unit coupling, beta_A = beta_B = beta."""
    return _reduced3_problem(PopulationSpec(n, n, n3), beta, beta, sigmoid)


@dataclass(frozen=True)
class ContinuationConfig:
    h0: float = 0.01
    h_min: float = 1e-5
    h_max: float = 0.1
    newton_tol: float = NEWTON_TOL
    refine_tol: float = REFINE_TOL
    max_points: int = 20_000
    direction: int = 1
    detect_folds: bool = True
    detect_det_flips: bool = True


@dataclass
class SingularPoint:
    kind: str                   # "pitchfork" | "fold" | "ambiguous"
    param: float
    x: np.ndarray
    null_right: np.ndarray
    null_left: np.ndarray
    tangent_param: float
    det_residual: float


@dataclass
class Branch:
    points: list[Equilibrium] = field(default_factory=list)
    singular_points: list[SingularPoint] = field(default_factory=list)
    terminated: str = "range"

    @property
    def params(self) -> np.ndarray:
        return np.array([pt.param for pt in self.points])

    @property
    def states(self) -> np.ndarray:
        return np.array([pt.x for pt in self.points])

    def point_nearest(self, param: float) -> Equilibrium:
        return self.points[int(np.argmin(np.abs(self.params - param)))]


def _tangent(problem, x, p, reference):
    """Unit tangent of the solution curve via a bordered solve."""
    n = len(x)
    jac = np.atleast_2d(problem.jac_x(x, p))
    fp = np.atleast_1d(problem.fp(x, p))
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = jac
    bordered[:n, n] = fp
    bordered[n, :] = reference
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    try:
        tan = np.linalg.solve(bordered, rhs)
    except np.linalg.LinAlgError:
        # fall back to the least-singular direction of [J | f_p]
        aug = np.hstack([jac, fp[:, None]])
        _, _, vt = np.linalg.svd(aug)
        tan = vt[-1]
        if tan @ reference < 0:
            tan = -tan
    norm = np.linalg.norm(tan)
    if norm == 0:
        raise BifurcationError("degenerate tangent")
    tan = tan / norm
    if tan @ reference < 0:
        tan = -tan
    return tan


def _correct(problem, z_pred, tan, tol, max_iter=25):
    """Newton on the bordered system {f(x,p)=0, tan.(z - z_pred)=0}."""
    n = len(z_pred) - 1
    z = z_pred.copy()
    for _ in range(max_iter):
        fx = np.atleast_1d(problem.f(z[:n], z[n]))
        res = np.abs(fx).max()
        if res <= tol:
            return z
        jac = np.atleast_2d(problem.jac_x(z[:n], z[n]))
        fp = np.atleast_1d(problem.fp(z[:n], z[n]))
        bordered = np.zeros((n + 1, n + 1))
        bordered[:n, :n] = jac
        bordered[:n, n] = fp
        bordered[n, :] = tan
        rhs = np.zeros(n + 1)
        rhs[:n] = -fx
        rhs[n] = -(tan @ (z - z_pred))
        try:
            z = z + np.linalg.solve(bordered, rhs)
        except np.linalg.LinAlgError:
            return None
    fx = np.atleast_1d(problem.f(z[:n], z[n]))
    return z if np.abs(fx).max() <= tol else None


def _solve_at_param(problem, x_guess, p, tol):
    return newton_solve(lambda x: problem.f(x, p), lambda x: problem.jac_x(x, p),
                        x_guess, tol=tol)


def null_vectors(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right and left eigenvectors for the eigenvalue nearest zero."""
    evals, evecs = np.linalg.eig(jac)
    idx = int(np.argmin(np.abs(evals)))
    right = np.real(evecs[:, idx])
    evals_l, evecs_l = np.linalg.eig(jac.T)
    idx_l = int(np.argmin(np.abs(evals_l)))
    left = np.real(evecs_l[:, idx_l])
    right = right / np.linalg.norm(right)
    left = left / np.linalg.norm(left)
    return right, left


def continue_branch(problem: ContinuationProblem, x_start: np.ndarray,
                    p_start: float, p_range: tuple[float, float],
                    cfg: ContinuationConfig = ContinuationConfig(),
                    classify: bool = True,
                    symmetric_trunk: bool = False,
                    initial_reference: np.ndarray | None = None) -> Branch:
    """Pseudo-arclength predictor-corrector with singularity detection.

    Records stability flips, refines sign changes of det(J) and of the
    parameter component of the tangent to cfg.refine_tol in the parameter,
    and classifies each refined point.  The first tangent is oriented along
    `initial_reference` when given (e.g. away from a singular point after
    branch switching), otherwise along cfg.direction in the parameter.
    """
    p_lo, p_hi = min(p_range), max(p_range)
    x = _solve_at_param(problem, np.asarray(x_start, dtype=float), p_start, cfg.newton_tol)
    branch = Branch()
    eq = _make_equilibrium(x, p_start, np.atleast_2d(problem.jac_x(x, p_start)))
    n = len(x)
    if initial_reference is not None:
        ref = np.asarray(initial_reference, dtype=float)
        ref = ref / np.linalg.norm(ref)
    else:
        ref = np.zeros(n + 1)
        ref[n] = float(cfg.direction)
    tan = _tangent(problem, x, p_start, ref)
    eq.tangent = tan
    branch.points.append(eq)

    h = cfg.h0
    z = np.concatenate([x, [p_start]])
    while len(branch.points) < cfg.max_points:
        z_new = None
        while h >= cfg.h_min:
            z_pred = z + h * tan
            z_new = _correct(problem, z_pred, tan, cfg.newton_tol)
            if z_new is not None:
                break
            h *= 0.5
        if z_new is None:
            branch.terminated = "corrector failure"
            break

        p_new = z_new[n]
        if p_new > p_hi or p_new < p_lo:
            p_end = p_hi if p_new > p_hi else p_lo
            try:
                x_end = _solve_at_param(problem, z_new[:n], p_end, cfg.newton_tol)
            except BifurcationError:
                branch.terminated = "range"
                break
            eq_end = _make_equilibrium(x_end, p_end, np.atleast_2d(problem.jac_x(x_end, p_end)))
            eq_end.tangent = _tangent(problem, x_end, p_end, tan)
            _detect_events(problem, branch, branch.points[-1], eq_end, cfg,
                           classify, symmetric_trunk)
            branch.points.append(eq_end)
            branch.terminated = "range"
            break

        tan_new = _tangent(problem, z_new[:n], p_new, tan)
        eq_new = _make_equilibrium(z_new[:n], p_new,
                                   np.atleast_2d(problem.jac_x(z_new[:n], p_new)))
        eq_new.tangent = tan_new
        _detect_events(problem, branch, branch.points[-1], eq_new, cfg,
                       classify, symmetric_trunk)
        branch.points.append(eq_new)
        z, tan = z_new, tan_new
        h = min(h * 1.3, cfg.h_max)
    else:
        branch.terminated = "max points"
    return branch


def _detect_events(problem, branch, prev: Equilibrium, new: Equilibrium, cfg,
                   classify, symmetric_trunk):
    det_flip = cfg.detect_det_flips and prev.det_sign * new.det_sign < 0
    fold_flip = (cfg.detect_folds and prev.tangent is not None
                 and new.tangent is not None
                 and prev.tangent[-1] * new.tangent[-1] < 0)
    candidates = []
    if fold_flip:
        # a fold also flips det(J); the tangent refinement owns the interval
        candidates.append(_refine_fold(problem, prev, new, cfg))
    elif det_flip:
        candidates.append(_refine_det_flip(problem, prev, new, cfg))
    for sp in candidates:
        if classify:
            sp.kind = classify_singularity(sp, problem,
                                           symmetric_trunk=symmetric_trunk,
                                           refine_tol=cfg.refine_tol)
        duplicate = any(
            abs(sp.param - other.param) <= max(10 * cfg.refine_tol, 1e-6)
            and np.linalg.norm(sp.x - other.x) <= 1e-5
            for other in branch.singular_points
        )
        if not duplicate:
            branch.singular_points.append(sp)


def _refine_det_flip(problem, eq_lo: Equilibrium, eq_hi: Equilibrium, cfg):
    """Parameter bisection of a det(J) sign change between two branch points.

    Fixed-parameter Newton from the interpolated state is well conditioned
    everywhere except at the singular parameter itself, unlike the arclength
    corrector, whose bordered matrix is singular at a branch point on a
    symmetric trunk.
    """
    p_lo, p_hi = eq_lo.param, eq_hi.param
    x_lo, x_hi = eq_lo.x, eq_hi.x
    s_lo = eq_lo.det_sign
    for _ in range(80):
        if abs(p_hi - p_lo) <= cfg.refine_tol:
            break
        frac = 0.5
        p_mid = p_lo + frac * (p_hi - p_lo)
        guess = x_lo + frac * (x_hi - x_lo)
        try:
            x_mid = _solve_at_param(problem, guess, p_mid, cfg.newton_tol)
        except BifurcationError:
            # essentially at the singularity; tighten from both sides
            p_mid = p_lo + 0.4 * (p_hi - p_lo)
            guess = x_lo + 0.4 * (x_hi - x_lo)
            try:
                x_mid = _solve_at_param(problem, guess, p_mid, cfg.newton_tol)
            except BifurcationError:
                break
        s_mid, _ = np.linalg.slogdet(np.atleast_2d(problem.jac_x(x_mid, p_mid)))
        if s_mid == s_lo or s_mid == 0.0:
            p_lo, x_lo, s_lo = p_mid, x_mid, s_mid
        else:
            p_hi, x_hi = p_mid, x_mid
    x_sp = 0.5 * (x_lo + x_hi)
    p_sp = 0.5 * (p_lo + p_hi)
    return _singular_point_at(problem, x_sp, p_sp, eq_lo.tangent)


def _refine_fold(problem, eq_lo: Equilibrium, eq_hi: Equilibrium, cfg):
    """Arclength bisection of a tangent-parameter sign change (fold bracket).

    The bordered corrector is nonsingular at a fold, so arclength bisection is
    safe here; the parameter gap collapses quadratically with arclength.
    """
    n = len(eq_lo.x)
    z_lo = np.concatenate([eq_lo.x, [eq_lo.param]])
    z_hi = np.concatenate([eq_hi.x, [eq_hi.param]])
    tan_lo = eq_lo.tangent
    val_lo = tan_lo[-1]
    for _ in range(80):
        if abs(z_hi[n] - z_lo[n]) <= cfg.refine_tol and np.linalg.norm(z_hi - z_lo) <= 1e-7:
            break
        z_mid_pred = 0.5 * (z_lo + z_hi)
        z_mid = _correct(problem, z_mid_pred, tan_lo, cfg.newton_tol)
        if z_mid is None:
            break
        tan_mid = _tangent(problem, z_mid[:n], z_mid[n], tan_lo)
        if tan_mid[-1] * val_lo > 0:
            z_lo, tan_lo, val_lo = z_mid, tan_mid, tan_mid[-1]
        else:
            z_hi = z_mid
    x_sp = 0.5 * (z_lo[:n] + z_hi[:n])
    p_sp = 0.5 * (z_lo[n] + z_hi[n])
    return _singular_point_at(problem, x_sp, p_sp, tan_lo)


def _singular_point_at(problem, x_sp, p_sp, tan_ref):
    jac = np.atleast_2d(problem.jac_x(x_sp, p_sp))
    right, left = null_vectors(jac)
    try:
        tan_sp = _tangent(problem, x_sp, p_sp, tan_ref)
        tangent_param = float(tan_sp[-1])
    except BifurcationError:
        tangent_param = float(tan_ref[-1])
    sign, logdet = np.linalg.slogdet(jac)
    return SingularPoint(kind="unclassified", param=float(p_sp), x=np.asarray(x_sp),
                         null_right=right, null_left=left,
                         tangent_param=tangent_param,
                         det_residual=float(sign * np.exp(min(logdet, 700.0))))


def classify_singularity(sp: SingularPoint, problem: ContinuationProblem,
                         symmetric_trunk: bool = False,
                         refine_tol: float = REFINE_TOL) -> str:
    """Distinguish fold from pitchfork at a refined singular point.

    A fold has a vanishing parameter component of the branch tangent and a
    nonzero quadratic normal-form coefficient.  A pitchfork has a transversal
    tangent and a pair of new solutions on one side, verified by trial Newton
    solves seeded along the null eigenvector; symmetric trunks may skip the
    probe.  Ambiguity is reported, never silently resolved.
    """
    phi = sp.null_right
    if abs(sp.tangent_param) < 1e-3:
        # second derivative of the field along the null direction
        eps = 1e-4 * max(1.0, np.linalg.norm(sp.x))
        f0 = np.atleast_1d(problem.f(sp.x, sp.param))
        fp_ = np.atleast_1d(problem.f(sp.x + eps * phi, sp.param))
        fm_ = np.atleast_1d(problem.f(sp.x - eps * phi, sp.param))
        quad = sp.null_left @ (fp_ + fm_ - 2.0 * f0) / eps ** 2
        if abs(quad) > 1e-4:
            return "fold"
        return "ambiguous"
    if symmetric_trunk:
        return "pitchfork"
    found = _probe_new_solutions(problem, sp, refine_tol)
    if found:
        return "pitchfork"
    return "ambiguous"


def _amplitude_solve(problem, sp: SingularPoint, a: float,
                     tol: float = NEWTON_TOL, max_iter: int = 40):
    """Solve {f(x,p)=0, phi.(x - x*) = a} for (x, p).

    The amplitude constraint along the null eigenvector keeps the bordered
    Newton system nonsingular arbitrarily close to the singular point, which
    a plain fixed-parameter solve is not.  Returns (x, p) or None.
    """
    phi = sp.null_right
    n = len(sp.x)
    x = sp.x + a * phi
    p = sp.param
    for _ in range(max_iter):
        fx = np.atleast_1d(problem.f(x, p))
        res_amp = phi @ (x - sp.x) - a
        if np.abs(fx).max() <= tol and abs(res_amp) <= tol:
            return x, p
        bordered = np.zeros((n + 1, n + 1))
        bordered[:n, :n] = np.atleast_2d(problem.jac_x(x, p))
        bordered[:n, n] = np.atleast_1d(problem.fp(x, p))
        bordered[n, :n] = phi
        rhs = np.concatenate([-fx, [-res_amp]])
        try:
            delta = np.linalg.solve(bordered, rhs)
        except np.linalg.LinAlgError:
            return None
        x = x + delta[:n]
        p = p + delta[n]
        if not np.isfinite(p) or not np.all(np.isfinite(x)):
            return None
    return None


def _probe_new_solutions(problem, sp, refine_tol) -> bool:
    """Look for a pair of off-trunk solutions emerging at the point."""
    for amp in (1e-2, 3e-2, 0.1):
        sides = []
        for sgn in (+1.0, -1.0):
            sol = _amplitude_solve(problem, sp, sgn * amp)
            if sol is None:
                break
            sides.append(sol)
        if len(sides) == 2:
            (x1, _), (x2, _) = sides
            if np.linalg.norm(x1 - x2) > amp:
                return True
    return False


def branch_switch(problem: ContinuationProblem, sp: SingularPoint,
                  direction: int, offset: float = SWITCH_OFFSET) -> Equilibrium:
    """Seed a bifurcating branch just past a pitchfork.

    Solves the amplitude-constrained system seeded at x* + direction*offset*phi,
    letting the parameter move past the singularity.  Failure at every
    amplitude suggests a misclassified point.
    """
    for amp in (offset, 10 * offset, 50 * offset):
        sol = _amplitude_solve(problem, sp, direction * amp)
        if sol is not None:
            x, p = sol
            jac = np.atleast_2d(problem.jac_x(x, p))
            return _make_equilibrium(x, p, jac)
    raise BifurcationError(
        "branch switch failed at every amplitude (misclassified singular point?)"
    )


# ---------------------------------------------------------------------------
# Scalar roots and closed-form approximations
# ---------------------------------------------------------------------------

def y_s(u: float, sigmoid: Sigmoid = TANH, tol: float = 1e-12) -> float:
    """Positive root of y - u S(y) = 0 (bracketing bisection + Newton polish)."""
    if u <= 1.0:
        raise ValueError("the branch equation has a positive root only for u > 1")
    lo, hi = 1e-12, float(u) + 1.0

    def f(y):
        return y - u * float(sigmoid.value(y))

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, hi):
            break
    y = 0.5 * (lo + hi)
    for _ in range(50):
        df = 1.0 - u * float(sigmoid.d1(y))
        if df == 0:
            break
        step = f(y) / df
        y -= step
        if abs(step) <= tol * max(1.0, abs(y)):
            break
    return float(y)


def ystar_root(u: float, beta: float, n_agents: int,
               sigmoid: Sigmoid = TANH, tol: float = NEWTON_TOL) -> float:
    """Unique root of (N-1) y + u S(y) - beta = 0 (strictly increasing LHS)."""
    if n_agents < 2 or u < 0:
        raise ValueError("need N >= 2 and u >= 0")
    k = n_agents - 1

    def f(y):
        return k * y + u * float(sigmoid.value(y)) - beta

    y = beta / (k + u) if (k + u) > 0 else 0.0
    for _ in range(100):
        df = k + u * float(sigmoid.d1(y))
        step = f(y) / df
        y -= step
        if abs(step) <= tol * max(1.0, abs(y)) and abs(f(y)) <= 1e-14 * max(1.0, abs(beta)):
            break
    return float(y)


def ystar_series(u: float, beta: float, n_agents: int) -> float:
    """Cubic series for the deadlock root of the tanh model."""
    k = n_agents - 1 + u
    return beta / k + u * beta ** 3 / (3.0 * k ** 4)


def _ustar_coefficient(n_agents: int, n3: int) -> float:
    return (1.0 + 3.0 * n_agents ** 3) ** 2 * (n_agents - n3) / (9.0 * float(n_agents) ** 9)


def ustar_series(beta: float, n_agents: int, n3: int) -> float:
    """Quadratic series for the singular effort of the swap-symmetric model."""
    return 1.0 + _ustar_coefficient(n_agents, n3) * beta ** 2


def us_star_hat(nu: float, n_agents: int, n3: int) -> float:
    """Bifurcation-point approximation for equal-value alternatives, u_I = 1/nu."""
    if nu <= 0:
        raise ValueError("alternative value nu must be positive")
    return 1.0 / nu + _ustar_coefficient(n_agents, n3) * nu ** 3


def ustar_numeric(n: int, n3: int, beta: float, sigmoid: Sigmoid = TANH,
                  u_range: tuple[float, float] = (0.5, 3.0),
                  tol: float = 1e-10) -> float:
    """Singular effort of the swap-symmetric reduced model, solved numerically.

    Finds the first zero of u -> det J3(y*(u), u) over the scan range, where
    y*(u) solves the deadlock root equation; bisection to tol.
    """
    big_n = 2 * n + n3
    spec = PopulationSpec(n, n, n3)

    def det_at(u):
        ys = ystar_root(u, beta, big_n, sigmoid)
        jac = reduced3_jacobian(np.array([ys, -ys, 0.0]), spec, u, sigmoid)
        return float(np.linalg.det(jac))

    grid = np.linspace(u_range[0], u_range[1], 61)
    vals = [det_at(u) for u in grid]
    bracket = None
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            return float(a)
        if fa * fb < 0:
            bracket = (a, b, fa)
            break
    if bracket is None:
        raise BifurcationError(
            f"no singular point of the reduced model in u range {u_range}"
        )
    lo, hi, f_lo = bracket
    while hi - lo > tol * 0.5:
        mid = 0.5 * (lo + hi)
        f_mid = det_at(mid)
        if f_mid == 0.0:
            return float(mid)
        if f_mid * f_lo > 0:
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


@dataclass
class SingularEffort:
    ubar: float
    null_right: np.ndarray


def ubar_star(g: Graph, utilde: np.ndarray,
              bracket: tuple[float, float] = (0.5, 1.5),
              sigmoid: Sigmoid = TANH, tol: float = 1e-12) -> SingularEffort:
    """Mean effort at which the heterogeneous linearization at 0 is singular.

    Scans det(-D + U A) for a sign change near ubar = 1 and bisects; also
    returns the null right eigenvector normalized to unit mean.  The
    heterogeneities utilde must sum to zero, so that ubar is the mean effort.
    """
    utilde = np.asarray(utilde, dtype=float)
    if abs(utilde.sum()) > 1e-12:
        raise ValueError(
            f"effort heterogeneities must sum to zero (got {utilde.sum():.3e})")
    if np.abs(utilde).max() > 0.2 * g.degrees.min():
        warnings.warn("effort heterogeneities are large relative to the degrees; "
                      "the singular point may be far from 1 or ill-defined",
                      stacklevel=2)

    def jac_at(ub):
        return jacobian(np.zeros(g.n), g, ub + utilde, sigmoid)

    def sign_at(ub):
        sign, _ = np.linalg.slogdet(jac_at(ub))
        return sign

    grid = np.linspace(bracket[0], bracket[1], 101)
    signs = [sign_at(ub) for ub in grid]
    pair = None
    for a, b, sa, sb in zip(grid[:-1], grid[1:], signs[:-1], signs[1:]):
        if sa == 0.0:
            pair = (a, a)
            break
        if sa * sb < 0:
            pair = (a, b)
            break
    if pair is None:
        raise BifurcationError(f"no singular mean effort in bracket {bracket}")
    lo, hi = pair
    s_lo = sign_at(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        s_mid = sign_at(mid)
        if s_mid == 0.0:
            lo = hi = mid
            break
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    ub = 0.5 * (lo + hi)
    right, _ = null_vectors(jac_at(ub))
    mean = right.mean()
    if abs(mean) > 1e-12:
        right = right / mean
    return SingularEffort(ubar=float(ub), null_right=right)

"""Equilibria, linear stability, pseudo-arclength continuation with
singularity detection/classification, and closed-form bifurcation-point
approximations for the structured network models.

Every Newton solve on the extended unknown z = (x, p) goes through one
bordered matrix [[J, f_p], [row]] (``_bordered``): the tangent of a branch,
the arclength corrector, fold refinement, and the amplitude-constrained
solve of branch switching.  Arclength is measured in the RMS norm
||x||^2/n + p^2 (``_arclength_weights``), so a step costs the same on a
consensus branch x = y 1 at any network size n.  A singular bordered matrix,
a failed branch switch or a failed solve at the end of the range raises
BifurcationError; nothing falls back to another method.

A pitchfork diagram is ``trace_trunk`` (the symmetric trunk and its first
pitchfork), then one ``switched_branch`` per bifurcating branch.  When the
field is equivariant under a signed permutation P x = -x[perm] whose fixed
space holds the trunk, f(P x, p) = P f(x, p), the second branch is the
``reflected`` first: under x -> -x on an odd field, and under the group swap
-(y2, y1, y3) on the three-group field with n1 = n2 and beta_A = beta_B.
``ubar_star`` and ``ustar_numeric`` share one scan for a det(J) sign change,
``_first_det_flip``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .dynamics import normalized_field, reduced3_field, sech2
from .graphs import Graph, PopulationSpec

NEWTON_TOL = 1e-12
REFINE_TOL = 1e-8
# Continuation step control: first and smallest RMS-arclength step, point budget.
H0 = 0.01
H_MIN = 1e-5
MAX_POINTS = 20_000
SWITCH_OFFSET = 1e-3
STABILITY_MARGIN = 1e-8
EPS = float(np.finfo(float).eps)


class BifurcationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------

def _minus_degrees(coupled, degrees):
    """-D + coupled, in place on the fresh matrix `coupled`, equal bit for bit
    to ``-np.diag(degrees) + coupled``: off the diagonal -0.0 + v is v, and
    on it v - d is -d + v."""
    coupled.flat[::len(degrees) + 1] -= degrees
    return coupled


def _jacobian(x, degrees, weights, u):
    # np.reshape gives a scalar effort shape (1, 1) and per-agent efforts (n, 1).
    return _minus_degrees((np.reshape(u, (-1, 1)) * weights) * sech2(x), degrees)


def jacobian(x: np.ndarray, g: Graph, u: float | np.ndarray) -> np.ndarray:
    """Jacobian -D + U A diag(S'(x)) of normalized_field; u is one effort or one per agent."""
    return _jacobian(np.asarray(x, dtype=float), g.degrees, g.weights, u)


def reduced3_jacobian(y: np.ndarray, spec: PopulationSpec, u: float) -> np.ndarray:
    """3x3 Jacobian of reduced3_field: the same matrix on (spec.degrees, spec.quotient)."""
    return _jacobian(np.asarray(y, dtype=float), spec.degrees, spec.quotient, u)


# ---------------------------------------------------------------------------
# Equilibria
# ---------------------------------------------------------------------------

@dataclass
class Equilibrium:
    x: np.ndarray
    param: float
    n_unstable: int             # eigenvalues of J with real part > STABILITY_MARGIN
    det_sign: float = 0.0
    log_abs_det: float = -np.inf
    tangent: np.ndarray | None = None


def newton_solve(f: Callable, jac: Callable, x0: np.ndarray) -> np.ndarray:
    """Damped Newton iteration to ||f||_inf <= NEWTON_TOL within 50 steps."""
    x = np.asarray(x0, dtype=float).copy()
    fx = np.atleast_1d(f(x))
    norm = np.abs(fx).max()
    for _ in range(50):
        if norm <= NEWTON_TOL:
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
            if norm_new < norm or norm_new <= NEWTON_TOL:
                break
            lam *= 0.5
        else:
            raise BifurcationError("Newton damping failed to reduce the residual")
        x, fx, norm = x_new, f_new, norm_new
    if norm <= NEWTON_TOL:
        return x
    raise BifurcationError(f"Newton did not converge (residual {norm:.3e})")


# ---------------------------------------------------------------------------
# Continuation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuationProblem:
    """Parameterized equilibrium problem f(x, p) = 0 with analytic Jacobians.

    jac_p defaults to a central finite difference of step 1e-7 when not
    supplied.
    jac_sym, when supplied, returns a symmetric matrix similar to jac_x; the
    stability of each branch point is then tagged by ``eigvalsh`` on it.
    """

    f: Callable[[np.ndarray, float], np.ndarray]
    jac_x: Callable[[np.ndarray, float], np.ndarray]
    jac_p: Callable[[np.ndarray, float], np.ndarray] | None = None
    jac_sym: Callable[[np.ndarray, float], np.ndarray] | None = None

    def fp(self, x, p):
        if self.jac_p is not None:
            return self.jac_p(x, p)
        h = 1e-7
        return (np.atleast_1d(self.f(x, p + h)) - np.atleast_1d(self.f(x, p - h))) / (2 * h)


def normalized_problem(g: Graph, beta=None) -> ContinuationProblem:
    """Continuation of the normalized network field over u.

    On an undirected graph, J = -D + u A diag(s) with s = sech^2(x) is similar
    to the symmetric -D + u (r r^T o A), r = sqrt(s), by diag(r).
    """
    jac_sym = None
    if g.is_undirected:
        def jac_sym(x, u):
            r = np.sqrt(sech2(x))
            return _minus_degrees((u * r[:, None]) * g.weights * r, g.degrees)

    return ContinuationProblem(
        f=lambda x, u: normalized_field(x, g, u, beta),
        jac_x=lambda x, u: jacobian(x, g, u),
        jac_p=lambda x, u: g.weights @ np.tanh(x),
        jac_sym=jac_sym,
    )


def reduced3_problem(spec: PopulationSpec, beta_a: float, beta_b: float) -> ContinuationProblem:
    """Continuation of the three-group reduced field over u."""
    return ContinuationProblem(
        f=lambda y, u: reduced3_field(y, spec, u, beta_a, beta_b),
        jac_x=lambda y, u: reduced3_jacobian(y, spec, u),
    )


# ata_problem builds through this alias: a tracer that rebinds the public name
# to wrap each problem's callbacks must not wrap ata_problem's twice.
_reduced3_problem = reduced3_problem


def ata_problem(n: int, n3: int, beta: float) -> ContinuationProblem:
    """Continuation over u of the all-to-all swap-symmetric reduced field:
    the three-group problem with n1 = n2 = n, unit coupling, beta_A = beta_B = beta.

    No runner calls it: value sensitivity reads u* off the closed-form trunk
    with ``ustar_numeric``.  It stays as the continuation reference for that
    scan and as one of the problem factories the benchmark tracer wraps.
    """
    return _reduced3_problem(PopulationSpec(n, n, n3), beta, beta)


@dataclass
class SingularPoint:
    kind: str                   # "pitchfork" | "fold" | "ambiguous"
    param: float
    x: np.ndarray
    null_right: np.ndarray
    null_left: np.ndarray
    tangent_param: float
    refined: bool               # the bracket closed to REFINE_TOL


@dataclass
class Branch:
    points: list[Equilibrium] = field(default_factory=list)
    singular_points: list[SingularPoint] = field(default_factory=list)
    terminated: str = "range"


def _equilibrium(problem, x, p) -> Equilibrium:
    """Branch point (x, p) tagged with the number of unstable eigenvalues of
    J and the sign and log-magnitude of det J.

    With ``problem.jac_sym`` one ``eigvalsh`` gives all three; otherwise
    ``eigvals`` gives the count of unstable eigenvalues and ``slogdet`` the
    determinant.
    """
    if problem.jac_sym is None:
        jac = np.atleast_2d(problem.jac_x(x, p))
        n_unstable = int(np.sum(np.linalg.eigvals(jac).real > STABILITY_MARGIN))
        sign, logdet = np.linalg.slogdet(jac)
    else:
        ev = np.linalg.eigvalsh(problem.jac_sym(x, p))
        n_unstable = int(np.sum(ev > STABILITY_MARGIN))
        sign = np.prod(np.sign(ev))
        with np.errstate(divide="ignore"):
            logdet = np.sum(np.log(np.abs(ev)))
    return Equilibrium(x=np.asarray(x, dtype=float), param=float(p),
                       n_unstable=n_unstable, det_sign=float(sign),
                       log_abs_det=float(logdet))


def _arclength_weights(n):
    """Weights w of the RMS arclength norm z.(w z) = ||x||^2/n + p^2 on z = (x, p)."""
    w = np.full(n + 1, 1.0 / n)
    w[n] = 1.0
    return w


def _bordered(problem, x, p, row):
    """The bordered matrix [[J, f_p], [row]] of the extended system at (x, p)."""
    n = len(x)
    bordered = np.empty((n + 1, n + 1))
    bordered[:n, :n] = problem.jac_x(x, p)
    bordered[:n, n] = problem.fp(x, p)
    bordered[n] = row
    return bordered


def _tangent(problem, x, p, reference):
    """Tangent of the solution curve, of unit RMS arclength norm, oriented
    along `reference`.

    The last row of the bordered system sets reference.tan = 1, which fixes
    the orientation; a singular bordered matrix raises BifurcationError.
    """
    n = len(x)
    bordered = _bordered(problem, x, p, reference)
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    try:
        tan = np.linalg.solve(bordered, rhs)
    except np.linalg.LinAlgError as exc:
        raise BifurcationError(f"singular bordered matrix at p = {p}") from exc
    return tan / np.sqrt(tan @ (_arclength_weights(n) * tan))


def _correct(problem, z_pred, row):
    """Newton on the bordered system {f(x, p) = 0, row.(z - z_pred) = 0}.

    Returns z with ||f||_inf <= NEWTON_TOL within 25 iterations, else None.
    """
    n = len(z_pred) - 1
    z = z_pred.copy()
    rhs = np.empty(n + 1)
    for _ in range(25):
        fx = problem.f(z[:n], z[n])
        if np.abs(fx).max() <= NEWTON_TOL:
            return z
        rhs[:n] = -fx
        rhs[n] = -(row @ (z - z_pred))
        try:
            z = z + np.linalg.solve(_bordered(problem, z[:n], z[n], row), rhs)
        except np.linalg.LinAlgError:
            return None
    return z if np.abs(problem.f(z[:n], z[n])).max() <= NEWTON_TOL else None


def _solve_at_param(problem, x_guess, p):
    return newton_solve(lambda x: problem.f(x, p), lambda x: problem.jac_x(x, p), x_guess)


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
                    h_max: float = 0.1,
                    symmetric_trunk: bool = False,
                    initial_reference: np.ndarray | None = None) -> Branch:
    """Pseudo-arclength predictor-corrector with singularity detection.

    Arclength is RMS arclength, ||dx||^2/n + dp^2, so the point count on a
    consensus branch does not grow with n.  Steps grow from H0 up to h_max
    and halve down to H_MIN on corrector failure.  Records stability flips,
    refines sign changes of det(J) and of the parameter component of the
    tangent to REFINE_TOL in the parameter, and classifies each refined
    point.  The first tangent is oriented along `initial_reference` when
    given (e.g. away from a singular point after branch switching),
    otherwise towards increasing parameter.
    """
    p_lo, p_hi = min(p_range), max(p_range)
    x = _solve_at_param(problem, np.asarray(x_start, dtype=float), p_start)
    branch = Branch()
    eq = _equilibrium(problem, x, p_start)
    n = len(x)
    w = _arclength_weights(n)
    if initial_reference is not None:
        ref = np.asarray(initial_reference, dtype=float)
        ref = ref / np.linalg.norm(ref)
    else:
        ref = np.zeros(n + 1)
        ref[n] = 1.0
    tan = _tangent(problem, x, p_start, ref)
    eq.tangent = tan
    branch.points.append(eq)

    h = H0
    z = np.concatenate([x, [p_start]])
    while len(branch.points) < MAX_POINTS:
        z_new = None
        while h >= H_MIN:
            z_pred = z + h * tan
            z_new = _correct(problem, z_pred, w * tan)
            if z_new is not None:
                break
            h *= 0.5
        if z_new is None:
            branch.terminated = "corrector failure"
            break

        x_new, p_new = z_new[:n], z_new[n]
        past_end = not p_lo <= p_new <= p_hi
        if past_end:
            # the last point is solved at the end of the range itself
            p_new = p_hi if p_new > p_hi else p_lo
            x_new = _solve_at_param(problem, x_new, p_new)
        eq_new = _equilibrium(problem, x_new, p_new)
        eq_new.tangent = _tangent(problem, x_new, p_new, tan)
        _detect_events(problem, branch, branch.points[-1], eq_new, symmetric_trunk)
        branch.points.append(eq_new)
        if past_end:
            break                       # branch.terminated keeps its "range"
        z, tan = z_new, eq_new.tangent
        h = min(h * 1.3, h_max)
    else:
        branch.terminated = "max points"
    return branch


def _detect_events(problem, branch, prev: Equilibrium, new: Equilibrium, symmetric_trunk):
    if prev.tangent[-1] * new.tangent[-1] < 0:
        # a fold also flips det(J); the tangent refinement owns the interval
        sp = _refine_fold(problem, prev, new)
    elif prev.det_sign * new.det_sign < 0:
        sp = _refine_det_flip(problem, prev, new)
    else:
        return
    sp.kind = classify_singularity(sp, problem, symmetric_trunk=symmetric_trunk)
    branch.singular_points.append(sp)


def _refine_det_flip(problem, eq_lo: Equilibrium, eq_hi: Equilibrium):
    """Parameter bisection of a det(J) sign change between two branch points.

    Fixed-parameter Newton from the interpolated state is well conditioned
    everywhere except at the singular parameter itself, unlike the arclength
    corrector, whose bordered matrix is singular at a branch point on a
    symmetric trunk.  The point is `refined` when the parameter bracket
    closed to REFINE_TOL, not when the Newton solve at a midpoint failed.
    """
    p_lo, p_hi = eq_lo.param, eq_hi.param
    x_lo, x_hi = eq_lo.x, eq_hi.x
    s_lo = eq_lo.det_sign
    for _ in range(80):
        if abs(p_hi - p_lo) <= REFINE_TOL:
            break
        p_mid = p_lo + 0.5 * (p_hi - p_lo)
        try:
            x_mid = _solve_at_param(problem, x_lo + 0.5 * (x_hi - x_lo), p_mid)
        except BifurcationError:
            break
        s_mid, _ = np.linalg.slogdet(np.atleast_2d(problem.jac_x(x_mid, p_mid)))
        if s_mid == s_lo or s_mid == 0.0:
            p_lo, x_lo, s_lo = p_mid, x_mid, s_mid
        else:
            p_hi, x_hi = p_mid, x_mid
    x_sp = 0.5 * (x_lo + x_hi)
    p_sp = 0.5 * (p_lo + p_hi)
    return _singular_point_at(problem, x_sp, p_sp, eq_lo.tangent,
                              refined=abs(p_hi - p_lo) <= REFINE_TOL)


def _refine_fold(problem, eq_lo: Equilibrium, eq_hi: Equilibrium):
    """Arclength bisection of a tangent-parameter sign change (fold bracket).

    The bordered corrector is nonsingular at a fold, so arclength bisection is
    safe here; the parameter gap collapses quadratically with arclength.
    The point is `refined` when the bracket closed to REFINE_TOL in the
    parameter and 1e-7 in the state, not when the corrector failed first.
    """
    n = len(eq_lo.x)
    w = _arclength_weights(n)
    z_lo = np.concatenate([eq_lo.x, [eq_lo.param]])
    z_hi = np.concatenate([eq_hi.x, [eq_hi.param]])
    tan_lo = eq_lo.tangent
    val_lo = tan_lo[-1]

    def closed():
        return abs(z_hi[n] - z_lo[n]) <= REFINE_TOL and np.linalg.norm(z_hi - z_lo) <= 1e-7

    for _ in range(80):
        if closed():
            break
        z_mid_pred = 0.5 * (z_lo + z_hi)
        z_mid = _correct(problem, z_mid_pred, w * tan_lo)
        if z_mid is None:
            break
        tan_mid = _tangent(problem, z_mid[:n], z_mid[n], tan_lo)
        if tan_mid[-1] * val_lo > 0:
            z_lo, tan_lo, val_lo = z_mid, tan_mid, tan_mid[-1]
        else:
            z_hi = z_mid
    x_sp = 0.5 * (z_lo[:n] + z_hi[:n])
    p_sp = 0.5 * (z_lo[n] + z_hi[n])
    return _singular_point_at(problem, x_sp, p_sp, tan_lo, refined=closed())


def _singular_point_at(problem, x_sp, p_sp, tan_ref, refined: bool):
    right, left = null_vectors(np.atleast_2d(problem.jac_x(x_sp, p_sp)))
    tangent_param = float(_tangent(problem, x_sp, p_sp, tan_ref)[-1])
    return SingularPoint(kind="unclassified", param=float(p_sp), x=np.asarray(x_sp),
                         null_right=right, null_left=left,
                         tangent_param=tangent_param, refined=bool(refined))


def classify_singularity(sp: SingularPoint, problem: ContinuationProblem,
                         symmetric_trunk: bool = False) -> str:
    """Distinguish fold from pitchfork at a refined singular point.

    A fold has a vanishing parameter component of the branch tangent and a
    nonzero quadratic normal-form coefficient.  A det(J) flip with a
    transversal tangent is a pitchfork on a symmetric trunk, where symmetry
    makes the bifurcating pair; elsewhere it is reported as ambiguous, never
    silently resolved.
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
    return "pitchfork" if symmetric_trunk else "ambiguous"


def _amplitude_solve(problem, sp: SingularPoint, a: float):
    """Solve {f(x,p)=0, phi.(x - x*) = a} for z = (x, p), or return None.

    The corrector from z_pred = (x* + a phi, p*) with row (phi, 0): phi has
    unit norm, so its constraint is the amplitude.  Along the null
    eigenvector the bordered matrix stays nonsingular arbitrarily close to
    the singular point, which a plain fixed-parameter solve does not.
    """
    phi = sp.null_right
    return _correct(problem, np.append(sp.x + a * phi, sp.param), np.append(phi, 0.0))


def branch_switch(problem: ContinuationProblem, sp: SingularPoint,
                  direction: int) -> Equilibrium:
    """Seed a bifurcating branch just past a pitchfork.

    Solves the amplitude-constrained system phi.(x - x*) = direction*SWITCH_OFFSET,
    letting the parameter move past the singularity.  A failed solve raises
    BifurcationError: it suggests a misclassified point.
    """
    z = _amplitude_solve(problem, sp, direction * SWITCH_OFFSET)
    if z is None:
        raise BifurcationError(f"branch switch failed at amplitude {SWITCH_OFFSET:g} "
                               "(misclassified singular point?)")
    return _equilibrium(problem, z[:-1], z[-1])


def trace_trunk(problem: ContinuationProblem, x_start: np.ndarray,
                p_range: tuple[float, float], h_max: float
                ) -> tuple[Branch, SingularPoint | None]:
    """Continue the symmetric trunk from p_range[0] over p_range; return it
    with its first pitchfork, or None when it has none."""
    trunk = continue_branch(problem, x_start, p_range[0], p_range, h_max=h_max,
                            symmetric_trunk=True)
    pitchforks = [sp for sp in trunk.singular_points if sp.kind == "pitchfork"]
    return trunk, (pitchforks[0] if pitchforks else None)


def switched_branch(problem: ContinuationProblem, sp: SingularPoint, direction: int,
                    p_range: tuple[float, float], h_max: float) -> Branch:
    """Continue over p_range the branch bifurcating at pitchfork `sp` on the
    side `direction` (+1 or -1) of its null vector, seeded by branch_switch
    and oriented away from `sp`."""
    seed = branch_switch(problem, sp, direction)
    ref = np.concatenate([seed.x - sp.x, [seed.param - sp.param]])
    return continue_branch(problem, seed.x, seed.param, p_range,
                           h_max=h_max, initial_reference=ref)


def reflected(branch: Branch, perm: tuple[int, ...] | None = None) -> Branch:
    """The image of `branch` under the signed permutation x -> -x[perm]
    (x -> -x when perm is None), for a field equivariant under it:
    f(-x[perm], p) = -f(x, p)[perm].

    Every state, the state part of every tangent and every singular state
    are mapped.  With Pi the permutation, J(-x[perm]) = Pi J(x) Pi^T (the
    signs cancel), so the eigenvalues, and with them the stability tags and
    determinants, are kept, and each null vector phi becomes phi[perm] (a
    copy); every parameter is kept.  An involution perm, such as a swap,
    maps the image back to `branch`.
    """
    idx = slice(None) if perm is None else list(perm)

    def point(eq):
        tangent = None if eq.tangent is None else np.append(-eq.tangent[:-1][idx],
                                                            eq.tangent[-1])
        return replace(eq, x=-eq.x[idx], tangent=tangent)

    return Branch(points=[point(eq) for eq in branch.points],
                  singular_points=[replace(sp, x=-sp.x[idx], null_right=sp.null_right[idx].copy(),
                                           null_left=sp.null_left[idx].copy())
                                   for sp in branch.singular_points],
                  terminated=branch.terminated)


# ---------------------------------------------------------------------------
# Scalar roots and closed-form approximations
# ---------------------------------------------------------------------------

def y_s(u: float, tol: float = 1e-12) -> float:
    """Positive root of y - u tanh(y) = 0 (bracketing bisection + Newton polish).

    The polish stops when its step meets `tol` or when the residual is at the
    round-off level of its two terms; just above u = 1 the root is
    ill-conditioned and the step stalls above `tol`.  Raises BifurcationError
    if the derivative rounds to 0 away from a root, or if neither happens
    within 50 Newton steps.
    """
    if not np.isfinite(u):
        raise ValueError(f"effort u must be finite (got {u})")
    if u <= 1.0:
        raise ValueError("the branch equation has a positive root only for u > 1")
    lo, hi = 1e-12, float(u) + 1.0

    def f(y):
        return y - u * float(np.tanh(y))

    def at_roundoff(y):
        term = u * float(np.tanh(y))
        return abs(y - term) <= 2 * EPS * (abs(y) + abs(term))

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
        df = 1.0 - u * float(sech2(y))
        if df == 0:
            if at_roundoff(y):
                return float(y)
            raise BifurcationError(f"branch root: the Newton derivative rounds to 0 "
                                   f"at y = {y} (u = {u})")
        step = f(y) / df
        y -= step
        if abs(step) <= tol * max(1.0, abs(y)) or at_roundoff(y):
            return float(y)
    raise BifurcationError(f"branch root did not converge in 50 Newton steps (u = {u})")


def ystar_root(u: float, beta: float, n_agents: int, tol: float = NEWTON_TOL) -> float:
    """Unique root of (N-1) y + u tanh(y) - beta = 0 (strictly increasing LHS)."""
    if not (np.isfinite(u) and np.isfinite(beta)):
        raise ValueError(f"u and beta must be finite (got u = {u}, beta = {beta})")
    if n_agents < 2 or u < 0:
        raise ValueError("need N >= 2 and u >= 0")
    k = n_agents - 1

    def f(y):
        return k * y + u * float(np.tanh(y)) - beta

    y = beta / (k + u) if (k + u) > 0 else 0.0
    for _ in range(100):
        df = k + u * float(sech2(y))
        step = f(y) / df
        y -= step
        if abs(step) <= tol * max(1.0, abs(y)) and abs(f(y)) <= 1e-14 * max(1.0, abs(beta)):
            return float(y)
    raise BifurcationError(f"deadlock root did not converge in 100 Newton steps "
                           f"(u = {u}, beta = {beta}, N = {n_agents})")


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


def _first_det_flip(jac_at: Callable, grid: np.ndarray, tol: float) -> float | None:
    """First parameter on `grid` where det(jac_at(p)) changes sign, or None.

    Scans the grid for the first point whose sign is 0 or differs from the
    next one, then bisects that bracket until it is at most tol wide and
    returns its midpoint.
    """
    def sign_at(p):
        return np.linalg.slogdet(jac_at(p))[0]

    signs = [sign_at(p) for p in grid]
    for lo, hi, s_lo, s_hi in zip(grid[:-1], grid[1:], signs[:-1], signs[1:]):
        if s_lo == 0.0:
            return float(lo)
        if s_lo * s_hi < 0:
            break
    else:
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        s_mid = sign_at(mid)
        if s_mid == 0.0:
            return float(mid)
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


def ustar_numeric(n: int, n3: int, beta: float,
                  u_range: tuple[float, float] = (0.5, 3.0)) -> float:
    """Singular effort of the swap-symmetric reduced model, solved numerically.

    Finds the first zero of u -> det J3(y*(u), u) over the scan range, where
    y*(u) solves the deadlock root equation, so the trunk y = (y*, -y*, 0) is
    known in closed form; bisection to a bracket of 1e-10.  This is how
    ``experiments.run_value_sensitivity`` gets each u*.
    """
    big_n = 2 * n + n3
    spec = PopulationSpec(n, n, n3)

    def jac_at(u):
        ys = ystar_root(u, beta, big_n)
        return reduced3_jacobian(np.array([ys, -ys, 0.0]), spec, u)

    u_star = _first_det_flip(jac_at, np.linspace(u_range[0], u_range[1], 61), 1e-10)
    if u_star is None:
        raise BifurcationError(
            f"no singular point of the reduced model in u range {u_range}"
        )
    return u_star


@dataclass
class SingularEffort:
    ubar: float
    null_right: np.ndarray


def ubar_star(g: Graph, utilde: np.ndarray) -> SingularEffort:
    """Mean effort at which the heterogeneous linearization at 0 is singular.

    Scans det(-D + U A) over ubar in [0.5, 1.5] for a sign change near
    ubar = 1 and bisects it to 1e-12; also returns the null right
    eigenvector normalized to unit mean.  The heterogeneities utilde must
    sum to zero, so that ubar is the mean effort.
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
        return jacobian(np.zeros(g.n), g, ub + utilde)

    ub = _first_det_flip(jac_at, np.linspace(0.5, 1.5, 101), 1e-12)
    if ub is None:
        raise BifurcationError("no singular mean effort in bracket (0.5, 1.5)")
    right, _ = null_vectors(jac_at(ub))
    mean = right.mean()
    if abs(mean) > 1e-12:
        right = right / mean
    return SingularEffort(ubar=ub, null_right=right)

"""Equilibria, linear stability, pseudo-arclength continuation with
singularity detection/classification, and closed-form bifurcation-point
approximations for the structured network models.

Every Newton iteration of continuation is ``newton_solve``.  The arclength
corrector (``_correct``) runs it on the extended unknown z = (x, p), with the
bordered matrix [[J, f_p], [row]] (``_bordered``) as Jacobian, for a
branch's end points (row e_p), continuation steps, refinement and branch
switching; the same matrix gives each tangent.  Arclength is measured in the
RMS norm ||x||^2/n + p^2 (``Lift.weights``), so a step costs the same on a
consensus branch x = y 1 at any network size n.  A branch reaches the end of
its range or raises BifurcationError, as do a singular bordered matrix and a
failed branch switch; nothing falls back.  A fold is a sign change of the
tangent's parameter component between two branch points, any other singular
point one of det J; one bisection along the branch, ``_refine``, closes
either bracket, and the test that flipped names the point (``_detect_events``).

A pitchfork diagram is ``trace_trunk`` (the symmetric trunk and its first
pitchfork), then one ``switched_branch`` per bifurcating branch.  When the
field is equivariant under a signed permutation P x = -x[perm] whose fixed
space holds the trunk, f(P x, p) = P f(x, p), the second branch is the
``reflected`` first: under x -> -x on an odd field, and under the group swap
-(y2, y1, y3) on the three-group field with n1 = n2 and beta_A = beta_B.
``ubar_star`` and ``ustar_numeric`` share one scan for the first det(J) sign
change, ``_first_det_flip``; one bisection, ``_bisect``, closes its bracket and
finds the branch root ``y_s``.  Null vectors come from one SVD, with phi
oriented to a nonnegative sum (``null_vectors``).

Each branch point is tagged with its count of unstable eigenvalues and the
sign and log-magnitude of det J (``_equilibrium``).  On an undirected graph J
is similar to a symmetric J_sym, and a stable point, where -J_sym is
positive definite, is tagged by one Cholesky factorization; only a point
with an eigenvalue >= 0 needs the spectrum.

Both continuation runners build their problem with one factory,
``model_problem``: the model equation with its analytic derivatives, jac_p
included.  The quintic transition continues the three-group quotient with its
information.  A network diagram is continued on the quotient of the graph's
coarsest equitable partition (``quotient_problem``), one unknown per cell,
whose points and tangents bracket each singular point; each branch point is
the lifted state (``Lift``).  Tags, det flips and their refinement, null
vectors and classification use the network's J at the lifted state, so a
flip that breaks symmetry inside a cell is still found.  With singleton cells
the quotient is the network, bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .dynamics import NEGATIVE_EFFORT, _field, normalized_field, reduced3_field, sech2
from .graphs import Graph, PopulationSpec, cell_weights, equitable_partition

NEWTON_TOL = 1e-12
REFINE_TOL = 1e-8
# Continuation step control: first and smallest RMS-arclength step, point
# budget, and the smallest RMS cosine between the tangents of an accepted step.
H0 = 0.01
H_MIN = 1e-5
MAX_POINTS = 20_000
TANGENT_COS_MIN = 0.99
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
    # A float (np.float64 too) skips np.reshape, which costs more than the 3x3
    # product; other efforts take shape (1, 1), or (n, 1) per agent.
    if not isinstance(u, float):
        u = np.reshape(u, (-1, 1))
    return _minus_degrees((u * weights) * sech2(x), degrees)


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
    """A branch point (x, p) and its tags (``_equilibrium``)."""

    x: np.ndarray
    param: float
    n_unstable: int             # eigenvalues of J with real part > STABILITY_MARGIN
    det_sign: float = 0.0
    log_abs_det: float = -np.inf


def newton_solve(f: Callable, jac: Callable, x0: np.ndarray) -> np.ndarray:
    """Damped Newton iteration to ||f||_inf <= NEWTON_TOL within 50 steps,
    each step halved from 1 until the residual falls (Deuflhard), else
    BifurcationError with the reason.  The arclength corrector runs it; f
    may refill and return one buffer."""
    x = np.array(x0, dtype=float)
    fx = f(x)
    norm = np.abs(fx).max()
    for _ in range(50):
        if norm <= NEWTON_TOL:
            return x
        try:
            step = np.linalg.solve(jac(x), -fx)
        except np.linalg.LinAlgError as exc:
            raise BifurcationError(f"singular Newton matrix: {exc}") from exc
        lam = 1.0
        while lam > 1e-6:
            x_new = x + step if lam == 1.0 else x + lam * step
            fx = f(x_new)
            norm_new = np.abs(fx).max()
            if norm_new < norm or norm_new <= NEWTON_TOL:
                break
            lam *= 0.5
        else:
            raise BifurcationError("Newton damping failed to reduce the residual")
        x, norm = x_new, norm_new
    if norm <= NEWTON_TOL:
        return x
    raise BifurcationError(f"Newton did not converge (residual {norm:.3e})")


# ---------------------------------------------------------------------------
# Continuation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuationProblem:
    """Parameterized equilibrium problem f(x, p) = 0 with analytic Jacobians.

    jac_p defaults to a central finite difference of step h = 1e-7, centred
    at max(p, h): a problem without jac_p is continued in an effort u >= 0.
    Every runner's problem supplies jac_p; only ``reduced3_problem`` and
    ``ata_problem`` take the difference, as the benchmark tracer's reference.
    jac_sym, when supplied, returns a symmetric matrix similar to jac_x; the
    stability of each branch point is then tagged on it, by one Cholesky
    factorization of -jac_sym at a stable point and by ``eigvalsh`` at any
    other (``_equilibrium``).  Only the tag reads jac_sym: tangents,
    correctors, null vectors and branch switching use jac_x.
    """

    f: Callable[[np.ndarray, float], np.ndarray]
    jac_x: Callable[[np.ndarray, float], np.ndarray]
    jac_p: Callable[[np.ndarray, float], np.ndarray] | None = None
    jac_sym: Callable[[np.ndarray, float], np.ndarray] | None = None

    def fp(self, x, p):
        if self.jac_p is not None:
            return self.jac_p(x, p)
        h = 1e-7
        p = max(p, h)
        return (self.f(x, p + h) - self.f(x, p - h)) / (2 * h)


def normalized_problem(g: Graph) -> ContinuationProblem:
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
        f=lambda x, u: normalized_field(x, g, u),
        jac_x=lambda x, u: jacobian(x, g, u),
        jac_p=lambda x, u: g.weights @ np.tanh(x),
        jac_sym=jac_sym,
    )


@dataclass(frozen=True)
class Lift:
    """The map from a quotient problem back to the network: a quotient state
    y lifts to the cell-constant state y[cells], where cells[i] is the cell
    of agent i, numbered by first agent.  Only states are lifted: tangents
    stay on the quotient.

    ``network`` is the network's problem, on which every lifted point is
    tagged and every singular point located and classified.  ``sizes``
    counts the agents of each cell, ``first`` is each cell's first agent,
    and ``weights`` are the RMS arclength weights (n_k / n per cell, 1 on the
    parameter): ||y[cells]||^2 / n = sum_k n_k y_k^2 / n.
    """

    network: ContinuationProblem
    cells: np.ndarray

    def __post_init__(self):
        sizes = np.bincount(self.cells).astype(float)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "first", np.unique(self.cells, return_index=True)[1])
        object.__setattr__(self, "weights", np.append(sizes / sizes.sum(), 1.0))

    def state(self, y: np.ndarray) -> np.ndarray:
        return y[self.cells]

    def point(self, z: np.ndarray) -> Equilibrium:
        """The lifted branch point z = (y, p), tagged on the network."""
        return _equilibrium(self.network, self.state(z[:-1]), z[-1])

    def constant_on_cells(self, phi: np.ndarray) -> bool:
        """Whether phi is constant on every cell, to REFINE_TOL."""
        return bool(np.abs(phi - self.state(phi[self.first])).max() <= REFINE_TOL)


def _identity(problem: ContinuationProblem, n: int) -> Lift:
    """The lift of a problem continued on its own state space: n singleton cells."""
    return Lift(problem, np.arange(n))


def model_problem(degrees: np.ndarray, weights: np.ndarray,
                  beta: np.ndarray | None = None) -> ContinuationProblem:
    """The model equation -D y + u B tanh(y) + beta over the effort u >= 0,
    with its analytic derivatives: J = -D + u B diag(sech^2 y) and
    jac_p = B tanh(y).  degrees, weights B and beta are fixed arrays, so a
    quotient and the three-group model are built by the same factory."""
    def f(y, u):
        if not u >= 0:
            raise ValueError(NEGATIVE_EFFORT)
        return _field(y, degrees, weights, u, beta)

    return ContinuationProblem(
        f=f,
        jac_x=lambda y, u: _jacobian(y, degrees, weights, u),
        jac_p=lambda y, u: weights @ np.tanh(y),
    )


def quotient_problem(g: Graph) -> tuple[ContinuationProblem, Lift]:
    """The normalized network field on the quotient of g's coarsest equitable
    partition (``equitable_partition``), over u, and its lift to g.

    The quotient is the model equation (``model_problem``) on the first agent
    of each cell: its degrees, and B[k, m], its weight sum into cell m.  The
    cell-constant states are invariant under the field, which there equals
    the quotient field, lifted.  A partition into singletons gives B = A and
    the network's arithmetic bit for bit.
    """
    lift = Lift(normalized_problem(g), equitable_partition(g))
    return model_problem(g.degrees[lift.first],
                         cell_weights(g.weights[lift.first], lift.cells)), lift


def reduced3_problem(spec: PopulationSpec, beta_a: float, beta_b: float) -> ContinuationProblem:
    """Continuation of the three-group reduced field over u."""
    return ContinuationProblem(
        f=lambda y, u: reduced3_field(y, spec, u, beta_a, beta_b),
        jac_x=lambda y, u: reduced3_jacobian(y, spec, u),
    )


def ata_problem(n: int, n3: int, beta: float) -> ContinuationProblem:
    """Continuation over u of the all-to-all swap-symmetric reduced field:
    the three-group problem with n1 = n2 = n, unit coupling, beta_A = beta_B = beta.

    No runner calls it: value sensitivity reads u* off the closed-form trunk
    with ``ustar_numeric``, and the quintic transition continues
    ``model_problem``.  Like ``reduced3_problem`` it has no jac_p.  It stays
    as the continuation reference for that scan and as one of the problem
    factories the benchmark tracer wraps.
    """
    return reduced3_problem(PopulationSpec(n, n, n3), beta, beta)


@dataclass
class SingularPoint:
    kind: str                   # "pitchfork" | "fold" | "ambiguous"
    param: float
    x: np.ndarray
    null_right: np.ndarray
    refined: bool               # the bracket closed to REFINE_TOL


@dataclass
class Branch:
    points: list[Equilibrium] = field(default_factory=list)
    singular_points: list[SingularPoint] = field(default_factory=list)


def _equilibrium(problem, x, p) -> Equilibrium:
    """Branch point (x, p) tagged with the number of unstable eigenvalues of
    J and the sign and log-magnitude of det J.

    With ``problem.jac_sym`` (symmetric, similar to J) a point is stable
    exactly when -J_sym is positive definite, which one Cholesky
    factorization -J_sym = L L^T decides (Golub & Van Loan, *Matrix
    Computations*, 4.2): then every eigenvalue is negative, so n_unstable = 0,
    det J has the sign (-1)^n and log|det J| = 2 sum log L_ii.  Only when the
    factorization fails does ``eigvalsh`` count the eigenvalues.  Without
    ``jac_sym``, ``eigvals`` gives the count and ``slogdet`` the determinant.
    """
    if problem.jac_sym is None:
        jac = problem.jac_x(x, p)
        n_unstable = int(np.sum(np.linalg.eigvals(jac).real > STABILITY_MARGIN))
        sign, logdet = np.linalg.slogdet(jac)
    else:
        jac = problem.jac_sym(x, p)
        try:
            chol = np.linalg.cholesky(-jac)
        except np.linalg.LinAlgError:
            ev = np.linalg.eigvalsh(jac)
            n_unstable = int(np.sum(ev > STABILITY_MARGIN))
            sign = np.prod(np.sign(ev))
            with np.errstate(divide="ignore"):
                logdet = np.sum(np.log(np.abs(ev)))
        else:
            n_unstable = 0
            sign = (-1.0) ** len(jac)
            logdet = 2.0 * np.sum(np.log(np.diagonal(chol)))
    return Equilibrium(x=np.asarray(x, dtype=float), param=float(p),
                       n_unstable=n_unstable, det_sign=float(sign),
                       log_abs_det=float(logdet))


def _bordered(problem, x, p, row):
    """The bordered matrix [[J, f_p], [row]] of the extended system at (x, p)."""
    n = len(x)
    bordered = np.empty((n + 1, n + 1))
    bordered[:n, :n] = problem.jac_x(x, p)
    bordered[:n, n] = problem.fp(x, p)
    bordered[n] = row
    return bordered


def _tangent(problem, x, p, reference, weights):
    """Tangent of the solution curve, of unit RMS arclength norm t.(weights t)
    (``Lift.weights``), oriented along `reference`.

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
    return tan / np.sqrt(tan @ (weights * tan))


def _correct(problem, z_pred, row):
    """The arclength corrector: ``newton_solve`` from z_pred on
    F(z) = (f(x, p), row.(z - z_pred)) = 0, with Jacobian ``_bordered``."""
    n = len(z_pred) - 1
    res = np.empty(n + 1)

    def residual(z):
        res[:n] = problem.f(z[:n], z[n])
        res[n] = row @ (z - z_pred)
        return res

    return newton_solve(residual, lambda z: _bordered(problem, z[:n], z[n], row), z_pred)


def null_vectors(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit null vectors (phi, psi) of J and J^T: the right and left singular
    vectors of the smallest singular value of a singular `jac`, with phi
    oriented to a nonnegative sum, the side of positive mean opinion."""
    u, _, vh = np.linalg.svd(jac)
    right = vh[-1]
    return (-right if right.sum() < 0 else right), u[:, -1]


def continue_branch(problem: ContinuationProblem, x_start: np.ndarray,
                    p_start: float, p_range: tuple[float, float],
                    h_max: float = 0.1,
                    symmetric_trunk: bool = False,
                    initial_reference: np.ndarray | None = None,
                    lift: Lift | None = None) -> Branch:
    """Pseudo-arclength predictor-corrector with singularity detection.

    Arclength is RMS arclength, ||dx||^2/n + dp^2, so the point count on a
    consensus branch does not grow with n.  Steps grow from H0 up to h_max
    and halve down to H_MIN on corrector failure, or when the tangent turns
    by an RMS cosine below TANGENT_COS_MIN (the step may have jumped a fold
    pair).  A sign change between consecutive points, of the tangent's
    parameter component (a fold) or else of det(J), is closed by ``_refine``
    and named by its test (``_detect_events``).  The first tangent t is
    oriented to initial_reference.t > 0 when given, otherwise towards
    increasing parameter.
    The first point is solved at p_start and the last at an end of p_range,
    by the corrector with row e_p; a branch that cannot get there raises
    BifurcationError with the parameter reached and the reason.

    With a `lift`, `problem` and x_start are a quotient's: steps, correctors
    and tangents run on it, in the RMS arclength of the lifted states, and
    each point is stored as its lifted state, tagged on ``lift.network``,
    whose det(J) also decides and refines each det flip.
    """
    p_lo, p_hi = min(p_range), max(p_range)
    n = len(x_start)
    lift = lift or _identity(problem, n)
    w = lift.weights
    e_p = np.zeros(n + 1)
    e_p[n] = 1.0
    z = _correct(problem, np.append(x_start, p_start), e_p)
    if initial_reference is not None:
        ref = np.asarray(initial_reference, dtype=float)
        ref = ref / np.linalg.norm(ref)
    else:
        ref = e_p
    tan = _tangent(problem, z[:n], z[n], ref, w)
    branch = Branch(points=[lift.point(z)])

    h = H0
    for _ in range(MAX_POINTS - 1):
        row = w * tan
        while True:
            try:
                z_new = _correct(problem, z + h * tan, row)
            except BifurcationError as exc:
                if h * 0.5 < H_MIN:
                    raise BifurcationError(
                        f"continuation stopped at p = {z[n]}: the corrector failed at "
                        f"every step down to H_MIN = {H_MIN:g} ({exc})") from exc
            else:
                if not p_lo <= z_new[n] <= p_hi:
                    break
                tan_new = _tangent(problem, z_new[:n], z_new[n], tan, w)
                if row @ tan_new >= TANGENT_COS_MIN or h * 0.5 < H_MIN:
                    break
            h *= 0.5

        past_end = not p_lo <= z_new[n] <= p_hi
        if past_end:
            # the last point is solved at the end of the range itself
            z_new = _correct(problem, np.append(z_new[:n], p_hi if z_new[n] > p_hi else p_lo),
                             e_p)
            tan_new = _tangent(problem, z_new[:n], z_new[n], tan, w)
        branch.points.append(lift.point(z_new))
        _detect_events(problem, branch, (z, tan), (z_new, tan_new), symmetric_trunk, lift)
        if past_end:
            return branch
        z, tan = z_new, tan_new
        h = min(h * 1.3, h_max)
    raise BifurcationError(f"continuation stopped at p = {z[n]}: MAX_POINTS = {MAX_POINTS} "
                           f"points did not reach the end of the range [{p_lo}, {p_hi}]")


def _detect_events(problem, branch, lo, hi, symmetric_trunk, lift: Lift):
    """Refine and append to `branch` the singular point, if any, between its
    last two points, whose continued (z, tangent) are lo and hi.

    The test that flipped names the point, refined or not.  A flip of the
    tangent's parameter component is a fold (``_fold_kind``).  A flip of
    det(J) alone is a pitchfork on a symmetric trunk, where symmetry makes
    the bifurcating pair; elsewhere it is "ambiguous", never silently resolved.
    """
    tan_lo, tan_hi = lo[1], hi[1]
    prev, new = branch.points[-2:]
    fold = tan_lo[-1] * tan_hi[-1] < 0
    if fold:
        # a fold also flips det(J); the tangent test owns the interval
        sign_lo, test = np.sign(tan_lo[-1]), lambda y, p: np.sign(
            _tangent(problem, y, p, tan_lo, lift.weights)[-1])
    elif prev.det_sign * new.det_sign < 0:
        sign_lo, test = prev.det_sign, lambda y, p: np.linalg.slogdet(
            lift.network.jac_x(lift.state(y), p))[0]
    else:
        return
    x, p, refined = _refine(problem, lo, hi, sign_lo, test, lift)
    phi, psi = null_vectors(lift.network.jac_x(x, p))
    kind = (_fold_kind(lift.network, x, p, phi, psi) if fold
            else "pitchfork" if symmetric_trunk else "ambiguous")
    branch.singular_points.append(SingularPoint(kind, p, x, phi, refined))


def _refine(problem, lo, hi, sign_lo: float,
            test: Callable[[np.ndarray, float], float], lift: Lift
            ) -> tuple[np.ndarray, float, bool]:
    """Bisect along the branch the sign change of `test` (a fold's tangent
    parameter component, or the sign of det J) between the continued points
    lo = (z_lo, tan_lo), where it is sign_lo, and hi = (z_hi, tan_hi)
    (Kuznetsov, *Elements of Applied Bifurcation Theory*, 10.2).  Each chord
    midpoint is corrected by ``_correct`` with the row of tan_lo (e_p on a
    trunk where f_p = 0: the fixed-parameter solve) and replaces the end
    whose sign it shares.  The point is `refined` when the bracket closed to
    REFINE_TOL in the parameter and 1e-7 in the state within 80 halvings,
    not when the corrector failed first.

    The bisection runs on the continued problem, whose (y, p) `test` reads.
    Returns the bracket's midpoint, its state lifted by `lift`, as (x, p,
    refined).
    """
    (z_lo, tan_lo), (z_hi, _) = lo, hi
    n = len(z_lo) - 1
    row = lift.weights * tan_lo
    # squared Euclidean norm of the lifted (x, p): each cell counts n_k times
    norm_weights = np.append(lift.sizes, 1.0)

    def closed():
        gap = z_hi - z_lo
        return abs(gap[n]) <= REFINE_TOL and np.sqrt(gap @ (norm_weights * gap)) <= 1e-7

    for _ in range(80):
        if closed():
            break
        try:
            z_mid = _correct(problem, 0.5 * (z_lo + z_hi), row)
        except BifurcationError:
            break
        if test(z_mid[:n], z_mid[n]) == sign_lo:
            z_lo = z_mid
        else:
            z_hi = z_mid
    z_sp = 0.5 * (z_lo + z_hi)
    return lift.state(z_sp[:n]), float(z_sp[n]), bool(closed())


def _fold_kind(problem, x, p, phi, psi) -> str:
    """The kind of the singular point (x, p) of a tangent flip, with null
    vectors (phi, psi) of J and J^T: a fold when its quadratic normal-form
    coefficient psi.D^2f[phi, phi] is nonzero, else "ambiguous"."""
    # second derivative of the field along the null direction
    eps = 1e-4 * max(1.0, np.linalg.norm(x))
    quad = psi @ (problem.f(x + eps * phi, p) + problem.f(x - eps * phi, p)
                  - 2.0 * problem.f(x, p)) / eps ** 2
    return "fold" if abs(quad) > 1e-4 else "ambiguous"


def branch_switch(problem: ContinuationProblem, sp: SingularPoint,
                  direction: int, lift: Lift | None = None) -> tuple[np.ndarray, float]:
    """The seed (x, p), untagged, of a branch just past a pitchfork, on the
    side `direction` of its null vector: +1 towards positive mean opinion.

    The corrector from (x* + a phi, p*), a = direction*SWITCH_OFFSET, with row
    (phi, 0) solves {f = 0, phi.(x - x*) = a}: phi has unit norm, and along it
    the bordered matrix stays nonsingular arbitrarily close to the singular
    point, unlike a fixed-parameter solve.  A failure raises BifurcationError
    with the Newton reason: it suggests a misclassified point.

    With a `lift`, phi must be constant on its cells
    (``Lift.constant_on_cells``): the seed is then a quotient state, and
    phi.(x - x*) sums n_k phi_k (y_k - y*_k).
    """
    lift = lift or _identity(problem, len(sp.x))
    phi = sp.null_right[lift.first]
    a = direction * SWITCH_OFFSET
    try:
        z = _correct(problem, np.append(sp.x[lift.first] + a * phi, sp.param),
                     np.append(lift.sizes * phi, 0.0))
    except BifurcationError as exc:
        raise BifurcationError(f"branch switch failed at amplitude {SWITCH_OFFSET:g} "
                               f"(misclassified singular point?): {exc}") from exc
    return z[:-1], z[-1]


def trace_trunk(problem: ContinuationProblem, x_start: np.ndarray,
                p_range: tuple[float, float], h_max: float, lift: Lift | None = None
                ) -> tuple[Branch, SingularPoint | None]:
    """Continue the symmetric trunk from p_range[0] over p_range, on the
    quotient when given its `lift` (``continue_branch``); return it with its
    first pitchfork, or None when it has none."""
    trunk = continue_branch(problem, x_start, p_range[0], p_range, h_max=h_max,
                            symmetric_trunk=True, lift=lift)
    pitchforks = [sp for sp in trunk.singular_points if sp.kind == "pitchfork"]
    return trunk, (pitchforks[0] if pitchforks else None)


def switched_branch(problem: ContinuationProblem, sp: SingularPoint, direction: int,
                    p_range: tuple[float, float], h_max: float,
                    lift: Lift | None = None) -> Branch:
    """Continue over p_range the branch bifurcating at pitchfork `sp` on the
    side `direction` (+1 or -1) of its null vector, seeded by branch_switch
    and oriented away from `sp`.

    With a `lift` the branch stays on the quotient when the null vector is
    constant on the cells: the bifurcating branch then starts, and by the
    invariance of the cell-constant states stays, inside them.  The first
    pitchfork of an uninformed trunk x = 0 on a strongly connected graph,
    u = 1 where J = -L, is such a point: its null vector is 1.  A null
    vector that breaks symmetry inside a cell leads off the quotient, and
    that branch is continued on ``lift.network``.
    """
    if lift is not None and not lift.constant_on_cells(sp.null_right):
        problem, lift = lift.network, None
    lift = lift or _identity(problem, len(sp.x))
    x, p = branch_switch(problem, sp, direction, lift)
    ref = np.append(lift.sizes * (x - sp.x[lift.first]), p - sp.param)
    return continue_branch(problem, x, p, p_range, h_max=h_max, initial_reference=ref,
                           lift=lift)


def reflected(branch: Branch, perm: tuple[int, ...] | None = None) -> Branch:
    """The image of `branch` under the signed permutation x -> -x[perm]
    (x -> -x when perm is None), for a field equivariant under it:
    f(-x[perm], p) = -f(x, p)[perm].

    Every state and every singular state are mapped.  With Pi the
    permutation, J(-x[perm]) = Pi J(x) Pi^T (the signs cancel), so the
    eigenvalues, and with them the stability tags and determinants, are
    kept, and each null vector phi becomes phi[perm] (a copy); every
    parameter is kept.  An involution perm, such as a swap,
    maps the image back to `branch`.
    """
    idx = slice(None) if perm is None else list(perm)
    return Branch(points=[replace(eq, x=-eq.x[idx]) for eq in branch.points],
                  singular_points=[replace(sp, x=-sp.x[idx], null_right=sp.null_right[idx].copy())
                                   for sp in branch.singular_points])


# ---------------------------------------------------------------------------
# Scalar roots and closed-form approximations
# ---------------------------------------------------------------------------

def _bisect(sign_at: Callable, lo: float, hi: float, s_lo: float, tol: float) -> float:
    """Root of `sign_at`, of sign s_lo at lo and changing sign across [lo, hi]:
    a midpoint of sign 0, else the final midpoint lo + (hi - lo) / 2 (no
    overflow) once the bracket is at most tol wide or holds no float inside
    (tol = 0: adjacent floats, at most about 1100 halvings)."""
    while hi - lo > tol:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            break
        s_mid = sign_at(mid)
        if s_mid == 0.0:
            return float(mid)
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return float(lo + 0.5 * (hi - lo))


def y_s(u: float) -> float:
    """Positive root of y - u tanh(y) = 0, the consensus branches +-y_s(u) 1,
    bisected over [1e-12, u + 1] to adjacent floats.  Raises ValueError for a
    non-finite u or u <= 1, where no positive root exists."""
    if not np.isfinite(u):
        raise ValueError(f"effort u must be finite (got {u})")
    if u <= 1.0:
        raise ValueError("the branch equation has a positive root only for u > 1")
    return _bisect(lambda y: np.sign(y - u * float(np.tanh(y))), 1e-12, u + 1.0, -1.0, 0.0)


def ystar_root(u: float, beta: float, n_agents: int) -> float:
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
        if (abs(step) <= NEWTON_TOL * max(1.0, abs(y))
                and abs(f(y)) <= 1e-14 * max(1.0, abs(beta))):
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

    Signs are evaluated point by point up to the first of sign 0, returned,
    or the first flip, whose bracket ``_bisect`` closes to at most tol wide.
    """
    def sign_at(p):
        return np.linalg.slogdet(jac_at(p))[0]

    lo, s_lo = None, None
    for hi in grid:
        s_hi = sign_at(hi)
        if s_hi == 0.0:
            return float(hi)
        if s_lo is not None and s_lo != s_hi:
            return _bisect(sign_at, float(lo), float(hi), s_lo, tol)
        lo, s_lo = hi, s_hi
    return None


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

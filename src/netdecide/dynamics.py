"""The model equation, its three-group quotient, and decision metrics.

All fields are pure functions of their inputs.  States are plain numpy
arrays; x_i > 0 means agent i favors alternative A.  The model is

    dx/dt = -D x + U A S(x) + beta

in time normalized by the inertia: D is the in-degree matrix, A the
adjacency, S = tanh, beta the information vector, and U either one social
effort u or a diagonal of per-agent efforts (ubar + utilde for heterogeneous
efforts).  The raw-time model with inertia u_I, social gain
u_S and information nu is u_I times this one with u = u_S / u_I and
beta = nu / u_I.

``normalized_field`` evaluates it on a graph.  ``reduced3_field`` evaluates
the same expression on the three-group quotient of a three-population
network (``PopulationSpec.degrees``, ``PopulationSpec.quotient``), which is
the full field restricted to the group-consensus manifold.  The information
rule, +beta_A on informed-A, -beta_B on informed-B and 0 on uninformed agents,
is stated once, per group (``_group_information``): ``reduced3_field`` uses
it on the quotient, and ``beta_vector`` lays it out on the block graph's
agents through ``PopulationSpec.sizes``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, PopulationSpec


def sech2(z):
    """Derivative of tanh: 4 e^{-2|z|} / (1 + e^{-2|z|})^2, stable for large |z|."""
    e = np.exp(-2.0 * np.abs(z))
    return 4.0 * e / (1.0 + e) ** 2


def _group_information(beta_a, beta_b) -> np.ndarray:
    """The information rule, per group: [beta_A, -beta_B, 0] for informed-A,
    informed-B and uninformed, of finite beta_A and beta_B."""
    # Scalar math.isfinite: reduced3_field pays for this on every call.
    if not (math.isfinite(beta_a) and math.isfinite(beta_b)):
        raise ValueError(f"information beta_a and beta_b must be finite "
                         f"(got {beta_a}, {beta_b})")
    return np.array([beta_a, -beta_b, 0.0], dtype=float)


def beta_vector(spec: PopulationSpec, beta_a: float, beta_b: float) -> np.ndarray:
    """Information vector of the block graph: each agent gets its group's
    information.

    normalized_field checks the length of beta but not its values, so a NaN
    or infinite beta_A/beta_B is rejected here, once, and not per field call.
    """
    return np.repeat(_group_information(float(beta_a), float(beta_b)), spec.sizes)


# classify_decision's tolerance on |delta| and on max |x_i|
DELTA_TOL = 1e-6


@dataclass(frozen=True)
class DecisionConfig:
    eta: float

    def __post_init__(self):
        # Written as not (x > 0) so that NaN fails the check too.
        if not self.eta > 0:
            raise ValueError("decision threshold eta must be positive")


class Decision(enum.Enum):
    A = "decision_a"
    B = "decision_b"
    DEADLOCK_NO_DECISION = "deadlock_no_decision"
    DEADLOCK_DISAGREEMENT = "deadlock_disagreement"


# ---------------------------------------------------------------------------
# Vector fields
# ---------------------------------------------------------------------------

def _field(x, degrees, weights, u, beta, out=None):
    """-degrees * x + u * (weights @ tanh(x)) + beta, written into `out` if given.

    In place on the product (a fresh array, or `out`): u*s - d*x equals
    (-d)*x + u*s exactly in IEEE arithmetic.  The product is ndarray.dot, not
    the np.dot dispatcher, and a scalar u is best an np.float64 (normalized_field
    converts a float): a numpy call costs more with a Python float operand, for
    the same result.
    """
    out = weights.dot(np.tanh(x), out)
    out *= u
    out -= degrees * x
    if beta is not None:
        out += beta
    return out


NEGATIVE_EFFORT = "social effort u must be nonnegative"
NEGATIVE_EFFORTS = "social efforts u must be nonnegative"


def normalized_field(x: np.ndarray, g: Graph, u: float | np.ndarray,
                     beta: np.ndarray | None = None) -> np.ndarray:
    """Normalized-time dynamics -D x + U A S(x) + beta; u is one effort or one per agent."""
    weights = g.weights
    shape = weights.shape[:1]
    x = np.asarray(x, dtype=float)
    if x.shape != shape:
        raise ValueError(f"state has shape {x.shape}, expected {shape}")
    # A scalar effort must not pay for a numpy reduction on every call.
    # Written as not (u >= 0) so that NaN fails the check too.
    if isinstance(u, np.ndarray):
        if u.shape != shape:
            raise ValueError(f"efforts have shape {u.shape}, expected {shape}")
        if not (u >= 0).all():
            raise ValueError(NEGATIVE_EFFORTS)
    elif not u >= 0:
        raise ValueError(NEGATIVE_EFFORT)
    elif type(u) is float:
        u = np.float64(u)
    if beta is not None:
        beta = np.asarray(beta, dtype=float)
        if beta.shape != shape:
            raise ValueError("information vector beta has wrong length")
    return _field(x, g.degrees, weights, u, beta)


def reduced3_field(y: np.ndarray, spec: PopulationSpec, u: float,
                   beta_a: float, beta_b: float) -> np.ndarray:
    """Three-group reduction of the structured network dynamics.

    The model equation on the quotient (spec.degrees, spec.quotient), with
    the per-group information that ``beta_vector`` lays out on the agents, so
    the reduced field is exactly the full field restricted to the
    group-consensus manifold.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (3,):
        raise ValueError(f"state has shape {y.shape}, expected (3,)")
    if not u >= 0:
        raise ValueError(NEGATIVE_EFFORT)
    return _field(y, spec.degrees, spec.quotient, u, _group_information(beta_a, beta_b))


# ---------------------------------------------------------------------------
# Decision metrics
# ---------------------------------------------------------------------------

def group_opinion(x: np.ndarray) -> float:
    """Average opinion y = mean(x)."""
    return float(np.mean(x))


def disagreement(x_ss: np.ndarray) -> float:
    """delta = |mean(x)| - mean(|x|); zero iff all entries share one sign."""
    x_ss = np.asarray(x_ss, dtype=float)
    return float(abs(x_ss.mean()) - np.abs(x_ss).mean())


def classify_decision(x_ss: np.ndarray, cfg: DecisionConfig) -> Decision:
    """Label a settled state as a decision for A/B or a form of deadlock."""
    x_ss = np.asarray(x_ss, dtype=float)
    delta = disagreement(x_ss)
    mean = group_opinion(x_ss)
    if abs(delta) <= DELTA_TOL and mean > cfg.eta:
        return Decision.A
    if abs(delta) <= DELTA_TOL and mean < -cfg.eta:
        return Decision.B
    # Not implied by the next test in floating point: at x = (tol, -tol, ...)
    # mean(|x|) can round to tol + 1 ulp, and with it |delta|.
    if np.abs(x_ss).max() <= DELTA_TOL:
        return Decision.DEADLOCK_NO_DECISION
    if abs(delta) > DELTA_TOL:
        return Decision.DEADLOCK_DISAGREEMENT
    return Decision.DEADLOCK_NO_DECISION

"""The model equation, its three-group quotient, and decision metrics.

All fields are pure functions of their inputs.  States are plain numpy
arrays; x_i > 0 means agent i favors alternative A.  The model is

    dx/dt = -D x + U A S(x) + beta

in time normalized by the inertia: D is the in-degree matrix, A the
adjacency, S an odd saturating sigmoid, beta the information vector, and U
either one social effort u or a diagonal of per-agent efforts (ubar + utilde
for heterogeneous efforts).  The raw-time model with inertia u_I, social gain
u_S and information nu is u_I times this one with u = u_S / u_I and
beta = nu / u_I.

``normalized_field`` evaluates it on a graph.  ``reduced3_field`` evaluates
the same expression on the equitable-partition quotient of a three-group
network (``PopulationSpec.degrees``, ``PopulationSpec.quotient``), which is
the full field restricted to the group-consensus manifold.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graphs import Graph, PopulationSpec


# ---------------------------------------------------------------------------
# Saturating nonlinearity
# ---------------------------------------------------------------------------

def _sech2(z):
    # 4 e^{-2|z|} / (1 + e^{-2|z|})^2, stable for large |z|
    e = np.exp(-2.0 * np.abs(z))
    return 4.0 * e / (1.0 + e) ** 2


@dataclass(frozen=True)
class Sigmoid:
    """Odd saturating nonlinearity with its first three derivatives.

    Any shipped family must be odd, strictly monotone, sector-(0,1] bounded
    (0 < S(z)/z <= 1 and S'(z) <= 1) and concave for z > 0.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    d3: Callable[[np.ndarray], np.ndarray]


TANH = Sigmoid(
    name="tanh",
    value=np.tanh,
    d1=_sech2,
    d2=lambda z: -2.0 * np.tanh(z) * _sech2(z),
    d3=lambda z: _sech2(z) * (4.0 * np.tanh(z) ** 2 - 2.0 * _sech2(z)),
)


# ---------------------------------------------------------------------------
# Parameters and auxiliary state
# ---------------------------------------------------------------------------

def beta_vector(spec: PopulationSpec, beta_a: float, beta_b: float) -> np.ndarray:
    """Information vector (+beta_A informed-A, -beta_B informed-B, 0 uninformed)."""
    return np.concatenate([
        np.full(spec.n1, float(beta_a)),
        np.full(spec.n2, -float(beta_b)),
        np.zeros(spec.n3),
    ])


@dataclass
class EstimatorState:
    """Auxiliary state of the average-opinion consensus estimator."""

    w: np.ndarray
    alpha: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("estimator gain alpha must be positive")
        self.w = np.asarray(self.w, dtype=float)

    def yhat(self, x: np.ndarray, g: Graph) -> np.ndarray:
        """Agent estimates of the average opinion, recomputed from (w, x)."""
        return g.laplacian @ self.w + x


@dataclass(frozen=True)
class AdaptiveConfig:
    """Slow-timescale gain and decision threshold of the adaptive loop."""

    epsilon: float = 0.01
    y_th: float = 0.5

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.y_th <= 0:
            raise ValueError("decision threshold y_th must be positive")
        if self.epsilon > 0.1:
            warnings.warn(
                f"epsilon = {self.epsilon} is large; the slow/fast timescale "
                "separation underpinning the adaptive analysis may not hold",
                stacklevel=2,
            )


@dataclass(frozen=True)
class DecisionConfig:
    eta: float
    delta_tol: float = 1e-6

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("decision threshold eta must be positive")
        if self.delta_tol < 0:
            raise ValueError("delta_tol must be nonnegative")


class Decision(enum.Enum):
    A = "decision_a"
    B = "decision_b"
    DEADLOCK_NO_DECISION = "deadlock_no_decision"
    DEADLOCK_DISAGREEMENT = "deadlock_disagreement"


# ---------------------------------------------------------------------------
# Vector fields
# ---------------------------------------------------------------------------

def _field(x, degrees, weights, u, beta, sigmoid):
    out = -degrees * x + u * (weights @ sigmoid.value(x))
    return out if beta is None else out + beta


def normalized_field(x: np.ndarray, g: Graph, u: float | np.ndarray,
                     beta: np.ndarray | None = None,
                     sigmoid: Sigmoid = TANH) -> np.ndarray:
    """Normalized-time dynamics -D x + U A S(x) + beta; u is one effort or one per agent."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise ValueError(f"state has shape {x.shape}, expected ({g.n},)")
    # A scalar effort must not pay for a numpy reduction on every call.
    if isinstance(u, np.ndarray):
        if u.shape != (g.n,):
            raise ValueError(f"efforts have shape {u.shape}, expected ({g.n},)")
        if (u < 0).any():
            raise ValueError("social efforts u must be nonnegative")
    elif u < 0:
        raise ValueError("social effort u must be nonnegative")
    if beta is not None:
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (g.n,):
            raise ValueError("information vector beta has wrong length")
    return _field(x, g.degrees, g.weights, u, beta, sigmoid)


def reduced3_field(y: np.ndarray, spec: PopulationSpec, u: float,
                   beta_a: float, beta_b: float,
                   sigmoid: Sigmoid = TANH) -> np.ndarray:
    """Three-group reduction of the structured network dynamics.

    The model equation on the quotient (spec.degrees, spec.quotient).  Group 1
    (informed about A) carries +beta_A and group 2 carries -beta_B, matching
    the per-agent information convention of the full model, so the reduced
    field is exactly the full field restricted to the group-consensus manifold.
    """
    beta = np.array([beta_a, -beta_b, 0.0], dtype=float)
    return _field(np.asarray(y, dtype=float), spec.degrees, spec.quotient, u, beta, sigmoid)


def scalar_consensus_field(y: float, u: float, n_agents: int,
                           sigmoid: Sigmoid = TANH) -> float:
    """All-to-all dynamics restricted to the consensus manifold."""
    if n_agents < 2:
        raise ValueError("need at least two agents")
    return float(-(n_agents - 1) * y + u * (n_agents - 1) * sigmoid.value(y))


def estimator_field(est: EstimatorState, x: np.ndarray, g: Graph) -> np.ndarray:
    """dw/dt = -alpha sgn(L yhat), with sgn(0) = 0 entrywise."""
    yhat = est.yhat(x, g)
    return -est.alpha * np.sign(g.laplacian @ yhat)


def adaptive_field(x: np.ndarray, ubar: float, est: EstimatorState, g: Graph,
                   utilde: np.ndarray, beta: np.ndarray | None,
                   cfg: AdaptiveConfig,
                   sigmoid: Sigmoid = TANH) -> tuple[np.ndarray, float]:
    """Fast opinion field plus slow mean-effort update.

    The effort update uses the first agent's estimate of the average opinion;
    after the estimator has converged this equals eps * (y_th^2 - y^2).
    """
    dx = normalized_field(x, g, ubar + np.asarray(utilde, dtype=float), beta, sigmoid)
    y1 = est.yhat(x, g)[0]
    dubar = cfg.epsilon * (cfg.y_th ** 2 - y1 ** 2)
    return dx, float(dubar)


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
    if abs(delta) <= cfg.delta_tol and mean > cfg.eta:
        return Decision.A
    if abs(delta) <= cfg.delta_tol and mean < -cfg.eta:
        return Decision.B
    if np.abs(x_ss).max() <= cfg.delta_tol:
        return Decision.DEADLOCK_NO_DECISION
    if abs(delta) > cfg.delta_tol:
        return Decision.DEADLOCK_DISAGREEMENT
    return Decision.DEADLOCK_NO_DECISION

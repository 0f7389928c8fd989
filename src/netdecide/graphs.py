"""Interaction graphs: weighted adjacency, degrees, Laplacian, spectra.

Convention: ``weights[i, j]`` is the weight agent i places on its measurement
of agent j (an in-neighbor weight), so the in-degree is the row sum
``d_i = sum_j a_ij``.  Strong connectivity is evaluated on the digraph with an
arc j -> i whenever ``a_ij > 0``; since strong connectivity is invariant under
arc reversal this coincides with the transpose convention.  A ``Graph`` is
its weights alone: the block layout of a three-group network, which agents
form which group, is its ``PopulationSpec``'s.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Immutable weighted interaction graph with cached degrees."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be a square matrix, got shape {w.shape}")
        if w.size == 0:
            raise ValueError("a graph needs at least one agent")
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise ValueError("adjacency weights must be finite and nonnegative")
        if np.any(np.diag(w) != 0):
            raise ValueError("self-weights a_ii must be zero")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        deg = w.sum(axis=1)
        deg.flags.writeable = False
        object.__setattr__(self, "_degrees", deg)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        """In-degree vector d, d_i = sum_j a_ij."""
        return self._degrees

    @property
    def laplacian(self) -> np.ndarray:
        """Graph Laplacian L = D - A, a new n x n array on each access."""
        return np.diag(self.degrees) - self.weights

    @property
    def is_undirected(self) -> bool:
        return bool(np.array_equal(self.weights, self.weights.T))


@dataclass(frozen=True)
class PopulationSpec:
    """Three-group structured network: informed-A, informed-B, uninformed.

    ``coupling[k, m]`` is the uniform weight an agent of group k places on an
    agent of group m; within-group weights must equal 1.  The spec owns the
    block layout: the block graph (``three_population_graph``) numbers the
    agents group by group, ``groups`` slices them out, and a per-group value
    is laid out on the agents by ``np.repeat(values, sizes)``.  The groups are
    an equitable partition of the block graph; ``degrees`` and ``quotient``
    give its quotient, on which the model has the same field and Jacobian.
    """

    n1: int
    n2: int
    n3: int
    coupling: np.ndarray = field(default_factory=lambda: np.ones((3, 3)))

    def __post_init__(self):
        for name, nk in (("n1", self.n1), ("n2", self.n2), ("n3", self.n3)):
            if int(nk) != nk or nk < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {nk}")
        if self.n_total < 2:
            raise ValueError("a population needs at least two agents")
        c = np.array(self.coupling, dtype=float)
        if c.shape != (3, 3):
            raise ValueError(f"coupling must be 3x3, got shape {c.shape}")
        if not np.all(np.isfinite(c) & (c >= 0)):
            raise ValueError("coupling weights must be finite and nonnegative")
        if np.any(np.diag(c) != 1.0):
            raise ValueError("within-group coupling must equal 1 (a_kk = 1)")
        c.flags.writeable = False
        object.__setattr__(self, "coupling", c)
        n = np.array(self.sizes, dtype=float)
        q = c * n
        np.fill_diagonal(q, np.maximum(n - 1.0, 0.0))
        q.flags.writeable = False
        object.__setattr__(self, "_quotient", q)
        deg = q.sum(axis=1)
        deg.flags.writeable = False
        object.__setattr__(self, "_degrees", deg)

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (self.n1, self.n2, self.n3)

    @property
    def n_total(self) -> int:
        return self.n1 + self.n2 + self.n3

    @property
    def groups(self) -> tuple[slice, slice, slice]:
        """Index slices of the three groups in the agent order of the block graph."""
        a, b = self.n1, self.n1 + self.n2
        return slice(0, a), slice(a, b), slice(b, self.n_total)

    @property
    def quotient(self) -> np.ndarray:
        """Quotient weights Q: Q_km = n_m a_km off the diagonal, Q_kk = max(n_k - 1, 0)."""
        return self._quotient

    @property
    def degrees(self) -> np.ndarray:
        """Uniform in-degree per group, the row sums of Q."""
        return self._degrees


def complete_graph(n: int, weight: float = 1.0) -> Graph:
    """All-to-all graph with uniform weights."""
    if n < 1:
        raise ValueError("need at least one agent")
    w = np.full((n, n), float(weight))
    np.fill_diagonal(w, 0.0)
    return Graph(w)


def directed_ring(n: int, weight: float = 1.0) -> Graph:
    """Directed cycle: agent i listens to agent i+1 (mod n)."""
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i + 1) % n] = weight
    return Graph(w)


def path_graph(n: int, weight: float = 1.0) -> Graph:
    """Undirected path on n nodes."""
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = weight
    return Graph(w)


def _reachable(mask: np.ndarray, start: int) -> np.ndarray:
    """Boolean reachability from `start` in the digraph with arcs i->j where mask[i, j]."""
    seen = np.zeros(mask.shape[0], dtype=bool)
    frontier = seen.copy()
    frontier[start] = True
    while frontier.any():
        seen |= frontier
        frontier = mask[frontier].any(axis=0) & ~seen
    return seen


def is_strongly_connected(g: Graph) -> bool:
    """True iff every ordered pair of agents is joined by a positive-weight path."""
    if g.n == 1:
        return True
    mask = g.weights > 0
    return bool(_reachable(mask, 0).all() and _reachable(mask.T, 0).all())


def lambda2(g: Graph) -> float:
    """Second-smallest eigenvalue of the Laplacian of an undirected graph."""
    if g.n < 2:
        raise ValueError("lambda2 needs at least two agents")
    if not g.is_undirected:
        raise ValueError("lambda2 requires symmetric weights (undirected graph)")
    evals = np.linalg.eigvalsh(g.laplacian)
    return float(evals[1])


def three_population_graph(spec: PopulationSpec) -> Graph:
    """Block graph from a PopulationSpec: coupling[k, m] on every agent pair of
    groups k and m, the agents numbered group by group (``spec.groups``)."""
    w = np.repeat(np.repeat(spec.coupling, spec.sizes, 0), spec.sizes, 1)
    np.fill_diagonal(w, 0.0)
    return Graph(w)


def agent_count(value, key: str) -> int:
    """A count from a JSON document: a nonnegative integer, or a float equal to one."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{key!r} must be nonnegative, got {value!r}")
    return int(value)

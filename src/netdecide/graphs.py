"""Interaction graphs: weighted adjacency, degrees, Laplacian, spectra.

Convention: ``weights[i, j]`` is the weight agent i places on its measurement
of agent j (an in-neighbor weight), so the in-degree is the row sum
``d_i = sum_j a_ij``.  Strong connectivity is evaluated on the digraph with an
arc j -> i whenever ``a_ij > 0``; since strong connectivity is invariant under
arc reversal this coincides with the transpose convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Relative tolerance (w.r.t. spectral radius) below which an eigenvalue of L
# is treated as zero when checking simplicity.
ZERO_EIG_RTOL = 1e-8


@dataclass(frozen=True)
class Graph:
    """Immutable weighted interaction graph with cached degree/Laplacian data."""

    weights: np.ndarray
    groups: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be a square matrix, got shape {w.shape}")
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise ValueError("adjacency weights must be finite and nonnegative")
        if np.any(np.diag(w) != 0):
            raise ValueError("self-weights a_ii must be zero")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        deg = w.sum(axis=1)
        deg.flags.writeable = False
        object.__setattr__(self, "_degrees", deg)
        lap = np.diag(deg) - w
        lap.flags.writeable = False
        object.__setattr__(self, "_laplacian", lap)
        if self.groups is not None:
            groups = tuple(np.asarray(g, dtype=int) for g in self.groups)
            for g in groups:
                g.flags.writeable = False
            object.__setattr__(self, "groups", groups)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        """In-degree vector d, d_i = sum_j a_ij."""
        return self._degrees

    @property
    def laplacian(self) -> np.ndarray:
        """Graph Laplacian L = D - A."""
        return self._laplacian

    @property
    def is_undirected(self) -> bool:
        return bool(np.array_equal(self.weights, self.weights.T))


@dataclass(frozen=True)
class PopulationSpec:
    """Three-group structured network: informed-A, informed-B, uninformed.

    ``coupling[k, m]`` is the uniform weight an agent of group k places on an
    agent of group m; within-group weights must equal 1.  The groups are an
    equitable partition of the block graph; ``degrees`` and ``quotient`` give
    its quotient, on which the model has the same field and Jacobian.
    """

    n1: int
    n2: int
    n3: int
    coupling: np.ndarray = field(default_factory=lambda: np.ones((3, 3)))

    def __post_init__(self):
        for name, nk in (("n1", self.n1), ("n2", self.n2), ("n3", self.n3)):
            if int(nk) != nk or nk < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {nk}")
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
    def quotient(self) -> np.ndarray:
        """Quotient weights Q: Q_km = n_m a_km off the diagonal, Q_kk = max(n_k - 1, 0)."""
        return self._quotient

    @property
    def degrees(self) -> np.ndarray:
        """Uniform in-degree per group, the row sums of Q."""
        return self._degrees


def build_graph(weights) -> Graph:
    """Validate a nonnegative zero-diagonal square matrix and wrap it."""
    return Graph(np.array(weights, dtype=float))


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
    n = mask.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    stack = [start]
    while stack:
        i = stack.pop()
        for j in np.nonzero(mask[i])[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return seen


def is_strongly_connected(g: Graph) -> bool:
    """True iff every ordered pair of agents is joined by a positive-weight path."""
    if g.n == 1:
        return True
    mask = g.weights > 0
    return bool(_reachable(mask, 0).all() and _reachable(mask.T, 0).all())


def left_null_eigenvector(g: Graph) -> np.ndarray:
    """Nonnegative left null eigenvector of L, normalized to unit 1-norm.

    Fails if the zero eigenvalue of L^T is not simple within tolerance, which
    is the numerical signature of a graph that is not strongly connected.
    """
    lap = g.laplacian
    if g.n == 1:
        return np.ones(1)
    evals, evecs = np.linalg.eig(lap.T)
    rho = max(np.abs(evals).max(), 1.0)
    near_zero = np.abs(evals) <= ZERO_EIG_RTOL * rho
    if near_zero.sum() != 1:
        raise ValueError(
            f"zero eigenvalue of L^T is not simple ({near_zero.sum()} candidates); "
            "graph is not strongly connected"
        )
    idx = int(np.argmin(np.abs(evals)))
    v = evecs[:, idx]
    if np.abs(v.imag).max() > 1e-10:
        raise ValueError("null eigenvector of L^T is not real")
    v = v.real
    s = v.sum()
    if s == 0:
        raise ValueError("degenerate null eigenvector (zero sum)")
    v = v / s
    if v.min() < -1e-9:
        raise ValueError("null left eigenvector has negative entries")
    v = np.clip(v, 0.0, None)
    return v / np.abs(v).sum()


def lambda2(g: Graph) -> float:
    """Second-smallest eigenvalue of the Laplacian of an undirected graph."""
    if not g.is_undirected:
        raise ValueError("lambda2 requires symmetric weights (undirected graph)")
    evals = np.linalg.eigvalsh(g.laplacian)
    return float(evals[1])


def three_population_graph(spec: PopulationSpec) -> Graph:
    """Block graph from a PopulationSpec; group index sets recorded in order."""
    sizes = spec.sizes
    n = spec.n_total
    if n < 2:
        raise ValueError("population graph needs at least two agents")
    bounds = np.cumsum((0,) + sizes)
    groups = tuple(np.arange(bounds[k], bounds[k + 1]) for k in range(3))
    w = np.zeros((n, n))
    for k in range(3):
        for m in range(3):
            w[np.ix_(groups[k], groups[m])] = spec.coupling[k, m]
    np.fill_diagonal(w, 0.0)
    return Graph(w, groups=groups)


def is_z2_symmetric(spec: PopulationSpec, beta_a: float, beta_b: float) -> bool:
    """Check the swap-symmetry conditions for the two informed groups."""
    return (
        beta_a == beta_b
        and spec.n1 == spec.n2
        and np.array_equal(spec.coupling, spec.coupling.T)
        and spec.coupling[0, 2] == spec.coupling[1, 2]
    )


def graph_to_json(g: Graph) -> str:
    return json.dumps(
        {"n": g.n, "weights": [float(x) for x in g.weights.ravel()]},
        sort_keys=True,
    )


def graph_from_json(doc: str | dict) -> Graph:
    """Parse {"n", "weights"} or the {"n1","n2","n3","coupling"} shorthand."""
    data = json.loads(doc) if isinstance(doc, str) else doc
    if {"n1", "n2", "n3"} <= set(data):
        spec = PopulationSpec(
            n1=data["n1"],
            n2=data["n2"],
            n3=data["n3"],
            coupling=np.array(data.get("coupling", np.ones((3, 3)))),
        )
        return three_population_graph(spec)
    n = int(data["n"])
    w = np.array(data["weights"], dtype=float).reshape(n, n)
    return Graph(w)


def load_graph(path: str | Path) -> Graph:
    return graph_from_json(Path(path).read_text())

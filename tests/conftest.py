from __future__ import annotations

import contextlib
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import netdecide.experiments as ex
from netdecide.graphs import Graph, PopulationSpec, complete_graph, three_population_graph

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise TimeoutError inside the block once it has run for `seconds`.

    For tests of loops that must end: a regression fails instead of hanging
    the suite.
    """

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class _Captured(Exception):
    pass


def adaptive_rhs(monkeypatch, scenario):
    """run_adaptive's right-hand side, as it is handed to the solver."""
    captured = []

    def integrate(rhs, z0, cfg, **kwargs):
        captured.append(rhs)
        raise _Captured

    monkeypatch.setattr(ex, "_integrate", integrate)
    with pytest.raises(_Captured):
        ex.run_adaptive(scenario)
    return captured[0]


@pytest.fixture
def k10() -> Graph:
    return complete_graph(10)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def weighted_3cycle() -> Graph:
    """Directed strongly connected 3-cycle with unequal weights."""
    w = np.zeros((3, 3))
    w[0, 1] = 2.0
    w[1, 2] = 0.5
    w[2, 0] = 1.5
    return Graph(w)


@pytest.fixture
def spec_223() -> PopulationSpec:
    return PopulationSpec(2, 2, 3, coupling=np.array([
        [1.0, 0.5, 0.8],
        [0.4, 1.0, 1.2],
        [0.7, 0.9, 1.0],
    ]))


def lift_to_manifold(y: np.ndarray, spec: PopulationSpec) -> np.ndarray:
    """Embed group opinions into the full state (same value within a group)."""
    return np.concatenate([
        np.full(spec.n1, y[0]),
        np.full(spec.n2, y[1]),
        np.full(spec.n3, y[2]),
    ])


@pytest.fixture
def z2_graph() -> Graph:
    return three_population_graph(PopulationSpec(3, 3, 4))

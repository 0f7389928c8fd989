from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from netdecide import experiments as ex
from netdecide.experiments import graph_from_config
from netdecide.graphs import (
    Graph,
    PopulationSpec,
    complete_graph,
    directed_ring,
    is_strongly_connected,
    lambda2,
    path_graph,
    three_population_graph,
)


def test_build_graph_dyad():
    g = Graph([[0, 1], [1, 0]])
    assert np.array_equal(g.degrees, [1, 1])
    assert np.array_equal(g.laplacian, [[1, -1], [-1, 1]])


def test_complete_graph_degrees():
    g = complete_graph(4)
    assert np.array_equal(g.degrees, [3, 3, 3, 3])


@pytest.mark.parametrize("weights, message", [
    ([[0.5, 1], [1, 0]], "zero"),
    ([[0, -1], [1, 0]], "nonnegative"),
    ([[0, 1, 0], [1, 0, 1]], "square"),
    ([[0, np.nan], [1, 0]], "finite"),
    ([[0, np.inf], [1, 0]], "finite"),
    (np.zeros((0, 0)), "at least one agent"),
])
def test_build_graph_rejects(weights, message):
    with pytest.raises(ValueError, match=message):
        Graph(np.array(weights, dtype=object if message == "square" else float))


def test_graph_is_immutable(k10):
    with pytest.raises(ValueError):
        k10.weights[0, 1] = 7.0


def test_strong_connectivity_cases():
    assert is_strongly_connected(complete_graph(3))
    two_dyads = Graph([
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ])
    assert not is_strongly_connected(two_dyads)
    chain = Graph([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert not is_strongly_connected(chain)
    assert is_strongly_connected(directed_ring(6))


@given(st.integers(1, 8), st.integers(0, 10_000), st.floats(0.05, 0.6))
def test_strong_connectivity_matches_transitive_closure(n, seed, density):
    rng = np.random.default_rng(seed)
    w = (rng.uniform(size=(n, n)) < density) * rng.uniform(0.5, 2.0, (n, n))
    np.fill_diagonal(w, 0.0)
    closure = np.linalg.matrix_power(np.eye(n) + (w > 0), n - 1) > 0
    assert is_strongly_connected(Graph(w)) == bool(closure.all())


def test_lambda2_known_spectra():
    assert lambda2(complete_graph(7)) == pytest.approx(7.0, abs=1e-10)
    assert lambda2(path_graph(3)) == pytest.approx(1.0, abs=1e-10)


def test_lambda2_complete_family():
    for n in range(2, 51):
        assert lambda2(complete_graph(n)) == pytest.approx(n, abs=1e-10)


def test_lambda2_three_population_equals_complete():
    g = three_population_graph(PopulationSpec(4, 4, 4))
    evals = np.sort(np.linalg.eigvalsh(g.laplacian))  # dense oracle
    assert lambda2(g) == pytest.approx(evals[1], abs=1e-12)
    assert lambda2(g) == pytest.approx(12.0, abs=1e-10)


def test_lambda2_rejects_directed():
    with pytest.raises(ValueError, match="symmetric"):
        lambda2(directed_ring(4))


def test_lambda2_needs_two_agents():
    with pytest.raises(ValueError, match="two agents"):
        lambda2(complete_graph(1))


def test_three_population_all_ones_is_complete():
    g = three_population_graph(PopulationSpec(10, 10, 80))
    assert g.n == 100
    assert np.array_equal(g.weights, complete_graph(100).weights)


@given(st.tuples(*[st.integers(0, 4)] * 3), st.integers(0, 10_000))
def test_three_population_layout(sizes, seed):
    # groups slice the agents in order, and each block holds its coupling
    if sum(sizes) < 2:
        return
    c = np.random.default_rng(seed).uniform(0, 2, (3, 3))
    np.fill_diagonal(c, 1.0)
    spec = PopulationSpec(*sizes, coupling=c)
    g = three_population_graph(spec)
    agents = np.arange(g.n)
    assert np.array_equal(np.concatenate([agents[grp] for grp in spec.groups]), agents)
    for k, rows in enumerate(spec.groups):
        for m, cols in enumerate(spec.groups):
            block = g.weights[rows, cols]
            off = ~np.eye(sizes[k], dtype=bool) if k == m else np.ones(block.shape, bool)
            assert np.all(block[off] == c[k, m])
    assert np.all(np.diag(g.weights) == 0.0)


def test_three_population_blocks():
    spec = PopulationSpec(1, 1, 1, coupling=np.array([
        [1.0, 0.0, 1.0],
        [0.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
    ]))
    g = three_population_graph(spec)
    assert g.weights[0, 1] == 0.0 and g.weights[1, 0] == 0.0
    assert g.weights[0, 2] == 1.0 and g.weights[2, 1] == 1.0


def test_three_population_group_degrees(spec_223):
    g = three_population_graph(spec_223)
    expected = spec_223.degrees
    for k, grp in enumerate(spec_223.groups):
        assert g.degrees[grp] == pytest.approx(expected[k], abs=1e-12)
    assert len(set(np.round(expected, 12))) == 3


def test_population_spec_rejects_bad_coupling():
    with pytest.raises(ValueError, match="a_kk"):
        PopulationSpec(2, 2, 2, coupling=np.array([
            [2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0],
        ]))
    with pytest.raises(ValueError, match="finite"):
        PopulationSpec(2, 2, 2, coupling=np.array([
            [1.0, np.nan, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0],
        ]))


@given(st.integers(2, 8), st.integers(0, 10_000))
def test_laplacian_invariants_random(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0, 2, (n, n))
    np.fill_diagonal(w, 0.0)
    g = Graph(w)
    # zero row sums up to summation-order roundoff for float weights
    assert np.abs(g.laplacian.sum(axis=1)).max() < 1e-13 * max(1.0, g.degrees.max())
    off = g.laplacian[~np.eye(n, dtype=bool)]
    assert np.all(off <= 0)


@given(st.integers(2, 8), st.integers(0, 10_000))
def test_laplacian_rows_exact_for_integer_weights(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.integers(0, 4, (n, n)).astype(float)
    np.fill_diagonal(w, 0.0)
    g = Graph(w)
    assert np.abs(g.laplacian.sum(axis=1)).max() == 0.0
    assert np.abs(g.laplacian @ np.ones(n)).max() == 0.0


def test_simple_zero_eigenvalue_when_strongly_connected(weighted_3cycle):
    evals = np.linalg.eigvals(weighted_3cycle.laplacian)
    rho = np.abs(evals).max()
    assert np.sum(np.abs(evals) <= 1e-8 * rho) == 1


def test_json_round_trip(weighted_3cycle):
    g = weighted_3cycle
    doc = json.dumps({"kind": "weights", "weights": g.weights.tolist()})
    g2 = graph_from_config(json.loads(doc))
    assert np.array_equal(g2.weights, weighted_3cycle.weights)


def test_json_population_shorthand():
    doc = json.dumps({"kind": "population", "n1": 2, "n2": 2, "n3": 3})
    g = graph_from_config(json.loads(doc))
    assert g.n == 7
    assert np.array_equal(g.weights, three_population_graph(PopulationSpec(2, 2, 3)).weights)


@pytest.mark.parametrize("n", [2.5, "2", True])
def test_json_rejects_non_integer_size(n):
    with pytest.raises(ValueError, match="integer"):
        graph_from_config({"kind": "complete", "n": n})


def test_json_accepts_integral_float_size():
    g = graph_from_config({"kind": "complete", "n": 2.0})
    assert g.n == 2


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("a graph builder was called")


BUILDERS = ("complete_graph", "directed_ring", "three_population_graph", "Graph")


@pytest.mark.parametrize("doc", [
    {"kind": "complete", "n": 200000},
    {"kind": "directed_ring", "n": 200000},
    {"kind": "population", "n1": 5, "n2": 5, "n3": 200000},
    {"kind": "weights", "weights": np.ones((4, 4)).tolist()},
])
def test_json_rejects_graph_above_size_ceiling_before_building(monkeypatch, doc):
    # a weights document above the real ceiling would be a 128 MiB list
    monkeypatch.setattr(ex, "MAX_AGENTS", 3)
    for name in BUILDERS:
        monkeypatch.setattr(ex, name, _refuse_to_build)
    with pytest.raises(ValueError, match=f"at most {ex.MAX_AGENTS} agents"):
        graph_from_config(doc)


def test_size_ceiling_admits_every_scenario_size(monkeypatch):
    # n = 1000 is the largest graph any benchmark or planned scenario uses
    assert ex.MAX_AGENTS >= 1000
    built = []
    monkeypatch.setattr(ex, "complete_graph", lambda n, weight: built.append(n))
    graph_from_config({"kind": "complete", "n": ex.MAX_AGENTS})
    assert built == [ex.MAX_AGENTS]
    with pytest.raises(ValueError, match="agents"):
        graph_from_config({"kind": "complete", "n": ex.MAX_AGENTS + 1})

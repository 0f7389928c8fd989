from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from netdecide.graphs import (
    Graph,
    PopulationSpec,
    build_graph,
    complete_graph,
    directed_ring,
    graph_from_json,
    graph_to_json,
    is_strongly_connected,
    is_z2_symmetric,
    lambda2,
    left_null_eigenvector,
    path_graph,
    three_population_graph,
)


def test_build_graph_dyad():
    g = build_graph([[0, 1], [1, 0]])
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
])
def test_build_graph_rejects(weights, message):
    with pytest.raises(ValueError, match=message):
        build_graph(np.array(weights, dtype=object if message == "square" else float))


def test_graph_is_immutable(k10):
    with pytest.raises(ValueError):
        k10.weights[0, 1] = 7.0


def test_strong_connectivity_cases():
    assert is_strongly_connected(complete_graph(3))
    two_dyads = build_graph([
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ])
    assert not is_strongly_connected(two_dyads)
    chain = build_graph([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert not is_strongly_connected(chain)
    assert is_strongly_connected(directed_ring(6))


def test_left_null_vector_undirected():
    v = left_null_eigenvector(path_graph(4))
    assert v == pytest.approx(np.full(4, 0.25), abs=1e-12)
    v5 = left_null_eigenvector(complete_graph(5))
    assert v5 == pytest.approx(np.full(5, 0.2), abs=1e-12)


def test_left_null_vector_weighted_cycle(weighted_3cycle):
    """Cross-check against an SVD null-space oracle."""
    from scipy.linalg import null_space

    v = left_null_eigenvector(weighted_3cycle)
    assert np.abs(v @ weighted_3cycle.laplacian).max() < 1e-10
    oracle = null_space(weighted_3cycle.laplacian.T).ravel()
    oracle = oracle / oracle.sum()
    assert v == pytest.approx(oracle, abs=1e-10)
    assert v.min() >= 0
    assert v.sum() == pytest.approx(1.0, abs=1e-12)


def test_left_null_vector_rejects_disconnected():
    g = build_graph([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    with pytest.raises(ValueError, match="not simple"):
        left_null_eigenvector(g)


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


def test_three_population_all_ones_is_complete():
    g = three_population_graph(PopulationSpec(10, 10, 80))
    assert g.n == 100
    assert np.array_equal(g.weights, complete_graph(100).weights)


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
    for k, grp in enumerate(g.groups):
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


def test_z2_symmetry_conditions():
    sym = PopulationSpec(4, 4, 4)
    assert is_z2_symmetric(sym, 1.0, 1.0)
    assert not is_z2_symmetric(sym, 2.0, 1.0)
    assert not is_z2_symmetric(PopulationSpec(3, 4, 4), 1.0, 1.0)
    lopsided = PopulationSpec(4, 4, 4, coupling=np.array([
        [1.0, 1.0, 0.5], [1.0, 1.0, 1.0], [0.5, 1.0, 1.0],
    ]))
    assert not is_z2_symmetric(lopsided, 1.0, 1.0)


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
    doc = graph_to_json(weighted_3cycle)
    g2 = graph_from_json(doc)
    assert np.array_equal(g2.weights, weighted_3cycle.weights)


def test_json_population_shorthand():
    doc = json.dumps({"n1": 2, "n2": 2, "n3": 3})
    g = graph_from_json(doc)
    assert g.n == 7
    assert g.groups is not None

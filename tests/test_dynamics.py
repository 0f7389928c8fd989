from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import adaptive_rhs
from netdecide.bifurcation import jacobian, model_problem, ubar_star
from netdecide.dynamics import (
    DELTA_TOL,
    NEGATIVE_EFFORT,
    Decision,
    DecisionConfig,
    beta_vector,
    classify_decision,
    disagreement,
    group_opinion,
    normalized_field,
    reduced3_field,
    _field,
    sech2,
)
from netdecide.experiments import AdaptiveScenario, adaptive_scenario
from netdecide.graphs import PopulationSpec, complete_graph, path_graph, three_population_graph
from netdecide.solver import integrate_nonsmooth

# tanh derivative underflow: sech^2 is below the smallest double past ~372
SECH_UNDERFLOW = 350.0


class TestTanh:
    def test_odd(self):
        z = np.linspace(-20, 20, 401)
        assert np.array_equal(np.tanh(-z), -np.tanh(z))

    def test_sector_and_slope(self):
        z = np.logspace(-8, 3, 400)
        ratio = np.tanh(z) / z
        assert np.all(ratio > 0) and np.all(ratio <= 1.0)
        d = sech2(np.concatenate([-z, z]))
        assert np.all(d <= 1.0) and np.all(d >= 0.0)
        rep = z[z <= SECH_UNDERFLOW]
        assert np.all(sech2(rep) > 0)
        assert sech2(np.array([0.0]))[0] == 1.0

    def test_sech2_is_tanh_derivative(self):
        z = np.linspace(-3, 3, 61)
        h = 1e-6
        fd = (np.tanh(z + h) - np.tanh(z - h)) / (2 * h)
        assert sech2(z) == pytest.approx(fd, abs=1e-8)


class TestFields:
    def test_dimension_mismatch(self, k10):
        with pytest.raises(ValueError, match="shape"):
            normalized_field(np.zeros(3), k10, 1.0)
        with pytest.raises(ValueError, match="shape"):
            normalized_field(np.zeros(10), k10, np.ones(3))
        with pytest.raises(ValueError, match=re.escape("state has shape (3,), expected (10,)")):
            normalized_field(np.zeros(3), k10, np.float64(1.0))
        with pytest.raises(ValueError,
                           match=re.escape("efforts have shape (10, 1), expected (10,)")):
            normalized_field(np.zeros(10), k10, np.ones((10, 1)))
        for beta in (np.zeros(9), np.zeros(11), np.zeros((10, 1))):
            with pytest.raises(ValueError, match="information vector beta has wrong length"):
                normalized_field(np.zeros(10), k10, 1.0, beta)

    def test_rejects_negative_efforts(self, k10):
        with pytest.raises(ValueError, match="nonnegative"):
            normalized_field(np.zeros(10), k10, -1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            normalized_field(np.zeros(10), k10, np.array([-0.1] + [1.0] * 9))
        for u in (np.float64(-1.0), -1, -1e-300):
            with pytest.raises(ValueError, match=f"^{NEGATIVE_EFFORT}$"):
                normalized_field(np.zeros(10), k10, u)
        # -0.0 >= 0: a signed zero is no effort, not a negative one
        for u in (-0.0, np.float64(-0.0)):
            assert np.array_equal(normalized_field(np.ones(10), k10, u), -9.0 * np.ones(10))

    def test_rejects_nan_efforts(self, k10):
        with pytest.raises(ValueError, match="nonnegative"):
            normalized_field(np.zeros(10), k10, float("nan"))
        with pytest.raises(ValueError, match="nonnegative"):
            normalized_field(np.zeros(10), k10, np.array([float("nan")] + [1.0] * 9))
        with pytest.raises(ValueError, match=f"^{NEGATIVE_EFFORT}$"):
            normalized_field(np.zeros(10), k10, np.float64("nan"))

    @pytest.mark.parametrize("effort", ["float", "float64", "int", "per_agent"])
    def test_equals_allocating_form_bit_for_bit(self, weighted_3cycle, z2_graph, rng, effort):
        # In-place kernel, float effort as np.float64: the IEEE operations of
        # u * (W @ tanh(x)) - d * x + beta, in that order; also written into
        # the caller's buffer, as run_adaptive's right-hand side does.
        for g in (weighted_3cycle, z2_graph):
            u = {"float": 1.3, "float64": np.float64(1.3), "int": 2,
                 "per_agent": 1.0 + 0.1 * rng.normal(size=g.n)}[effort]
            for _ in range(5):
                x = 3.0 * rng.normal(size=g.n)
                beta = rng.normal(size=g.n)
                want = u * (g.weights @ np.tanh(x)) - g.degrees * x + beta
                assert np.array_equal(normalized_field(x, g, u, beta), want)
                buf = np.full(g.n + 1, np.nan)
                got = _field(x, g.degrees, g.weights, u, beta, buf[:-1])
                assert np.shares_memory(got, buf) and np.array_equal(buf[:-1], want)

    @pytest.mark.parametrize("y", [np.zeros(2), np.zeros(4), np.zeros((3, 1)), np.zeros(())])
    def test_reduced3_field_rejects_wrong_shape(self, spec_223, y):
        with pytest.raises(ValueError, match=r"expected \(3,\)"):
            reduced3_field(y, spec_223, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("u", [-1.0, -1e-300, float("nan")])
    def test_reduced3_field_rejects_bad_effort(self, u):
        with pytest.raises(ValueError, match="nonnegative"):
            reduced3_field(np.zeros(3), PopulationSpec(2, 2, 2), u, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_reduced3_field_rejects_nonfinite_information(self, bad):
        for beta_a, beta_b in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="beta_a and beta_b must be finite"):
                reduced3_field(np.zeros(3), PopulationSpec(2, 2, 2), 1.0, beta_a, beta_b)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_beta_vector_rejects_nonfinite(self, bad):
        spec = PopulationSpec(2, 2, 2)
        for beta_a, beta_b in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                beta_vector(spec, beta_a, beta_b)

    @pytest.mark.parametrize("per_agent", [False, True])
    def test_normalized_field_owns_only_its_result(self, z2_graph, rng, per_agent):
        x = rng.normal(size=z2_graph.n)
        u = 1.0 + 0.1 * rng.normal(size=z2_graph.n) if per_agent else 1.3
        beta = rng.normal(size=z2_graph.n)
        inputs = [x, beta] + ([u] if per_agent else [])
        before = [a.copy() for a in inputs]
        out = normalized_field(x, z2_graph, u, beta)
        again = normalized_field(x, z2_graph, u, beta)
        for a, b in zip(inputs, before):
            assert np.array_equal(a, b)
            assert not np.shares_memory(out, a)
        assert not np.shares_memory(out, z2_graph.weights)
        assert not np.shares_memory(out, z2_graph.degrees)
        assert out is not again and np.array_equal(out, again)

    def test_reduced3_field_owns_only_its_result(self, spec_223, rng):
        y = rng.normal(size=3)
        before = y.copy()
        out = reduced3_field(y, spec_223, 1.3, 0.5, 0.7)
        assert np.array_equal(y, before)
        for a in (y, spec_223.quotient, spec_223.degrees):
            assert not np.shares_memory(out, a)
        assert out is not reduced3_field(y, spec_223, 1.3, 0.5, 0.7)

    @given(st.integers(0, 1000))
    def test_timescale_consistency(self, seed):
        """Raw time: -u_I D x + u_S A S(x) + nu = u_I f(x; u_S / u_I, nu / u_I)."""
        rng = np.random.default_rng(seed)
        g = complete_graph(5)
        x = rng.normal(size=5)
        nu = rng.normal(size=5)
        u_i, u_s = 2.0, 3.0
        lhs = -u_i * g.degrees * x + u_s * (g.weights @ np.tanh(x)) + nu
        rhs = u_i * normalized_field(x, g, u_s / u_i, nu / u_i)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(st.integers(0, 1000))
    def test_odd_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        g = complete_graph(6)
        x = rng.normal(size=6)
        f_neg = normalized_field(-x, g, 1.7)
        f_pos = normalized_field(x, g, 1.7)
        assert np.abs(f_neg + f_pos).max() < 1e-14 * max(1, np.abs(f_pos).max())

    def test_hetero_matches_normalized_when_uniform(self, k10, rng):
        x = rng.normal(size=10)
        got = normalized_field(x, k10, np.full(10, 1.3))
        assert got == pytest.approx(normalized_field(x, k10, 1.3), abs=1e-14)

    def test_hetero_zero_state(self, k10):
        ut = 0.05 * np.array([1, -1] * 5, dtype=float)
        assert np.array_equal(normalized_field(np.zeros(10), k10, 0.9 + ut), np.zeros(10))

    def test_hetero_scalar_loop_oracle(self):
        g = complete_graph(3)
        ubar, ut = 1.0, np.array([0.1, -0.1, 0.0])
        beta = np.array([0.3, 0.0, -0.2])
        x = np.array([0.2, 0.0, -0.2])
        got = normalized_field(x, g, ubar + ut, beta)
        expected = np.empty(3)
        for i in range(3):
            acc = -g.degrees[i] * x[i] + beta[i]
            for j in range(3):
                acc += (ubar + ut[i]) * g.weights[i, j] * np.tanh(x[j])
            expected[i] = acc
        assert got == pytest.approx(expected, abs=1e-15)

    def test_hetero_rejects_nonzero_sum(self, k10):
        # ubar is the mean effort only if utilde sums to zero; ubar_star is
        # the one public function that takes utilde.
        with pytest.raises(ValueError, match="sum to zero"):
            ubar_star(k10, np.full(10, 0.01))


def _random_spec(sizes, off_diagonal) -> PopulationSpec:
    coupling = np.ones((3, 3))
    coupling[~np.eye(3, dtype=bool)] = off_diagonal
    return PopulationSpec(*sizes, coupling=coupling)


class TestReducedModels:
    @given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
           st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6),
           st.floats(0.0, 1e3),
           st.integers(0, 2 ** 32 - 1))
    def test_quotient_commutes_with_lift(self, sizes, off_diagonal, u, seed):
        """Field and Jacobian of the network at a lifted state, applied to a
        lifted vector, equal the lifts of their quotient counterparts."""
        spec = _random_spec(sizes, off_diagonal)
        g = three_population_graph(spec)
        rng = np.random.default_rng(seed)
        y, v = rng.normal(size=3), rng.normal(size=3)
        ba, bb = rng.normal(size=2)
        x = np.repeat(y, spec.sizes)
        # rounding scale: the largest term summed into one entry
        scale = 1.0 + spec.degrees.max() * (1.0 + u) * (1.0 + np.abs(y).max() + np.abs(v).max())
        tol = 1e-13 * scale

        full = normalized_field(x, g, u, beta_vector(spec, ba, bb))
        red = reduced3_field(y, spec, u, ba, bb)
        assert full == pytest.approx(np.repeat(red, spec.sizes), abs=tol)

        full_jv = jacobian(x, g, u) @ np.repeat(v, spec.sizes)
        red_jv = model_problem(spec.degrees, spec.quotient).jac_x(y, u) @ v
        assert full_jv == pytest.approx(np.repeat(red_jv, spec.sizes), abs=tol)

    def test_reduced_zero(self):
        spec = PopulationSpec(2, 2, 3)
        assert reduced3_field(np.zeros(3), spec, 1.0, 0.0, 0.0) == pytest.approx(np.zeros(3))

    def test_ata_deadlock_family(self):
        from netdecide.bifurcation import ystar_root

        n, n3, u, beta = 10, 80, 1.0, 0.1
        ys = ystar_root(u, beta, 2 * n + n3)
        f = reduced3_field(np.array([ys, -ys, 0.0]), PopulationSpec(n, n, n3), u, beta, beta)
        assert np.abs(f).max() < 1e-12

    def test_ata_consensus_branch(self):
        from netdecide.bifurcation import y_s

        n, n3, u = 4, 4, 2.0
        c = y_s(u)
        f = reduced3_field(np.array([c, c, c]), PopulationSpec(n, n, n3), u, 0.0, 0.0)
        assert np.abs(f).max() < 1e-10

    def test_ata_swap_equivariance(self, rng):
        spec, u, beta = PopulationSpec(3, 3, 4), 1.5, 0.8
        for _ in range(10):
            y = rng.normal(size=3)
            swapped = np.array([-y[1], -y[0], -y[2]])
            f = reduced3_field(y, spec, u, beta, beta)
            f_swapped = reduced3_field(swapped, spec, u, beta, beta)
            expected = np.array([-f[1], -f[0], -f[2]])
            assert f_swapped == pytest.approx(expected, abs=1e-12)


def _swap(y):
    """The group swap y -> -(y2, y1, y3) of the three-group model."""
    return -y[[1, 0, 2]]


def _swap_residual(spec, y, u, beta):
    """|f(P y) - P f(y)| over the rounding scale of f: the largest sum of
    term magnitudes in one entry."""
    lhs = reduced3_field(_swap(y), spec, u, beta, beta)
    rhs = _swap(reduced3_field(y, spec, u, beta, beta))
    scale = (spec.degrees * np.abs(y) + u * spec.quotient @ np.abs(np.tanh(y))
             + abs(beta)).max()
    return np.abs(lhs - rhs).max(), scale


class TestSwapEquivariance:
    """With n1 = n2 and beta_A = beta_B the reduced field commutes with the
    group swap, which run_quintic_transition uses to mirror its outer branch."""

    @given(st.integers(1, 5), st.integers(0, 5), st.floats(0.0, 2.0), st.floats(0.0, 2.0),
           st.lists(st.floats(-1e2, 1e2), min_size=3, max_size=3),
           st.floats(0.0, 1e2), st.floats(-1e3, 1e3))
    def test_swap_commutes_with_reduced_field(self, n, n3, a12, a13, y, u, beta):
        spec = PopulationSpec(n, n, n3, coupling=np.array([[1.0, a12, a13],
                                                           [a12, 1.0, a13],
                                                           [a13, a13, 1.0]]))
        residual, scale = _swap_residual(spec, np.array(y), u, beta)
        assert residual <= 1e-14 * scale

    def test_unequal_groups_break_the_swap(self):
        residual, scale = _swap_residual(PopulationSpec(2, 3, 2), np.array([0.3, -0.7, 0.2]),
                                         1.5, 1.0)
        assert residual > 1e-3 * scale


class TestZ2Equivariance:
    def test_swap_commutes_with_field(self, rng):
        spec = PopulationSpec(3, 3, 4)
        g = three_population_graph(spec)
        beta = beta_vector(spec, 0.8, 0.8)
        n = 3
        gamma = np.zeros((10, 10))
        gamma[:n, n:2 * n] = -np.eye(n)
        gamma[n:2 * n, :n] = -np.eye(n)
        gamma[2 * n:, 2 * n:] = -np.eye(10 - 2 * n)
        assert np.array_equal(gamma @ gamma, np.eye(10))
        for _ in range(10):
            x = rng.normal(size=10)
            lhs = normalized_field(gamma @ x, g, 1.3, beta)
            rhs = gamma @ normalized_field(x, g, 1.3, beta)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestLyapunov:
    def test_energy_decreases_pre_bifurcation(self, k10, rng):
        for u in (0.3, 1.0):
            x = rng.normal(size=(200, 10))
            vals = np.einsum("ij,ij->i", x, np.array(
                [normalized_field(row, k10, u) for row in x]))
            assert np.all(vals < 0)


class TestEstimator:
    def test_two_node_hand_computation(self):
        # dw/ds = -3 sgn(L(Lw + x)) = (-3, 3) until L w + x = (1 - 6s, 6s)
        # meets the mean 0.5 at s = 1/12, where w = (-1/4, 1/4).
        g = path_graph(2)
        x = np.array([1.0, 0.0])
        tol = 1e-9
        run = integrate_nonsmooth(x, g, alpha=3.0, tol=tol)
        assert g.laplacian @ run.w + x == pytest.approx(np.full(2, x.mean()), abs=tol)
        assert run.w == pytest.approx([-0.25, 0.25], abs=tol)
        assert run.s_elapsed == pytest.approx(1 / 12, abs=1e-4)


class TestAdaptiveField:
    # run_adaptive's right-hand side on K10 with epsilon = 0.01, y_th = 0.5;
    # test_experiments.TestAdaptiveRhs checks it against normalized_field.
    def test_effort_grows_in_deadlock(self, monkeypatch):
        rhs = adaptive_rhs(monkeypatch, adaptive_scenario("symmetric"))
        dz = rhs(0.0, np.append(np.zeros(10), 0.9))
        assert dz[10] == pytest.approx(0.01 * 0.25)

    def test_effort_shrinks_past_threshold(self, monkeypatch):
        rhs = adaptive_rhs(monkeypatch, adaptive_scenario("symmetric"))
        dz = rhs(0.0, np.append(np.full(10, 0.8), 1.2))
        assert dz[10] < 0

    def test_large_epsilon_warns(self):
        with pytest.warns(UserWarning, match="timescale"):
            AdaptiveScenario(epsilon=0.5)


class TestDecisionMetrics:
    def test_group_opinion(self):
        assert group_opinion(np.array([1.0, -1.0])) == 0.0
        assert group_opinion(np.full(7, 3.2)) == pytest.approx(3.2)
        assert group_opinion(np.array([1.0, 2.0, 3.0])) == pytest.approx(2.0)

    def test_disagreement_values(self):
        assert disagreement(np.array([1.0, 1.0, 1.0])) == 0.0
        assert disagreement(np.array([1.0, -1.0])) == pytest.approx(-1.0)
        assert disagreement(np.array([2.0, 4.0])) == pytest.approx(0.0)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=20))
    def test_disagreement_nonpositive(self, entries):
        x = np.array(entries)
        delta = disagreement(x)
        assert delta <= 1e-12
        if np.all(x >= 0) or np.all(x <= 0):
            assert delta == pytest.approx(0.0, abs=1e-12)

    def test_classification(self):
        cfg = DecisionConfig(eta=0.5)
        assert classify_decision(np.zeros(5), cfg) is Decision.DEADLOCK_NO_DECISION
        assert classify_decision(np.ones(3), cfg) is Decision.A
        assert classify_decision(-np.ones(3), cfg) is Decision.B
        mixed = np.array([1.0, -1.0, 1.0])
        assert classify_decision(mixed, DecisionConfig(eta=0.1)) is Decision.DEADLOCK_DISAGREEMENT
        small = np.full(3, 0.2)
        assert classify_decision(small, cfg) is Decision.DEADLOCK_NO_DECISION
        # Every |x| <= DELTA_TOL, yet mean(|x|) rounds to DELTA_TOL + 1 ulp,
        # so |delta| > DELTA_TOL: only the max-norm test calls this no decision.
        within_tol = np.tile([DELTA_TOL, -DELTA_TOL], 5)
        assert abs(disagreement(within_tol)) > DELTA_TOL
        assert classify_decision(within_tol, cfg) is Decision.DEADLOCK_NO_DECISION
        with pytest.raises(ValueError):
            DecisionConfig(eta=np.nan)
        # the tolerance is the module's DELTA_TOL, not a setting
        with pytest.raises(TypeError):
            DecisionConfig(eta=0.5, delta_tol=1e-6)

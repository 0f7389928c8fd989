from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import netdecide.bifurcation as bif
import netdecide.experiments as ex
from netdecide.bifurcation import (
    NEWTON_TOL,
    REFINE_TOL,
    STABILITY_MARGIN,
    SWITCH_OFFSET,
    BifurcationError,
    ata_problem,
    branch_switch,
    continue_branch,
    jacobian,
    newton_solve,
    normalized_problem,
    reduced3_jacobian,
    reduced3_problem,
    ubar_star,
    us_star_hat,
    ustar_numeric,
    ustar_series,
    y_s,
    ystar_root,
    ystar_series,
)
from netdecide.dynamics import beta_vector, normalized_field, reduced3_field, sech2
from netdecide.graphs import (
    Graph,
    PopulationSpec,
    complete_graph,
    directed_ring,
    is_strongly_connected,
    path_graph,
    three_population_graph,
)
from netdecide.solver import IntegratorConfig, integrate

Y_S_2 = 1.9150080481545375    # bisection oracle, y = 2 tanh(y)
Y_S_10 = 9.999999958776924    # bisection oracle, y = 10 tanh(y)


def real_parts(jac):
    return np.linalg.eigvals(jac).real


def assert_bitwise(a, b):
    """a and b are equal bit for bit, signed zeros included; a NaN matches any
    NaN (its payload is not compared)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


def assert_same_fields(a, b):
    """Two dataclass instances whose every field is equal, arrays and floats
    bit for bit."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, (np.ndarray, float)) or isinstance(vb, (np.ndarray, float)):
            assert_bitwise(va, vb)
        else:
            assert va == vb, f.name


def assert_same_branch(a, b):
    assert len(a.points) == len(b.points)
    for pa, pb in zip(a.points, b.points):
        assert_same_fields(pa, pb)
    assert len(a.singular_points) == len(b.singular_points)
    for sa, sb in zip(a.singular_points, b.singular_points):
        assert_same_fields(sa, sb)


class TestJacobian:
    def test_at_origin_is_minus_laplacian(self, k10):
        jac = jacobian(np.zeros(10), k10, u=1.0)
        assert jac == pytest.approx(-k10.laplacian, abs=1e-14)
        evals = np.linalg.eigvals(jac)
        assert np.sum(np.abs(evals) < 1e-8 * np.abs(evals).max()) == 1

    def test_hurwitz_below_threshold(self, k10):
        evals = np.linalg.eigvals(jacobian(np.zeros(10), k10, u=0.7))
        assert np.all(evals.real < 0)

    def test_finite_difference_check(self, weighted_3cycle, rng):
        g = weighted_3cycle
        u = 1.3
        x = rng.normal(size=3)
        jac = jacobian(x, g, u=u)
        h = 1e-6
        fd = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd[:, j] = (normalized_field(x + e, g, u) - normalized_field(x - e, g, u)) / (2 * h)
        assert jac == pytest.approx(fd, abs=1e-6)

    def test_reduced3_finite_difference(self, spec_223, rng):
        y = rng.normal(size=3)
        u = 1.1
        jac = reduced3_jacobian(y, spec_223, u)
        h = 1e-6
        fd = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd[:, j] = (reduced3_field(y + e, spec_223, u, 0.2, 0.1)
                        - reduced3_field(y - e, spec_223, u, 0.2, 0.1)) / (2 * h)
        assert jac == pytest.approx(fd, abs=1e-6)

    def test_hetero_jacobian(self, k10):
        ut = 0.05 * np.array([1.0, -1.0] + [0.0] * 8)
        jac = jacobian(np.zeros(10), k10, 1.0 + ut)
        expected = -np.diag(k10.degrees) + ((1.0 + ut)[:, None] * k10.weights)
        assert jac == pytest.approx(expected, abs=1e-14)


class TestJacobianBuilders:
    """_jacobian and jac_sym subtract the degrees in place from the diagonal of
    their product; the result equals the -np.diag(d) + ... expression bit for
    bit, and the read-only graph arrays stay untouched."""

    @staticmethod
    def states(n, rng):
        x = rng.normal(size=n)
        x[0] = 0.0
        x[-1] = -0.0
        signed_zeros = np.where(np.arange(n) % 2 == 0, 0.0, -0.0)
        with_nan = rng.normal(size=n)
        with_nan[n // 2] = np.nan
        return x, signed_zeros, with_nan

    @staticmethod
    def graph(n, rng):
        w = rng.uniform(0.0, 2.0, size=(n, n))
        w[rng.random((n, n)) < 0.3] = 0.0
        w = np.triu(w, 1)
        return Graph(w + w.T)

    @pytest.mark.parametrize("n", [1, 3, 10, 200])
    @pytest.mark.parametrize("per_agent", [False, True])
    def test_jacobian(self, n, per_agent, rng):
        # a nonzero diagonal, as a quotient matrix has
        weights = rng.uniform(0.0, 2.0, size=(n, n))
        degrees = weights.sum(axis=1) + 0.5
        weights.flags.writeable = False
        degrees.flags.writeable = False
        u = rng.uniform(0.5, 1.5, size=n) if per_agent else 1.3
        for x in self.states(n, rng):
            expected = -np.diag(degrees) + (np.reshape(u, (-1, 1)) * weights) * sech2(x)
            assert_bitwise(bif._jacobian(x, degrees, weights, u), expected)

    @pytest.mark.parametrize("n", [1, 3, 10, 200])
    @pytest.mark.parametrize("per_agent", [False, True])
    def test_jacobian_on_graph(self, n, per_agent, rng):
        g = self.graph(n, rng)
        weights, degrees = g.weights.copy(), g.degrees.copy()
        u = rng.uniform(0.5, 1.5, size=n) if per_agent else 1.3
        for x in self.states(n, rng):
            jac = jacobian(x, g, u)
            expected = -np.diag(degrees) + (np.reshape(u, (-1, 1)) * weights) * sech2(x)
            assert_bitwise(jac, expected)
            assert jac.flags.writeable
            assert not np.shares_memory(jac, g.weights)
            assert not np.shares_memory(jac, g.degrees)
        assert_bitwise(g.weights, weights)
        assert_bitwise(g.degrees, degrees)

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_every_effort_form_matches_the_reshaped_product(self, n, rng):
        # a float effort skips np.reshape; its product must not change
        weights = rng.uniform(0.0, 2.0, size=(n, n))
        degrees = weights.sum(axis=1) + 0.5
        for u in (1.3, np.float64(1.3), np.array(1.3), rng.uniform(0.5, 1.5, size=n)):
            for x in self.states(n, rng):
                expected = bif._minus_degrees((np.reshape(u, (-1, 1)) * weights) * sech2(x),
                                              degrees)
                assert_bitwise(bif._jacobian(x, degrees, weights, u), expected)

    @pytest.mark.parametrize("n", [1, 3, 10, 200])
    def test_jac_sym(self, n, rng):
        g = self.graph(n, rng)
        weights, degrees = g.weights.copy(), g.degrees.copy()
        jac_sym = normalized_problem(g).jac_sym
        u = 1.3
        for x in self.states(n, rng):
            r = np.sqrt(sech2(x))
            out = jac_sym(x, u)
            assert_bitwise(out, -np.diag(degrees) + (u * r[:, None]) * weights * r)
            assert out.flags.writeable
            assert not np.shares_memory(out, g.weights)
            assert out is not jac_sym(x, u)
        assert_bitwise(g.weights, weights)
        assert_bitwise(g.degrees, degrees)


class TestModelProblem:
    """model_problem is the three-group field with its exact derivative in u."""

    @staticmethod
    def problems(beta):
        spec = ex.QuinticScenario().population_spec()
        info = np.array([beta, -beta, 0.0])
        return spec, bif.model_problem(spec.degrees, spec.quotient, info)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 3.0])
    def test_equals_reduced3_bit_for_bit(self, beta, rng):
        spec, problem = self.problems(beta)
        for _ in range(5):
            y, u = rng.normal(scale=2.0, size=3), float(rng.uniform(0.0, 3.0))
            assert_bitwise(problem.f(y, u), reduced3_field(y, spec, u, beta, beta))
            assert_bitwise(problem.jac_x(y, u), reduced3_jacobian(y, spec, u))

    @pytest.mark.parametrize("beta", [0.0, 1.0, 3.0])
    def test_jac_p_is_the_derivative_in_u(self, beta, rng):
        mpmath = pytest.importorskip("mpmath")
        spec, problem = self.problems(beta)
        fd = reduced3_problem(spec, beta, beta)
        assert fd.jac_p is None
        info = [beta, -beta, 0.0]
        for _ in range(5):
            y, u = rng.normal(scale=2.0, size=3), float(rng.uniform(0.1, 3.0))
            jac_p = problem.jac_p(y, u)
            with mpmath.workdps(40):
                for k in range(3):
                    def f_k(uu, k=k):
                        return (-mpmath.mpf(spec.degrees[k]) * mpmath.mpf(y[k])
                                + uu * mpmath.fsum(mpmath.mpf(spec.quotient[k, m])
                                                   * mpmath.tanh(mpmath.mpf(y[m]))
                                                   for m in range(3))
                                + mpmath.mpf(info[k]))
                    exact = float(mpmath.diff(f_k, mpmath.mpf(u)))
                    assert abs(jac_p[k] - exact) <= 1e-13 * abs(exact)
            assert np.abs(jac_p - fd.fp(y, u)).max() <= 1e-6

    def test_rejects_negative_effort(self):
        _, problem = self.problems(1.0)
        for u in (-1e-12, float("nan")):
            with pytest.raises(ValueError, match="must be nonnegative"):
                problem.f(np.zeros(3), u)


class TestFindEquilibrium:
    # Stable: every eigenvalue of the Jacobian has real part below
    # -STABILITY_MARGIN; a saddle has none within the margin of zero.
    def test_consensus_branch(self, k10):
        f = lambda x: normalized_field(x, k10, 2.0)
        j = lambda x: jacobian(x, k10, u=2.0)
        x = newton_solve(f, j, np.full(10, 1.9))
        assert x == pytest.approx(np.full(10, Y_S_2), abs=1e-10)
        assert np.all(real_parts(j(x)) < -STABILITY_MARGIN)

    def test_origin_stable_below(self, k10):
        f = lambda x: normalized_field(x, k10, 0.5)
        j = lambda x: jacobian(x, k10, u=0.5)
        x = newton_solve(f, j, np.full(10, 0.1))
        assert np.abs(x).max() < 1e-12
        assert np.all(real_parts(j(x)) < -STABILITY_MARGIN)

    def test_origin_saddle_above(self, k10):
        f = lambda x: normalized_field(x, k10, 2.0)
        j = lambda x: jacobian(x, k10, u=2.0)
        x = newton_solve(f, j, np.zeros(10))
        re = real_parts(j(x))
        assert np.all(np.abs(re) > STABILITY_MARGIN)
        assert np.sum(re > STABILITY_MARGIN) == 1

    def test_exactly_three_equilibria_near_pitchfork(self, k10):
        u = 1.05
        f = lambda x: normalized_field(x, k10, u)
        j = lambda x: jacobian(x, k10, u=u)
        found = []
        seeds = [c * np.ones(10) for c in np.linspace(-3, 3, 25)]
        rng = np.random.default_rng(0)
        seeds += [rng.normal(scale=0.8, size=10) for _ in range(20)]
        for seed in seeds:
            try:
                x = newton_solve(f, j, seed)
            except BifurcationError:
                continue
            if not any(np.linalg.norm(x - other) < 1e-6 for other in found):
                found.append(x)
        assert len(found) == 3
        ys = y_s(u)
        mags = sorted(np.linalg.norm(x, np.inf) for x in found)
        assert mags[0] < 1e-9
        assert mags[1] == pytest.approx(ys, abs=1e-9)
        assert mags[2] == pytest.approx(ys, abs=1e-9)

    def test_singular_newton_matrix_raises(self):
        with pytest.raises(BifurcationError, match="singular Newton matrix"):
            newton_solve(lambda x: x - 1.0, lambda x: np.zeros((1, 1)), np.zeros(1))

    def test_fifty_steps_without_convergence_raise(self):
        # a Jacobian 1000 times too steep shrinks the residual 0.1 % per step
        with pytest.raises(BifurcationError, match=r"Newton did not converge \(residual 9\.5"):
            newton_solve(lambda x: x, lambda x: np.array([[1e3]]), np.ones(1))


class TestScalarRoots:
    def test_y_s_values(self):
        assert y_s(2.0) == pytest.approx(Y_S_2, abs=1e-12)
        assert y_s(10.0) == pytest.approx(Y_S_10, abs=1e-10)
        # At the largest float u + 1 rounds to u and tanh(y) to 1: the root
        # is u itself, and the bracket midpoints never overflow.
        big = np.finfo(float).max
        assert np.nextafter(big, 0.0) <= y_s(big) <= big

    def test_y_s_near_onset(self):
        val = y_s(1.001)
        assert val < 0.06
        assert val == pytest.approx(np.sqrt(3 * 0.001), rel=0.01)

    def test_y_s_rejects_subcritical(self):
        with pytest.raises(ValueError):
            y_s(0.9)

    @pytest.mark.parametrize("u", [np.nan, np.inf])
    def test_y_s_rejects_nonfinite(self, u):
        with pytest.raises(ValueError, match="finite"):
            y_s(u)

    @pytest.mark.parametrize("u, beta", [(np.nan, 0.1), (1.0, np.nan), (1.0, -np.inf)])
    def test_ystar_root_rejects_nonfinite(self, u, beta):
        with pytest.raises(ValueError, match="finite"):
            ystar_root(u, beta, 10)

    @pytest.mark.parametrize("u", [1.00000000015, 1.0000000008, 1.00000002695, 1.0001])
    def test_y_s_ill_conditioned_near_onset(self, u):
        # Just above u = 1 the root is ill-conditioned: f'(y) ~ 2(u - 1), and
        # the bisection ends on adjacent floats where the residual is at the
        # round-off of its terms; a residual of 4 eps y moves the root by at
        # most 4 eps y / (2(u - 1)).
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            uu = mpmath.mpf(u)
            root = mpmath.findroot(lambda t: t - uu * mpmath.tanh(t), mpmath.sqrt(3 * (uu - 1)))
            ref = float(root)
        y = y_s(u)
        eps = np.finfo(float).eps
        assert abs(y - ref) <= 4 * eps * ref / (2 * (u - 1))

    def test_y_s_within_2000_ulps_of_onset(self):
        # Within a few float spacings above u = 1 the sign of y - u tanh(y)
        # near the root is decided by round-off; the bisection still ends on
        # adjacent floats, where the residual is at the round-off level of
        # its two terms.
        eps = np.finfo(float).eps
        for k in range(1, 2001):
            u = 1.0 + k * eps
            y = y_s(u)
            term = u * np.tanh(y)
            assert abs(y - term) <= 2 * eps * (abs(y) + abs(term)), k

    def test_bisect_to_adjacent_floats(self):
        root = bif._bisect(lambda x: np.sign(x - 1 / 3), 0.0, 1.0, -1.0, 0.0)
        lo, hi = np.nextafter(1 / 3, 0.0), np.nextafter(1 / 3, 1.0)
        assert lo <= root <= hi

    def test_bisect_returns_a_zero_midpoint(self):
        assert bif._bisect(lambda x: np.sign(x - 0.5), 0.0, 1.0, -1.0, 0.0) == 0.5

    def test_ystar_root_reports_nonconvergence(self, monkeypatch):
        # A zero step tolerance cannot be met here: Newton alternates between
        # neighbouring floats around the root.
        monkeypatch.setattr(bif, "NEWTON_TOL", 0.0)
        with pytest.raises(BifurcationError, match="did not converge"):
            ystar_root(1.0, 0.3, 10)

    def test_ystar_root_values(self):
        assert ystar_root(1.0, 0.0, 100) == 0.0
        val = ystar_root(1.0, 0.1, 100)
        assert val == pytest.approx(0.1 / 100, rel=1e-4)
        assert ystar_root(1.0, -0.1, 100) == pytest.approx(-val, abs=1e-15)

    def test_ystar_series_matches_formula(self):
        beta, n = 0.1, 100
        expected = beta / 100 + 1.0 * beta ** 3 / (3 * 100 ** 4)
        assert ystar_series(1.0, beta, n) == pytest.approx(expected, abs=1e-18)
        assert ystar_series(1.0, 0.0, n) == 0.0

    def test_series_remainder_scaling(self):
        """|series - root| = O(beta^5) with a stable constant.

        The fifth-order remainder at N = 100 sits below double-precision
        resolution of the root itself, so the comparison runs in extended
        precision with an independent mpmath root as the oracle.
        """
        from mpmath import mp, mpf, tanh as mtanh, findroot

        mp.dps = 50
        ratios = []
        for beta in (mpf("0.05"), mpf("0.1"), mpf("0.2")):
            root = findroot(lambda y: 99 * y + mtanh(y) - beta, beta / 100)
            k = mpf(100)
            series = beta / k + beta ** 3 / (3 * k ** 4)
            ratios.append(abs(series - root) / beta ** 5)
        assert max(ratios) / min(ratios) < 2.0


class TestSeriesApproximations:
    def test_ustar_series_values(self):
        assert ustar_series(0.0, 100, 80) == 1.0
        coeff = (1 + 3 * 100 ** 3) ** 2 * 20 / (9 * 100.0 ** 9)
        assert ustar_series(1.0, 100, 80) == pytest.approx(1.0 + coeff, abs=1e-18)
        assert coeff == pytest.approx(2.000001e-5, rel=1e-5)

    def test_ustar_series_uninformed_degenerate(self):
        for beta in (0.5, 1.0, 3.0):
            assert ustar_series(beta, 50, 50) == 1.0

    def test_us_star_hat_value(self):
        val = us_star_hat(1.0, 100, 80)
        assert val == pytest.approx(1.0 + 2.000001e-5, rel=1e-6)

    def test_us_star_hat_monotonicity(self):
        nus = np.linspace(0.5, 2.0, 16)
        vals = [us_star_hat(nu, 100, 80) for nu in nus]
        assert np.all(np.diff(vals) < 0)
        # decreasing in n3 at fixed nu
        for nu in (0.5, 1.0, 2.0):
            curve = [us_star_hat(nu, 7, n3) for n3 in (1, 3, 5)]
            assert curve[0] > curve[1] > curve[2]


class TestUstarNumeric:
    def test_symmetric_limit(self):
        assert ustar_numeric(10, 80, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_agrees_with_series(self):
        num = ustar_numeric(10, 80, 0.3)
        ser = ustar_series(0.3, 100, 80)
        assert abs(num - ser) < 1e-4

    # The run_value_sensitivity scan at each beta = nu^2 of criterion 5,
    # cross-checked against continuation of the same trunk.
    @pytest.mark.parametrize("beta", [nu ** 2 for nu in ex.ValueSensitivityScenario().nu_grid])
    def test_agrees_with_continuation(self, beta):
        problem = ata_problem(10, 80, beta)
        ys = ystar_root(0.9, beta, 100)
        branch = continue_branch(problem, np.array([ys, -ys, 0.0]), 0.9,
                                 (0.9, 1.1), h_max=0.02,
                                 symmetric_trunk=True)
        assert branch.singular_points
        sp = branch.singular_points[0]
        assert sp.param == pytest.approx(ustar_numeric(10, 80, beta, (0.9, 1.1)),
                                         abs=REFINE_TOL)

    def test_reports_empty_range(self):
        with pytest.raises(BifurcationError, match="no singular point"):
            ustar_numeric(10, 80, 0.0, u_range=(1.5, 3.0))


class TestNullVectors:
    def _rank_deficient(self, n=7):
        rng = np.random.default_rng(11)
        u, s, vh = np.linalg.svd(rng.normal(size=(n, n)))
        s[-1] = 0.0
        return (u * s) @ vh

    @pytest.mark.parametrize("case", ["directed_ring", "random"])
    def test_unit_null_vectors_with_nonnegative_sum(self, case):
        if case == "directed_ring":
            jac = jacobian(np.zeros(6), directed_ring(6), 1.0)
        else:
            jac = self._rank_deficient()
        phi, psi = bif.null_vectors(jac)
        scale = 1e-12 * np.linalg.norm(jac, np.inf)
        assert np.abs(jac @ phi).max() <= scale
        assert np.abs(jac.T @ psi).max() <= scale
        assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
        assert phi.sum() >= 0


class TestUbarStar:
    def test_homogeneous_limit(self, k10):
        res = ubar_star(k10, np.zeros(10))
        assert res.ubar == pytest.approx(1.0, abs=1e-12)
        assert res.null_right == pytest.approx(np.ones(10), abs=1e-8)

    def test_determinant_scan_oracle(self):
        g = complete_graph(5)
        ut = np.array([0.05, -0.05, 0.0, 0.0, 0.0])
        res = ubar_star(g, ut)
        # oracle: dense determinant sign scan on a fine grid
        grid = np.linspace(0.99, 1.01, 20001)
        dets = [np.linalg.det(jacobian(np.zeros(5), g, ub + ut))
                for ub in grid]
        flips = [k for k in range(len(grid) - 1) if dets[k] * dets[k + 1] < 0]
        assert len(flips) == 1
        bracket = (grid[flips[0]], grid[flips[0] + 1])
        assert bracket[0] <= res.ubar <= bracket[1]

    def test_nullvec_perturbation_scaling(self, k10):
        base = np.array([1.0, -1.0] + [0.0] * 8)
        ratios = []
        for amp in (0.08, 0.04, 0.02, 0.01):
            res = ubar_star(k10, amp * base)
            ratios.append(np.abs(res.null_right - 1.0).sum() / (amp * 2))
        assert max(ratios) / min(ratios) < 2.0  # ||1~ - 1||_1 = O(||utilde||_1)

    def test_warns_for_large_heterogeneity(self, k10):
        ut = np.array([3.0, -3.0] + [0.0] * 8)
        with pytest.warns(UserWarning, match="heterogeneities"):
            ubar_star(k10, ut)


class TestContinuation:
    def test_trunk_pitchfork_complete(self, k10):
        problem = normalized_problem(k10)
        branch = continue_branch(problem, np.zeros(10), 0.5, (0.5, 1.5),
                                 symmetric_trunk=True)
        sps = branch.singular_points
        assert len(sps) == 1
        assert sps[0].kind == "pitchfork"
        assert sps[0].param == pytest.approx(1.0, abs=1e-6)

    def test_trunk_pitchfork_directed_ring(self):
        g = directed_ring(6)
        problem = normalized_problem(g)
        branch = continue_branch(problem, np.zeros(6), 0.5, (0.5, 1.5),
                                 symmetric_trunk=True)
        assert len(branch.singular_points) == 1
        assert branch.singular_points[0].param == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("graph", [
        {"kind": "complete", "n": 10},
        {"kind": "complete", "n": 200},
        {"kind": "weights", "weights": path_graph(8).weights.tolist()},
    ], ids=["complete10", "complete200", "path8"])
    def test_symmetric_tagging_matches_eigvals(self, graph):
        # On an undirected graph each point is tagged from jac_sym (Cholesky,
        # or eigvalsh when -J_sym is not positive definite); the tags must
        # equal those of eigvals/slogdet of jac_x itself.  log|det J| agrees
        # within n eps (kappa_2(J) + |log|det J||): the first-order effect of
        # an O(n eps) relative perturbation of J, plus n roundings of a sum
        # of logarithms.  path8 has points with 2 unstable eigenvalues.
        problem = normalized_problem(ex.graph_from_config(graph))
        assert problem.jac_sym is not None
        res = ex.run_pitchfork_diagram(ex.PitchforkScenario(graph=graph))
        points = [pt for br in (res.trunk, res.upper, res.lower) for pt in br.points]
        for pt in points:
            jac = problem.jac_x(pt.x, pt.param)
            sign, logdet = np.linalg.slogdet(jac)
            assert pt.n_unstable == int(np.sum(real_parts(jac) > STABILITY_MARGIN))
            assert pt.det_sign == sign
            bound = len(jac) * bif.EPS * (np.linalg.cond(jac) + abs(logdet))
            assert abs(pt.log_abs_det - logdet) <= bound

    def test_stable_tag_log_det_matches_40_digit_determinant(self):
        # The first three upper-branch points of the default diagram are
        # stable and nearly singular (kappa_2(J) from 1.7e7 down to 3.1e3).
        # Against det J evaluated in 40 digits from the same (x, u), the
        # Cholesky log|det J| errs by at most eps kappa_2(J): the first-order
        # effect of rounding J once when the eigenvalue nearest 0 dominates.
        mpmath = pytest.importorskip("mpmath")
        g = complete_graph(10)
        problem = normalized_problem(g)
        res = ex.run_pitchfork_diagram(ex.PitchforkScenario())
        for pt in res.upper.points[:3]:
            assert pt.n_unstable == 0
            with mpmath.workdps(40):
                u, s = mpmath.mpf(pt.param), [mpmath.sech(mpmath.mpf(xi)) ** 2 for xi in pt.x]
                jac = mpmath.matrix(g.n, g.n)
                for i in range(g.n):
                    for j in range(g.n):
                        jac[i, j] = u * g.weights[i, j] * s[j]
                    jac[i, i] -= g.degrees[i]
                exact = float(mpmath.log(abs(mpmath.det(jac))))
            cond = np.linalg.cond(problem.jac_x(pt.x, pt.param))
            assert abs(pt.log_abs_det - exact) <= bif.EPS * cond

    def test_eigvalsh_only_at_unstable_points(self, monkeypatch):
        # A stable point is tagged by one Cholesky of -J_sym; only a point
        # with an eigenvalue >= 0 needs the spectrum.  On the 200-agent
        # diagram that is 6 of the 49 continued points (the lower branch is
        # the reflected upper one).
        calls = [0]
        real_eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(a):
            calls[0] += 1
            return real_eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        res = ex.run_pitchfork_diagram(ex.PitchforkScenario(graph={"kind": "complete", "n": 200}))
        points = res.trunk.points + res.upper.points
        assert len(points) == 49
        assert calls[0] == sum(pt.n_unstable > 0 for pt in points) == 6

    def test_each_point_is_tagged_once(self, monkeypatch):
        # Each tag starts with one Cholesky of -J_sym, so one call per
        # recorded point: the branch-switch seed is tagged only as the
        # switched branch's first point.
        calls = [0]
        real_cholesky = np.linalg.cholesky

        def counting_cholesky(a):
            calls[0] += 1
            return real_cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        res = ex.run_pitchfork_diagram(ex.PitchforkScenario(graph={"kind": "complete", "n": 200}))
        assert calls[0] == len(res.trunk.points) + len(res.upper.points) == 49

    def test_directed_graph_has_no_symmetric_jacobian(self):
        assert normalized_problem(directed_ring(6)).jac_sym is None

    def test_stability_flip_recorded(self, k10):
        problem = normalized_problem(k10)
        branch = continue_branch(problem, np.zeros(10), 0.5, (0.5, 1.5),
                                 symmetric_trunk=True)
        n_unstable = [pt.n_unstable for pt in branch.points]
        assert n_unstable[0] == 0
        assert n_unstable[-1] == 1

    def test_branch_switch_directions(self, k10):
        problem = normalized_problem(k10)
        branch = continue_branch(problem, np.zeros(10), 0.5, (0.5, 1.5),
                                 symmetric_trunk=True)
        sp = branch.singular_points[0]
        assert sp.null_right * np.sign(sp.null_right[0]) == pytest.approx(
            np.full(10, 1 / np.sqrt(10)), abs=1e-8)
        x_up, _ = branch_switch(problem, sp, +1)
        x_down, _ = branch_switch(problem, sp, -1)
        assert x_up == pytest.approx(-x_down, abs=1e-9)

    def test_switched_branch_reaches_formula(self, k10):
        problem = normalized_problem(k10)
        trunk = continue_branch(problem, np.zeros(10), 0.5, (0.5, 1.5),
                                symmetric_trunk=True)
        sp = trunk.singular_points[0]
        x, p = branch_switch(problem, sp, +1)
        ref = np.concatenate([x - sp.x, [p - sp.param]])
        upper = continue_branch(problem, x, p, (sp.param, 2.0), initial_reference=ref)
        end = upper.points[-1]
        assert end.param == pytest.approx(2.0, abs=1e-12)
        sign = np.sign(end.x[0])
        assert end.x == pytest.approx(sign * np.full(10, Y_S_2), abs=1e-10)
        assert end.n_unstable == 0
        assert np.all(real_parts(jacobian(end.x, k10, end.param)) < -STABILITY_MARGIN)

    def test_fold_detection_subcritical(self):
        # weakly coupled informed groups: strong information folds the branches
        coupling = np.array([[1.0, 0.25, 1.0], [0.25, 1.0, 1.0], [1.0, 1.0, 1.0]])
        spec = PopulationSpec(2, 2, 2, coupling=coupling)
        beta = 3.0
        problem = reduced3_problem(spec, beta, beta)
        d1 = spec.degrees[0]
        u0 = 0.4
        start = newton_solve(
            lambda y: reduced3_field(y, spec, u0, beta, beta),
            lambda y: reduced3_jacobian(y, spec, u0),
            np.array([beta / (d1 + u0), -beta / (d1 + u0), 0.0]))
        trunk = continue_branch(problem, start, u0, (u0, 3.0), h_max=0.02,
                                symmetric_trunk=True)
        pf = [sp for sp in trunk.singular_points if sp.kind == "pitchfork"]
        assert len(pf) == 1
        x, p = branch_switch(problem, pf[0], +1)
        ref = np.concatenate([x - pf[0].x, [p - pf[0].param]])
        outer = continue_branch(problem, x, p, (0.2, 3.0), h_max=0.02,
                                initial_reference=ref)
        folds = [sp for sp in outer.singular_points if sp.kind == "fold"]
        assert len(folds) == 1
        assert folds[0].refined is True
        assert folds[0].param < pf[0].param  # branches bend backward

    def test_switch_seed_meets_amplitude_constraint(self, k10):
        """branch_switch solves {f = 0, phi.(x - x*) = +-SWITCH_OFFSET} through the
        arclength corrector, on the k10 trunk and on the quintic beta = 3 trunk."""
        k10_problem = normalized_problem(k10)
        k10_branch = continue_branch(k10_problem, np.zeros(10), 0.5, (0.5, 1.5),
                                     symmetric_trunk=True)
        scenario, beta = ex.QuinticScenario(), 3.0
        spec, u0 = scenario.population_spec(), scenario.u_range[0]
        quintic = reduced3_problem(spec, beta, beta)
        d1 = spec.degrees[0]
        deadlock = np.array([beta / (d1 + u0), -beta / (d1 + u0), 0.0])
        quintic_branch = continue_branch(quintic, deadlock, u0, scenario.u_range,
                                         h_max=scenario.h_max, symmetric_trunk=True)
        for problem, branch in ((k10_problem, k10_branch), (quintic, quintic_branch)):
            sp = next(sp for sp in branch.singular_points if sp.kind == "pitchfork")
            for direction in (+1, -1):
                x, p = branch_switch(problem, sp, direction)
                amplitude = sp.null_right @ (x - sp.x)
                assert abs(amplitude - direction * SWITCH_OFFSET) <= 1e-12
                assert np.abs(problem.f(x, p)).max() <= NEWTON_TOL

    def test_tangent_raises_on_singular_bordered_matrix(self):
        # f = x^2 + p^2 at (0, 0): J = f_p = 0, so [[J, f_p], [row]] is singular.
        problem = bif.ContinuationProblem(
            f=lambda x, p: x ** 2 + p ** 2,
            jac_x=lambda x, p: np.atleast_2d(2 * x),
            jac_p=lambda x, p: np.atleast_1d(2 * p))
        with pytest.raises(BifurcationError, match="singular bordered matrix at p = 0"):
            bif._tangent(problem, np.zeros(1), 0.0, np.array([0.0, 1.0]), np.ones(2))

    def test_branch_switch_fails_after_one_attempt(self, k10, monkeypatch):
        problem = normalized_problem(k10)
        sp = bif.SingularPoint(kind="pitchfork", param=1.0, x=np.zeros(10),
                               null_right=np.full(10, 10 ** -0.5), refined=True)
        amplitudes = []

        def fail(problem, z_pred, row):
            amplitudes.append(row[:-1] @ (z_pred[:-1] - sp.x))
            raise BifurcationError("Newton damping failed to reduce the residual")

        monkeypatch.setattr(bif, "_correct", fail)
        with pytest.raises(BifurcationError, match="branch switch failed.*Newton damping"):
            branch_switch(problem, sp, -1)
        assert amplitudes == [pytest.approx(-SWITCH_OFFSET, abs=1e-15)]

    def test_refinement_reports_convergence(self, k10, monkeypatch):
        # A det(J) flip (the k10 pitchfork) and a fold (on the quintic beta = 3
        # outer branch) close their brackets; when the corrector fails inside
        # the bisection, the point is reported unrefined, and the test that
        # flipped across the bracket still names it.  Each bracket is the one
        # continuation handed to _detect_events, replayed.
        detect, recorded = bif._detect_events, {}

        def record(problem, branch, lo, hi, symmetric_trunk, lift):
            known = len(branch.singular_points)
            detect(problem, branch, lo, hi, symmetric_trunk, lift)
            for sp in branch.singular_points[known:]:
                recorded.setdefault(sp.kind, (sp, problem, branch.points[-2:], lo, hi,
                                              symmetric_trunk, lift))

        with monkeypatch.context() as m:
            m.setattr(bif, "_detect_events", record)
            continue_branch(normalized_problem(k10), np.zeros(10), 0.5, (0.5, 1.5),
                            symmetric_trunk=True)
            k10_pitchfork = recorded.pop("pitchfork")
            ex.run_quintic_transition(ex.QuinticScenario(beta_grid=(3.0,)))
        calls = []

        def fail(problem, z_pred, row):
            calls.append(z_pred)
            raise BifurcationError("no convergence")

        for kind, replay in (("pitchfork", k10_pitchfork), ("fold", recorded["fold"])):
            sp, problem, points, lo, hi, symmetric_trunk, lift = replay
            assert sp.refined
            with monkeypatch.context() as m:
                m.setattr(bif, "_correct", fail)
                found = bif.Branch(points=list(points))
                bif._detect_events(problem, found, lo, hi, symmetric_trunk, lift)
            assert len(calls) == 1
            assert [(s.kind, s.refined) for s in found.singular_points] == [(kind, False)]
            calls.clear()

    def test_failed_end_solve_raises(self, k10, monkeypatch):
        # A branch whose solve at the end of its range fails is a failure, not
        # a branch reported as ending at "range" without its end point.
        correct = bif._correct

        def fail_at_end(problem, z_pred, row):
            if z_pred[-1] == 1.5:
                raise BifurcationError("no convergence at the range end")
            return correct(problem, z_pred, row)

        monkeypatch.setattr(bif, "_correct", fail_at_end)
        with pytest.raises(BifurcationError, match="at the range end"):
            continue_branch(normalized_problem(k10), np.zeros(10), 0.5, (0.5, 1.5),
                            symmetric_trunk=True)

    def test_corrector_failure_down_to_h_min_raises(self):
        # f = x - p with a Jacobian of the wrong sign: every corrector step
        # raises the residual, so each halved step fails until H_MIN.
        problem = bif.ContinuationProblem(
            f=lambda x, p: x - p,
            jac_x=lambda x, p: np.array([[-1.0]]),
            jac_p=lambda x, p: np.array([-1.0]))
        with pytest.raises(BifurcationError,
                           match=r"stopped at p = 0\.0: .*H_MIN.*Newton damping failed"):
            continue_branch(problem, np.zeros(1), 0.0, (0.0, 1.0))

    def test_exhausted_point_budget_raises(self, k10, monkeypatch):
        monkeypatch.setattr(bif, "MAX_POINTS", 3)
        with pytest.raises(BifurcationError, match=r"stopped at p = 0\.5\d*: MAX_POINTS = 3"):
            continue_branch(normalized_problem(k10), np.zeros(10), 0.5, (0.5, 1.5),
                            symmetric_trunk=True)

    def test_corrector_damps_an_overshooting_step(self):
        # Newton on arctan(x) = p from x = 3 overshoots: the full step lands
        # at x = -9.5, where the residual is larger.  Damping converges.
        problem = bif.ContinuationProblem(
            f=lambda x, p: np.arctan(x) - p,
            jac_x=lambda x, p: np.diag(1.0 / (1.0 + x ** 2)),
            jac_p=lambda x, p: np.array([-1.0]))
        z = bif._correct(problem, np.array([3.0, 0.0]), np.array([0.0, 1.0]))
        assert np.abs(z).max() <= NEWTON_TOL

    def test_step_does_not_jump_a_fold_pair(self):
        # The 5/5/10 quotient at u = 1.06, continued in beta_B from the
        # decided beta_B = 0 state: the equilibrium curve folds at
        # beta_B = 5.2369891 and back at 4.7224977, and a step of h_max = 0.1
        # can cross both, flipping neither det(J) nor the tangent's
        # parameter component.  The tangent-turn test halves that step.
        spec, u, beta_a = PopulationSpec(5, 5, 10), 1.06, 5.0
        problem = bif.ContinuationProblem(
            f=lambda y, beta_b: reduced3_field(y, spec, u, beta_a, beta_b),
            jac_x=lambda y, beta_b: reduced3_jacobian(y, spec, u),
            jac_p=lambda y, beta_b: np.array([0.0, -1.0, 0.0]))
        branch = continue_branch(problem, np.full(3, 3.0), 0.0, (0.0, 12.0), h_max=0.1)
        assert branch.points[0].n_unstable == 0
        assert [sp.kind for sp in branch.singular_points] == ["fold", "fold"]
        assert [sp.param for sp in branch.singular_points] == pytest.approx(
            [5.2369891, 4.7224977], abs=1e-7)
        assert branch.points[-1].param == 12.0

    def test_determinism(self, k10):
        problem = normalized_problem(k10)
        a = continue_branch(problem, np.zeros(10), 0.5, (0.5, 1.5), symmetric_trunk=True)
        b = continue_branch(problem, np.zeros(10), 0.5, (0.5, 1.5), symmetric_trunk=True)
        assert len(a.points) == len(b.points)
        for pa, pb in zip(a.points, b.points):
            assert pa.param == pb.param
            assert np.array_equal(pa.x, pb.x)


def _two_cell_coupling():
    # groups 1 and 2 of a 5/5/10 population swap into one cell
    coupling = np.ones((3, 3))
    coupling[0, 1] = coupling[1, 0] = 0.25
    return coupling.tolist()


def _quotient_diagram(g, u_range, u_branch_end, h_max=0.1):
    """Trunk and +1 branch continued on the quotient, with the lift."""
    quotient, lift = bif.quotient_problem(g)
    trunk, sp = bif.trace_trunk(quotient, np.zeros(len(lift.sizes)), u_range, h_max, lift)
    return trunk, bif.switched_branch(quotient, sp, +1, (sp.param, u_branch_end), h_max, lift)


def _network_diagram(g, u_range, u_branch_end, h_max=0.1):
    problem = normalized_problem(g)
    trunk, sp = bif.trace_trunk(problem, np.zeros(g.n), u_range, h_max)
    return trunk, bif.switched_branch(problem, sp, +1, (sp.param, u_branch_end), h_max)


# (graph, u_range, u_branch_end) continued on the quotient and on the network
QUOTIENT_CASES = {
    "complete20": ({"kind": "complete", "n": 20}, (0.5, 1.5), 2.2),
    "complete200": ({"kind": "complete", "n": 200}, (0.5, 1.5), 2.2),
    # three cells of 40, 40 and 120 agents
    "population40_40_120": ({"kind": "population", "n1": 40, "n2": 40, "n3": 120,
                             "coupling": [[1.0, 0.5, 0.8], [0.5, 1.0, 1.2], [0.8, 1.2, 1.0]]},
                            (0.5, 1.5), 2.2),
    # five cells, one of them a single agent, and two more det flips past u = 1
    "path9": ({"kind": "weights", "weights": path_graph(9).weights.tolist()}, (0.5, 1.5), 2.2),
    # the groups 1 and 2 antisymmetric mode, transverse to the two cells,
    # flips det J on the trunk at u = 61/11
    "two_cells": ({"kind": "population", "n1": 5, "n2": 5, "n3": 10,
                   "coupling": _two_cell_coupling()}, (0.5, 6.0), 7.0),
    # that transverse flip is the trunk's first pitchfork: its branch leaves
    # the quotient and is continued on the network
    "two_cells_transverse_first": ({"kind": "population", "n1": 5, "n2": 5, "n3": 10,
                                    "coupling": _two_cell_coupling()}, (2.0, 6.0), 7.0),
    "ring12": ({"kind": "directed_ring", "n": 12}, (0.5, 1.5), 2.2),
}


class TestQuotientContinuation:
    """A diagram continued on the quotient of the coarsest equitable
    partition, tagged on the network, is the network's diagram."""

    @pytest.mark.parametrize("graph, u_range, u_branch_end", QUOTIENT_CASES.values(),
                             ids=QUOTIENT_CASES.keys())
    def test_quotient_diagram_is_the_network_diagram(self, graph, u_range, u_branch_end):
        g = ex.graph_from_config(graph)
        for got, want in zip(_quotient_diagram(g, u_range, u_branch_end),
                             _network_diagram(g, u_range, u_branch_end)):
            assert len(got.points) == len(want.points)
            for a, b in zip(got.points, want.points):
                assert abs(a.param - b.param) <= 1e-10
                assert np.abs(a.x - b.x).max() <= 1e-10
                assert (a.n_unstable, a.det_sign) == (b.n_unstable, b.det_sign)
            assert ([(sp.kind, sp.refined) for sp in got.singular_points]
                    == [(sp.kind, sp.refined) for sp in want.singular_points])
            for a, b in zip(got.singular_points, want.singular_points):
                assert abs(a.param - b.param) <= REFINE_TOL

    def test_transverse_flip_is_reported(self):
        graph, u_range, u_branch_end = QUOTIENT_CASES["two_cells"]
        trunk, _ = _quotient_diagram(ex.graph_from_config(graph), u_range, u_branch_end)
        assert [sp.kind for sp in trunk.singular_points] == ["pitchfork", "pitchfork"]
        assert trunk.singular_points[1].param == pytest.approx(61 / 11, abs=REFINE_TOL)
        # its null vector is +-1 on groups 1 and 2 and 0 on the uninformed
        phi = trunk.singular_points[1].null_right
        assert phi[:5] == pytest.approx(-phi[5:10], abs=1e-8)
        assert np.abs(phi[10:]).max() <= 1e-8

    def test_quotient_arclength_is_the_lifted_rms_arclength(self, rng):
        # On a consensus branch every cell moves alike, and any weights that
        # sum to 1 give the same steps; off it the cells weigh n_k / n.
        _, lift = bif.quotient_problem(path_graph(9))
        z = rng.normal(size=6)
        x = lift.state(z[:-1])
        assert z @ (lift.weights * z) == pytest.approx(x @ x / 9 + z[-1] ** 2, rel=1e-14)

    def test_singleton_partition_reproduces_network_arithmetic(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(0.5, 2.0, (9, 9))
        np.fill_diagonal(w, 0.0)
        g = Graph(w)
        assert np.array_equal(bif.quotient_problem(g)[1].cells, np.arange(9))
        for got, want in zip(_quotient_diagram(g, (0.5, 1.5), 2.2),
                             _network_diagram(g, (0.5, 1.5), 2.2)):
            assert_same_branch(got, want)

    def test_complete_200_diagram_solves_nothing_larger_than_2x2(self, monkeypatch):
        sizes = []
        real_solve = np.linalg.solve

        def recording_solve(a, b):
            sizes.append(len(a))
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        ex.run_pitchfork_diagram(ex.PitchforkScenario(graph={"kind": "complete", "n": 200}))
        assert sizes and max(sizes) <= 2


def assert_switching_holds(g):
    """At the trunk's first pitchfork the network's null vector is the lifted
    quotient null vector, so the switched branch starts on the quotient; and
    the trunk first loses stability through a real eigenvalue."""
    quotient, lift = bif.quotient_problem(g)
    trunk, sp = bif.trace_trunk(quotient, np.zeros(len(lift.sizes)), (0.5, 1.5), 0.1, lift)
    phi, _ = bif.null_vectors(quotient.jac_x(sp.x[lift.first], sp.param))
    lifted = phi[lift.cells] / np.linalg.norm(phi[lift.cells])
    assert np.abs(sp.null_right - np.sign(lifted.sum()) * lifted).max() <= 1e-8
    unstable = next(pt for pt in trunk.points if pt.n_unstable > 0)
    jac = jacobian(unstable.x, g, unstable.param)
    ev = np.linalg.eigvals(jac)
    assert abs(ev[np.argmax(ev.real)].imag) <= 1e-12 * np.linalg.norm(jac, 2)


@pytest.mark.parametrize("graph", [
    {"kind": "complete", "n": 10},
    {"kind": "directed_ring", "n": 12},
    {"kind": "weights", "weights": path_graph(9).weights.tolist()},
    {"kind": "population", "n1": 4, "n2": 4, "n3": 8, "coupling": _two_cell_coupling()},
    {"kind": "population", "n1": 2, "n2": 3, "n3": 5,
     "coupling": [[1.0, 0.5, 0.8], [0.4, 1.0, 1.2], [0.7, 0.9, 1.0]]},
], ids=["complete10", "ring12", "path9", "two_cells", "coupled235"])
def test_switching_assumption(graph):
    assert_switching_holds(ex.graph_from_config(graph))


@given(st.integers(2, 8), st.booleans(), st.data())
def test_switching_assumption_on_drawn_graphs(n, symmetric, data):
    w = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                    min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(w, 0.0)
    g = Graph(w + w.T if symmetric else w)
    assume(is_strongly_connected(g))
    assert_switching_holds(g)


# Graphs whose switched branches are compared with their mirror images.
REFLECTION_GRAPHS = {
    "complete10": {"kind": "complete", "n": 10},
    "complete200": {"kind": "complete", "n": 200},
    "population334": {"kind": "population", "n1": 3, "n2": 3, "n3": 4},
    "coupled235": {"kind": "population", "n1": 2, "n2": 3, "n3": 5,
                   "coupling": [[1.0, 0.5, 0.8], [0.4, 1.0, 1.2], [0.7, 0.9, 1.0]]},
    "ring8": {"kind": "directed_ring", "n": 8},
    # five cells, one of them a single agent
    "path9": {"kind": "weights", "weights": path_graph(9).weights.tolist()},
}


class TestReflection:
    """With no information the field is odd, and every step of continuation
    commutes with x -> -x, so the -1 branch is the reflected +1 branch bit for
    bit, on the network and on its quotient."""

    @pytest.mark.parametrize("graph", REFLECTION_GRAPHS.values(), ids=REFLECTION_GRAPHS.keys())
    def test_reflected_branch_is_the_continued_mirror(self, graph):
        scenario = ex.PitchforkScenario(graph=graph)
        g = ex.graph_from_config(graph)
        quotient, lift = bif.quotient_problem(g)
        # on the network, then on the quotient with its lift, as
        # run_pitchfork_diagram continues
        for problem, x_start, on in ((normalized_problem(g), np.zeros(g.n), None),
                                     (quotient, np.zeros(len(lift.sizes)), lift)):
            _, sp = bif.trace_trunk(problem, x_start, scenario.u_range, scenario.h_max, on)
            p_range = (sp.param, scenario.u_branch_end)
            up = bif.switched_branch(problem, sp, +1, p_range, scenario.h_max, on)
            down = bif.switched_branch(problem, sp, -1, p_range, scenario.h_max, on)
            assert_same_branch(bif.reflected(up), down)
            # the sign of the null vector, and so of each side, is arbitrary
            assert up.points[-1].x.mean() * down.points[-1].x.mean() < 0
            # No singular point on these branches: test_reflects_singular_points
            # covers their reflection.
            assert up.singular_points == []

    def test_pitchfork_diagram_lower_is_reflected_upper(self):
        res = ex.run_pitchfork_diagram(ex.PitchforkScenario())
        assert res.upper.points[-1].x.mean() > 0
        assert_same_branch(res.lower, bif.reflected(res.upper))

    def test_reflects_singular_points(self):
        x = np.array([0.5, -0.0, 2.0])
        sp = bif.SingularPoint(kind="fold", param=1.25, x=x,
                               null_right=np.array([0.6, 0.8, 0.0]), refined=False)
        points = [bif.Equilibrium(x=x, param=1.0, n_unstable=1, det_sign=-1.0,
                                  log_abs_det=0.5),
                  bif.Equilibrium(x=-x, param=1.5, n_unstable=0)]
        branch = bif.Branch(points=points, singular_points=[sp])
        before = [dataclasses.replace(p) for p in points + [sp]]
        out = bif.reflected(branch)

        assert_same_fields(out.points[0], bif.Equilibrium(
            x=np.array([-0.5, 0.0, -2.0]), param=1.0, n_unstable=1, det_sign=-1.0,
            log_abs_det=0.5))
        assert_same_fields(out.points[1], bif.Equilibrium(x=x, param=1.5, n_unstable=0))
        assert_same_fields(out.singular_points[0], bif.SingularPoint(
            kind="fold", param=1.25, x=np.array([-0.5, 0.0, -2.0]),
            null_right=sp.null_right, refined=False))
        # the input is left as it was, and reflecting twice gives it back
        for p, q in zip(points + [sp], before):
            assert_same_fields(p, q)
        assert_same_branch(bif.reflected(out), branch)
        assert not np.shares_memory(out.singular_points[0].null_right, sp.null_right)

    def test_reflects_under_a_permutation(self):
        # x -> -x[perm]: states permuted and negated, null vectors permuted only.
        sp = bif.SingularPoint(kind="fold", param=1.25, x=np.array([0.5, -0.0, 2.0]),
                               null_right=np.array([0.6, 0.0, 0.8]), refined=True)
        points = [bif.Equilibrium(x=np.array([0.25, -1.0, 0.0]), param=1.0, n_unstable=1,
                                  det_sign=-1.0, log_abs_det=0.5),
                  bif.Equilibrium(x=np.array([1.0, 2.0, -3.0]), param=1.5, n_unstable=0)]
        branch = bif.Branch(points=points, singular_points=[sp])
        before = [dataclasses.replace(p) for p in points + [sp]]
        out = bif.reflected(branch, perm=(1, 0, 2))

        assert_same_fields(out.points[0], bif.Equilibrium(
            x=np.array([1.0, -0.25, -0.0]), param=1.0, n_unstable=1, det_sign=-1.0,
            log_abs_det=0.5))
        assert_same_fields(out.points[1], bif.Equilibrium(
            x=np.array([-2.0, -1.0, 3.0]), param=1.5, n_unstable=0))
        assert_same_fields(out.singular_points[0], bif.SingularPoint(
            kind="fold", param=1.25, x=np.array([0.0, -0.5, -2.0]),
            null_right=np.array([0.0, 0.6, 0.8]), refined=True))
        for p, q in zip(points + [sp], before):
            assert_same_fields(p, q)
        assert_same_branch(bif.reflected(out, perm=(1, 0, 2)), branch)


def quintic_pitchfork(beta):
    """The reduced problem of the default quintic scenario at beta, its trunk
    pitchfork, and the range and step of its outer branches."""
    scenario = ex.QuinticScenario()
    spec = scenario.population_spec()
    u0 = scenario.u_range[0]
    d1 = spec.degrees[0]
    problem = bif.model_problem(spec.degrees, spec.quotient, np.array([beta, -beta, 0.0]))
    start = np.array([beta / (d1 + u0), -beta / (d1 + u0), 0.0])
    _, sp = bif.trace_trunk(problem, start, scenario.u_range, scenario.h_max)
    assert sp is not None
    return problem, sp, (u0 / 2, scenario.u_range[1]), scenario.h_max


class TestQuinticMirror:
    """With n1 = n2 and beta_A = beta_B the reduced field is equivariant under
    the group swap y -> -(y2, y1, y3), so the -1 outer branch is the swapped
    +1 branch, up to rounding (the permuted sums and pivots differ)."""

    @pytest.mark.parametrize("beta", [0.0, 1.0, 3.0])
    def test_pitchfork_null_vector_is_swap_antisymmetric(self, beta):
        _, sp, _, _ = quintic_pitchfork(beta)
        assert abs(sp.null_right[0] - sp.null_right[1]) <= 1e-10

    @pytest.mark.parametrize("beta", [0.0, 1.0, 3.0])
    def test_reflected_outer_branch_is_the_continued_mirror(self, beta):
        problem, sp, p_range, h_max = quintic_pitchfork(beta)
        up = bif.switched_branch(problem, sp, +1, p_range, h_max)
        down = bif.switched_branch(problem, sp, -1, p_range, h_max)
        mirror = bif.reflected(up, perm=ex.GROUP_SWAP)

        assert len(mirror.points) == len(down.points)
        for a, b in zip(mirror.points, down.points):
            assert (a.n_unstable, a.det_sign) == (b.n_unstable, b.det_sign)
            assert np.abs(a.x - b.x).max() <= 1e-10
            assert abs(a.param - b.param) <= 1e-10
        assert [s.kind for s in mirror.singular_points] == \
            [s.kind for s in down.singular_points]
        for a, b in zip(mirror.singular_points, down.singular_points):
            assert abs(a.param - b.param) <= REFINE_TOL
            # a null vector is defined up to its sign
            assert abs(a.null_right @ b.null_right) >= 1 - 1e-9
        if beta == 3.0:
            assert [s.kind for s in down.singular_points] == ["fold"]


class TestUnfoldingSensitivity:
    def test_information_tilts_decision(self, weighted_3cycle):
        """A positive nudge on any single agent tips the group positive."""
        g = weighted_3cycle
        u = 1.1
        for i in range(3):
            beta = np.zeros(3)
            beta[i] = 1e-3
            f = lambda t, x: normalized_field(x, g, u, beta)
            cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, max_time=400.0)
            traj = integrate(f, np.zeros(3), cfg)
            assert traj.final_state.mean() > 0.01

from __future__ import annotations

import numpy as np
import pytest

from netdecide.bifurcation import (
    BifurcationError,
    ContinuationConfig,
    ata_problem,
    branch_switch,
    continue_branch,
    find_equilibrium,
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
from netdecide.dynamics import beta_vector, normalized_field, reduced3_field
from netdecide.graphs import PopulationSpec, complete_graph, directed_ring, three_population_graph
from netdecide.solver import IntegratorConfig, integrate

Y_S_2 = 1.9150080481545375    # bisection oracle, y = 2 tanh(y)
Y_S_10 = 9.999999958776924    # bisection oracle, y = 10 tanh(y)


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


class TestFindEquilibrium:
    def test_consensus_branch(self, k10):
        f = lambda x: normalized_field(x, k10, 2.0)
        j = lambda x: jacobian(x, k10, u=2.0)
        eq = find_equilibrium(f, j, np.full(10, 1.9), param=2.0)
        assert eq.x == pytest.approx(np.full(10, Y_S_2), abs=1e-10)
        assert eq.stability == "stable"

    def test_origin_stable_below(self, k10):
        f = lambda x: normalized_field(x, k10, 0.5)
        j = lambda x: jacobian(x, k10, u=0.5)
        eq = find_equilibrium(f, j, np.full(10, 0.1), param=0.5)
        assert np.abs(eq.x).max() < 1e-12
        assert eq.stability == "stable"

    def test_origin_saddle_above(self, k10):
        f = lambda x: normalized_field(x, k10, 2.0)
        j = lambda x: jacobian(x, k10, u=2.0)
        eq = find_equilibrium(f, j, np.zeros(10), param=2.0)
        assert eq.stability == "saddle"
        assert eq.n_unstable == 1

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


class TestScalarRoots:
    def test_y_s_values(self):
        assert y_s(2.0) == pytest.approx(Y_S_2, abs=1e-12)
        assert y_s(10.0) == pytest.approx(Y_S_10, abs=1e-10)

    def test_y_s_near_onset(self):
        val = y_s(1.001)
        assert val < 0.06
        assert val == pytest.approx(np.sqrt(3 * 0.001), rel=0.01)

    def test_y_s_rejects_subcritical(self):
        with pytest.raises(ValueError):
            y_s(0.9)

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

    def test_agrees_with_continuation(self):
        beta = 0.3
        problem = ata_problem(10, 80, beta)
        ys = ystar_root(0.9, beta, 100)
        branch = continue_branch(problem, np.array([ys, -ys, 0.0]), 0.9,
                                 (0.9, 1.1), cfg=ContinuationConfig(h_max=0.02),
                                 symmetric_trunk=True)
        assert branch.singular_points
        sp = branch.singular_points[0]
        assert sp.param == pytest.approx(ustar_numeric(10, 80, beta), abs=1e-6)

    def test_reports_empty_range(self):
        with pytest.raises(BifurcationError, match="no singular point"):
            ustar_numeric(10, 80, 0.0, u_range=(1.5, 3.0))


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
        up = branch_switch(problem, sp, +1)
        down = branch_switch(problem, sp, -1)
        assert up.x == pytest.approx(-down.x, abs=1e-9)

    def test_switched_branch_reaches_formula(self, k10):
        problem = normalized_problem(k10)
        trunk = continue_branch(problem, np.zeros(10), 0.5, (0.5, 1.5),
                                symmetric_trunk=True)
        sp = trunk.singular_points[0]
        seed = branch_switch(problem, sp, +1)
        ref = np.concatenate([seed.x - sp.x, [seed.param - sp.param]])
        upper = continue_branch(problem, seed.x, seed.param, (sp.param, 2.0),
                                initial_reference=ref)
        end = upper.points[-1]
        assert end.param == pytest.approx(2.0, abs=1e-12)
        sign = np.sign(end.x[0])
        assert end.x == pytest.approx(sign * np.full(10, Y_S_2), abs=1e-10)
        assert end.stability == "stable"

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
        trunk = continue_branch(problem, start, u0, (u0, 3.0),
                                cfg=ContinuationConfig(h_max=0.02),
                                symmetric_trunk=True)
        pf = [sp for sp in trunk.singular_points if sp.kind == "pitchfork"]
        assert len(pf) == 1
        seed = branch_switch(problem, pf[0], +1)
        ref = np.concatenate([seed.x - pf[0].x, [seed.param - pf[0].param]])
        outer = continue_branch(problem, seed.x, seed.param, (0.2, 3.0),
                                cfg=ContinuationConfig(h_max=0.02),
                                initial_reference=ref)
        folds = [sp for sp in outer.singular_points if sp.kind == "fold"]
        assert len(folds) == 1
        assert folds[0].param < pf[0].param  # branches bend backward

    def test_determinism(self, k10):
        problem = normalized_problem(k10)
        a = continue_branch(problem, np.zeros(10), 0.5, (0.5, 1.5), symmetric_trunk=True)
        b = continue_branch(problem, np.zeros(10), 0.5, (0.5, 1.5), symmetric_trunk=True)
        assert len(a.points) == len(b.points)
        for pa, pb in zip(a.points, b.points):
            assert pa.param == pb.param
            assert np.array_equal(pa.x, pb.x)


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

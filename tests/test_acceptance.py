"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines as they complete.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import netdecide.experiments as ex
from netdecide.bifurcation import (
    branch_switch,
    continue_branch,
    normalized_problem,
    us_star_hat,
    ustar_series,
    y_s,
)
from netdecide.dynamics import beta_vector, normalized_field
from netdecide.graphs import complete_graph, directed_ring, lambda2, three_population_graph
from netdecide.solver import IntegratorConfig, _integrate, integrate, integrate_nonsmooth

Y_S_2 = 1.9150080481545375  # bisection oracle for y = 2 tanh(y)


def report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_pitchfork_location():
    """Continuation finds exactly one trunk singularity at u = 1 (1e-6)."""
    start = time.monotonic()
    ok = True
    for g in (complete_graph(5), complete_graph(10), complete_graph(50),
              directed_ring(6)):
        problem = normalized_problem(g)
        branch = continue_branch(problem, np.zeros(g.n), 0.5, (0.5, 1.5),
                                 symmetric_trunk=True)
        sps = branch.singular_points
        ok &= len(sps) == 1
        ok &= abs(sps[0].param - 1.0) <= 1e-6
    elapsed = time.monotonic() - start
    ok &= elapsed < 5.0
    report(1, f"pitchfork at u=1 on four graphs in {elapsed:.2f}s (< 5s)", ok)


def test_criterion_2_branch_formula():
    """Switched branches equal +/- y_s(2)*1; trajectories converge to them."""
    g = complete_graph(10)
    problem = normalized_problem(g)
    trunk = continue_branch(problem, np.zeros(10), 0.5, (0.5, 1.5),
                            symmetric_trunk=True)
    sp = trunk.singular_points[0]
    ok = True
    ends = []
    for direction in (+1, -1):
        x, p = branch_switch(problem, sp, direction)
        ref = np.concatenate([x - sp.x, [p - sp.param]])
        br = continue_branch(problem, x, p, (sp.param, 2.0), initial_reference=ref)
        end = br.points[-1]
        ok &= end.param == pytest.approx(2.0, abs=1e-10)
        sign = np.sign(end.x.mean())
        ok &= np.abs(end.x - sign * Y_S_2).max() <= 1e-4
        ends.append(end.x)

    rng = np.random.default_rng(2024)
    cfg = IntegratorConfig(rtol=1e-11, atol=1e-13, max_time=50.0)
    for _ in range(5):
        x0 = 1e-2 * rng.uniform(-1, 1, 10)
        traj = integrate(lambda t, x: normalized_field(x, g, 2.0), x0, cfg)
        dists = [np.linalg.norm(traj.final_state - e, np.inf) for e in ends]
        ok &= min(dists) < 1e-5
    report(2, "branches equal +/- y_s(2); trajectories converge to them", ok)


def test_criterion_3_global_stability():
    """All pre-bifurcation runs reach the origin; energy decreases."""
    g = complete_graph(10)
    rng = np.random.default_rng(3)
    ok = True

    # u < 1: direct integration (exponential convergence)
    for u in (0.3, 0.9):
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-14, max_time=1e4)
        for _ in range(100):
            x0 = rng.uniform(-1, 1, 10)
            traj, _ = _integrate(lambda t, x: normalized_field(x, g, u), x0, cfg,
                                 stop_condition=lambda t, x, dxdt: np.abs(x).max() < 1e-6)
            ok &= np.abs(traj.final_state).max() < 1e-6

    # u = 1: collapse to the consensus manifold is exponential, but the
    # consensus coordinate decays only algebraically (cubic nonlinearity), so
    # after the spread is numerically dead the run continues on the exact
    # scalar restriction of the same vector field.
    cfg1 = IntegratorConfig(rtol=1e-10, atol=1e-14, max_time=10.0)
    cfg2 = IntegratorConfig(rtol=1e-8, atol=1e-14, max_time=1e13)
    for _ in range(100):
        x0 = rng.uniform(-1, 1, 10)
        traj = integrate(lambda t, x: normalized_field(x, g, 1.0), x0, cfg1)
        x1 = traj.final_state
        spread = x1.max() - x1.min()
        ok &= spread < 1e-9
        scalar = lambda t, y: -9 * y + 9.0 * np.tanh(y)
        tr2, _ = _integrate(scalar, np.array([x1.mean()]), cfg2,
                            stop_condition=lambda t, y, dydt: abs(y[0]) < 1e-6)
        ok &= abs(tr2.final_state[0]) < 1e-6

    # energy decay on random nonzero states
    for u in (0.3, 0.9, 1.0):
        x = rng.uniform(-1, 1, (4000, 10))
        x = x[np.abs(x).max(axis=1) > 1e-12]
        s = np.tanh(x)
        f = -x * g.degrees + u * (s @ g.weights.T)
        ok &= bool(np.all(np.einsum("ij,ij->i", x, f) < 0))
    report(3, "origin reached for u in {0.3, 0.9, 1.0}; x.F(x) < 0", ok)


def test_criterion_4_series_vs_root():
    """|series - root| <= C beta^5 with C stable across beta (ratio < 2x).

    The remainder at N = 100 is below double precision of the root itself,
    so both sides are evaluated in extended precision against an independent
    mpmath root-finding oracle.
    """
    from mpmath import findroot, mp, mpf
    from mpmath import tanh as mtanh

    mp.dps = 50
    n, u = mpf(100), mpf(1)
    ratios = []
    for beta in (mpf("0.05"), mpf("0.1"), mpf("0.2")):
        root = findroot(lambda y: (n - 1) * y + u * mtanh(y) - beta,
                        beta / (n - 1 + u))
        k = n - 1 + u
        series = beta / k + u * beta ** 3 / (3 * k ** 4)
        ratios.append(abs(series - root) / beta ** 5)
    spread = float(max(ratios) / min(ratios))
    ok = spread < 2.0
    report(4, f"remainder constant stable across beta (ratio spread {spread:.4f})", ok)


def test_criterion_5_bifurcation_point_series():
    """Series vs det-scan bifurcation point within 5% over nu in [0.5, 2]."""
    start = time.monotonic()
    scenario = ex.ValueSensitivityScenario()
    res = ex.run_value_sensitivity(scenario)
    ok = bool(res.rel_error.max() <= 0.05)
    ok &= bool(np.all(np.diff(res.us_hat) < 0))
    ok &= bool(np.all(np.diff(res.us_numeric) < 0))
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    report(5, f"series within {res.rel_error.max():.2e} of the det J3 scan, "
              f"both decreasing, in {elapsed:.2f}s (< 30s)", ok)


def test_criterion_6_uninformed_influence():
    """Curves for n3 in {1, 3, 5} at N = 7 are pointwise ordered."""
    res = ex.run_uninformed_influence(ex.UninformedInfluenceScenario())
    ok = res.ordered
    ok &= bool(np.all(res.curves[5] < res.curves[3]))
    ok &= bool(np.all(res.curves[3] < res.curves[1]))
    report(6, "larger uninformed population lowers the effort curve", ok)


def test_criterion_7_model_reduction():
    """Group-spread decay bound and full/reduced agreement at t = 20."""
    res = ex.run_reduction_demo(ex.ReductionScenario())
    ok = res.bound_satisfied
    ok &= res.max_group_diff < 1e-6
    report(7, f"spread bound holds; group means match to {res.max_group_diff:.2e}", ok)


def test_criterion_8_estimator_bound():
    """Estimator error < 1e-6 within ||err(0)|| / lambda2; mean preserved."""
    g = complete_graph(10)
    lam2 = lambda2(g)
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(20):
        x = rng.uniform(-1, 1, 10)
        err0 = float(np.linalg.norm(x - x.mean()))
        run = integrate_nonsmooth(x, g, alpha=1.0, tol=1e-6)
        ok &= run.error <= 1e-6
        ok &= run.s_elapsed <= err0 / lam2
        ok &= run.mean_drift <= 1e-10
    report(8, "finite-time bound and mean preservation on 20 instances", ok)


def test_criterion_9_adaptive_deadlock_breaking():
    """Bifurcation delay and threshold capture of the adaptive loop."""
    start = time.monotonic()
    res = ex.run_adaptive(ex.adaptive_scenario("symmetric"))
    d = res.diagnostics
    ok = d["terminal_abs_y_minus_yth"] < 1e-3
    ok &= d["ubar_c"] is not None and d["ubar_c"] > d["ubar_star"]
    rel = abs(d["ubar_c"] - d["expected_ubar_c"]) / (d["ubar_star"] - d["ubar0"])
    ok &= rel < 0.2
    ok &= abs(d["terminal_dubar"]) < 0.01 * 1e-3

    hetero = ex.run_adaptive(ex.adaptive_scenario("symmetric", utilde_amplitude=0.02))
    dh = hetero.diagnostics
    ok &= dh["terminal_abs_y_minus_yth"] < 1e-3
    ok &= dh["ubar_c"] > dh["ubar_star"]
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    report(9, f"escape at {d['ubar_c']:.4f} vs expected {d['expected_ubar_c']:.4f} "
              f"(rel {rel:.3f} < 0.2) in {elapsed:.1f}s (< 60s)", ok)


def test_criterion_10_hysteresis():
    """Quasi-static sweep shows a loop wider than 0.1 with memory between."""
    res = ex.run_hysteresis(ex.HysteresisScenario())
    ok = res.loop_width is not None and res.loop_width > 0.1
    between = (res.beta_b_grid > res.switch_down) & (res.beta_b_grid < res.switch_up)
    ok &= bool(np.all(np.sign(res.y_up[between]) != np.sign(res.y_down[between])))
    report(10, f"loop width {res.loop_width:.2f} (> 0.1), history-dependent sign", ok)


def test_criterion_11_quintic_transition():
    """Supercritical at beta = 1, subcritical with two folds at beta = 3."""
    res = ex.run_quintic_transition(ex.QuinticScenario())
    by_beta = {d.beta: d for d in res}
    ok = by_beta[1.0].classification == "supercritical"
    ok &= by_beta[3.0].classification == "subcritical-with-two-folds"
    ok &= len(by_beta[3.0].fold_params) == 2
    report(11, f"beta=1 {by_beta[1.0].classification}, "
               f"beta=3 {by_beta[3.0].classification}", ok)


def test_criterion_12_property_suites():
    """Equivariance, Jacobian checks, boundedness, byte-identical reruns."""
    from netdecide.bifurcation import jacobian
    from netdecide.graphs import PopulationSpec

    rng = np.random.default_rng(12)
    ok = True

    # odd equivariance of every field variant at beta = 0
    g = complete_graph(8)
    for _ in range(50):
        x = rng.normal(size=8)
        resid = normalized_field(-x, g, 1.7) + normalized_field(x, g, 1.7)
        ok &= np.abs(resid).max() < 1e-12

    # swap equivariance on an informed symmetric network
    spec = PopulationSpec(3, 3, 4)
    gz = three_population_graph(spec)
    beta = beta_vector(spec, 0.8, 0.8)
    n = 3
    gamma = np.zeros((10, 10))
    gamma[:n, n:2 * n] = -np.eye(n)
    gamma[n:2 * n, :n] = -np.eye(n)
    gamma[2 * n:, 2 * n:] = -np.eye(4)
    for _ in range(50):
        x = rng.normal(size=10)
        resid = (normalized_field(gamma @ x, gz, 1.3, beta)
                 - gamma @ normalized_field(x, gz, 1.3, beta))
        ok &= np.abs(resid).max() < 1e-12

    # analytic Jacobian vs central differences
    x = rng.normal(size=8)
    jac = jacobian(x, g, u=1.4)
    h = 1e-6
    for j in range(8):
        e = np.zeros(8)
        e[j] = h
        col = (normalized_field(x + e, g, 1.4) - normalized_field(x - e, g, 1.4)) / (2 * h)
        ok &= np.abs(jac[:, j] - col).max() < 1e-6

    # absorbing box along simulated trajectories
    u = 1.5
    beta_r = rng.normal(scale=0.5, size=8)
    bound = u + np.abs(beta_r) / g.degrees
    x0 = rng.uniform(-2, 2, 8)
    box = np.maximum(np.abs(x0), bound)
    traj = integrate(lambda t, x: normalized_field(x, g, u, beta_r), x0,
                     IntegratorConfig(rtol=1e-9, atol=1e-11, max_time=30.0))
    for x in traj.states:
        ok &= bool(np.all(np.abs(x) <= box + 1e-9))

    # byte-identical determinism of a full scenario rerun
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a", Path(tmp) / "b"
        scenario = ex.ReductionScenario()
        ex.run_reduction_demo(scenario, out_dir=a)
        ex.run_reduction_demo(scenario, out_dir=b)
        for name in ("config.json", "trajectory.csv", "spread.csv", "summary.json"):
            ok &= (a / name).read_bytes() == (b / name).read_bytes()
    report(12, "equivariances (1e-12), Jacobian FD (1e-6), absorbing box, "
               "byte-identical reruns", ok)

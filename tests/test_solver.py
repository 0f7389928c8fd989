from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from scipy.integrate import RK45, solve_ivp

import netdecide.dynamics as dyn
import netdecide.experiments as ex
import netdecide.solver as solver
from conftest import deadline
from netdecide.dynamics import normalized_field
from netdecide.graphs import Graph, complete_graph, lambda2
from netdecide.solver import (
    IntegratorConfig,
    SolverError,
    Trajectory,
    integrate,
    integrate_nonsmooth,
    integrate_to_equilibrium,
    _dp_step,
    _integrate,
)

Y_S_2 = 1.9150080481545375  # bisection oracle for y = 2 tanh(y)


def exp_decay(t, x):
    return -x


def consensus_u2(t, y):
    """The complete graph K10 at u = 2 on its consensus manifold."""
    return -9 * y + 18.0 * np.tanh(y)


class TestIntegrate:
    def test_linear_equation_adaptive(self):
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, max_time=1.0)
        traj = integrate(exp_decay, np.array([1.0]), cfg)
        assert traj.final_time == pytest.approx(1.0, abs=1e-12)
        assert traj.final_state[0] == pytest.approx(np.exp(-1), abs=1e-8)

    def test_adaptive_vs_reference(self):
        rtol = 1e-6
        field = consensus_u2
        cfg = IntegratorConfig(rtol=rtol, atol=1e-12, max_time=5.0)
        traj = integrate(field, np.array([0.1]), cfg)
        ref = solve_ivp(field, (0.0, 5.0), [0.1], method="DOP853", rtol=1e-12, atol=1e-14)
        # compare at the shared endpoint
        assert ref.success and ref.t[-1] == traj.final_time
        assert abs(traj.final_state[0] - ref.y[0, -1]) <= 10 * rtol

    def test_scalar_consensus_converges(self):
        field = consensus_u2
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, max_time=20.0)
        traj = integrate(field, np.array([0.1]), cfg)
        assert traj.final_state[0] == pytest.approx(Y_S_2, abs=1e-5)

    def test_network_origin_stable(self, k10, rng):
        x0 = rng.uniform(-1, 1, 10)
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, max_time=50.0)
        traj = integrate(lambda t, x: normalized_field(x, k10, 0.5), x0, cfg)
        assert np.abs(traj.final_state).max() < 1e-6

    @pytest.mark.parametrize("max_time", [5e-324, 1e-323, 1e-310])
    def test_subnormal_horizon_ends(self, max_time):
        # max_time / 10 underflows to 0 for the two smallest horizons.
        cfg = IntegratorConfig(max_time=max_time)
        with deadline(5.0):
            traj = integrate(exp_decay, np.array([1.0]), cfg)
        assert traj.final_time == max_time
        assert traj.final_state[0] == 1.0

    def test_nonfinite_state_reported(self):
        cfg = IntegratorConfig(max_time=10.0)
        with np.errstate(all="ignore"), pytest.raises(SolverError, match="non-finite"):
            integrate(lambda t, x: x ** 2, np.array([1.0]), cfg)


class TestConfig:
    @pytest.mark.parametrize("name", ["rtol", "atol", "max_time"])
    def test_rejects_nan(self, name):
        with pytest.raises(ValueError, match="positive"):
            IntegratorConfig(**{name: float("nan")})


class TestDormandPrinceStep:
    def test_matches_explicit_tableau(self, rng):
        m = rng.normal(size=(6, 6))
        c = rng.normal(size=6)
        calls = []

        def f(t, x):
            calls.append(x)
            return m @ x + t * c

        t, h = 0.3, 0.1
        x = rng.normal(size=6)
        k1 = f(t, x)
        x5, err, k = _dp_step(f, t, x, h, k1)

        k2 = f(t + h / 5, x + h * (k1 / 5))
        k3 = f(t + 3 * h / 10, x + h * (3 / 40 * k1 + 9 / 40 * k2))
        k4 = f(t + 4 * h / 5, x + h * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3))
        k5 = f(t + 8 * h / 9, x + h * (19372 / 6561 * k1 - 25360 / 2187 * k2
                                       + 64448 / 6561 * k3 - 212 / 729 * k4))
        k6 = f(t + h, x + h * (9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3
                               + 49 / 176 * k4 - 5103 / 18656 * k5))
        y5 = x + h * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4
                      - 2187 / 6784 * k5 + 11 / 84 * k6)
        k7 = f(t + h, y5)
        y4 = x + h * (5179 / 57600 * k1 + 7571 / 16695 * k3 + 393 / 640 * k4
                      - 92097 / 339200 * k5 + 187 / 2100 * k6 + 1 / 40 * k7)
        np.testing.assert_allclose(x5, y5, rtol=0, atol=1e-14)
        np.testing.assert_allclose(err, y5 - y4, rtol=0, atol=1e-14)
        assert k.shape == (7, 6)
        for got, want in zip(k, (k1, k2, k3, k4, k5, k6, k7)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        # FSAL: the returned state is the very array of the 7th stage call.
        assert calls[6] is x5
        assert np.array_equal(k[6], f(t + h, x5))

    @pytest.mark.parametrize("h", [0.05, 0.1 / 3, 1e-3 * np.pi])
    def test_in_place_step_equals_allocating_form_bit_for_bit(self, z2_graph, rng, h):
        # The module docstring's promise: the in-place step performs the IEEE
        # operations of x + h * (row @ k[:i]) per stage and h * (E @ k), with
        # h a Python float, in the same order.
        beta = rng.normal(size=z2_graph.n)
        f = lambda t, x: normalized_field(x, z2_graph, 1.3, beta)
        t, x = 0.7, rng.normal(size=z2_graph.n)
        k1 = f(t, x)
        x5, err, k = _dp_step(f, t, x, h, k1)

        want = np.empty_like(k)
        want[0] = k1
        for i in range(1, 7):
            xi = x + h * (solver._DP_A[i, :i] @ want[:i])
            want[i] = f(t + solver._DP_C[i] * h, xi)
        assert np.array_equal(k, want)
        assert np.array_equal(x5, xi)
        assert np.array_equal(err, h * (solver._DP_ERR @ want))


class TestOwnership:
    """The in-place arithmetic of a step updates only the buffers it allocated."""

    def test_step_leaves_state_and_first_stage(self, k10, rng):
        f = lambda t, x: normalized_field(x, k10, 1.5)
        x = rng.normal(size=10)
        k1 = f(0.0, x)
        x_before, k1_before = x.copy(), k1.copy()
        x5, err, k = _dp_step(f, 0.0, x, 0.05, k1)
        assert np.array_equal(x, x_before)
        assert np.array_equal(k1, k1_before)
        for out in (x5, err, k):
            assert not np.shares_memory(out, x) and not np.shares_memory(out, k1)

    def test_integrate_mutates_no_input_or_field_output(self, k10, rng):
        passed, returned = [], []

        def f(t, x):
            dx = normalized_field(x, k10, 1.5)
            passed.append((x, x.copy()))
            returned.append((dx, dx.copy()))
            return dx

        x0 = rng.normal(size=10)
        x0_before = x0.copy()
        traj, _ = _integrate(f, x0, IntegratorConfig(rtol=1e-6, atol=1e-9, max_time=5.0))
        assert np.array_equal(x0, x0_before)
        assert len(returned) > 100
        assert all(np.array_equal(a, kept) for a, kept in passed + returned)
        states = traj.states
        assert not np.shares_memory(states, x0)
        assert not any(np.shares_memory(states, dx) for dx, _ in returned)
        # every recorded row is its own: changing one leaves the others
        rows = states.copy()
        states[1] += 1.0
        assert np.array_equal(states[0], rows[0]) and np.array_equal(states[2:], rows[2:])


class TestFsalCallCount:
    def test_six_field_calls_per_attempt_plus_one(self, monkeypatch, rng):
        attempts, calls, accepted = [0], [0], []
        real_step, real_integrate = solver._dp_step, solver._integrate

        def counting_step(*args):
            attempts[0] += 1
            return real_step(*args)

        def recording_integrate(*args, **kwargs):
            traj, hits = real_integrate(*args, **kwargs)
            accepted.append(len(traj.times) - 1)
            return traj, hits

        def field(t, x):
            calls[0] += 1
            return consensus_u2(t, x)

        monkeypatch.setattr(solver, "_dp_step", counting_step)
        monkeypatch.setattr(solver, "_integrate", recording_integrate)
        _, settled, _ = integrate_to_equilibrium(field, rng.uniform(-0.1, 0.1, 3),
                                                 IntegratorConfig(rtol=1e-10, atol=1e-12))
        assert settled
        # some attempts were rejected, so the count covers rejected steps too
        assert attempts[0] > accepted[0] > 10
        assert calls[0] == 6 * attempts[0] + 1


class TestContinuousExtension:
    def test_matches_scipy_dense_output_matrix(self):
        assert np.array_equal(solver._DP_P, RK45.P)

    def test_endpoints_and_midpoint(self):
        t, h = 0.4, 0.3
        x = np.array([1.5, -0.25])
        x5, err, k = _dp_step(exp_decay, t, x, h, exp_decay(t, x))
        q = solver._DP_P.T @ k
        assert np.array_equal(solver._dense_state(x, h, q, 0.0), x)
        np.testing.assert_allclose(solver._dense_state(x, h, q, 1.0), x5,
                                   rtol=0, atol=4 * np.spacing(np.abs(x5).max()))
        mid = solver._dense_state(x, h, q, 0.5)
        exact = x * np.exp(-0.5 * h)
        assert np.all(np.abs(mid - exact) <= np.abs(err))

    def test_event_located_on_extension(self):
        t, h = 0.0, 0.25
        x = np.array([1.0])
        x5, _, k = _dp_step(exp_decay, t, x, h, exp_decay(t, x))
        event = lambda t, x: x[0] - 0.8
        t_hit, x_hit, halvings = solver._locate_event(event, t, x, t + h, k)
        # the bracket of 0.25 halves 28 times to EVENT_TIME_TOL = 1e-9
        assert halvings == 28
        assert t_hit == pytest.approx(np.log(1 / 0.8), abs=1e-6)
        assert x_hit[0] == pytest.approx(0.8, abs=1e-8)


class TestSettleTestUsesStage:
    def test_no_point_evaluated_twice(self, k10, rng):
        seen = []

        def f(t, x):
            seen.append((t, x.tobytes()))
            return normalized_field(x, k10, 0.5)

        x, ok, _ = integrate_to_equilibrium(f, rng.uniform(-0.5, 0.5, 10), tol=1e-8,
                                            horizon=100.0)
        assert ok
        assert len(seen) > 100
        assert len(set(seen)) == len(seen)

    def test_adaptive_run_evaluates_no_point_twice(self, monkeypatch):
        # Each opinion-field call is keyed by the time of the right-hand-side
        # or stop-test call it runs in: the autonomous field may meet the same
        # state again at a later time, which is not a repeated evaluation.
        seen, now = [], {"t": None}
        real_field, real_integrate = dyn._field, ex._integrate

        def field(x, degrees, weights, u, beta, out=None):
            seen.append((now["t"], x.tobytes(), np.asarray(u, dtype=float).tobytes()))
            return real_field(x, degrees, weights, u, beta, out)

        def timed(fn):
            def call(t, *args):
                now["t"] = t
                return fn(t, *args)
            return call

        def integrate(rhs, z0, cfg, stop_condition=None, **kwargs):
            return real_integrate(timed(rhs), z0, cfg, stop_condition=timed(stop_condition),
                                  **kwargs)

        # run_adaptive's right-hand side calls the model kernel directly
        monkeypatch.setattr(dyn, "_field", field)
        monkeypatch.setattr(ex, "_integrate", integrate)
        res = ex.run_adaptive(ex.adaptive_scenario("symmetric"))
        assert res.diagnostics["settled"]
        assert len(seen) > 100
        assert len(set(seen)) == len(seen)


class TestSolverStats:
    def test_settle_counts_obey_fsal_identity(self, k10, rng, monkeypatch):
        calls, runs = [], []
        real_integrate = solver._integrate

        def f(t, x):
            calls.append(t)
            return normalized_field(x, k10, 0.5)

        def integrate(*args, **kwargs):
            traj, hits = real_integrate(*args, **kwargs)
            runs.append(traj)
            return traj, hits

        monkeypatch.setattr(solver, "_integrate", integrate)
        _, ok, _ = integrate_to_equilibrium(f, rng.uniform(-0.5, 0.5, 10), tol=1e-8,
                                            horizon=100.0)
        assert ok
        stats = runs[0].stats
        assert stats.nfev == 6 * (stats.n_accepted + stats.n_rejected) + 1 == len(calls)
        assert stats.n_accepted == len(runs[0].times) - 1
        steps = np.diff(runs[0].times)
        assert stats.h_min == pytest.approx(steps.min(), rel=1e-9)
        assert stats.h_max == pytest.approx(steps.max(), rel=1e-9)
        assert stats.n_event_bisections == 0

    def test_rejected_steps_counted(self):
        # an initial step of 0.01 is far too long for a rate of 1e4
        cfg = IntegratorConfig(rtol=1e-8, atol=1e-10, max_time=1e-3)
        traj, _ = _integrate(lambda t, x: -1e4 * x, np.ones(1), cfg)
        stats = traj.stats
        assert stats.n_rejected > 0
        assert stats.nfev == 6 * (stats.n_accepted + stats.n_rejected) + 1

    def test_adaptive_counts_match_rhs_calls(self, monkeypatch):
        # The tracer cannot see the adaptive loop's field calls, which bypass
        # normalized_field; the run's own count must equal its rhs calls.
        calls = []
        real_integrate = ex._integrate

        def integrate(rhs, z0, cfg, **kwargs):
            def counted(t, z):
                calls.append(t)
                return rhs(t, z)
            return real_integrate(counted, z0, cfg, **kwargs)

        monkeypatch.setattr(ex, "_integrate", integrate)
        res = ex.run_adaptive(ex.adaptive_scenario("case2"))
        stats = res.trajectory.stats
        assert stats.nfev == 6 * (stats.n_accepted + stats.n_rejected) + 1 == len(calls)
        assert stats.n_accepted == len(res.trajectory.times) - 1
        # escape band, threshold and jump band are each crossed and bisected
        assert stats.n_event_bisections >= 3
        assert 0 < stats.h_min <= stats.h_max


class TestEvents:
    def test_sinusoid_crossings(self):
        # event depends on time only, zeros at pi and 2 pi
        event = lambda t, x: np.sin(t)
        cfg = IntegratorConfig(rtol=1e-8, atol=1e-10, max_time=7.0)
        _, hits = _integrate(exp_decay, np.ones(1), cfg, events=[event])
        times = [h.time for h in hits]
        assert len(times) == 2
        assert times[0] == pytest.approx(np.pi, abs=1e-9)
        assert times[1] == pytest.approx(2 * np.pi, abs=1e-9)

    def test_state_dependent_crossing(self):
        field = exp_decay
        event = lambda t, x: x[0] - 0.5
        cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, max_time=2.0)
        _, hits = _integrate(field, np.array([1.0]), cfg, events=[event])
        assert len(hits) == 1
        assert hits[0].time == pytest.approx(np.log(2), abs=1e-6)

    def test_no_crossing_empty(self):
        field = exp_decay
        event = lambda t, x: x[0] + 5.0
        cfg = IntegratorConfig(max_time=1.0)
        _, hits = _integrate(field, np.array([1.0]), cfg, events=[event])
        assert hits == []

    def test_bisection_ends_far_from_origin(self):
        # Near t = 1.6e7 neighbouring floats are 3.7e-9 apart, more than
        # EVENT_TIME_TOL, so halving the bracket cannot reach that width.
        c = 1.6e7 + 1 / 3
        event = lambda t, x: (t - c) + 1e-12
        cfg = IntegratorConfig(max_time=1.6e7 + 1)
        with deadline(10.0):
            _, hits = _integrate(lambda t, x: np.zeros(1), np.zeros(1), cfg,
                                 events=[event])
        assert len(hits) == 1
        assert hits[0].time == pytest.approx(c, abs=4 * np.spacing(c))


class TestSettle:
    def test_settles_to_origin(self, k10, rng):
        x0 = rng.uniform(-0.5, 0.5, 10)
        f = lambda t, x: normalized_field(x, k10, 0.5)
        x, ok, elapsed = integrate_to_equilibrium(f, x0, tol=1e-8, horizon=100.0)
        assert ok and elapsed < 100.0
        assert np.abs(f(0.0, x)).max() < 1e-8

    def test_horizon_reported(self, k10):
        # marginal case settles too slowly for a tiny horizon
        f = lambda t, x: normalized_field(x, k10, 1.0)
        x, ok, elapsed = integrate_to_equilibrium(f, np.full(10, 0.5), tol=1e-12,
                                                  horizon=0.5)
        assert not ok

    def test_horizon_is_the_config_span(self):
        # with no horizon given, cfg.max_time is the span: x(0.5) = e^-0.05
        x, ok, elapsed = integrate_to_equilibrium(lambda t, x: -0.1 * x, np.ones(2),
                                                  IntegratorConfig(max_time=0.5))
        assert not ok and elapsed == 0.5
        np.testing.assert_allclose(x, np.exp(-0.05), rtol=1e-8)

    def test_step_size_underflow_raises(self):
        # stable explicit steps are about 3e-20 long, below the 1e-14 floor
        with pytest.raises(SolverError, match=r"step-size underflow \(at t = 0\)"):
            _integrate(lambda t, x: -1e20 * x, np.ones(1), IntegratorConfig(max_time=1.0))

    def test_step_budget_raises(self, monkeypatch):
        # accepted and rejected steps both count: this run rejects its first
        # steps (test_rejected_steps_counted).  The budget is 5 + 1e-3 / 1e-4,
        # the horizon over the first step.
        monkeypatch.setattr(solver, "MAX_STEPS", 5)
        with pytest.raises(SolverError, match=r"15 attempted steps did not reach t = 0\.001"):
            _integrate(lambda t, x: -1e4 * x, np.ones(1),
                       IntegratorConfig(rtol=1e-8, atol=1e-10, max_time=1e-3))

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0])
    def test_rejects_a_tolerance_that_cannot_be_met(self, tol):
        calls = []

        def f(t, x):
            calls.append(t)
            return -x

        with pytest.raises(ValueError, match="tol must be positive"):
            integrate_to_equilibrium(f, np.ones(2), tol=tol)
        assert not calls

    def test_rejects_an_infinite_horizon(self):
        # the step budget grows with the horizon, so an infinite one has none
        with pytest.raises(ValueError, match="max_time must be finite"):
            IntegratorConfig(max_time=math.inf)
        with pytest.raises(ValueError, match="max_time must be finite"):
            integrate_to_equilibrium(lambda t, x: -x, np.ones(2), horizon=math.inf)

    def test_step_budget_grows_with_the_horizon(self, monkeypatch):
        # more than MAX_STEPS steps, far fewer than the horizon over the
        # first step 0.01
        monkeypatch.setattr(solver, "MAX_STEPS", 5)
        traj, _ = _integrate(lambda t, x: -x, np.ones(1), IntegratorConfig(max_time=10.0))
        assert traj.stats.n_accepted > 5
        assert traj.final_time == 10.0


class TestEstimatorIntegration:
    def test_immediate_return_at_consensus(self, k10):
        x = np.full(10, 1.5)
        run = integrate_nonsmooth(x, k10, alpha=1.0, tol=1e-9)
        assert run.s_elapsed == 0.0
        assert run.n_steps == 0

    def test_finite_time_bound(self, k10, rng):
        # The bound is ||err(0)|| / (alpha lambda2): a small gain needs longer.
        lam2 = lambda2(k10)
        for alpha, runs in ((1.0, 5), (0.1, 3)):
            for _ in range(runs):
                x = rng.uniform(-1, 1, 10)
                err0 = np.linalg.norm(x - x.mean())
                run = integrate_nonsmooth(x, k10, alpha=alpha, tol=1e-6)
                assert run.error <= 1e-6
                assert run.s_elapsed <= err0 / (alpha * lam2)

    def test_monotone_in_gain(self, k10, rng):
        x = rng.uniform(-1, 1, 10)
        times = []
        for alpha in (1.0, 2.0, 4.0):
            run = integrate_nonsmooth(x, k10, alpha=alpha, tol=1e-6)
            times.append(run.s_elapsed)
        assert times[1] <= times[0] and times[2] <= times[1]

    def test_mean_preserved(self, k10, rng):
        x = rng.uniform(-1, 1, 10)
        run = integrate_nonsmooth(x, k10, alpha=1.0, tol=1e-9)
        assert run.mean_drift < 1e-10

    def test_rejects_disconnected(self):
        disconnected = Graph(np.zeros((3, 3)))
        with pytest.raises(SolverError, match="connected"):
            integrate_nonsmooth(np.array([1.0, 0.0, -1.0]),
                                disconnected, alpha=1.0, tol=1e-6)

    def test_step_budget_raises(self, k10, rng, monkeypatch):
        # a small spread gives a time cap of about 4 steps of h0, and the run
        # attempts more, most of them shorter than h0
        monkeypatch.setattr(solver, "MAX_STEPS", 5)
        with pytest.raises(SolverError, match="9 attempted estimator steps did not reach"):
            integrate_nonsmooth(1e-3 * rng.uniform(-1, 1, 10), k10, alpha=1.0, tol=1e-9)

    def test_run_longer_than_max_steps_of_h0_converges(self):
        # the two agents' residuals close at 2 * 0.08 per unit time: 6.25
        # units, above MAX_STEPS * h0 = 5, within the cap 2 sqrt(2) / 0.16
        g = Graph(np.array([[0.0, 0.08], [0.08, 0.0]]))
        run = integrate_nonsmooth(np.array([1.0, -1.0]), g, alpha=1.0, tol=1e-9)
        assert run.error <= 1e-9
        assert run.s_elapsed > 5.0
        assert run.n_steps > solver.MAX_STEPS

    def test_tolerance_below_round_off_underflows(self, k10, rng):
        # below round-off every step fails to decrease the error
        with pytest.raises(SolverError, match="estimator step underflow"):
            integrate_nonsmooth(rng.uniform(-1, 1, 10), k10, alpha=1.0, tol=1e-300)

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0])
    def test_rejects_a_tolerance_that_cannot_be_met(self, k10, tol):
        # a NaN tol used to return at once with 0 steps and the initial error
        with pytest.raises(ValueError, match="tol must be positive"):
            integrate_nonsmooth(np.linspace(-1.0, 1.0, 10), k10, alpha=1.0, tol=tol)

    def test_deep_tolerance_reachable(self, k10, rng):
        x = rng.uniform(-1, 1, 10)
        run = integrate_nonsmooth(x, k10, alpha=1.0, tol=1e-9)
        assert run.error <= 1e-9


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path, rng):
        times = np.linspace(0, 1, 11)
        states = rng.normal(size=(11, 3))
        channels = {"ubar": rng.normal(size=11), "y": states.mean(axis=1)}
        traj = Trajectory(times, states, channels)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert header == ["t", "x_1", "x_2", "x_3", "ubar", "y"]
        assert np.array_equal(back[:, 0], times)
        assert np.array_equal(back[:, 1:4], states)
        assert np.array_equal(back[:, 4], channels["ubar"])
        assert np.array_equal(back[:, 5], channels["y"])

    def test_header_layout(self, tmp_path):
        traj = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)),
                          {"ubar": np.zeros(2), "y": np.zeros(2)})
        path = tmp_path / "t.csv"
        traj.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,x_1,x_2,ubar,y"

    def test_matches_csv_module_reference(self, tmp_path):
        # the per-value csv.writer form that write_csv must reproduce byte for byte
        header = ["t", "a,b", 'q"uote', "n"]
        columns = [np.array([0.0, 0.1, 1 / 3, 2.0 ** -1074, 1e300]),
                   np.array([np.nan, np.inf, -np.inf, -0.0, 0.0]),
                   np.array([np.pi, -np.e, 123456789.12345678, 1e-17, -5e-324]),
                   np.arange(-2, 3)]
        # more rows than two blocks of write_csv's float conversion, and a
        # column given as a list of ints
        columns = [np.tile(column, 2 * solver.CSV_BLOCK_ROWS // 5 + 1) for column in columns]
        columns[3] = columns[3].tolist()
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\r\n")
            writer.writerow(header)
            for row in zip(*columns):
                writer.writerow([solver.FMT % v for v in row])
        path = tmp_path / "t.csv"
        solver.write_csv(path, header, columns)
        data = path.read_bytes()
        assert data == ref.read_bytes()
        assert data.startswith(b't,"a,b","q""uote",n\r\n')
        assert b"nan,3.1415926535897931,-2\r\n" in data

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)))

from __future__ import annotations

import hashlib
import json
import re
import warnings

import numpy as np
import pytest

import netdecide.bifurcation as bif
import netdecide.experiments as ex
from conftest import adaptive_rhs
from netdecide.dynamics import Decision, DecisionConfig, classify_decision, normalized_field
from netdecide.solver import EstimatorRun, SolverError


def count_calls(monkeypatch, names):
    """Count the calls of each named bifurcation function during the test."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(bif, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(bif, name, counted)
    return counts


class TestPitchforkDiagram:
    def test_continues_one_switched_branch(self, monkeypatch):
        # The trunk and the +1 branch; the -1 branch is its mirror image.
        counts = count_calls(monkeypatch, ("branch_switch", "continue_branch"))
        res = ex.run_pitchfork_diagram(ex.PitchforkScenario())
        assert counts == {"branch_switch": 1, "continue_branch": 2}
        assert res.upper is not None and res.lower is not None

    def test_complete_graph_defaults(self, tmp_path):
        res = ex.run_pitchfork_diagram(ex.PitchforkScenario(), out_dir=tmp_path)
        assert len(res.singular_params) == 1
        assert res.singular_params[0] == pytest.approx(1.0, abs=1e-6)
        assert res.upper is not None and res.lower is not None
        for br in (res.upper, res.lower):
            for pt in br.points:
                if pt.param > 1.0:
                    assert pt.x.max() - pt.x.min() < 1e-8  # consensus manifold
        assert (tmp_path / "config.json").exists()
        doc = json.loads((tmp_path / "singular_points.json").read_text())
        assert [sp["refined"] for sp in doc["singular_points"]] == [True]

    @pytest.mark.parametrize("u_branch_end", [0.8, 1.0, 1.5, float("nan"), float("inf")])
    def test_rejects_branch_end_not_past_u_range(self, u_branch_end):
        # The trunk pitchfork lies in u_range, so a switched branch that ends
        # at or below u_range[1] could run from its seed back to the pitchfork.
        with pytest.raises(ValueError, match="u_branch_end"):
            ex.PitchforkScenario(u_branch_end=u_branch_end)

    @pytest.mark.parametrize("overrides, message", [
        ({"h_max": 1e-7}, "h_max must be at least H_MIN"),
        ({"h_max": 0.0}, "h_max must be at least H_MIN"),
        ({"h_max": 1e-5}, "u_range is 1 wide, more than MAX_POINTS"),
        ({"u_branch_end": 3000.0}, r"\(u_range\[1\], u_branch_end\) is 2998.5 wide"),
    ], ids=["below_h_min", "zero", "u_range_too_wide", "branch_too_wide"])
    def test_rejects_h_max_no_branch_can_finish(self, overrides, message):
        # A step moves u by at most h_max, so MAX_POINTS points cannot cross
        # a range wider than h_max (MAX_POINTS - 1): such a branch ran out of
        # points after 20 000 of them instead of failing at load.
        with pytest.raises(ValueError, match=message):
            ex.PitchforkScenario(**overrides)

    def test_accepts_smallest_h_max_on_a_narrow_range(self):
        ex.PitchforkScenario(h_max=bif.H_MIN, u_range=(0.5, 0.6), u_branch_end=0.7)

    def test_point_count_independent_of_n(self):
        # Steps are in RMS arclength, so the consensus branches x = y 1 take
        # the same steps at any n.
        counts = []
        for n in (10, 200):
            res = ex.run_pitchfork_diagram(
                ex.PitchforkScenario(graph={"kind": "complete", "n": n}))
            counts.append([len(br.points) for br in (res.trunk, res.upper, res.lower)])
        assert counts[0] == counts[1]

    def test_three_population_equals_complete(self):
        scenario = ex.PitchforkScenario(
            graph={"kind": "population", "n1": 4, "n2": 4, "n3": 4})
        res = ex.run_pitchfork_diagram(scenario)
        assert res.singular_params[0] == pytest.approx(1.0, abs=1e-6)

    def test_directed_ring(self):
        scenario = ex.PitchforkScenario(graph={"kind": "directed_ring", "n": 6})
        res = ex.run_pitchfork_diagram(scenario)
        assert res.singular_params[0] == pytest.approx(1.0, abs=1e-6)


class TestHysteresis:
    # coarse grid keeps the module-test fast; acceptance runs the default
    fast = ex.HysteresisScenario(beta_b_step=0.5)

    def test_loop_exists(self, tmp_path):
        res = ex.run_hysteresis(self.fast, out_dir=tmp_path)
        assert res.loop_width is not None and res.loop_width > 0.1
        assert res.switch_down < res.switch_up
        between = (res.beta_b_grid > res.switch_down) & (res.beta_b_grid < res.switch_up)
        assert np.all(res.y_up[between] > 0) and np.all(res.y_down[between] < 0)

    def test_symmetric_start_keeps_branch(self):
        """Bistability: equal information leaves an established decision alone."""
        from netdecide.dynamics import beta_vector, normalized_field
        from netdecide.graphs import PopulationSpec, three_population_graph
        from netdecide.solver import IntegratorConfig, integrate_to_equilibrium

        spec = PopulationSpec(5, 5, 10)
        g = three_population_graph(spec)
        beta = beta_vector(spec, 5.0, 5.0)
        f = lambda t, x: normalized_field(x, g, 1.2, beta)
        cfg = IntegratorConfig(rtol=1e-12, atol=1e-14)
        x_plus, ok, _ = integrate_to_equilibrium(f, np.full(20, 0.5), cfg, tol=1e-8)
        assert ok and x_plus.mean() > 0
        x_again, ok, _ = integrate_to_equilibrium(f, x_plus, cfg, tol=1e-10)
        assert ok and x_again.mean() > 0

    def test_rate_independence(self):
        """Quasi-static switch points agree across grid refinements."""
        coarse = ex.run_hysteresis(ex.HysteresisScenario(beta_b_step=0.5))
        fine = ex.run_hysteresis(ex.HysteresisScenario(beta_b_step=0.25))
        assert abs(coarse.switch_up - fine.switch_up) <= 0.5
        assert abs(coarse.switch_down - fine.switch_down) <= 0.5


class TestQuinticTransition:
    def test_classifications(self, tmp_path):
        res = ex.run_quintic_transition(ex.QuinticScenario(beta_grid=(0.0, 1.0, 3.0)),
                                        out_dir=tmp_path)
        by_beta = {d.beta: d for d in res}
        assert by_beta[0.0].classification == "supercritical"
        assert by_beta[1.0].classification == "supercritical"
        assert by_beta[3.0].classification == "subcritical-with-two-folds"
        assert len(by_beta[3.0].fold_params) == 2
        assert all(f < by_beta[3.0].u_star for f in by_beta[3.0].fold_params)

    def test_pitchfork_matches_40_digit_root(self):
        # On the trunk y = (a, -a, 0) the field is 0 when
        # -d1 a + u (Q11 - Q12) tanh(a) + beta = 0; u* is where det J3 also
        # vanishes there, solved for (a, u) in 40 digits.
        mpmath = pytest.importorskip("mpmath")
        scenario = ex.QuinticScenario()
        spec = scenario.population_spec()
        expected = {1.0: 1.06561504916949243, 3.0: 1.63896746136318757}
        res = ex.run_quintic_transition(scenario)
        assert [d.beta for d in res] == list(expected)
        with mpmath.workdps(40):
            d = [mpmath.mpf(v) for v in spec.degrees]
            q = mpmath.matrix(spec.quotient.tolist())

            def trunk_and_det(a, u, beta):
                s = [mpmath.sech(a) ** 2, mpmath.sech(a) ** 2, 1]
                jac = mpmath.matrix(3, 3)
                for i in range(3):
                    for j in range(3):
                        jac[i, j] = u * q[i, j] * s[j] - (d[i] if i == j else 0)
                return [-d[0] * a + u * (q[0, 0] - q[0, 1]) * mpmath.tanh(a) + beta,
                        mpmath.det(jac)]

            for diag in res:
                a0 = diag.trunk.singular_points[0].x[0]
                _, root = mpmath.findroot(lambda a, u: trunk_and_det(a, u, mpmath.mpf(diag.beta)),
                                          (a0, diag.u_star))
                assert float(root) == pytest.approx(expected[diag.beta], abs=1e-16)
                assert abs(diag.u_star - float(root)) <= bif.REFINE_TOL

    def test_continues_one_switched_branch(self, monkeypatch):
        # Each trunk and its +1 outer branch; the -1 branch is its image
        # under the group swap.
        counts = count_calls(monkeypatch, ("branch_switch", "continue_branch"))
        res = ex.run_quintic_transition(ex.QuinticScenario())
        pitchforks = sum(d.u_star is not None for d in res)
        assert pitchforks == len(res) == 2
        assert counts == {"branch_switch": pitchforks,
                          "continue_branch": len(res) + pitchforks}
        for diag in res:
            up, down = diag.outer
            assert len(up.points) == len(down.points)
            for a, b in zip(up.points, down.points):
                assert np.array_equal(b.x, -a.x[[1, 0, 2]])
                assert (b.param, b.n_unstable, b.det_sign) == (a.param, a.n_unstable, a.det_sign)

    def test_outer_branches_end_towards_a_then_b(self):
        # The +1 side of the pitchfork's null vector is positive mean opinion.
        scenario = ex.QuinticScenario()
        spec = scenario.population_spec()
        sizes = np.array([spec.n1, spec.n2, spec.n3]) / spec.n_total
        res = ex.run_quintic_transition(scenario)
        assert all(d.u_star is not None for d in res)
        for diag in res:
            towards_a, towards_b = diag.outer
            assert sizes @ towards_a.points[-1].x > 0
            assert sizes @ towards_b.points[-1].x < 0

    @pytest.mark.parametrize("overrides", [
        {"n3": 1, "a13": 0.0}, {"n3": 0, "a13": 0.0}, {"n1": 1, "n2": 1, "n3": 0, "a12": 0.0},
    ], ids=["n3_uncoupled", "n3_empty", "pair_uncoupled"])
    def test_rejects_zero_degree_group(self, overrides):
        # That group's row of the quotient is 0, so its row of J3 is 0 at
        # every point and every Newton solve failed as a singular matrix.
        with pytest.raises(ValueError, match="positive degree"):
            ex.QuinticScenario(**overrides)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_nonfinite_beta(self, beta):
        with pytest.raises(ValueError, match="beta_grid must be finite"):
            ex.QuinticScenario(beta_grid=(1.0, beta))

    def test_rejects_a_repeated_beta(self):
        # each beta's files and summary entries are named by its %g tag
        with pytest.raises(ValueError, match="must differ in their %g output tags"):
            ex.QuinticScenario(beta_grid=(3.0, 1.0, 3.0))

    def test_failed_branch_switch_raises(self, monkeypatch):
        # A pitchfork whose branches cannot be seeded is a failure, not an
        # "ambiguous" diagram.
        correct = bif._correct

        def fail_amplitude_solve(problem, z_pred, row):
            # only the amplitude constraint phi.(x - x*) = a has no p component
            if row[-1] == 0.0:
                raise bif.BifurcationError("Newton damping failed to reduce the residual")
            return correct(problem, z_pred, row)

        monkeypatch.setattr(bif, "_correct", fail_amplitude_solve)
        with pytest.raises(bif.BifurcationError, match="branch switch failed"):
            ex.run_quintic_transition(ex.QuinticScenario(beta_grid=(1.0,)))


class TestReductionDemo:
    def test_bound_and_match(self, tmp_path):
        res = ex.run_reduction_demo(ex.ReductionScenario(), out_dir=tmp_path)
        assert res.bound_satisfied
        assert res.max_group_diff < 1e-6
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["bound_satisfied"] is True

    def test_on_manifold_stays(self):
        """States born on the group-consensus manifold never leave it."""
        from netdecide.dynamics import beta_vector, normalized_field
        from netdecide.graphs import PopulationSpec, three_population_graph
        from netdecide.solver import IntegratorConfig, integrate

        spec = PopulationSpec(4, 4, 4)
        g = three_population_graph(spec)
        beta = beta_vector(spec, 1.0, 1.0)
        x0 = np.repeat([0.3, -0.2, 0.1], spec.sizes)
        f = lambda t, x: normalized_field(x, g, 2.0, beta)
        traj = integrate(f, x0, IntegratorConfig(rtol=1e-11, atol=1e-13, max_time=5.0))
        for x in traj.states:
            spread = max(x[grp].max() - x[grp].min() for grp in spec.groups)
            assert spread < 1e-10


class TestValueSensitivity:
    def test_agreement_and_monotonicity(self, tmp_path):
        scenario = ex.ValueSensitivityScenario(nu_grid=(0.5, 1.0, 2.0))
        res = ex.run_value_sensitivity(scenario, out_dir=tmp_path)
        assert res.rel_error.max() <= 0.05
        assert np.all(np.diff(res.us_hat) < 0)
        assert np.all(np.diff(res.us_numeric) < 0)
        header = (tmp_path / "curves.csv").read_text().splitlines()[0]
        assert header == "nu,us_star_hat,us_star_numeric,rel_error"

    @pytest.mark.parametrize("nu_grid", [(float("inf"),), (1.0, float("inf"))])
    def test_rejects_infinite_nu(self, nu_grid):
        with pytest.raises(ValueError, match="positive and finite"):
            ex.ValueSensitivityScenario(nu_grid=nu_grid)

    # 1/nu overflows at 1e-320, nu^3 at 1e200, nu^4 (the bound on rel_error)
    # at 1e90, and u_scan[1]/nu = 2e308 at 1e-308 with u_scan = (0.9, 2.0).
    @pytest.mark.parametrize("nu_grid, u_scan", [
        ((1e-320,), (0.9, 1.1)), ((1.0, 1e200), (0.9, 1.1)), ((1e90,), (0.9, 1.1)),
        ((1e-308,), (0.9, 2.0)),
    ], ids=["inverse", "cube", "fourth_power", "u_scan_over_nu"])
    def test_rejects_nu_outside_float_range(self, nu_grid, u_scan):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positive and finite"):
                ex.ValueSensitivityScenario(nu_grid=nu_grid, u_scan=u_scan)

    def test_accepts_nu_at_the_float_range_ends(self):
        res = ex.run_value_sensitivity(ex.ValueSensitivityScenario(
            n1=1, n2=1, n3=100, nu_grid=(1e-300, 1e70)))
        assert np.all(np.isfinite(res.rel_error))

    def test_small_nu_dominated_by_inverse(self):
        res = ex.run_value_sensitivity(ex.ValueSensitivityScenario(nu_grid=(0.1,)))
        assert res.us_hat[0] == pytest.approx(10.0, rel=1e-4)


class TestUninformedInfluence:
    def test_ordering(self, tmp_path):
        res = ex.run_uninformed_influence(ex.UninformedInfluenceScenario(),
                                          out_dir=tmp_path)
        assert res.ordered
        assert np.all(res.curves[5] < res.curves[3])
        assert np.all(res.curves[3] < res.curves[1])

    def test_boundary_split_accepted(self):
        res = ex.run_uninformed_influence(
            ex.UninformedInfluenceScenario(n_total=7, n3_values=(5,)))
        assert 5 in res.curves

    @pytest.mark.parametrize("nu_grid", [(float("inf"),), (1.0, float("inf"))])
    def test_rejects_infinite_nu(self, nu_grid):
        with pytest.raises(ValueError, match="positive and finite"):
            ex.UninformedInfluenceScenario(nu_grid=nu_grid)

    @pytest.mark.parametrize("nu_grid", [(1e-320,), (1.0, 1e200)], ids=["inverse", "cube"])
    def test_rejects_nu_outside_float_range(self, nu_grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positive and finite"):
                ex.UninformedInfluenceScenario(nu_grid=nu_grid)

    def test_rejects_non_integral_split(self):
        with pytest.raises(ValueError, match="integer"):
            ex.run_uninformed_influence(
                ex.UninformedInfluenceScenario(n_total=7, n3_values=(2,)))

    def test_rejects_empty_nu_grid(self):
        with pytest.raises(ValueError, match="at least one given"):
            ex.UninformedInfluenceScenario(nu_grid=())

    # no curve, a duplicated column, and n1 = n2 = 4 with n3 = -1 uninformed
    @pytest.mark.parametrize("n3_values, message", [
        ((), "nonempty list of distinct"), ((3, 3), "nonempty list of distinct"),
        ((-1,), "nonnegative"), ((1, -1), "nonnegative"),
    ], ids=["empty", "duplicate", "negative", "one_negative"])
    def test_rejects_bad_n3_values(self, n3_values, message):
        with pytest.raises(ValueError, match=message):
            ex.UninformedInfluenceScenario(n3_values=n3_values)


class TestAdaptive:
    def test_symmetric_terminates_at_threshold(self, tmp_path):
        res = ex.run_adaptive(ex.adaptive_scenario("symmetric"), out_dir=tmp_path)
        d = res.diagnostics
        assert d["terminal_abs_y_minus_yth"] < 1e-3
        assert abs(d["terminal_dubar"]) < 0.01 * 1e-3
        assert d["estimator_error"] <= 1e-9
        assert d["ubar_c"] > 1.0

    def test_symmetric_effort_monotone_in_deadlock(self):
        res = ex.run_adaptive(ex.adaptive_scenario("symmetric"))
        traj = res.trajectory
        ys = traj.channels["y"]
        ubars = traj.channels["ubar"]
        # steps whose both endpoints sit inside the threshold band
        inside = (np.abs(ys[:-1]) < 0.5) & (np.abs(ys[1:]) < 0.5)
        dub = np.diff(ubars)
        assert np.all(dub[inside] >= -1e-12)

    def test_case1_smooth_slide(self):
        res = ex.run_adaptive(ex.adaptive_scenario("case1"))
        d = res.diagnostics
        assert d["terminal_abs_y_minus_yth"] < 1e-3
        ys = res.trajectory.channels["y"]
        assert np.abs(np.diff(ys)).max() < 0.05  # no jump along the smooth branch

    def test_case2_fold_jump(self):
        res = ex.run_adaptive(ex.adaptive_scenario("case2"))
        d = res.diagnostics
        assert d["terminal_abs_y_minus_yth"] < 1e-3
        assert d["jump_time"] is not None
        # the jump happens at the deadlock-branch fold, up to the slow drift lag
        assert d["ubar_at_jump"] == pytest.approx(1.6135, abs=0.15)
        ys = res.trajectory.channels["y"]
        assert np.abs(ys[-1]) == pytest.approx(1.0, abs=1e-3)

    def test_heterogeneous_effort_uses_ubar_star(self):
        res = ex.run_adaptive(ex.adaptive_scenario("symmetric", utilde_amplitude=0.02))
        d = res.diagnostics
        assert d["ubar_star"] == pytest.approx(1.0, abs=0.01)
        assert d["ubar_c"] > d["ubar_star"]

    def test_estimator_converges_at_small_gain(self):
        # The estimator's time cap scales with 1/alpha, like its finite-time bound.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = ex.run_adaptive(ex.adaptive_scenario("symmetric", alpha=0.25))
        assert res.diagnostics["estimator_error"] <= 1e-9

    def test_estimator_at_time_cap_raises(self, monkeypatch):
        def capped(x, g, alpha, tol):
            return EstimatorRun(np.zeros(len(x)), 20.0, 10 * tol, 0.0, 100, 3)

        monkeypatch.setattr(ex, "integrate_nonsmooth", capped)
        with pytest.raises(SolverError, match="estimator did not reach estimator_tol"):
            ex.run_adaptive(ex.adaptive_scenario("symmetric"))

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="unknown adaptive case"):
            ex.adaptive_scenario("case3")

    def test_scenario_rejects_unknown_case(self):
        # a scenario built directly must not run an unknown case with the
        # symmetric defaults
        with pytest.raises(ValueError, match="unknown adaptive case 'bogus'"):
            ex.AdaptiveScenario(case="bogus")


class TestAdaptiveRhs:
    @pytest.mark.parametrize("case, amplitude", [
        ("symmetric", 0.0), ("symmetric", 0.05), ("case1", 0.0), ("case1", 0.05),
    ], ids=["scalar-no_beta", "per_agent-no_beta", "scalar-beta", "per_agent-beta"])
    def test_matches_field_and_effort_rate(self, monkeypatch, rng, case, amplitude):
        scenario = ex.adaptive_scenario(case, utilde_amplitude=amplitude)
        rhs = adaptive_rhs(monkeypatch, scenario)
        g, beta = ex._graph_and_beta(scenario.graph, scenario.beta_a, scenario.beta_b)
        n = g.n
        utilde = ex._utilde_pattern(n, amplitude)
        assert isinstance(utilde, np.ndarray) == (amplitude > 0)
        assert (beta is None) == (case == "symmetric")
        eps, y_th = scenario.epsilon, scenario.y_th
        deadlock = np.append(np.zeros(n), 0.9)
        decided = np.append(np.full(n, 1.6 * y_th), 1.2)
        zs = [np.append(rng.uniform(-2, 2, n), rng.uniform(0.1, 3)) for _ in range(20)]
        for z in zs + [deadlock, decided]:
            x = z[:n]
            want = np.append(normalized_field(x, g, z[n] + utilde, beta),
                             eps * (y_th ** 2 - np.mean(x) ** 2))
            assert rhs(0.0, z).tobytes() == want.tobytes()
        # the mean effort grows in deadlock and shrinks past the threshold
        assert rhs(0.0, deadlock)[n] == eps * y_th ** 2
        assert rhs(0.0, decided)[n] < 0
        for ubar in (-5.0, float("nan")):
            z = np.append(np.zeros(n), ubar)
            with pytest.raises(ValueError) as want_error:
                normalized_field(z[:n], g, z[n] + utilde, beta)
            # ubar falls at run time: a numerical failure, with the field's reason
            with pytest.raises(SolverError, match=f"^{re.escape(str(want_error.value))}: "):
                rhs(0.0, z)

    def test_events_and_stop_test_read_the_mean_of_their_state(self, monkeypatch):
        # They reuse the mean of the last rhs call only for that very array;
        # a state from event location or the initial state gets its own.
        scenario = ex.adaptive_scenario("case2")
        n = ex.graph_from_config(scenario.graph).n
        bands = [scenario.escape_band, scenario.y_th, scenario.jump_band]
        checked = [0, 0]
        real_integrate = ex._integrate

        def integrate(rhs, z0, cfg, events, stop_condition):
            def checked_event(i):
                def event(t, z):
                    value = events[i](t, z)
                    assert value == abs(np.mean(z[:n])) - bands[i]
                    checked[0] += 1
                    return value
                return event

            def stop(t, z, dz):
                verdict = stop_condition(t, z, dz)
                assert verdict == (abs(np.mean(z[:n]) ** 2 - scenario.y_th ** 2)
                                   < scenario.stop_tol
                                   and np.abs(dz[:n]).max() < scenario.stop_tol)
                checked[1] += 1
                return verdict

            return real_integrate(rhs, z0, cfg, events=[checked_event(i) for i in range(3)],
                                  stop_condition=stop)

        monkeypatch.setattr(ex, "_integrate", integrate)
        res = ex.run_adaptive(scenario)
        assert res.diagnostics["jump_time"] is not None
        assert checked[0] > 3 * checked[1] > 3 * 100

    def test_rest_point(self, monkeypatch):
        # consensus at the threshold y_th = 0.5 of K10, with the effort that
        # makes it an equilibrium: 9 y = 9 ubar tanh(y)
        rhs = adaptive_rhs(monkeypatch, ex.adaptive_scenario("symmetric"))
        y = 0.5
        dz = rhs(0.0, np.append(np.full(10, y), y / np.tanh(y)))
        assert np.abs(dz).max() < 1e-12


@pytest.mark.parametrize("cls, field", [
    (ex.PitchforkScenario, "h_max"),
    (ex.HysteresisScenario, "u"),
    (ex.QuinticScenario, "h_max"),
    (ex.ReductionScenario, "t_end"),
    (ex.ValueSensitivityScenario, "nu_grid"),
    (ex.UninformedInfluenceScenario, "nu_grid"),
    (ex.AdaptiveScenario, "epsilon"),
    (ex.SimulateScenario, "rtol"),
])
def test_scenario_rejects_nan(cls, field):
    value = (float("nan"),) if field == "nu_grid" else float("nan")
    with pytest.raises(ValueError):
        cls(**{field: value})


# Each runner on a small scenario, with the tables and documents the
# experiments module docstring says it writes besides config.json and
# summary.json.
RUNNER_OUTPUTS = [
    ("run_pitchfork_diagram", ex.PitchforkScenario(graph={"kind": "complete", "n": 4}),
     {"branch_trunk.csv", "branch_upper.csv", "branch_lower.csv", "singular_points.json"}),
    ("run_hysteresis", ex.HysteresisScenario(beta_b_step=2.0), {"loop.csv"}),
    ("run_quintic_transition", ex.QuinticScenario(beta_grid=(1.0,)),
     {"trunk_beta_1.csv", "outer0_beta_1.csv", "outer1_beta_1.csv"}),
    ("run_reduction_demo", ex.ReductionScenario(t_end=2.0, bound_horizon=1.0),
     {"trajectory.csv", "reduced_trajectory.csv", "spread.csv"}),
    ("run_value_sensitivity", ex.ValueSensitivityScenario(nu_grid=(1.0,)), {"curves.csv"}),
    ("run_uninformed_influence", ex.UninformedInfluenceScenario(), {"curves.csv"}),
    ("run_adaptive", ex.AdaptiveScenario(graph={"kind": "complete", "n": 4}),
     {"trajectory.csv"}),
    ("run_simulate", ex.SimulateScenario(t_end=5.0), {"trajectory.csv"}),
]


@pytest.mark.parametrize("runner, scenario, files", RUNNER_OUTPUTS,
                         ids=[runner for runner, _, _ in RUNNER_OUTPUTS])
def test_output_directory_contract(tmp_path, runner, scenario, files):
    # config_sha256 hashes the compact, sorted-key JSON of the config that
    # config.json holds, not the bytes of config.json.
    getattr(ex, runner)(scenario, out_dir=tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == {"config.json", "summary.json"} | files
    config = json.loads((tmp_path / "config.json").read_text())
    summary = json.loads((tmp_path / "summary.json").read_text())
    blob = json.dumps(config, sort_keys=True).encode()
    assert summary["config_sha256"] == hashlib.sha256(blob).hexdigest()


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        scenario = ex.ValueSensitivityScenario(nu_grid=(0.5, 1.0))
        ex.run_value_sensitivity(scenario, out_dir=a)
        ex.run_value_sensitivity(scenario, out_dir=b)
        for name in ("config.json", "curves.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_adaptive_rerun_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        ex.run_adaptive(ex.adaptive_scenario("symmetric"), out_dir=a)
        ex.run_adaptive(ex.adaptive_scenario("symmetric"), out_dir=b)
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


class TestDecisionOnBranches:
    def test_post_bifurcation_symmetric_runs_decide(self, rng):
        """All-to-all networks land on the consensus manifold, never disagree."""
        from netdecide.dynamics import normalized_field
        from netdecide.graphs import complete_graph
        from netdecide.solver import IntegratorConfig, integrate_to_equilibrium

        g = complete_graph(10)
        cfg = DecisionConfig(eta=0.5, delta_tol=1e-6)
        icfg = IntegratorConfig(rtol=1e-12, atol=1e-14)
        for _ in range(5):
            x0 = 1e-3 * rng.uniform(-1, 1, 10)
            f = lambda t, x: normalized_field(x, g, 2.0)
            x, ok, _ = integrate_to_equilibrium(f, x0, icfg, tol=1e-9, horizon=100.0)
            assert ok
            decision = classify_decision(x, cfg)
            assert decision in (Decision.A, Decision.B)


class TestAbsorbingBox:
    def test_trajectories_stay_bounded(self, k10, rng):
        """|x_i(t)| <= max(|x_i(0)|, u + |beta_i| / d_i) along trajectories."""
        from netdecide.dynamics import normalized_field
        from netdecide.solver import IntegratorConfig, integrate

        u = 1.5
        beta = rng.normal(scale=0.5, size=10)
        bound = np.maximum(0.0, u + np.abs(beta) / k10.degrees)
        for _ in range(3):
            x0 = rng.uniform(-2, 2, 10)
            box = np.maximum(np.abs(x0), bound)
            f = lambda t, x: normalized_field(x, k10, u, beta)
            traj = integrate(f, x0, IntegratorConfig(rtol=1e-9, atol=1e-11, max_time=30.0))
            for x in traj.states:
                assert np.all(np.abs(x) <= box + 1e-9)

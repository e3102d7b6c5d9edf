"""The variable-metric proximal-gradient loop, baselines, and trace capture."""

import math

import numpy as np
import pytest

import vmpg.solver
from vmpg.consensus import solve_consensus, split_regression
from vmpg.core import DiagonalMetric
from vmpg.problems import QuadraticObjective, generate_qp, generate_regression, smooth_part
from vmpg.prox import (
    AffineAddition,
    Consensus,
    ElasticNet,
    Lasso,
    Nonnegative,
    Scaled,
    Simplex,
    Zero,
)
from vmpg.solver import (
    CONVERGED,
    LINE_SEARCH_FAILURE,
    MAX_ITER,
    LineSearchError,
    SolverConfig,
    composite_value,
    fista,
    gradient_mapping,
    line_search,
    proximal_step,
    solve,
    warmup_step,
)
from vmpg.stepsize import hybrid_bb

from test_acceptance import coordinate_qp, median_qp_iterations


def quadratic(diag, q=None, p=0.0):
    d = np.asarray(diag, dtype=float)
    return QuadraticObjective(
        np.diag(d),
        np.zeros(len(d)) if q is None else np.asarray(q, dtype=float),
        p,
        strong_convexity=float(d.min()),
        smoothness=float(d.max()),
    )


class TestGradientMapping:
    def test_zero_regularizer_returns_gradient(self):
        f = quadratic([2.0, 4.0], q=[1.0, -1.0])
        x = np.array([0.5, 0.25])
        u = DiagonalMetric(np.array([3.0, 7.0]))
        np.testing.assert_allclose(gradient_mapping(f, Zero(), x, u), f.gradient(x))

    def test_zero_at_unconstrained_minimum(self):
        f = quadratic([2.0, 4.0], q=[-2.0, -4.0])  # minimizer (1, 1)
        u = DiagonalMetric(np.array([1.0, 5.0]))
        out = gradient_mapping(f, Zero(), np.array([1.0, 1.0]), u)
        np.testing.assert_allclose(out, np.zeros(2), atol=1e-12)

    def test_zero_at_interior_constrained_minimum(self):
        """When the nonneg constraint is slack at x*, the mapping vanishes."""
        f = quadratic([2.0, 2.0], q=[-2.0, -2.0])  # minimizer (1, 1), interior
        u = DiagonalMetric(np.array([0.5, 4.0]))
        out = gradient_mapping(f, Nonnegative(), np.array([1.0, 1.0]), u)
        np.testing.assert_allclose(out, np.zeros(2), atol=1e-12)


class TestStepMachinery:
    def test_exact_newton_with_hessian_metric(self):
        """U equal to a diagonal Hessian solves the problem in one step."""
        rng = np.random.default_rng(0)
        d = rng.uniform(0.5, 20.0, 5)
        q = rng.standard_normal(5)
        f = quadratic(d, q=q)
        x = rng.standard_normal(5)
        x_new, _ = proximal_step(f, Zero(), x, f.gradient(x), DiagonalMetric(d))
        np.testing.assert_allclose(x_new, -q / d, rtol=1e-12)

    def test_no_backtracks_when_metric_dominates_curvature(self):
        """U >= L*I passes the sufficient-decrease test immediately."""
        rng = np.random.default_rng(1)
        cfg = SolverConfig()
        for _ in range(20):
            n = int(rng.integers(2, 8))
            basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
            eigs = rng.uniform(0.5, 30.0, n)
            hess = (basis * eigs) @ basis.T
            f = QuadraticObjective(hess, rng.standard_normal(n), 0.0)
            x = rng.standard_normal(n)
            metric = DiagonalMetric.uniform(n, eigs.max())
            _, _, _, backtracks, _ = line_search(
                f, Zero(), x, f.gradient(x), metric, composite_value(f, Zero(), x), cfg
            )
            assert backtracks == 0

    def test_at_most_three_backtracks_from_an_eighth_of_curvature(self):
        """Doubling from U = (L/8) I restores the test within three rescalings."""
        rng = np.random.default_rng(2)
        cfg = SolverConfig(beta=2.0)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
            eigs = rng.uniform(0.5, 30.0, n)
            hess = (basis * eigs) @ basis.T
            f = QuadraticObjective(hess, rng.standard_normal(n), 0.0)
            x = rng.standard_normal(n)
            metric = DiagonalMetric.uniform(n, eigs.max() / 8.0)
            _, _, _, backtracks, _ = line_search(
                f, Zero(), x, f.gradient(x), metric, composite_value(f, Zero(), x), cfg
            )
            assert backtracks <= 3


class TestSolve:
    @pytest.mark.parametrize("method", ["vmpg-dbb", "pg-bb", "pg-fixed", "fista"])
    def test_separable_quadratic_reaches_center(self, method):
        c = np.array([1.0, -2.0, 3.0])
        f = QuadraticObjective(
            np.eye(3), -c, 0.5 * float(c @ c), strong_convexity=1.0, smoothness=1.0
        )
        cfg = SolverConfig(method=method, eps_tol=1e-10, fixed_stepsize=1.0 if method == "pg-fixed" else None)
        res = solve(f, Zero(), np.zeros(3), cfg)
        assert res.status == CONVERGED
        np.testing.assert_allclose(res.x, c, atol=1e-6)
        assert res.trace[-1].objective <= 1e-8

    def test_cross_method_agreement_on_lasso_ls(self):
        """All methods minimize the same composite objective."""
        prob = generate_regression(n_samples=40, dim=25, loss="ls", seed=3)
        f = smooth_part(prob)
        g = Lasso(prob.lam)
        x0 = np.zeros(25)
        objs = {}
        for method in ("vmpg-dbb", "pg-bb", "pg-fixed", "fista"):
            cfg = SolverConfig(method=method, eps_tol=1e-7, max_iter=20000)
            res = solve(f, g, x0, cfg)
            assert res.status == CONVERGED, method
            objs[method] = res.trace[-1].objective
        spread = max(objs.values()) - min(objs.values())
        assert spread <= 1e-4
        assert abs(objs["fista"] - objs["vmpg-dbb"]) <= 1e-6

    def test_diagonal_metric_beats_scalar_on_hard_qp(self):
        """Median iteration counts over 20 seeds on ill-conditioned QPs."""
        dbb, bb = [], []
        for seed in range(20):
            f = smooth_part(generate_qp(n=50, kappa=1e4, seed=seed))
            for method, acc in (("vmpg-dbb", dbb), ("pg-bb", bb)):
                res = solve(f, Nonnegative(), np.zeros(50), SolverConfig(method=method))
                assert res.status == CONVERGED
                acc.append(res.iterations)
        assert np.median(dbb) < np.median(bb)

    def test_a1_ratio_clause_fails_with_a_scalar_metric(self, monkeypatch):
        """A1's coordinate-basis ratio clause fails once the diagonal rule is scalar."""

        def uniform_hybrid(pair, config, state):
            alpha = hybrid_bb(pair, config, state)
            return DiagonalMetric.uniform(pair.s.shape[0], 1.0 / alpha)

        monkeypatch.setattr(vmpg.solver, "diagonal_bb", uniform_hybrid)
        seeds = range(20)
        dbb = median_qp_iterations("vmpg-dbb", 200, 1e4, seeds, objective=coordinate_qp)
        bb = median_qp_iterations("pg-bb", 200, 1e4, seeds, objective=coordinate_qp)
        assert dbb / bb > 0.9

    def test_max_iter_status(self):
        f = smooth_part(generate_qp(n=20, kappa=1e3, seed=0))
        res = solve(f, Zero(), np.zeros(20), SolverConfig(eps_tol=1e-14, max_iter=5))
        assert res.status == MAX_ITER
        assert res.iterations == 5

    def test_line_search_failure_surfaces_in_status(self):
        """A metric far below the curvature with no backtracks allowed fails."""
        f = quadratic([1e6], q=[0.0])
        res = solve(
            f,
            Zero(),
            np.array([1e-4]),  # small gradient => warm-up alpha ~ 1, U = I << L I
            SolverConfig(line_search="monotone", max_backtracks=0),
        )
        assert res.status == LINE_SEARCH_FAILURE

    def test_failing_warm_up_reports_iteration_zero(self):
        f = quadratic([1e6], q=[0.0])
        config = SolverConfig(line_search="monotone", max_backtracks=0)
        with pytest.raises(LineSearchError) as info:
            warmup_step(f, Zero(), np.array([1e-4]), config)
        assert info.value.iteration == 0

    def test_line_search_error_message_names_the_stamped_iteration(self):
        f = quadratic([1e6], q=[0.0])
        config = SolverConfig(line_search="monotone", max_backtracks=0)
        with pytest.raises(LineSearchError) as info:
            warmup_step(f, Zero(), np.array([1e-4]), config)
        assert "line search stalled at iteration 0:" in str(info.value)

    def test_warm_up_hands_the_bb_rules_an_identity_memory(self):
        """The BB rules start from the identity, not from the warm-up metric."""
        f = quadratic([1.0, 4.0, 9.0], q=[1.0, -2.0, 3.0])
        state, _ = warmup_step(f, Zero(), np.zeros(3), SolverConfig())
        assert np.all(state.metric.diag > 1.0)  # alpha0 = 1/sqrt(14), backtracked
        assert state.stepsize_state.prev_alpha == 1.0
        np.testing.assert_array_equal(state.stepsize_state.prev_metric.diag, np.ones(3))

    def test_grad_map_stop_rule(self):
        f = smooth_part(generate_qp(n=20, kappa=10, seed=1))
        res = solve(
            f, Zero(), np.zeros(20), SolverConfig(stop_rule="grad-map", eps_tol=1e-6)
        )
        assert res.status == CONVERGED

    def test_trace_is_complete_and_wall_clock_monotone(self):
        f = smooth_part(generate_qp(n=20, kappa=100, seed=2))
        res = solve(f, Nonnegative(), np.zeros(20), SolverConfig())
        assert len(res.trace) == res.iterations
        iters = [r.iter for r in res.trace]
        assert iters == list(range(len(res.trace)))
        wall = [r.wall_ms for r in res.trace]
        assert all(b >= a for a, b in zip(wall, wall[1:]))

    def test_mapping_norm_equals_step_norm_on_accepted_steps(self):
        """||G||_{U^-1} and ||x+ - x||_U agree record by record."""
        prob = generate_regression(n_samples=30, dim=15, loss="ls", seed=4)
        f = smooth_part(prob)
        res = solve(f, Lasso(prob.lam), np.zeros(15), SolverConfig())
        for rec in res.trace:
            np.testing.assert_allclose(
                rec.grad_map_norm, rec.step_norm_u, rtol=1e-10, atol=1e-300
            )


class TestLineSearchSemantics:
    def test_monotone_steps_descend(self):
        """Each accepted monotone step decreases F by half the squared step."""
        for seed in range(5):
            f = smooth_part(generate_qp(n=30, kappa=1e3, seed=seed))
            g = Nonnegative()
            cfg = SolverConfig(line_search="monotone")
            res = solve(f, g, np.zeros(30), cfg)
            objs = [composite_value(f, g, np.zeros(30))] + [
                r.objective for r in res.trace
            ]
            for i, rec in enumerate(res.trace):
                drop = 0.5 * rec.step_norm_u**2
                assert rec.objective <= objs[i] - drop + 1e-10

    def test_nonmonotone_acceptance_matches_logged_window(self):
        """Accepted steps satisfy the reference-value test reconstructed
        from the trace: F(new) <= max of the last min(mLS, k-1)+1 values."""
        prob = generate_regression(n_samples=30, dim=40, loss="logistic", seed=5)
        f = smooth_part(prob)
        g = Lasso(prob.lam)
        cfg = SolverConfig(m_ls=4, eps_tol=1e-2)
        res = solve(f, g, np.zeros(40), cfg)
        objs = [composite_value(f, g, np.zeros(40))] + [r.objective for r in res.trace]
        for rec in res.trace[1:]:
            k = rec.iter
            window = objs[k - min(cfg.m_ls, k - 1): k + 1]
            f_hat = max(window)
            assert rec.objective <= f_hat - 0.5 * rec.step_norm_u**2 + 1e-10

    def test_line_search_off_accepts_first_candidate(self):
        f = quadratic([4.0], q=[0.0])
        x = np.array([1.0])
        _, _, _, backtracks, _ = line_search(
            f, Zero(), x, f.gradient(x), DiagonalMetric(np.array([0.01])), None,
            SolverConfig(line_search="off"),
        )
        assert backtracks == 0


class TestFista:
    def test_rate_slope_on_wide_spectrum_quadratic(self):
        """Running-min objective gap decays like 1/k^2 on log-log axes."""
        n = 200
        rng = np.random.default_rng(0)
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d = np.logspace(0.0, 6.0, n)
        hess = (basis * d) @ basis.T
        hess = 0.5 * (hess + hess.T)
        f = QuadraticObjective(
            hess, np.zeros(n), 0.0, strong_convexity=1.0, smoothness=1e6
        )
        x0 = basis @ (np.ones(n) / np.sqrt(n))  # equal energy in every mode
        res = solve(f, Zero(), x0, SolverConfig(method="fista", eps_tol=1e-16, max_iter=1100))
        gap = np.minimum.accumulate([r.objective for r in res.trace])
        ks = np.arange(1, len(gap) + 1)
        sel = (ks >= 10) & (ks <= 1000) & (gap > 0)
        slope = np.polyfit(np.log(ks[sel]), np.log(gap[sel]), 1)[0]
        assert slope <= -1.8

    def test_starting_at_minimizer_terminates_immediately(self):
        f = quadratic([2.0, 3.0], q=[-2.0, -3.0])  # minimizer (1, 1)
        res = fista(f, Zero(), np.array([1.0, 1.0]), config=SolverConfig(method="fista"))
        assert res.status == CONVERGED
        assert res.iterations == 1

    def test_explicit_stepsize_overrides_smoothness(self):
        f = quadratic([2.0], q=[-2.0])
        res = fista(f, Zero(), np.zeros(1), stepsize=0.5, config=SolverConfig(method="fista"))
        assert res.status == CONVERGED
        np.testing.assert_allclose(res.x, [1.0], atol=1e-6)

    def test_needs_stepsize_without_smoothness_or_backtracking(self):
        hess = np.array([[2.0]])
        f = QuadraticObjective(hess, np.zeros(1), 0.0)
        f.smoothness = None
        with pytest.raises(ValueError):
            fista(f, Zero(), np.zeros(1), config=SolverConfig(method="fista", line_search="off"))


class TestConfigValidation:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            SolverConfig(method="newton")

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            SolverConfig(m_ls=0)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            SolverConfig(beta=1.0)

    def test_rejects_unknown_stop_rule(self):
        with pytest.raises(ValueError):
            SolverConfig(stop_rule="energy")

    # each used to fail mid-run: 0.0 with ZeroDivisionError after the warm-up,
    # the others with ValueError from the metric (NaN only under FISTA)
    @pytest.mark.parametrize("stepsize", [0.0, -1.0, math.inf, math.nan, 1e-320, 1e301])
    @pytest.mark.parametrize("method", ["pg-fixed", "fista"])
    def test_rejects_bad_fixed_stepsize(self, method, stepsize):
        with pytest.raises(ValueError, match="fixed_stepsize"):
            SolverConfig(method=method, fixed_stepsize=stepsize)

    def test_accepts_the_extreme_valid_fixed_stepsizes(self):
        for stepsize in (1e-300, 1e300):
            SolverConfig(method="pg-fixed", fixed_stepsize=stepsize)
        config = SolverConfig(method="pg-fixed", fixed_stepsize=0.25)
        assert solve(quadratic([1.0, 4.0]), Zero(), np.ones(2), config).status == CONVERGED

    @pytest.mark.parametrize("settings", [
        {"eps_tol": math.nan}, {"eps_tol": math.inf},
        {"beta": math.nan}, {"beta": math.inf},
    ])
    def test_rejects_non_finite_limits(self, settings):
        # eps_tol=nan ran silently to max_iter; beta=nan or inf ended in
        # numerical-failure at iteration 0
        with pytest.raises(ValueError):
            SolverConfig(**settings)

    @pytest.mark.parametrize("settings", [
        {"max_iter": 10.5}, {"max_iter": 10.0}, {"m_ls": 2.5}, {"max_backtracks": 3.0},
    ])
    def test_rejects_non_integral_counts(self, settings):
        # max_iter=10.5 ran 11 iterations; m_ls=2.5 raised TypeError mid-run
        with pytest.raises(ValueError, match="integers"):
            SolverConfig(**settings)

    def test_accepts_numpy_integer_counts(self):
        config = SolverConfig(m_ls=np.int64(3), max_iter=np.int32(4), max_backtracks=np.int64(0))
        assert solve(quadratic([1.0, 4.0]), Zero(), np.ones(2), config).iterations <= 4

    def test_line_search_error_carries_diagnostics(self):
        f = quadratic([1e8], q=[0.0])
        with pytest.raises(LineSearchError) as info:
            line_search(
                f,
                Zero(),
                np.array([1.0]),
                f.gradient(np.array([1.0])),
                DiagonalMetric(np.array([1e-6])),
                composite_value(f, Zero(), np.array([1.0])),
                SolverConfig(max_backtracks=2),
            )
        err = info.value
        assert err.backtracks == 2
        assert err.candidate_value is not None


def count_value_calls(g):
    """Patch g.value on the instance to count its calls; returns the counter."""
    calls = []
    g.value = lambda x, _value=g.value: calls.append(1) or _value(x)
    return calls


class TestIndicatorProxValue:
    """Indicators whose prox is feasible by construction skip the membership test."""

    def test_declared_by_the_indicators_and_no_other_regularizer(self):
        assert Zero.prox_value == Nonnegative.prox_value == Consensus.prox_value == 0.0
        for g in (Simplex(), Lasso(1.0), ElasticNet(1.0, 1.0), Scaled(Nonnegative(), 2.0),
                  AffineAddition(Zero(), np.ones(3))):
            assert g.prox_value is None

    @pytest.mark.parametrize("g", [Zero(), Nonnegative(), Consensus(3)],
                             ids=["zero", "nonneg", "consensus"])
    def test_prox_outputs_have_the_declared_value(self, g):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(6) * 10.0
            u = DiagonalMetric(np.exp(rng.standard_normal(6)))
            assert g.value(g.prox(v, u)) == g.prox_value

    @pytest.mark.parametrize("method", ["vmpg-dbb", "pg-bb", "fista"])
    @pytest.mark.parametrize("ls_mode", ["nonmonotone", "monotone", "off"])
    def test_only_the_starting_objective_tests_membership(self, method, ls_mode):
        f = smooth_part(generate_qp(n=20, kappa=1e3, seed=1))
        g = Nonnegative()
        calls = count_value_calls(g)
        config = SolverConfig(method=method, line_search=ls_mode, max_iter=50)
        res = solve(f, g, np.zeros(20), config)
        assert res.iterations > 1
        starts = 1 if method != "fista" and ls_mode != "off" else 0
        assert len(calls) == starts
        assert res.final_objective == f.value(res.x) + 0.0

    def test_consensus_rounds_skip_the_membership_test(self, monkeypatch):
        problem = split_regression(generate_regression(60, 4, "ls", 0), 3, 1e-2)
        calls = []
        monkeypatch.setattr(
            Consensus, "value", lambda self, x, _value=Consensus.value:
            calls.append(1) or _value(self, x))
        res = solve_consensus(problem, np.zeros(4), config=SolverConfig(max_iter=20))
        assert res.iterations == 20 and len(calls) == 1

    @pytest.mark.parametrize("method", ["vmpg-dbb", "fista"])
    def test_other_regularizers_are_still_evaluated(self, method):
        f = smooth_part(generate_qp(n=20, kappa=1e3, seed=1))
        g = Lasso(0.1)
        calls = count_value_calls(g)
        res = solve(f, g, np.zeros(20), SolverConfig(method=method, max_iter=30))
        candidates = res.iterations + sum(r.backtracks for r in res.trace)
        assert len(calls) == candidates + (method != "fista")

"""The duality-gap exit of least-squares l1 solves, and which test ended a run.

The gap must bound F(x) - F* from above at every point, vanish to rounding
at the optimum, agree between the residual and the Gram form of one
problem, and never end a solve before F(x) - F* is at rounding level.
Optima come from closed forms (orthonormal designs) or from scipy's
L-BFGS-B on the split x = p - q, polished by exact active-set steps.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from vmpg.consensus import solve_consensus, split_regression
from vmpg.problems import (
    LeastSquaresObjective,
    LogisticObjective,
    QuadraticObjective,
    _least_squares,
    generate_qp,
    generate_regression,
    smooth_part,
)
from vmpg.prox import ElasticNet, Lasso, Nonnegative
from vmpg.solver import CONVERGED, MAX_ITER, SolverConfig, _duality_gap, solve

EPS = np.finfo(float).eps


def both_forms(A, b, ridge):
    """The Gram and the residual form of (1/N)||Ax - b||^2 + ridge ||x||^2."""
    gram = _least_squares(A, b, ridge=ridge)
    assert isinstance(gram, QuadraticObjective)
    return {"gram": gram, "residual": LeastSquaresObjective(A, b, ridge=ridge)}


def l1_parts(g):
    """(lam1, lam2) of a Lasso or ElasticNet."""
    return (g.lam, 0.0) if isinstance(g, Lasso) else (g.lam1, g.lam2)


def objective(A, b, ridge, g, x):
    """F(x) in the residual form, independently of the library."""
    lam1, lam2 = l1_parts(g)
    r = A @ x - b
    return float(r @ r) / A.shape[0] + (ridge + 0.5 * lam2) * float(x @ x) + lam1 * float(
        np.abs(x).sum()
    )


def gap_at(f, g, x):
    """(gap, rounding) at x, from F(x) and grad f(x) as a solve has them."""
    return _duality_gap(f, g)(x, f.gradient(x), f.value(x) + g.value(x))


# --- orthonormal designs: the optimum is a soft threshold -------------------


def orthonormal_problem(seed, ridge, g):
    """A 1024 x 128 design with orthonormal columns (the smallest Gram
    form), labels, and its closed-form optimum (x*, F*)."""
    rng = np.random.default_rng(seed)
    A, _ = np.linalg.qr(rng.standard_normal((1024, 128)))
    b = A @ rng.standard_normal(128) * 2.0 + 0.05 * rng.standard_normal(1024)
    s = 1.0 / 1024
    lam1, lam2 = l1_parts(g)
    # F = (s + rho) ||x||^2 - 2s (A'b)'x + s ||b||^2 + lam1 ||x||_1 with A'A = I
    c = A.T @ b
    a = s + ridge + 0.5 * lam2
    x_star = np.sign(c) * np.maximum(2.0 * s * np.abs(c) - lam1, 0.0) / (2.0 * a)
    return A, b, x_star, objective(A, b, ridge, g, x_star)


REGULARIZERS = {"lasso": Lasso(2e-3), "elastic-net": ElasticNet(2e-3, 1e-2)}


@pytest.mark.parametrize("ridge", [0.0, 1e-3])
@pytest.mark.parametrize("reg", REGULARIZERS)
class TestOrthonormalDesign:
    def test_gap_bounds_the_suboptimality_at_random_points(self, reg, ridge):
        g = REGULARIZERS[reg]
        A, b, x_star, f_star = orthonormal_problem(1, ridge, g)
        assert 0 < np.count_nonzero(x_star) < 128
        rng = np.random.default_rng(2)
        for f in both_forms(A, b, ridge).values():
            for scale in (1e-6, 1e-3, 1e-1, 1.0):
                for sparse in (False, True):
                    x = x_star + scale * rng.standard_normal(128)
                    if sparse:
                        x[rng.random(128) < 0.5] = 0.0
                    gap, rounding = gap_at(f, g, x)
                    excess = objective(A, b, ridge, g, x) - f_star
                    assert excess >= -rounding
                    assert gap >= excess - 2.0 * rounding, (scale, gap, excess)

    def test_gap_is_at_rounding_level_at_the_optimum(self, reg, ridge):
        g = REGULARIZERS[reg]
        A, b, x_star, _ = orthonormal_problem(3, ridge, g)
        for f in both_forms(A, b, ridge).values():
            gap, rounding = gap_at(f, g, x_star)
            assert abs(gap) <= rounding

    def test_both_forms_give_the_same_gap(self, reg, ridge):
        g = REGULARIZERS[reg]
        A, b, x_star, _ = orthonormal_problem(4, ridge, g)
        forms = both_forms(A, b, ridge)
        # the Gram form reads a larger modulus off its spectrum, which only
        # tightens its certificate; under one modulus the two forms agree
        forms["gram"].strong_convexity = forms["residual"].strong_convexity
        rng = np.random.default_rng(5)
        for scale in (0.0, 1e-8, 1e-4, 1.0):
            x = x_star + scale * rng.standard_normal(128)
            (gram, r_gram), (resid, r_resid) = (gap_at(forms[k], g, x)
                                                for k in ("gram", "residual"))
            assert abs(gram - resid) <= r_gram + r_resid


# --- certified exits against scipy optima ------------------------------------


def reference_optimum(A, b, ridge, g):
    """F* of (1/N)||Ax - b||^2 + rho ||x||^2 + lam1 ||x||_1, rho = ridge + lam2/2.

    L-BFGS-B on x = p - q, p, q >= 0, then exact solves on the support with
    fixed signs until the signs hold and no zero coordinate's gradient
    exceeds lam1.
    """
    lam1, lam2 = l1_parts(g)
    N, n = A.shape
    H = A.T @ A / N + (ridge + 0.5 * lam2) * np.eye(n)
    c = A.T @ b / N

    def split(z):
        x = z[:n] - z[n:]
        grad = 2.0 * (H @ x - c)
        return x @ H @ x - 2.0 * c @ x + lam1 * z.sum(), np.concatenate(
            [grad + lam1, lam1 - grad])

    z = minimize(split, np.zeros(2 * n), jac=True, method="L-BFGS-B",
                 bounds=[(0.0, None)] * (2 * n),
                 options=dict(maxiter=50_000, maxfun=100_000, ftol=1e-15, gtol=1e-12)).x
    sign = np.sign(z[:n] - z[n:])
    for _ in range(50):
        S = sign != 0
        x = np.zeros(n)
        x[S] = np.linalg.solve(H[np.ix_(S, S)], c[S] - 0.5 * lam1 * sign[S])
        grad = 2.0 * (H @ x - c)
        flipped = S & (np.sign(x) != sign)
        excess = ~S & (np.abs(grad) > lam1 * (1.0 + 1e-12))
        if not flipped.any() and not excess.any():
            return objective(A, b, ridge, g, x)
        sign = np.where(flipped, 0.0, sign)
        sign = np.where(excess, -np.sign(grad), sign)
    raise AssertionError("the reference optimum did not certify")


def dual_gap(A, b, ridge, g, x):
    """(F(x) - D, its rounding 16 eps (s ||b||^2 + |F(x)|)) for the
    rescaled-residual dual value D, independently of the library."""
    lam1, lam2 = l1_parts(g)
    s = 1.0 / A.shape[0]
    f_x = objective(A, b, ridge, g, x)
    grad_h = 2.0 * s * (A.T @ (A @ x - b)) + (2.0 * ridge + lam2) * x
    c = min(1.0, lam1 / np.abs(grad_h).max())
    h = f_x - lam1 * float(np.abs(x).sum())
    dual = 2.0 * c * s * float(b @ b - b @ (A @ x)) - c * c * h
    return f_x - dual, 16 * EPS * (s * float(b @ b) + abs(f_x))


def test_certified_exits_are_optimal_to_rounding():
    """24 instances (6 designs x 2 forms x Lasso, ElasticNet) x 3 methods;
    every solve that the gap ends is within 1e-12 max(1, |F*|) of F*.  Where
    the dual gap is still above its rounding at the exit, the second-order
    bound ended the run, and F(x) - F* must be within that rounding."""
    certified = second_order = 0
    for seed in range(6):
        prob = generate_regression(600, 256, "ls", 60 + seed)
        ridge = 0.0 if seed % 2 else 1e-3
        lam = (1e-2, 1e-3)[seed % 3 == 2]
        for g in (Lasso(lam), ElasticNet(lam, 2e-2)):
            f_star = reference_optimum(prob.A, prob.b, ridge, g)
            bound = 1e-12 * max(1.0, abs(f_star))
            for form, f in both_forms(prob.A, prob.b, ridge).items():
                for method in ("vmpg-dbb", "pg-bb", "pg-fixed"):
                    result = solve(f, g, np.zeros(256),
                                   SolverConfig(method=method, eps_tol=1e-14, max_iter=3000))
                    if result.stopped_by != "gap":
                        continue
                    certified += 1
                    excess = objective(prob.A, prob.b, ridge, g, result.x) - f_star
                    assert excess <= bound, (seed, form, method, excess, f_star)
                    gap, rounding = dual_gap(prob.A, prob.b, ridge, g, result.x)
                    if gap > rounding:
                        second_order += 1
                        assert excess <= rounding, (seed, form, method, excess, rounding)
    assert certified >= 48
    assert second_order >= 40


def test_the_gram_modulus_certifies_where_the_dual_gap_lags():
    """The Gram form of generate_regression(600, 256, "ls", 65) under
    Lasso(1e-2) at eps_tol 1e-14.  With the dual gap alone vmpg-dbb ended
    by its forward-step test at record 433 (its dual gap never within
    rounding) and pg-bb by the gap at record 264 (one BLAS thread); the
    modulus read off the spectrum ends both by the gap, at about records
    192 and 152."""
    prob = generate_regression(600, 256, "ls", 65)
    f, g = smooth_part(prob), Lasso(1e-2)
    assert isinstance(f, QuadraticObjective) and f.strong_convexity > 0
    f_star = reference_optimum(prob.A, prob.b, 0.0, g)
    for method, most in (("vmpg-dbb", 240), ("pg-bb", 200)):
        result = solve(f, g, np.zeros(256),
                       SolverConfig(method=method, eps_tol=1e-14, max_iter=3000))
        assert (result.status, result.stopped_by) == (CONVERGED, "gap"), method
        assert result.iterations <= most, (method, result.iterations)
        _, rounding = dual_gap(prob.A, prob.b, 0.0, g, result.x)
        assert objective(prob.A, prob.b, 0.0, g, result.x) - f_star <= rounding, method


def test_pg_bb_ends_a_lasso_ls_shaped_solve_by_its_gap():
    """On a 2000 x 500 Gram form, pg-bb's forward-step test does not settle."""
    prob = generate_regression(2000, 500, "ls", 7)
    f = smooth_part(prob)
    assert isinstance(f, QuadraticObjective)
    result = solve(f, Lasso(prob.lam), np.zeros(500),
                   SolverConfig(method="pg-bb", eps_tol=1e-4, max_iter=600))
    assert result.status == CONVERGED
    assert result.stopped_by == "gap"
    assert result.iterations < 600


def test_the_gap_applies_to_least_squares_l1_pairs_only():
    prob = generate_regression(60, 8, "ls", 8)
    ls = LeastSquaresObjective(prob.A, prob.b)
    qp = smooth_part(generate_qp(8, 10.0, 8))
    logistic = LogisticObjective(prob.A, np.where(prob.b >= 0, 1.0, -1.0))
    assert _duality_gap(ls, Lasso(0.1)) is not None
    assert _duality_gap(ls, ElasticNet(0.1, 0.1)) is not None
    assert _duality_gap(ls, Nonnegative()) is None
    assert _duality_gap(qp, Lasso(0.1)) is None
    assert _duality_gap(logistic, Lasso(0.1)) is None


# --- which test ended the run ------------------------------------------------


class TestStoppedBy:
    def test_solve_names_each_of_its_three_exits(self):
        qp = smooth_part(generate_qp(20, 10.0, 1))
        for rule in ("forward-step", "grad-map"):
            result = solve(qp, Nonnegative(), np.zeros(20),
                           SolverConfig(stop_rule=rule, eps_tol=1e-6))
            assert (result.status, result.stopped_by) == (CONVERGED, rule)
        prob = generate_regression(80, 12, "ls", 27)
        f = LeastSquaresObjective(prob.A, prob.b, ridge=0.05)
        result = solve(f, Lasso(0.01), np.zeros(12),
                       SolverConfig(method="pg-bb", eps_tol=1e-8, max_iter=300))
        assert (result.status, result.stopped_by) == (CONVERGED, "gap")
        assert result.iterations % 8 == 0

    def test_solve_names_no_test_when_it_does_not_converge(self):
        qp = smooth_part(generate_qp(20, 1e3, 1))
        result = solve(qp, Nonnegative(), np.zeros(20), SolverConfig(max_iter=3))
        assert (result.status, result.stopped_by) == (MAX_ITER, None)

    @pytest.mark.parametrize("rule", ["forward-step", "grad-map"])
    def test_solve_consensus_names_its_stop_rule(self, rule):
        # ridge 0: no node has a modulus, so the stop rule alone ends the run
        prob = generate_regression(n_samples=200, dim=5, loss="ls", seed=9)
        problem = split_regression(prob, n_nodes=4, ridge=0.0)
        result = solve_consensus(problem, np.zeros(5), "local-dbb",
                                 SolverConfig(stop_rule=rule, eps_tol=1e-6))
        assert (result.status, result.stopped_by) == (CONVERGED, rule)
        result = solve_consensus(problem, np.zeros(5), "local-dbb",
                                 SolverConfig(stop_rule=rule, max_iter=2))
        assert (result.status, result.stopped_by) == (MAX_ITER, None)

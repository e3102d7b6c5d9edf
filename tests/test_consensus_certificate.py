"""The strong-convexity certificate of Zero and Consensus solves, and the
start image that a least-squares consensus stack keeps across solves.

For an m-strongly convex F, F(x) - F* <= ||grad F(x)||^2 / (2m).  A solve
under Zero takes m from f; a consensus solve sums its nodes' moduli and
takes grad F at the consensus point as the sum of the node gradients.  The
bound is checked against closed-form optima (the normal equations, as A9
forms them, and np.linalg.solve on a QP) and against a polished L-BFGS-B
optimum for logistic nodes.  A consensus certificate over two or more
nodes is checked after every record, a single-block one (Zero, or one
node) after every _GAP_EVERY-th, so a solve must end at the first record
of its period that a replay of its warm-up and steps finds certified.
Without a modulus no certificate is formed, and every run is bitwise the
run `_iterate` makes without one.
"""

import itertools

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

import vmpg.consensus
import vmpg.solver
from vmpg.consensus import (
    MODES,
    ConsensusProblem,
    _StackedLeastSquares,
    consensus_round,
    solve_consensus,
    split_regression,
)
from vmpg.problems import LeastSquaresObjective, generate_qp, generate_regression, smooth_part
from vmpg.prox import Consensus, Zero
from vmpg.solver import (
    CONVERGED,
    SolverConfig,
    _GAP_EVERY,
    _GAP_ROUNDING,
    _duality_gap,
    solve,
    vmpg_step,
    warmup_step,
)

from digests import digest

RIDGE_TOTAL = 1e-2
NODES = (1, 4, 20)


def pooled_ridge(seed):
    """A 400 x 20 LS instance, its optimum x* of (1/N)||Ax - b||^2 +
    RIDGE_TOTAL ||x||^2 by the normal equations, and F as a function."""
    prob = generate_regression(n_samples=400, dim=20, loss="ls", seed=seed)
    x_star = np.linalg.solve(prob.A.T @ prob.A + 400 * RIDGE_TOTAL * np.eye(20),
                             prob.A.T @ prob.b)

    def value(x):
        r = prob.A @ x - prob.b
        return float(r @ r) / 400 + RIDGE_TOTAL * float(x @ x)

    return prob, x_star, value


def certificate_at(f, g, x):
    """(gap, rounding) at x, from grad f(x) and F(x) as a solve has them."""
    return _duality_gap(f, g)(x, f.gradient(x), f.value(x) + g.value(x))


def check_bound(gap, rounding, excess):
    """gap >= F - F* >= -rounding, each to the rounding of the certificate."""
    assert excess >= -rounding, (excess, rounding)
    assert gap >= excess - rounding, (gap, excess, rounding)


def first_certified_record(f, g, x0, step, blocks, m, config):
    """Replay warmup_step and then step(state), and return the number of
    records after which ||sum of grad's blocks||^2 / (2m) is first within
    16 eps |F|, or None within config.max_iter records.  As in a solve, the
    warm-up's record is not checked, and over one block only every
    _GAP_EVERY-th record is."""
    every = 1 if blocks > 1 else _GAP_EVERY
    state, _ = warmup_step(f, g, x0, config)
    for records in range(2, config.max_iter + 1):
        state, _ = step(state)
        if records % every:
            continue
        total = state.grad.reshape(blocks, -1).sum(axis=0)
        rounding = _GAP_ROUNDING * np.finfo(float).eps * abs(state.f_x)
        if float(total @ total) / (2.0 * m) <= rounding:
            return records
    return None


def first_certified_round(problem, mode, config):
    """first_certified_record of solve_consensus(problem, 0, mode, config)."""
    return first_certified_record(
        problem.stacked(), Consensus(problem.n_nodes), np.zeros(problem.n_nodes * problem.dim),
        lambda state: consensus_round(problem, state, mode, config),
        problem.n_nodes, sum(f.strong_convexity for f in problem.objectives), config)


# --- least-squares splits: the normal equations give F* ----------------------


@pytest.mark.parametrize("nodes", NODES)
def test_the_certificate_bounds_the_suboptimality_at_consensus_points(nodes):
    prob, x_star, value = pooled_ridge(0)
    problem = split_regression(prob, nodes, ridge=RIDGE_TOTAL / nodes)
    f, g = problem.stacked(), Consensus(nodes)
    f_star = value(x_star)
    rng = np.random.default_rng(1)
    for scale in (0.0, 1e-8, 1e-4, 1e-2, 1.0):
        z = x_star + scale * rng.standard_normal(20)
        gap, rounding = certificate_at(f, g, np.tile(z, nodes))
        check_bound(gap, rounding, value(z) - f_star)
        if scale == 0.0:
            assert gap <= rounding


@pytest.mark.parametrize("nodes", NODES)
@pytest.mark.parametrize("mode", MODES)
def test_consensus_solves_end_optimal_to_rounding(mode, nodes):
    certified = 0
    for seed in range(3):
        prob, x_star, value = pooled_ridge(seed)
        problem = split_regression(prob, nodes, ridge=RIDGE_TOTAL / nodes)
        config = SolverConfig(eps_tol=1e-12)
        res = solve_consensus(problem, np.zeros(20), mode, config)
        assert res.status == CONVERGED
        f, g = problem.stacked(), Consensus(nodes)
        gap, rounding = certificate_at(f, g, np.tile(res.z, nodes))
        check_bound(gap, rounding, value(res.z) - value(x_star))
        if res.stopped_by == "gap":
            certified += 1
            assert gap <= rounding
            assert res.iterations == first_certified_round(problem, mode, config)
    assert certified == 3


@pytest.mark.parametrize("nodes", NODES)
def test_consensus_solves_stop_at_the_first_certified_round(nodes):
    """Over two or more nodes the certificate is checked after every
    record, so a solve ends at the first round whose gap is within
    rounding, not at the next multiple of _GAP_EVERY; over one node it
    ends where its pooled solve under Zero would, at a multiple."""
    off_period = 0
    for seed, mode in itertools.product(range(2), MODES):
        prob, _, _ = pooled_ridge(seed)
        problem = split_regression(prob, nodes, ridge=RIDGE_TOTAL / nodes)
        config = SolverConfig(eps_tol=1e-12, max_iter=200)
        first = first_certified_round(problem, mode, config)
        res = solve_consensus(problem, np.zeros(20), mode, config)
        assert (res.status, res.stopped_by, res.iterations) == (CONVERGED, "gap", first)
        off_period += first % _GAP_EVERY != 0
    assert (off_period > 0) == (nodes > 1)


@pytest.mark.parametrize("method", ["vmpg-dbb", "pg-bb", "pg-fixed"])
def test_zero_solves_stop_at_the_first_certified_eighth_iteration(method):
    """A Zero certificate keeps the period _GAP_EVERY: a solve ends at the
    first multiple of it whose gap is within rounding."""
    for seed in range(3):
        prob, _, _ = pooled_ridge(seed)
        f = LeastSquaresObjective(prob.A, prob.b, ridge=RIDGE_TOTAL)
        config = SolverConfig(method=method, eps_tol=1e-12, max_iter=500)
        first = first_certified_record(f, Zero(), np.zeros(20),
                                       lambda state: vmpg_step(f, Zero(), state, config),
                                       1, f.strong_convexity, config)
        res = solve(f, Zero(), np.zeros(20), config)
        assert (res.status, res.stopped_by, res.iterations) == (CONVERGED, "gap", first)


@pytest.mark.parametrize("method", ["vmpg-dbb", "pg-bb", "pg-fixed"])
def test_zero_on_a_ridge_least_squares_ends_by_the_certificate(method):
    for seed in range(3):
        prob, x_star, value = pooled_ridge(seed)
        f = LeastSquaresObjective(prob.A, prob.b, ridge=RIDGE_TOTAL)
        res = solve(f, Zero(), np.zeros(20), SolverConfig(method=method, eps_tol=1e-12))
        assert (res.status, res.stopped_by) == (CONVERGED, "gap")
        gap, rounding = certificate_at(f, Zero(), res.x)
        assert gap <= rounding
        check_bound(gap, rounding, value(res.x) - value(x_star))


@pytest.mark.parametrize("method", ["vmpg-dbb", "pg-bb"])
def test_zero_on_a_qp_ends_by_the_certificate(method):
    """m = 1 by construction; np.linalg.solve gives F*."""
    for seed in range(3):
        f = smooth_part(generate_qp(30, 100.0, seed))
        f_star = f.optimal_value
        rng = np.random.default_rng(seed)
        for scale in (1e-6, 1e-2, 1.0):
            x = f.minimizer + scale * rng.standard_normal(30)
            check_bound(*certificate_at(f, Zero(), x), f.value(x) - f_star)
        res = solve(f, Zero(), np.zeros(30), SolverConfig(method=method, eps_tol=1e-12))
        assert (res.status, res.stopped_by) == (CONVERGED, "gap")
        gap, rounding = certificate_at(f, Zero(), res.x)
        assert gap <= rounding
        check_bound(gap, rounding, res.final_objective - f_star)


def test_a_single_node_split_stops_where_its_pooled_solve_stops():
    """solve_consensus on one node and solve under Zero on the pooled f form
    the same certificate from the same bits, so they end at the same round."""
    certified = 0
    for seed in range(5):
        prob, _, _ = pooled_ridge(seed)
        problem = split_regression(prob, 1, ridge=RIDGE_TOTAL)
        pooled = LeastSquaresObjective(prob.A, prob.b, ridge=RIDGE_TOTAL)
        for eps_tol in (1e-4, 1e-12):
            config = SolverConfig(eps_tol=eps_tol)
            got = solve_consensus(problem, np.zeros(20), "local-dbb", config)
            want = solve(pooled, Zero(), np.zeros(20), config)
            assert (got.status, got.stopped_by, got.iterations) == (
                want.status, want.stopped_by, want.iterations)
            assert got.z.tobytes() == want.x.tobytes()
            certified += got.stopped_by == "gap"
    assert certified >= 5


# --- logistic nodes: a polished L-BFGS-B optimum gives F* --------------------


def logistic_optimum(prob, ridge_total):
    """z* of (1/N) sum_i log(1 + exp(-b_i a_i'z)) + ridge_total ||z||^2 by
    L-BFGS-B, polished by five Newton steps."""
    A, b = prob.A, prob.b
    N, n = A.shape

    def fun(z):
        t = b * (A @ z)
        grad = A.T @ (-b * expit(-t)) / N + 2.0 * ridge_total * z
        return float(np.sum(np.logaddexp(0.0, -t))) / N + ridge_total * float(z @ z), grad

    z = minimize(fun, np.zeros(n), jac=True, method="L-BFGS-B",
                 options=dict(maxiter=10_000, ftol=1e-15, gtol=1e-12)).x
    for _ in range(5):
        p = expit(b * (A @ z))
        hess = (A.T * (p * (1.0 - p))) @ A / N + 2.0 * ridge_total * np.eye(n)
        z = z - np.linalg.solve(hess, fun(z)[1])
    assert np.linalg.norm(fun(z)[1]) <= 1e-13
    return z


@pytest.mark.parametrize("nodes", [1, 3, 7])
def test_logistic_nodes_are_certified_against_a_polished_optimum(nodes):
    prob = generate_regression(n_samples=140, dim=6, loss="logistic", seed=3)
    ridge_total = 5e-3
    problem = split_regression(prob, nodes, ridge=ridge_total / nodes)
    f, g = problem.stacked(), Consensus(nodes)
    z_star = logistic_optimum(prob, ridge_total)
    f_star = f.value(np.tile(z_star, nodes))
    rng = np.random.default_rng(4)
    for scale in (1e-6, 1e-3, 1e-1, 1.0):
        x = np.tile(z_star + scale * rng.standard_normal(6), nodes)
        check_bound(*certificate_at(f, g, x), f.value(x) - f_star)
    for mode in MODES:
        res = solve_consensus(problem, np.zeros(6), mode, SolverConfig(eps_tol=1e-14))
        assert (res.status, res.stopped_by) == (CONVERGED, "gap")
        gap, rounding = certificate_at(f, g, np.tile(res.z, nodes))
        assert gap <= rounding
        check_bound(gap, rounding, res.final_objective - f_star)


# --- no modulus, no certificate ----------------------------------------------


def without_certificates(monkeypatch):
    """Make every solve and solve_consensus run without a certificate, as
    they ran before Zero and Consensus had one."""
    for module in (vmpg.solver, vmpg.consensus):
        monkeypatch.setattr(module, "_duality_gap", lambda f, g: None)


@pytest.mark.parametrize("nodes", NODES)
def test_a_split_without_ridge_runs_as_without_a_certificate(nodes, monkeypatch):
    prob, _, _ = pooled_ridge(5)
    config = SolverConfig(eps_tol=1e-8, max_iter=120)
    runs = {}
    for ridge, patched in itertools.product((0.0, 1e-3), (False, True)):
        with monkeypatch.context() as patch:
            if patched:
                without_certificates(patch)
            problem = split_regression(prob, nodes, ridge)
            runs[ridge, patched] = [digest(solve_consensus(problem, np.zeros(20), mode, config))
                                    for mode in MODES]
    assert runs[0.0, False] == runs[0.0, True]
    assert runs[1e-3, False] != runs[1e-3, True]  # the patch does take effect


@pytest.mark.parametrize("method", ["vmpg-dbb", "pg-bb", "pg-fixed"])
def test_zero_without_a_modulus_runs_as_without_a_certificate(method, monkeypatch):
    prob = generate_regression(n_samples=400, dim=20, loss="ls", seed=6)
    f = LeastSquaresObjective(prob.A, prob.b)
    assert f.strong_convexity is None
    assert _duality_gap(f, Zero()) is None
    config = SolverConfig(method=method, eps_tol=1e-10, max_iter=300)
    got = digest(solve(f, Zero(), np.zeros(20), config))
    without_certificates(monkeypatch)
    assert got == digest(solve(f, Zero(), np.zeros(20), config))


def test_the_certificate_needs_a_modulus_on_every_node():
    prob = generate_regression(n_samples=90, dim=5, loss="ls", seed=7)
    problem = split_regression(prob, 3, ridge=1e-2)
    assert _duality_gap(problem.stacked(), Consensus(3)) is not None
    assert _duality_gap(problem.stacked(), Consensus(2)) is None  # blocks != nodes
    assert _duality_gap(problem.stacked(), Zero()) is None  # the stack has no modulus
    nodes = list(problem.objectives)
    nodes[1] = LeastSquaresObjective(nodes[1].A, nodes[1].b, scale=nodes[1].scale)
    assert _duality_gap(ConsensusProblem(nodes, 5).stacked(), Consensus(3)) is None
    qp = smooth_part(generate_qp(8, 10.0, 0))
    qp.strong_convexity = 0.0
    assert _duality_gap(qp, Zero()) is None


# --- the kept start image ------------------------------------------------------


def count_image_calls(monkeypatch):
    """Count _StackedLeastSquares._image_of calls; returns the counter list."""
    calls = []
    image_of = _StackedLeastSquares._image_of

    def counting(self, x):
        calls.append(1)
        return image_of(self, x)

    monkeypatch.setattr(_StackedLeastSquares, "_image_of", counting)
    return calls


def passes_without_a_kept_image(result):
    """One pass at x0 and one per candidate: every accepted step and backtrack."""
    return 1 + result.iterations + sum(r.backtracks for r in result.trace)


@pytest.mark.parametrize("ridge", [1e-2, 0.0])
def test_later_solves_from_the_start_skip_one_pass(ridge, monkeypatch):
    prob, _, _ = pooled_ridge(8)
    problem = split_regression(prob, 4, ridge)
    config = SolverConfig(max_iter=40)
    calls = count_image_calls(monkeypatch)
    starts = [np.zeros(20), np.zeros(20), np.full(20, 0.1), np.zeros(20)]
    for k, x0 in enumerate(starts):
        for j, mode in enumerate(MODES):
            calls.clear()
            res = solve_consensus(problem, x0, mode, config)
            first = k == j == 0
            hit = not first and x0[0] == 0.0  # the kept image is the first start's
            assert len(calls) == passes_without_a_kept_image(res) - hit, (k, mode)


def test_a_kept_image_gives_the_bits_of_a_fresh_stack():
    prob, _, _ = pooled_ridge(9)
    shared = split_regression(prob, 20, 1e-3)
    for x0 in (np.zeros(20), np.full(20, 0.1), np.zeros(20)):
        for mode in MODES:
            config = SolverConfig(eps_tol=1e-8, max_iter=60)
            fresh = split_regression(prob, 20, 1e-3)
            assert digest(solve_consensus(shared, x0, mode, config)) == digest(
                solve_consensus(fresh, x0, mode, config))


def test_the_kept_image_is_a_copy_of_what_the_pass_returned(monkeypatch):
    """A pass that returns its own arrays and leaves the stack's buffers
    alone (as a reference pass may) keeps the same start image."""
    def allocating_image_of(self, x):
        squares, grads = image_of(self, x)
        out = squares.copy(), grads.copy()
        self._squares.fill(np.nan)
        self._grads.fill(np.nan)
        return out

    image_of = _StackedLeastSquares._image_of
    prob, _, _ = pooled_ridge(10)
    config = SolverConfig(eps_tol=1e-8, max_iter=60)
    want = [digest(solve_consensus(split_regression(prob, 4, 1e-3), np.zeros(20), mode,
                                   config)) for mode in MODES]
    monkeypatch.setattr(_StackedLeastSquares, "_image_of", allocating_image_of)
    problem = split_regression(prob, 4, 1e-3)
    assert [digest(solve_consensus(problem, np.zeros(20), mode, config))
            for mode in MODES] == want

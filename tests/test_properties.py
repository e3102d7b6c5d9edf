"""Property tests: monotone descent of the line-searched iteration, and firm
nonexpansiveness of the scaled proximal maps.

Under ``line_search="monotone"`` every accepted step of ``solve`` and
``solve_consensus`` passes F(x+) <= F(x) - (1/2) ||x+ - x||_U^2 against the
previous accepted objective, and the trace records both sides, so descent is
checked exactly.  A prox under a positive diagonal metric U is firmly
nonexpansive in the U-norm:

    ||P(a) - P(b)||_U^2 <= <P(a) - P(b), a - b>_U.

Each prox is checked under the metric it requires: GroupLasso under U
scalar on each group, Consensus over equal blocks, and Simplex up to the
rounding of its pivot.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vmpg.consensus import MODES, solve_consensus, split_regression
from vmpg.core import DiagonalMetric
from vmpg.problems import generate_qp, generate_regression, smooth_part
from vmpg.prox import Consensus, ElasticNet, GroupLasso, Lasso, Nonnegative, Simplex, Zero
from vmpg.solver import SolverConfig, composite_value, solve

SOLVES = settings(max_examples=25, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
PROXES = settings(max_examples=100, deadline=None)

positive = st.floats(1e-3, 1e3)

regularizers = st.one_of(
    st.just(Zero()),
    st.just(Nonnegative()),
    st.builds(Lasso, positive),
    st.builds(ElasticNet, positive, positive),
)


def assert_monotone_descent(trace, f_start):
    previous = f_start
    for record in trace:
        assert record.objective <= previous - 0.5 * record.step_norm_u**2
        previous = record.objective


class TestMonotoneDescent:
    @SOLVES
    @given(g=regularizers, method=st.sampled_from(["vmpg-dbb", "pg-bb", "pg-fixed"]),
           kind=st.sampled_from(["qp", "ls", "logistic"]), seed=st.integers(0, 10**6),
           kappa=st.sampled_from([10.0, 1e3, 1e5]))
    def test_solve(self, g, method, kind, seed, kappa):
        if kind == "qp":
            f, dim = smooth_part(generate_qp(12, kappa, seed)), 12
        else:
            f, dim = smooth_part(generate_regression(40, 12, kind, seed)), 12
        x0 = np.random.default_rng(seed).uniform(0.0, 1.0, dim)
        config = SolverConfig(method=method, line_search="monotone", max_iter=150,
                              fixed_stepsize=1.0)  # pg-fixed backtracks from 1
        res = solve(f, g, x0, config)
        assert res.trace
        assert_monotone_descent(res.trace, composite_value(f, g, x0))

    @SOLVES
    @given(mode=st.sampled_from(MODES), loss=st.sampled_from(["ls", "logistic"]),
           nodes=st.integers(1, 6), seed=st.integers(0, 10**6),
           mu=st.sampled_from([1e-6, 1.0]))
    def test_solve_consensus(self, mode, loss, nodes, seed, mu):
        problem = split_regression(generate_regression(60, 5, loss, seed), nodes, 1e-2)
        config = SolverConfig(mu=mu, line_search="monotone", max_iter=100)
        res = solve_consensus(problem, np.zeros(5), mode, config)
        assert res.trace
        f_start = problem.stacked().value(np.zeros(5 * nodes))
        assert_monotone_descent(res.trace, f_start)


weights = st.floats(1e-4, 1e4)


def draw_points(data, n):
    points = arrays(np.float64, n, elements=st.floats(-1e4, 1e4))
    return data.draw(points), data.draw(points)


def firm_gap(g, u, a, b):
    """(<dp, a - b>_U - ||dp||_U^2, dp) for dp = P(a) - P(b) under diag(u)."""
    metric = DiagonalMetric(u)
    dp = g.prox(a, metric) - g.prox(b, metric)
    return float(np.sum(u * dp * (a - b))) - float(np.sum(u * dp * dp)), dp


def rounding_slack(u, dp, a, b):
    """Rounding of a prox computed coordinate by coordinate, and of the sums."""
    return 1e-12 * float(np.sum(u * np.abs(dp) * (np.abs(a) + np.abs(b) + 1.0)))


def simplex_error(v):
    """Bound on ||P(v) - P*(v)||_1 for the computed and exact projections.

    Every output coordinate is nonincreasing in the pivot, so this error is
    the exact |sum P(v) - 1|: at most the rounding of the pivot and of
    v - nu / u, about (n + 2) eps (sum |v| + 1) each.
    """
    eps = np.finfo(float).eps
    return 2.0 * (len(v) + 2) * eps * (float(np.sum(np.abs(v))) + 1.0)


class TestFirmNonexpansiveness:
    @PROXES
    @given(data=st.data(), g=regularizers, n=st.integers(1, 12))
    def test_in_the_metric_norm(self, data, g, n):
        u = data.draw(arrays(np.float64, n, elements=weights))
        a, b = draw_points(data, n)
        gap, dp = firm_gap(g, u, a, b)
        # each coordinate's exact term dp * (a - b - dp) is >= 0
        assert gap >= -rounding_slack(u, dp, a, b)

    @PROXES
    @given(data=st.data(), lam=positive,
           sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4))
    def test_group_lasso_under_a_block_scalar_metric(self, data, lam, sizes):
        ends = np.cumsum(sizes)
        g = GroupLasso(lam, zip(ends - sizes, ends))
        u = np.repeat(data.draw(arrays(np.float64, len(sizes), elements=weights)), sizes)
        a, b = draw_points(data, int(ends[-1]))
        gap, dp = firm_gap(g, u, a, b)
        # each group's exact term <dp_j, a_j - b_j - dp_j> is >= 0; the prox
        # scales each group by one rounded factor, so the rounding is as above
        assert gap >= -rounding_slack(u, dp, a, b)

    @PROXES
    @given(data=st.data(), blocks=st.integers(1, 4), n=st.integers(1, 4))
    def test_consensus_over_equal_blocks(self, data, blocks, n):
        g = Consensus(blocks)
        u = data.draw(arrays(np.float64, blocks * n, elements=weights))
        a, b = draw_points(data, blocks * n)
        gap, dp = firm_gap(g, u, a, b)
        # the prox is the U-orthogonal projection onto the consensus subspace,
        # so the exact gap is 0 and only rounding decides its sign; each output
        # is a weighted average, whose rounding scales with the same average
        # of |a| and |b|
        metric = DiagonalMetric(u)
        mean_abs = g.prox(np.abs(a), metric) + g.prox(np.abs(b), metric)
        assert gap >= -rounding_slack(u, dp, a, b) - 1e-12 * float(
            np.sum(u * np.abs(dp) * mean_abs)
        )

    @PROXES
    @given(data=st.data(), n=st.integers(1, 12))
    def test_simplex_within_its_bisection_tolerance(self, data, n):
        g = Simplex()
        u = data.draw(arrays(np.float64, n, elements=weights))
        a, b = draw_points(data, n)
        gap, dp = firm_gap(g, u, a, b)
        # errors e = P(a) - P*(a) of the computed outputs move the exact gap
        # by at most sum u |e| (2 |dp| + |a - b| + |e|)
        err = simplex_error(a) + simplex_error(b)
        pivot = err * float(np.max(u * (2.0 * np.abs(dp) + np.abs(a - b) + err)))
        assert gap >= -rounding_slack(u, dp, a, b) - pivot

"""Property tests: monotone descent of the line-searched iteration, and firm
nonexpansiveness of the scaled proximal maps.

Under ``line_search="monotone"`` every accepted step of ``solve`` and
``solve_consensus`` passes F(x+) <= F(x) - (1/2) ||x+ - x||_U^2 against the
previous accepted objective, and the trace records both sides, so descent is
checked exactly.  A prox under a positive diagonal metric U is firmly
nonexpansive in the U-norm:

    ||P(a) - P(b)||_U^2 <= <P(a) - P(b), a - b>_U.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vmpg.consensus import MODES, solve_consensus, split_regression
from vmpg.core import DiagonalMetric
from vmpg.problems import generate_qp, generate_regression, smooth_part
from vmpg.prox import ElasticNet, Lasso, Nonnegative, Zero
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


class TestFirmNonexpansiveness:
    @PROXES
    @given(data=st.data(), g=regularizers, n=st.integers(1, 12))
    def test_in_the_metric_norm(self, data, g, n):
        u = data.draw(arrays(np.float64, n, elements=st.floats(1e-4, 1e4)))
        points = arrays(np.float64, n, elements=st.floats(-1e4, 1e4))
        a, b = data.draw(points), data.draw(points)
        metric = DiagonalMetric(u)
        dp = g.prox(a, metric) - g.prox(b, metric)
        lhs = float(np.sum(u * dp * dp))
        rhs = float(np.sum(u * dp * (a - b)))
        # each coordinate's exact term dp * (a - b - dp) is >= 0; the slack
        # covers the rounding of the prox and of the two sums
        slack = 1e-12 * float(np.sum(u * np.abs(dp) * (np.abs(a) + np.abs(b) + 1.0)))
        assert lhs <= rhs + slack

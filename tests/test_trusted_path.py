"""The solver loop's trusted path: metrics and step pairs built without O(n)
validation, O(1) guards, and the numerical-failure status.

The references below are the validating constructors and the BB formulas
written with the public ``bb1``/``bb2`` on validated ``StepPair`` objects;
the loop's results must equal them bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import vmpg.consensus
from vmpg.consensus import MODES, solve_consensus, split_regression
from vmpg.core import METRIC_FLOOR, DiagonalMetric, NumericalError, SmoothObjective
from vmpg.problems import generate_qp, generate_regression, smooth_part
from vmpg.prox import Consensus, Lasso, Nonnegative, Zero
from vmpg.solver import (
    LINE_SEARCH_FAILURE,
    NUMERICAL_FAILURE,
    SolverConfig,
    line_search,
    solve,
)
from vmpg.stepsize import (
    BBConfig,
    StepPair,
    StepsizeState,
    bb1,
    bb2,
    diagonal_bb,
    hybrid_bb,
)

from digests import bits

# The properties reach the extremes BBConfig accepts, where numpy warns about
# overflow that the rules and guards then handle.
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
SOLVES = settings(max_examples=30, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


def reference_hybrid_bb(pair, config, prev_alpha):
    a1 = bb1(pair)
    a2 = bb2(pair)
    if a1 is None or a2 is None:
        alpha = prev_alpha
    elif a1 < config.delta * a2:
        alpha = a2
    else:
        alpha = a1 - a2 / config.delta
    if alpha <= 0.0:
        alpha = prev_alpha
    return float(min(max(alpha, config.alpha_min), config.alpha_max))


def reference_diagonal_bb(pair, config, u_prev):
    a1 = bb1(pair)
    a2 = bb2(pair)
    if a1 is None or a2 is None:
        lo, hi = 1.0 / config.alpha_max, 1.0 / config.alpha_min
    else:
        a1 = min(max(a1, config.alpha_min), config.alpha_max)
        a2 = min(max(a2, config.alpha_min), config.alpha_max)
        lo, hi = 1.0 / a1, 1.0 / a2
        if lo > hi:
            lo, hi = hi, lo
    candidates = (pair.s * pair.y + config.mu * u_prev) / (pair.s**2 + config.mu)
    return DiagonalMetric(np.clip(candidates, lo, hi))


# --- strategies ----------------------------------------------------------------

moderate = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def step_pairs(draw, n=None):
    """Finite (s, y) pairs, including the degenerate cases the rules branch on."""
    n = n or draw(st.integers(1, 8))
    s = draw(arrays(np.float64, n, elements=moderate))
    y = draw(arrays(np.float64, n, elements=moderate))
    case = draw(st.sampled_from(
        ["random", "s_zero", "y_zero", "negative_curvature", "secant", "sy_nonpositive"]
    ))
    if case == "s_zero":
        s = np.zeros(n)
    elif case == "y_zero":
        y = np.zeros(n)
    elif case == "negative_curvature":
        y = -draw(st.floats(0.0, 1e3)) * s
    elif case == "secant":  # y = D s with D > 0, as on a separable quadratic
        y = draw(arrays(np.float64, n, elements=st.floats(1e-6, 1e6))) * s
    elif case == "sy_nonpositive":
        assume(float(np.dot(s, y)) <= 0.0)
    return s, y


@st.composite
def bb_configs(draw):
    """BB settings up to the extremes BBConfig accepts."""
    alpha_min = draw(st.floats(1e-307, 1.0))
    alpha_max = draw(st.floats(1.0, 1e299))
    assume(alpha_min < alpha_max)
    mu = draw(st.floats(1e-12, 1e12))
    delta = draw(st.floats(1.0, 1e3, exclude_min=True))
    return BBConfig(delta=delta, mu=mu, alpha_min=alpha_min, alpha_max=alpha_max)


def valid_diagonals(n):
    return arrays(np.float64, n, elements=st.floats(METRIC_FLOOR, 1e300))


# --- the loop-built metric equals the validated one -------------------------------


class TestTrustedRules:
    @PROPERTY
    @given(data=st.data(), config=bb_configs())
    def test_diagonal_bb_equals_the_validated_reference(self, data, config):
        s, y = data.draw(step_pairs())
        u_prev = data.draw(valid_diagonals(len(s)))
        state = StepsizeState(prev_metric=DiagonalMetric(u_prev))
        loop = diagonal_bb(StepPair._trusted(s, y), config, state)
        ref = reference_diagonal_bb(StepPair(s, y), config, u_prev)
        assert bits(loop.diag) == bits(ref.diag)
        assert (loop.u_min, loop.u_max) == (ref.u_min, ref.u_max)
        assert 1.0 / config.alpha_max <= loop.u_min <= loop.u_max <= 1.0 / config.alpha_min

    @PROPERTY
    @given(data=st.data(), config=bb_configs(), prev_alpha=st.floats(1e-3, 1e3))
    def test_hybrid_bb_and_its_metric_equal_the_validated_reference(
        self, data, config, prev_alpha
    ):
        s, y = data.draw(step_pairs())
        state = StepsizeState(prev_alpha=prev_alpha)
        alpha = hybrid_bb(StepPair._trusted(s, y), config, state)
        ref = reference_hybrid_bb(StepPair(s, y), config, prev_alpha)
        assert bits(alpha) == bits(ref)
        loop = DiagonalMetric._trusted_uniform(len(s), 1.0 / alpha)
        public = DiagonalMetric.uniform(len(s), 1.0 / alpha)
        assert bits(loop.diag) == bits(public.diag)
        assert (loop.u_min, loop.u_max) == (public.u_min, public.u_max)

    @PROPERTY
    @given(data=st.data(), config=bb_configs(), m=st.integers(1, 4),
           diagonal=st.booleans())
    def test_node_rules_equal_the_validated_reference_row_by_row(
        self, data, config, m, diagonal
    ):
        n = data.draw(st.integers(1, 5))
        rows = [data.draw(step_pairs(n)) for _ in range(m)]
        u_prev = data.draw(valid_diagonals(m * n))
        state = StepsizeState(prev_alpha=0.5, prev_metric=DiagonalMetric(u_prev))
        # an (m, n) pair is m node blocks, fitted row by row
        pair = StepPair._trusted(np.array([s for s, _ in rows]),
                                 np.array([y for _, y in rows]))
        if diagonal:
            metric = diagonal_bb(pair, config, state)
            assert metric.u_min == metric.diag.min()
            assert metric.u_max == metric.diag.max()
        else:
            alphas = hybrid_bb(pair, config, state)
            assert alphas.shape == (m,)
        for j, (s, y) in enumerate(rows):
            block = slice(j * n, (j + 1) * n)
            if diagonal:
                ref = reference_diagonal_bb(StepPair(s, y), config, u_prev[block])
                assert bits(metric.diag[block]) == bits(ref.diag)
            else:
                ref = reference_hybrid_bb(StepPair(s, y), config, 0.5)
                assert bits(alphas[j]) == bits(ref)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["s", "y"])
    def test_a_non_finite_pair_raises_numerical_error(self, bad, where):
        s, y = np.array([1.0, 2.0]), np.array([0.5, 1.0])
        (s if where == "s" else y)[1] = bad
        pair = StepPair._trusted(s, y)
        state = StepsizeState.initial(2)
        with pytest.raises(NumericalError):
            diagonal_bb(pair, BBConfig(), state)
        with pytest.raises(NumericalError):
            hybrid_bb(pair, BBConfig(), state)

    def test_overflowing_products_of_a_finite_pair_fall_back_to_the_full_check(self):
        """A finite pair whose inner products overflow is not a NaN pair."""
        state = StepsizeState.initial(2)
        s, y = np.array([1e200, 1.0]), np.array([1e-200, 1.0])  # ||s||^2 = inf
        alpha = hybrid_bb(StepPair._trusted(s, y), BBConfig(), state)
        assert alpha == reference_hybrid_bb(StepPair(s, y), BBConfig(), 1.0) == 1e10
        s, y = np.array([1e200, 1.0]), np.array([1e200, 1.0])  # inf / inf
        alpha = hybrid_bb(StepPair._trusted(s, y), BBConfig(), state)
        assert bits(alpha) == bits(reference_hybrid_bb(StepPair(s, y), BBConfig(), 1.0))
        with pytest.raises(NumericalError):  # the metric guard catches the NaN
            DiagonalMetric._trusted_uniform(2, 1.0 / alpha)


class TestBoundaryValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(alpha_max=1e301),        # 1/alpha_max below METRIC_FLOOR
        dict(alpha_max=math.inf),
        dict(alpha_min=1e-309),       # 1/alpha_min overflows
        dict(mu=math.inf),
        dict(mu=math.nan),
        dict(delta=math.nan),
    ])
    def test_bb_config_rejects_settings_the_rules_cannot_honour(self, kwargs):
        with pytest.raises(ValueError):
            BBConfig(**kwargs)

    def test_solve_rejects_bad_alpha_bounds_before_the_first_step(self):
        f = smooth_part(generate_qp(5, 10.0, 0))
        calls = []
        f.gradient = lambda x, _g=f.gradient: calls.append(1) or _g(x)
        with pytest.raises(ValueError):
            solve(f, Zero(), np.zeros(5), SolverConfig(alpha_max=1e301))
        assert calls == []

    def test_solve_and_solve_consensus_reject_a_non_finite_start(self):
        f = smooth_part(generate_qp(3, 10.0, 0))
        with pytest.raises(ValueError):
            solve(f, Zero(), np.array([0.0, np.nan, 0.0]))
        problem = split_regression(generate_regression(30, 3, "ls", 0), 2, 1e-2)
        with pytest.raises(ValueError):
            solve_consensus(problem, np.array([0.0, np.inf, 0.0]))

    def test_trusted_constructors_raise_numerical_error(self):
        with pytest.raises(NumericalError):
            DiagonalMetric._trusted(np.array([1.0, np.nan]))
        with pytest.raises(NumericalError):
            DiagonalMetric._trusted_uniform(3, math.inf)
        with pytest.raises(NumericalError):
            DiagonalMetric(np.array([1e300]))._scaled(1e10)

    def test_an_empty_metric_is_rejected(self):
        with pytest.raises(ValueError):
            DiagonalMetric(np.zeros(0))


# --- beta-scaling ------------------------------------------------------------------


class _Cliff(SmoothObjective):
    """f = 0 at the origin and +inf elsewhere: every step away is rejected."""

    def __init__(self, grad):
        self.grad = np.array([grad])

    @property
    def dim(self):
        return 1

    def value(self, x):
        return math.inf if x.any() else 0.0

    def gradient(self, x):
        return self.grad


class TestBetaScaling:
    @PROPERTY
    @given(data=st.data(), beta=st.floats(1.0, 1e10, exclude_min=True),
           steps=st.integers(0, 60))
    def test_scaling_stays_exact_and_finite_or_raises(self, data, beta, steps):
        diag = data.draw(valid_diagonals(data.draw(st.integers(1, 6))))
        metric, ref = DiagonalMetric(diag), diag
        for _ in range(steps):
            ref = ref * beta
            if not np.isfinite(ref).all():
                with pytest.raises(NumericalError):
                    metric._scaled(beta)
                return
            metric = metric._scaled(beta)
            assert bits(metric.diag) == bits(ref)
            assert (metric.u_min, metric.u_max) == (ref.min(), ref.max())
            DiagonalMetric(metric.diag)  # the validating constructor agrees

    @PROPERTY
    @given(beta=st.floats(1.0, 1e10, exclude_min=True), max_backtracks=st.integers(0, 80),
           log_grad=st.integers(-14, 150),  # g / u never rounds to 0; g**2 is finite
           mode=st.sampled_from(["nonmonotone", "monotone"]))
    def test_a_rejected_step_backtracks_to_a_status(self, beta, max_backtracks, log_grad,
                                                    mode):
        """+inf candidates are rejected until max_backtracks or metric overflow."""
        f = _Cliff(10.0**log_grad)
        config = SolverConfig(beta=beta, max_backtracks=max_backtracks, line_search=mode)
        u = 1.0 / min(1.0, 1.0 / abs(float(f.grad[0])))  # the warm-up metric
        overflows = False
        for _ in range(max_backtracks):
            u *= beta
            overflows = overflows or not math.isfinite(u)
        res = solve(f, Zero(), np.zeros(1), config)
        assert res.status == (NUMERICAL_FAILURE if overflows else LINE_SEARCH_FAILURE)
        assert res.iterations == 0 and res.x.tobytes() == np.zeros(1).tobytes()

    @pytest.mark.parametrize("beta", [2.0, 1e200])
    def test_fista_backtracking_ends_in_a_status(self, beta):
        """1/alpha overflows, or alpha / beta underflows to 0: both end in the status."""
        config = SolverConfig(method="fista", fixed_stepsize=1.0, beta=beta,
                              max_backtracks=5000)
        res = solve(_Cliff(1.0), Zero(), np.zeros(1), config)
        assert res.status == NUMERICAL_FAILURE and res.iterations == 0

    def test_line_search_raises_on_overflow_of_the_rescaled_metric(self):
        f = _Cliff(1.0)
        with pytest.raises(NumericalError):
            line_search(f, Zero(), np.zeros(1), f.gradient(None),
                        DiagonalMetric(np.array([1e300])), 0.0,
                        SolverConfig(beta=1e5, max_backtracks=60))


# --- NaN injection -----------------------------------------------------------------


class _Injector:
    """Counts calls of the wrapped functions; from call `start` on they return NaN."""

    def __init__(self, start=None):
        self.start = start
        self.calls = 0

    def wrap(self, fn):
        def call(*args):
            out = fn(*args)
            self.calls += 1
            if self.start is not None and self.calls > self.start:
                return out * np.nan
            return out
        return call


def _qp_solve(method, line_search_mode, target, start):
    f = smooth_part(generate_qp(8, 100.0, 3))
    g = Nonnegative()
    inj = _Injector(start)
    if target == "prox":
        g.prox = inj.wrap(g.prox)
    else:
        setattr(f, target, inj.wrap(getattr(f, target)))
    config = SolverConfig(method=method, line_search=line_search_mode, eps_tol=1e-10,
                          max_iter=200)
    return solve(f, g, np.zeros(8), config), inj.calls


def _consensus_solve(mode, line_search_mode, target, start, node):
    problem = split_regression(generate_regression(60, 6, "ls", 1), 3, 1e-2)
    inj = _Injector(start)
    config = SolverConfig(mu=1.0, line_search=line_search_mode, eps_tol=1e-10, max_iter=200)
    if target == "prox":
        prox = inj.wrap(lambda self, v, metric: Consensus.prox(self, v, metric))
        patched = type("InjectedConsensus", (Consensus,), {"prox": prox})
        original = vmpg.consensus.Consensus
        vmpg.consensus.Consensus = patched
        try:
            return solve_consensus(problem, np.zeros(6), mode, config), inj.calls
        finally:
            vmpg.consensus.Consensus = original
    f = problem.objectives[node]
    setattr(f, target, inj.wrap(getattr(f, target)))
    return solve_consensus(problem, np.zeros(6), mode, config), inj.calls


def _point(result):
    return result.z if hasattr(result, "z") else result.x


def _check_injected(clean, clean_calls, run, calls, start, last_call_unused):
    """The injected run fails with the status, or never used the NaN."""
    x = _point(run)
    assert calls - start <= 2  # no futile backtracks on NaN
    assert len(run.trace) == run.iterations
    assert np.isfinite(x).all()
    assert not any(math.isnan(r.objective) for r in run.trace)
    if start < clean_calls - (1 if last_call_unused else 0):
        assert run.status == NUMERICAL_FAILURE
        assert run.iterations <= clean.iterations
    else:
        assert run.status == clean.status and bits(x) == bits(_point(clean))


def _last_gradient_unused(clean, target, method):
    """Whether the clean run computed its last gradient and never used it.

    The VM-PG methods and consensus rounds evaluate the gradient at each
    accepted iterate, so a run that stops by its rule or at max_iter leaves
    the last one unused; when it ends in a line-search failure, that gradient
    fed the failing step, and when its certificate ended it, the gradient
    formed the certificate.  FISTA evaluates the gradient where it steps from.
    """
    return (target == "gradient" and method != "fista"
            and clean.status != LINE_SEARCH_FAILURE and clean.stopped_by != "gap")


class TestNaNEndsInAStatus:
    @SOLVES
    @given(method=st.sampled_from(["vmpg-dbb", "pg-bb", "fista"]),
           mode=st.sampled_from(["nonmonotone", "monotone", "off"]),
           target=st.sampled_from(["value", "gradient", "prox"]),
           start=st.integers(0, 40))
    def test_solve(self, method, mode, target, start):
        clean, clean_calls = _qp_solve(method, mode, target, None)
        run, calls = _qp_solve(method, mode, target, start)
        last_unused = _last_gradient_unused(clean, target, method)
        _check_injected(clean, clean_calls, run, calls, start, last_unused)

    @SOLVES
    @given(mode=st.sampled_from(MODES),
           ls_mode=st.sampled_from(["nonmonotone", "monotone", "off"]),
           target=st.sampled_from(["value", "gradient", "prox"]),
           start=st.integers(0, 30), node=st.integers(0, 2))
    # the clean run fails its line search in round 27, from the gradient at x^27
    @example(mode="local-dbb", ls_mode="monotone", target="gradient", start=27, node=0)
    def test_solve_consensus(self, mode, ls_mode, target, start, node):
        clean, clean_calls = _consensus_solve(mode, ls_mode, target, None, node)
        run, calls = _consensus_solve(mode, ls_mode, target, start, node)
        last_unused = _last_gradient_unused(clean, target, "vmpg-dbb")
        _check_injected(clean, clean_calls, run, calls, start, last_unused)

    @pytest.mark.parametrize("method", ["vmpg-dbb", "pg-bb", "fista"])
    @pytest.mark.parametrize("target", ["value", "gradient", "prox"])
    def test_every_method_and_target_reaches_the_status(self, method, target):
        run, _ = _qp_solve(method, "nonmonotone", target, 3)
        assert run.status == NUMERICAL_FAILURE

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("target", ["value", "gradient", "prox"])
    def test_every_consensus_mode_and_target_reaches_the_status(self, mode, target):
        run, _ = _consensus_solve(mode, "nonmonotone", target, 3, 1)
        assert run.status == NUMERICAL_FAILURE

    def test_lasso_on_least_squares_reaches_the_status(self):
        problem = generate_regression(40, 10, "ls", 0)
        f = smooth_part(problem)
        inj = _Injector(5)
        f.gradient = inj.wrap(f.gradient)
        res = solve(f, Lasso(problem.lam), np.zeros(10), SolverConfig())
        assert res.status == NUMERICAL_FAILURE
        # gradients at x0 and x1..x4 are finite, the one at x5 is NaN: the
        # warm-up and 4 steps are accepted, and x5 is returned
        assert res.iterations == 5
        assert inj.calls == 6

    def test_an_overflowing_gradient_norm_at_the_start_reaches_the_status(self):
        res = solve(_Cliff(1e160), Zero(), np.zeros(1))
        assert res.status == NUMERICAL_FAILURE and res.iterations == 0

"""FISTA on the shared driver against the standalone FISTA loop it replaced.

``reference_fista`` is that loop, kept here as written: its own clock, NaN
and line-search handling, result building and forward-step stop test.
Under ``forward-step`` the driver's FISTA must match it bit for bit and make
the same f.value / f.gradient / g.prox calls in the same order; under
``grad-map`` it must stop where FISTA's own gradient map first meets the
tolerance, which the standalone loop never tested.

On a large affine objective (a dsymv quadratic, or a least-squares or
logistic loss on at least 2**17 entries) the driver forms the image of the
extrapolated point by combination instead of a product.
``extrapolating_fista`` is the standalone loop with that one change, made
explicitly on a memo-free copy of the objective; the driver must match it
bit for bit, and its images must lie within a derived rounding bound of
the products they replace.
"""

import functools
import math
import time

import numpy as np
import pytest

from scipy.linalg.blas import dsymv
from scipy.special import expit

from vmpg.core import DiagonalMetric, NumericalError, as_vector
from vmpg.problems import (
    LeastSquaresObjective,
    LogisticObjective,
    QuadraticObjective,
    generate_qp,
    generate_regression,
    smooth_part,
)
from vmpg.prox import ElasticNet, Lasso, Nonnegative, Zero
from vmpg.solver import (
    CONVERGED,
    LINE_SEARCH_FAILURE,
    MAX_ITER,
    NUMERICAL_FAILURE,
    LineSearchError,
    SolveResult,
    SolverConfig,
    TraceRecord,
    composite_value,
    solve,
)

from digests import bits, digest, record_digest

# A stepsize of 0.5 without backtracking diverges on the QP; its iterates
# overflow before the NaN objective ends the run in numerical-failure.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _norm(v):
    return math.sqrt(float(np.dot(v, v)))


def _g_at_prox(g, x):
    return g.value(x) if g.prox_value is None else g.prox_value


def reference_fista(f, g, x0, stepsize=None, config=None, steps=None):
    """The standalone FISTA loop; appends (z^k, x^{k+1}, alpha) to steps."""
    config = config or SolverConfig(method="fista")
    x0 = as_vector(x0, dim=f.dim, name="x0")
    if stepsize is None:
        if f.smoothness is not None:
            alpha = 1.0 / f.smoothness
        elif config.line_search != "off":
            alpha = 1.0
        else:
            raise ValueError("fista needs a stepsize or an objective exposing L")
    else:
        alpha = float(stepsize)
    metric = DiagonalMetric.uniform(x0.shape[0], 1.0 / alpha)
    t0 = time.perf_counter()
    backtrack = config.line_search != "off"
    x_prev = x0
    z = x0
    t_momentum = 1.0
    w_prev = x0
    trace = []
    status = MAX_ITER
    final_x = x0
    try:
        while len(trace) < config.max_iter:
            grad_z = f.gradient(z)
            if backtrack:
                f_z = f.value(z)
                if math.isnan(f_z):
                    raise NumericalError("NaN objective at the extrapolated point")
            backtracks = 0
            while True:
                w = z - alpha * grad_z
                x = g.prox(w, metric)
                if not backtrack:
                    obj = f.value(x) + _g_at_prox(g, x)
                    break
                diff = x - z
                bound = f_z + float(np.dot(grad_z, diff)) + np.dot(diff, diff) / (2 * alpha)
                f_x = f.value(x)
                if math.isnan(f_x):
                    raise NumericalError("NaN objective at the candidate point")
                if f_x <= bound:
                    obj = f_x + _g_at_prox(g, x)
                    break
                if backtracks >= config.max_backtracks:
                    raise LineSearchError(
                        len(trace), backtracks, f_x, bound, metric.u_max
                    )
                alpha /= config.beta
                u = 1.0 / alpha if alpha > 0.0 else math.inf
                metric = DiagonalMetric._trusted_uniform(x0.shape[0], u)
                backtracks += 1
            if math.isnan(obj):
                raise NumericalError("NaN objective at the candidate point")
            if steps is not None:
                steps.append((z, x, alpha))
            grad_map = _norm(z - x) / math.sqrt(alpha)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_momentum**2))
            z = x + ((t_momentum - 1.0) / t_next) * (x - x_prev)
            trace.append(
                TraceRecord(
                    iter=len(trace),
                    objective=obj,
                    grad_map_norm=grad_map,
                    step_norm_u=_norm(x - x_prev) / math.sqrt(alpha),
                    backtracks=backtracks,
                    u_min=1.0 / alpha,
                    u_max=1.0 / alpha,
                    wall_ms=(time.perf_counter() - t0) * 1e3,
                )
            )
            final_x = x
            converged = _norm(w - w_prev) <= config.eps_tol
            x_prev = x
            t_momentum = t_next
            w_prev = w
            if converged:
                status = CONVERGED
                break
    except LineSearchError:
        status = LINE_SEARCH_FAILURE
    except NumericalError:
        status = NUMERICAL_FAILURE
    return SolveResult(
        x=final_x,
        status=status,
        trace=trace,
        iterations=len(trace),
        final_objective=trace[-1].objective if trace else composite_value(f, g, x0),
    )


class AffineParts:
    """A large affine objective taken apart, memo-free: its image r(x) (Q x,
    A x - b, or b * (A x)), f and grad f as functions of (x, r(x)) by the
    objective's own formulas, and |M| v and |c| for r(x) = M x + c."""

    def __init__(self, f):
        self._abs_matrix = None
        if hasattr(f, "Q"):
            Q, q, p = f.Q, f.q, f.p
            triangle = Q if Q.flags.f_contiguous else Q.T
            self.image = lambda x: dsymv(1.0, triangle, x)
            self.value = lambda x, r: 0.5 * float(x.dot(r)) + float(q.dot(x)) + p
            self.gradient = lambda x, r: r + q
            self.matrix, self.offset = Q, np.zeros(Q.shape[0])
            return
        A, b, s, ridge = f.A, f.b, f.scale, f.ridge
        self.matrix = A
        if isinstance(f, LogisticObjective):
            self.image = lambda x: b * (A @ x)
            self.value = lambda x, r: s * float(np.sum(np.logaddexp(0.0, -r))) + ridge * float(
                x @ x)
            self.gradient = lambda x, r: s * (A.T @ (-b * expit(-r))) + (2.0 * ridge) * x
            self.offset = np.zeros(A.shape[0])  # |b| = 1: b * (A x) rounds as A x does
        else:
            self.image = lambda x: A @ x - b
            self.value = lambda x, r: s * float(r @ r) + ridge * float(x @ x)
            self.gradient = lambda x, r: 2.0 * s * (A.T @ r) + (2.0 * ridge) * x
            self.offset = np.abs(b)

    def abs_apply(self, v):
        """|M| v."""
        if self._abs_matrix is None:
            self._abs_matrix = np.abs(self.matrix)
        return self._abs_matrix @ v

    def image_error(self, x):
        """Bound on |fl(r(x)) - r(x)|: gamma_k (|M| |x| + |c|), k = n for the
        product plus 1 for the offset (Higham, "Accuracy and Stability of
        Numerical Algorithms", 3.1 and 3.5; any summation order)."""
        return _gamma(self.matrix.shape[1] + 1) * (self.abs_apply(np.abs(x)) + self.offset)

    def extrapolation_error(self, x1, x0, beta, r1, r0):
        """Bound on |fl(r1 + beta (r1 - r0)) - fl(r(z))| for the computed
        r1 = fl(r(x1)), r0 = fl(r(x0)) and z = fl(x1 + beta (x1 - x0)).

        r is affine, so r(x1 + beta (x1 - x0)) = r(x1) + beta (r(x1) - r(x0))
        exactly, and the two computed images differ only by rounding:
        the combination's own, gamma_3 (|r1| + beta |r1 - r0|); its inputs',
        (1 + beta) e(x1) + beta e(x0); the point's, |M| gamma_3 (|x1| +
        beta |x1 - x0|); and the product's at z, e(z), where e is
        image_error.  beta is in [0, 1).
        """
        z = x1 + beta * (x1 - x0)
        point = _gamma(3) * (np.abs(x1) + beta * np.abs(x1 - x0))
        return (_gamma(3) * (np.abs(r1) + beta * np.abs(r1 - r0))
                + (1 + beta) * self.image_error(x1) + beta * self.image_error(x0)
                + self.abs_apply(point) + self.image_error(z))


def _gamma(k):
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def extrapolating_fista(f, g, x0, stepsize=None, config=None, steps=None):
    """reference_fista on AffineParts(f), where the image of each extrapolated
    point z^{k+1} = x^{k+1} + beta_k (x^{k+1} - x^k) is formed as
    r(x^{k+1}) + beta_k (r(x^{k+1}) - r(x^k)), and each candidate's image is
    a product; appends (x^{k+1}, x^k, beta_k, z^{k+1}, its image, r(x^{k+1}),
    r(x^k)) to steps."""
    config = config or SolverConfig(method="fista")
    parts = AffineParts(f)
    x0 = as_vector(x0, dim=f.dim, name="x0")
    if stepsize is None:
        if f.smoothness is not None:
            alpha = 1.0 / f.smoothness
        elif config.line_search != "off":
            alpha = 1.0
        else:
            raise ValueError("fista needs a stepsize or an objective exposing L")
    else:
        alpha = float(stepsize)
    metric = DiagonalMetric.uniform(x0.shape[0], 1.0 / alpha)
    t0 = time.perf_counter()
    backtrack = config.line_search != "off"
    x_prev = z = x0
    r_prev = r_z = parts.image(x0)
    t_momentum = 1.0
    w_prev = x0
    trace = []
    status, stopped_by = MAX_ITER, None
    final_x = x0
    try:
        while len(trace) < config.max_iter:
            grad_z = parts.gradient(z, r_z)
            if backtrack:
                f_z = parts.value(z, r_z)
                if math.isnan(f_z):
                    raise NumericalError("NaN objective at the extrapolated point")
            backtracks = 0
            while True:
                w = z - alpha * grad_z
                x = g.prox(w, metric)
                r = parts.image(x)
                if not backtrack:
                    obj = parts.value(x, r) + _g_at_prox(g, x)
                    break
                diff = x - z
                bound = f_z + float(np.dot(grad_z, diff)) + np.dot(diff, diff) / (2 * alpha)
                f_x = parts.value(x, r)
                if math.isnan(f_x):
                    raise NumericalError("NaN objective at the candidate point")
                if f_x <= bound:
                    obj = f_x + _g_at_prox(g, x)
                    break
                if backtracks >= config.max_backtracks:
                    raise LineSearchError(
                        len(trace), backtracks, f_x, bound, metric.u_max
                    )
                alpha /= config.beta
                u = 1.0 / alpha if alpha > 0.0 else math.inf
                metric = DiagonalMetric._trusted_uniform(x0.shape[0], u)
                backtracks += 1
            if math.isnan(obj):
                raise NumericalError("NaN objective at the candidate point")
            grad_map = _norm(z - x) / math.sqrt(alpha)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_momentum**2))
            beta = (t_momentum - 1.0) / t_next
            z = x + beta * (x - x_prev)
            r_z = r + beta * (r - r_prev)
            if steps is not None:
                steps.append((x, x_prev, beta, z, r_z, r, r_prev))
            trace.append(
                TraceRecord(
                    iter=len(trace),
                    objective=obj,
                    grad_map_norm=grad_map,
                    step_norm_u=_norm(x - x_prev) / math.sqrt(alpha),
                    backtracks=backtracks,
                    u_min=1.0 / alpha,
                    u_max=1.0 / alpha,
                    wall_ms=(time.perf_counter() - t0) * 1e3,
                )
            )
            final_x = x
            converged = _norm(w - w_prev) <= config.eps_tol
            x_prev, r_prev = x, r
            t_momentum = t_next
            w_prev = w
            if converged:
                status, stopped_by = CONVERGED, config.stop_rule
                break
    except LineSearchError:
        status = LINE_SEARCH_FAILURE
    except NumericalError:
        status = NUMERICAL_FAILURE
    if trace:
        final_objective = trace[-1].objective
    else:
        final_objective = parts.value(x0, parts.image(x0)) + g.value(x0)
    return SolveResult(x=final_x, status=status, trace=trace, iterations=len(trace),
                       final_objective=final_objective, stopped_by=stopped_by)


def logged(f, g, log):
    """Record every f.value, f.gradient and g.prox call, with its input bits."""
    def wrap(name, fn):
        def call(*args):
            log.append((name,) + tuple(
                bits(a.diag if isinstance(a, DiagonalMetric) else a) for a in args))
            return fn(*args)
        return call
    f.value = wrap("value", f.value)
    f.gradient = wrap("gradient", f.gradient)
    g.prox = wrap("prox", g.prox)
    return f, g


def smooth(kind, seed=0):
    if kind == "qp":
        return smooth_part(generate_qp(20, 1e3, seed))
    return smooth_part(generate_regression(60, 10, kind, seed))


REGULARIZERS = {
    "zero": Zero,
    "nonneg": Nonnegative,
    "lasso": lambda: Lasso(0.05),
    "elastic-net": lambda: ElasticNet(0.05, 0.02),
}


def run_both(kind, reg, run, reference):
    """(result or exception type, call log) of run and of reference, each on
    fresh instances of the same problem."""
    outcomes = []
    for solver in (run, reference):
        log = []
        f, g = logged(smooth(kind), REGULARIZERS[reg](), log)
        try:
            outcome = digest(solver(f, g, np.zeros(f.dim)))
        except ValueError as err:
            outcome = type(err)
        outcomes.append((outcome, log))
    return outcomes


@pytest.mark.parametrize("max_backtracks", [60, 0])
@pytest.mark.parametrize("ls_mode", ["nonmonotone", "monotone", "off"])
@pytest.mark.parametrize("reg", list(REGULARIZERS))
@pytest.mark.parametrize("kind", ["qp", "ls", "logistic"])
def test_solve_matches_the_standalone_loop(kind, reg, ls_mode, max_backtracks):
    config = SolverConfig(method="fista", line_search=ls_mode,
                          max_backtracks=max_backtracks, eps_tol=1e-8, max_iter=300)
    (got, got_calls), (want, want_calls) = run_both(
        kind, reg,
        lambda f, g, x0: solve(f, g, x0, config),
        lambda f, g, x0: reference_fista(f, g, x0, config=config),
    )
    assert got == want
    assert got_calls == want_calls
    assert got[1] > 0  # logistic too: its L is the bound scale ||A||^2 / 4 + 2 ridge


@pytest.mark.parametrize("ls_mode", ["nonmonotone", "monotone", "off"])
@pytest.mark.parametrize("kind", ["qp", "ls", "logistic"])
def test_an_explicit_stepsize_matches_the_standalone_loop(kind, ls_mode):
    config = SolverConfig(method="fista", fixed_stepsize=0.5, line_search=ls_mode,
                          eps_tol=1e-8, max_iter=300)
    (got, got_calls), (want, want_calls) = run_both(
        kind, "lasso",
        lambda f, g, x0: solve(f, g, x0, config),
        lambda f, g, x0: reference_fista(f, g, x0, stepsize=0.5, config=config),
    )
    assert got == want
    assert got_calls == want_calls
    assert got[1] > 0


class TestGradMapStop:
    """FISTA stops at the first x^{k+1} with ||U (z^k - x^{k+1})|| <= eps
    max(1, ||x^{k+1}||), U = I / alpha."""

    EPS = 1e-6

    def first_stop(self, f, g):
        """(index of the first step that meets the rule, reference trace)."""
        steps = []
        ref = reference_fista(f, g, np.zeros(f.dim), config=SolverConfig(
            method="fista", eps_tol=1e-300, max_iter=3000), steps=steps)
        for k, (z, x, alpha) in enumerate(steps):
            mapping = (z - x) * (1.0 / alpha)
            if _norm(mapping) / max(1.0, _norm(x)) <= self.EPS:
                return k, ref.trace
        pytest.fail("the reference never meets the grad-map rule")

    @pytest.mark.parametrize("kind", ["qp", "ls", "logistic"])
    def test_stops_at_the_first_iterate_that_meets_the_rule(self, kind):
        g = Nonnegative()
        k, ref_trace = self.first_stop(smooth(kind), g)
        x0 = np.zeros(smooth(kind).dim)

        def run(**settings):
            return solve(smooth(kind), g, x0, SolverConfig(
                method="fista", eps_tol=self.EPS, **settings))

        res = run(stop_rule="grad-map", max_iter=3000)
        assert res.status == CONVERGED
        assert res.iterations == k + 1
        assert [record_digest(r) for r in res.trace] == [
            record_digest(r) for r in ref_trace[:k + 1]]
        assert run(max_iter=3000).iterations != k + 1  # forward-step stops elsewhere
        res = run(stop_rule="grad-map", max_iter=k)
        assert res.status == MAX_ITER
        assert res.iterations == k


LARGE_REGULARIZERS = {  # by the weight lam of the kind (large_lam)
    "nonneg": lambda lam: Nonnegative(),
    "lasso": Lasso,
    "elastic-net": lambda lam: ElasticNet(lam, 0.02),
}


def large_lam(kind):
    """A weight that leaves the lasso solution nonzero."""
    return 1e-3 if kind == "logistic" else 1e-2


@functools.lru_cache(maxsize=None)
def _large_problem(kind, seed):
    if kind == "qp-400":
        return generate_qp(400, 1e4, seed)
    shape, loss = {"lasso-ls": ((2000, 500), "ls"), "ls-wide": ((256, 512), "ls"),
                   "logistic": ((512, 256), "logistic")}[kind]
    return generate_regression(*shape, loss, seed)


def large(kind, seed):
    """A fresh large affine objective: a nonnegative QP applied by dsymv, the
    lasso-ls Gram form, a wide residual least squares or a logistic loss,
    the last two on 2**17 entries."""
    prob = _large_problem(kind, seed)
    if kind == "qp-400":
        f = QuadraticObjective(prob.Q, prob.q, prob.p, smoothness=prob.smoothness)
    elif kind == "lasso-ls":
        f = smooth_part(prob)
    elif kind == "ls-wide":
        f = LeastSquaresObjective(prob.A, prob.b)
    else:
        f = LogisticObjective(prob.A, prob.b)
    assert f._extrapolates
    return f


LARGE_KINDS = ["qp-400", "lasso-ls", "ls-wide", "logistic"]


@pytest.mark.parametrize("ls_mode, step, max_backtracks", [
    ("nonmonotone", None, 60), ("nonmonotone", 64.0, 60), ("nonmonotone", 8.0, 2),
    ("off", None, 60)], ids=["1/L", "64/L", "8/L-2-backtracks", "off"])
@pytest.mark.parametrize("reg", list(LARGE_REGULARIZERS))
@pytest.mark.parametrize("kind", LARGE_KINDS)
def test_solve_on_a_large_affine_objective_matches_the_extrapolating_loop(
        kind, reg, ls_mode, step, max_backtracks):
    runs = []
    for reference in (False, True):
        f = large(kind, 3)
        stepsize = None if step is None else step / f.smoothness
        g = LARGE_REGULARIZERS[reg](large_lam(kind))
        config = SolverConfig(method="fista", fixed_stepsize=stepsize, line_search=ls_mode,
                              eps_tol=1e-8, max_iter=150, max_backtracks=max_backtracks)
        runs.append(digest(
            extrapolating_fista(f, g, np.zeros(f.dim), stepsize=stepsize, config=config)
            if reference else solve(f, g, np.zeros(f.dim), config)))
    got, want = runs
    assert got == want
    if step == 64.0:
        assert sum(r["backtracks"] for r in got[4]) > 0


@pytest.mark.parametrize("kind, seed", [("qp-400", 47), ("qp-400", 48), ("lasso-ls", 120),
                                        ("lasso-ls", 121), ("ls-wide", 3), ("logistic", 3)])
def test_extrapolated_images_lie_within_rounding_of_the_products(kind, seed):
    """The two-product path (reference_fista) and the extrapolated one stop
    alike, and at every step of the latter the image it formed lies within
    the derived bound (AffineParts.extrapolation_error) of a fresh product."""
    g = Nonnegative() if kind == "qp-400" else Lasso(large_lam(kind))
    config = SolverConfig(method="fista")
    steps = []
    f = large(kind, seed)
    new = extrapolating_fista(f, g, np.zeros(f.dim), config=config, steps=steps)
    old = reference_fista(large(kind, seed), g, np.zeros(f.dim), config=config)
    assert (new.status, new.iterations) == (old.status, old.iterations)
    assert new.status == CONVERGED
    parts = AffineParts(f)
    moved = 0
    for x1, x0, beta, z, r_z, r1, r0 in steps:
        fresh = parts.image(z)
        assert np.all(np.abs(r_z - fresh) <= parts.extrapolation_error(x1, x0, beta, r1, r0))
        moved += r_z.tobytes() != fresh.tobytes()
    assert moved > 0  # the paths differ in their bits, so the bound is exercised

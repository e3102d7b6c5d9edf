"""FISTA on the shared driver against the standalone FISTA loop it replaced.

``reference_fista`` is that loop, kept here as written: its own clock, NaN
and line-search handling, result building and forward-step stop test.
Under ``forward-step`` the driver's FISTA must match it bit for bit and make
the same f.value / f.gradient / g.prox calls in the same order; under
``grad-map`` it must stop where FISTA's own gradient map first meets the
tolerance, which the standalone loop never tested.
"""

import math
import time

import numpy as np
import pytest

from vmpg.core import DiagonalMetric, NumericalError, as_vector
from vmpg.problems import generate_qp, generate_regression, smooth_part
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
    fista,
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
    if kind == "logistic" and ls_mode == "off":  # no L and no backtracking
        assert got is ValueError
    else:
        assert got[1] > 0


@pytest.mark.parametrize("ls_mode", ["nonmonotone", "monotone", "off"])
@pytest.mark.parametrize("kind", ["qp", "ls", "logistic"])
def test_an_explicit_stepsize_matches_the_standalone_loop(kind, ls_mode):
    config = SolverConfig(method="fista", line_search=ls_mode, eps_tol=1e-8, max_iter=300)
    (got, got_calls), (want, want_calls) = run_both(
        kind, "lasso",
        lambda f, g, x0: fista(f, g, x0, stepsize=0.5, config=config),
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

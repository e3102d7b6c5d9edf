"""Variable-metric proximal gradient solvers.

The driver iterates

    y^{k+1} = x^k - (U^k)^{-1} grad f(x^k)
    x^{k+1} = prox_{g, U^k}(y^{k+1})

where the metric U^k comes from a scalar hybrid BB rule (``pg-bb``), the
diagonal BB subproblem (``vmpg-dbb``), or is held fixed (``pg-fixed``).
Steps are accepted under a nonmonotone sufficient-decrease test and the
metric is rescaled by beta until acceptance.  ``fista`` provides the usual
accelerated baseline with the same trace schema.

``solve`` and ``solve_consensus`` validate their inputs once, at the
boundary; inside the loop, step pairs and metrics are built without O(n)
validation and guarded by O(1) checks on scalars the loop computes anyway.
A NaN that one of them catches ends the run with ``NUMERICAL_FAILURE``.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import DiagonalMetric, NumericalError, as_vector
from .stepsize import BBConfig, StepPair, StepsizeState, diagonal_bb, hybrid_bb

METHODS = ("vmpg-dbb", "pg-bb", "pg-fixed", "fista")
LINE_SEARCH_MODES = ("nonmonotone", "monotone", "off")
STOP_RULES = ("forward-step", "grad-map")

CONVERGED = "converged"
MAX_ITER = "max-iter"
LINE_SEARCH_FAILURE = "line-search-failure"
NUMERICAL_FAILURE = "numerical-failure"


@dataclass
class SolverConfig(BBConfig):
    """Solver settings; the BB settings delta, mu, alpha_min and alpha_max
    and their checks are BBConfig's, so the BB rules take the config as is."""

    method: str = "vmpg-dbb"
    m_ls: int = 15              # nonmonotone window length
    beta: float = 2.0           # metric rescale factor on rejection
    eps_tol: float = 1e-4       # stopping tolerance
    max_iter: int = 5000
    max_backtracks: int = 60
    fixed_stepsize: float = None  # required by pg-fixed unless f exposes L
    line_search: str = "nonmonotone"
    stop_rule: str = "forward-step"

    def __post_init__(self):
        super().__post_init__()
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.line_search not in LINE_SEARCH_MODES:
            raise ValueError(f"unknown line search mode {self.line_search!r}")
        if self.stop_rule not in STOP_RULES:
            raise ValueError(f"unknown stop rule {self.stop_rule!r}")
        if self.beta <= 1:
            raise ValueError("beta must exceed 1")
        if self.m_ls < 1:
            raise ValueError("m_ls must be at least 1")
        if self.eps_tol <= 0 or self.max_iter < 1 or self.max_backtracks < 0:
            raise ValueError("invalid solver limits")


@dataclass
class TraceRecord:
    """One accepted iteration; field order matches the trace CSV columns."""

    iter: int
    objective: float
    grad_map_norm: float   # ||G_{U^k}(x^k)|| in the (U^k)^{-1} norm
    step_norm_u: float     # ||x^{k+1} - x^k|| in the U^k norm
    backtracks: int
    u_min: float
    u_max: float
    wall_ms: float


@dataclass
class SolverState:
    x: np.ndarray
    x_prev: np.ndarray
    grad: np.ndarray
    grad_prev: np.ndarray
    metric: DiagonalMetric
    f_history: list          # F(x^j) for the most recent iterates
    iteration: int            # index k of the current iterate x^k
    stepsize_state: StepsizeState
    forward: np.ndarray       # accepted forward point y^k
    f_x: float                # F(x^k)


@dataclass
class SolveResult:
    x: np.ndarray
    status: str
    trace: list
    iterations: int
    final_objective: float


class LineSearchError(RuntimeError):
    """Backtracking exhausted max_backtracks without sufficient decrease."""

    def __init__(self, iteration, backtracks, candidate_value, reference, u_max):
        super().__init__(iteration, backtracks, candidate_value, reference, u_max)
        self.iteration = iteration
        self.backtracks = backtracks
        self.candidate_value = candidate_value
        self.reference = reference
        self.u_max = u_max

    def __str__(self):
        # built on demand: the iteration is stamped after construction
        return (
            f"line search stalled at iteration {self.iteration}: "
            f"{self.backtracks} backtracks, candidate objective "
            f"{self.candidate_value:.6g} vs reference {self.reference:.6g}, "
            f"u_max {self.u_max:.3g}"
        )


def _norm(v):
    """||v||_2 of a 1-D float vector, bit for bit what np.linalg.norm returns."""
    return math.sqrt(float(np.dot(v, v)))


def composite_value(f, g, x):
    """F(x) = f(x) + g(x)."""
    return f.value(x) + g.value(x)


def _g_at_prox(g, x):
    """g(x) at a point x that g's prox returned: g.prox_value unless it is None."""
    return g.value(x) if g.prox_value is None else g.prox_value


def gradient_mapping(f, g, x, metric):
    """G_U(x) = U (x - prox_{g,U}(x - U^{-1} grad f(x)))."""
    step = g.prox(x - metric.apply_inverse(f.gradient(x)), metric)
    return metric.apply(x - step)


def proximal_step(f, g, x, grad, metric):
    """One forward-backward step; returns (x_new, forward_point)."""
    y = x - metric.apply_inverse(grad)
    return g.prox(y, metric), y


def line_search(f, g, x, grad, metric, f_ref, config):
    """Backtrack the metric until the sufficient-decrease test holds.

    Accepts x_new once F(x_new) <= f_ref - (1/2) ||x_new - x||_U^2, rescaling
    U by beta on each rejection.  With line search off (f_ref None) the first
    candidate is returned unconditionally.  F(x_new) = +inf is rejected like
    any other value; a NaN raises NumericalError, as does a rescaled metric
    that overflows.  g's term of F(x_new) is g.prox_value when g declares one.

    Returns (x_new, forward_point, metric, backtracks, F(x_new)).
    """
    backtracks = 0
    while True:
        x_new, y = proximal_step(f, g, x, grad, metric)
        f_new = f.value(x_new) + _g_at_prox(g, x_new)
        if math.isnan(f_new):
            raise NumericalError("NaN objective at the candidate point")
        if f_ref is None:
            return x_new, y, metric, backtracks, f_new
        decrease = 0.5 * metric.norm(x_new - x) ** 2
        if f_new <= f_ref - decrease:
            return x_new, y, metric, backtracks, f_new
        if backtracks >= config.max_backtracks:
            raise LineSearchError(
                iteration=None,
                backtracks=backtracks,
                candidate_value=f_new,
                reference=f_ref - decrease,
                u_max=metric.u_max,
            )
        metric = metric._scaled(config.beta)
        backtracks += 1


def _reference_value(state, config):
    if config.line_search == "off":
        return None
    if config.line_search == "monotone":
        return state.f_x
    window = min(config.m_ls, state.iteration - 1) + 1
    return max(state.f_history[-window:])


def _resolve_fixed_stepsize(f, config):
    if config.fixed_stepsize is not None:
        return float(config.fixed_stepsize)
    if f.smoothness is not None:
        return 1.0 / f.smoothness
    raise ValueError(
        "pg-fixed needs fixed_stepsize in the config or an objective "
        "exposing its smoothness constant"
    )


def _advance(f, g, state, metric, alpha, f_ref, config):
    """The forward-backward update from x^k under the metric a rule chose.

    Backtracks the metric until the test against f_ref accepts, records the
    iteration and returns (next state, TraceRecord); the next stepsize
    memory is (alpha, accepted metric).  The warm-up, vmpg-dbb, pg-bb,
    pg-fixed and every consensus mode differ only in how they choose metric,
    alpha and f_ref before this call.
    Raises LineSearchError, stamped with the index k, after max_backtracks,
    and NumericalError as line_search does.
    """
    t0 = time.perf_counter()
    try:
        x_new, y_new, metric, backtracks, f_new = line_search(
            f, g, state.x, state.grad, metric, f_ref, config
        )
    except LineSearchError as err:
        err.iteration = state.iteration
        raise

    diff = x_new - state.x
    mapping = metric.apply(-diff)  # G_{U^k}(x^k) = U^k (x^k - x^{k+1})
    record = TraceRecord(
        iter=state.iteration,
        objective=f_new,
        grad_map_norm=math.sqrt(np.dot(mapping**2, 1.0 / metric.diag)),
        step_norm_u=metric.norm(diff),
        backtracks=backtracks,
        u_min=metric.u_min,
        u_max=metric.u_max,
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
    history = state.f_history + [f_new]
    if len(history) > config.m_ls + 1:
        history = history[-(config.m_ls + 1):]
    new_state = SolverState(
        x=x_new,
        x_prev=state.x,
        grad=f.gradient(x_new),
        grad_prev=state.grad,
        metric=metric,
        f_history=history,
        iteration=state.iteration + 1,
        stepsize_state=StepsizeState(prev_alpha=alpha, prev_metric=metric),
        forward=y_new,
        f_x=f_new,
    )
    return new_state, record


def vmpg_step(f, g, state, config):
    """Advance one iteration from x^k; returns (new_state, TraceRecord).

    The metric is chosen by the configured rule from the step pair
    (x^k - x^{k-1}, grad change), then backtracked until the nonmonotone
    criterion accepts.  Raises LineSearchError after max_backtracks and
    NumericalError when the step pair or a candidate objective is NaN.
    """
    ss = state.stepsize_state
    alpha = ss.prev_alpha
    if config.method == "pg-fixed":
        metric = DiagonalMetric.uniform(
            state.x.shape[0], 1.0 / _resolve_fixed_stepsize(f, config)
        )
    elif config.method in ("vmpg-dbb", "pg-bb"):
        pair = StepPair._trusted(state.x - state.x_prev, state.grad - state.grad_prev)
        if config.method == "vmpg-dbb":
            metric = diagonal_bb(pair, config, ss)
        else:
            alpha = hybrid_bb(pair, config, ss)
            metric = DiagonalMetric._trusted_uniform(state.x.shape[0], 1.0 / alpha)
    else:
        raise ValueError(f"vmpg_step does not drive method {config.method!r}")
    return _advance(f, g, state, metric, alpha, _reference_value(state, config), config)


def warmup_step(f, g, x0, config):
    """Produce x^1 by one proximal-gradient step with a conservative stepsize.

    Uses alpha0 = min(1, 1 / ||grad f(x^0)||) and a monotone acceptance test
    against F(x^0); the BB rules take over from the resulting step pair,
    starting from the identity metric rather than the warm-up one.  Raises
    NumericalError when ||grad f(x^0)|| is not finite or F(x^0) is NaN.
    """
    return _warmup(f, g, as_vector(x0, dim=f.dim, name="x0"), config)


def _warmup(f, g, x0, config):
    """warmup_step from an x0 validated by the caller."""
    grad0 = f.gradient(x0)
    gnorm = _norm(grad0)
    if not math.isfinite(gnorm):
        raise NumericalError("non-finite gradient norm at x0")
    alpha0 = min(1.0, 1.0 / gnorm) if gnorm > 0 else 1.0
    metric = DiagonalMetric._trusted_uniform(x0.shape[0], 1.0 / alpha0)
    f_ref = None if config.line_search == "off" else composite_value(f, g, x0)
    if f_ref is not None and math.isnan(f_ref):
        raise NumericalError("NaN objective at x0")
    start = SolverState(
        x=x0,
        x_prev=x0,
        grad=grad0,
        grad_prev=grad0,
        metric=metric,
        f_history=[],
        iteration=0,
        stepsize_state=StepsizeState.initial(x0.shape[0]),
        forward=x0,
        f_x=f_ref,
    )
    state, record = _advance(f, g, start, metric, alpha0, f_ref, config)
    state.stepsize_state = start.stepsize_state
    return state, record


def _stopped(state, prev_forward, config):
    if config.stop_rule == "forward-step":
        return _norm(state.forward - prev_forward) <= config.eps_tol
    mapping = state.metric.apply(state.x_prev - state.x)
    return _norm(mapping) / max(1.0, _norm(state.x)) <= config.eps_tol


def _failure(err):
    return LINE_SEARCH_FAILURE if isinstance(err, LineSearchError) else NUMERICAL_FAILURE


def _iterate(f, g, x0, config, step):
    """Warm up, then state = step(state) until the stop rule holds or max_iter.

    x0 is validated by the caller.  Each record's wall_ms is the time since
    the start of the run.  Returns (x, F(x), trace, status); a failed
    iteration returns the last accepted iterate, x0 if the warm-up failed.
    """
    t0 = time.perf_counter()
    try:
        state, record = _warmup(f, g, x0, config)
    except (LineSearchError, NumericalError) as err:
        return x0, composite_value(f, g, x0), [], _failure(err)
    record.wall_ms = (time.perf_counter() - t0) * 1e3
    trace = [record]
    status = MAX_ITER
    while len(trace) < config.max_iter:
        prev_forward = state.forward
        try:
            state, record = step(state)
        except (LineSearchError, NumericalError) as err:
            status = _failure(err)
            break
        record.wall_ms = (time.perf_counter() - t0) * 1e3
        trace.append(record)
        if _stopped(state, prev_forward, config):
            status = CONVERGED
            break
    return state.x, state.f_x, trace, status


def solve(f, g, x0, config=None):
    """Run the configured method from x0 until the stopping test or max_iter.

    Parameters
    ----------
    f : SmoothObjective
    g : ProxRegularizer
    x0 : array_like
        Starting point.
    config : SolverConfig, optional

    Returns
    -------
    SolveResult with the final iterate, status, and per-iteration trace.
    """
    config = config or SolverConfig()
    if config.method == "fista":
        return fista(f, g, x0, stepsize=config.fixed_stepsize, config=config)
    x0 = as_vector(x0, dim=f.dim, name="x0")
    x, f_x, trace, status = _iterate(
        f, g, x0, config, lambda state: vmpg_step(f, g, state, config)
    )
    return SolveResult(
        x=x, status=status, trace=trace, iterations=len(trace), final_objective=f_x
    )


def fista(f, g, x0, stepsize=None, config=None):
    """Accelerated proximal gradient (no restart), same trace schema.

    The stepsize must satisfy alpha <= 1/L unless backtracking is active
    (any line_search mode except "off"), in which case alpha shrinks under
    the standard quadratic upper-bound test.  A NaN objective ends the run
    with NUMERICAL_FAILURE at the last accepted iterate.
    """
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
                f_x = f.value(x)  # reused in the objective below
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
                u = 1.0 / alpha if alpha > 0.0 else math.inf  # alpha may underflow
                metric = DiagonalMetric._trusted_uniform(x0.shape[0], u)
                backtracks += 1
            if math.isnan(obj):
                raise NumericalError("NaN objective at the candidate point")
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
    except (LineSearchError, NumericalError) as err:
        status = _failure(err)
    return SolveResult(
        x=final_x,
        status=status,
        trace=trace,
        iterations=len(trace),
        final_objective=trace[-1].objective if trace else composite_value(f, g, x0),
    )

"""Variable-metric proximal gradient solvers.

The driver iterates

    y^{k+1} = x^k - (U^k)^{-1} grad f(x^k)
    x^{k+1} = prox_{g, U^k}(y^{k+1})

where the metric U^k comes from a scalar hybrid BB rule (``pg-bb``), the
diagonal BB subproblem (``vmpg-dbb``), or is held fixed (``pg-fixed``).
Steps are accepted under a nonmonotone sufficient-decrease test and the
metric is rescaled by beta until acceptance.  ``fista`` is the usual
accelerated baseline: x^{k+1} = prox_{g, I/alpha}(z^k - alpha grad f(z^k))
from an extrapolated point z^k, with the same trace schema.

One driver loop serves every method and ``solve_consensus``: it takes a
start (the warm-up step, or FISTA's initial state) and a step (``vmpg_step``,
``consensus_round`` or FISTA's step), and alone owns the run clock, the stop
rule, the failure statuses and the result.  So ``stop_rule`` holds for FISTA
too; its forward point is z^k - alpha grad f(z^k), and ``grad-map`` measures
its own gradient map (z^k - x^{k+1}) / alpha.

``solve`` and ``solve_consensus`` validate their inputs once, at the
boundary; inside the loop, step pairs and metrics are built without O(n)
validation and guarded by O(1) checks on scalars the loop computes anyway.
A NaN that one of them catches ends the run with ``NUMERICAL_FAILURE``.
Each vector an iteration needs is formed once (x^{k+1} - x^k and U times
it serve both trace norms), and numpy is reached through its cheapest
entry points that give the same bits: ``ndarray.dot``, minimum/maximum
instead of ``np.clip``, argmin/argmax for a metric's extremes.
"""

import math
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import METRIC_FLOOR, DiagonalMetric, NumericalError, as_vector
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
        if not 1 < self.beta < math.inf:
            raise ValueError("beta must be finite and exceed 1")
        if not all(isinstance(count, numbers.Integral)
                   for count in (self.m_ls, self.max_iter, self.max_backtracks)):
            raise ValueError("m_ls, max_iter and max_backtracks must be integers")
        if self.m_ls < 1:
            raise ValueError("m_ls must be at least 1")
        if not 0 < self.eps_tol < math.inf or self.max_iter < 1 or self.max_backtracks < 0:
            raise ValueError("invalid solver limits")
        # pg-fixed and FISTA use the metric I / fixed_stepsize
        step = self.fixed_stepsize
        if step is not None and not (0 < step and METRIC_FLOOR <= 1.0 / step < math.inf):
            raise ValueError("need fixed_stepsize > 0 with 1/fixed_stepsize finite "
                             f"and >= {METRIC_FLOOR:g}")


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
class FistaState:
    x: np.ndarray             # x^k
    x_prev: np.ndarray        # z^{k-1}, the point x^k was stepped from
    z: np.ndarray             # z^k, the point the next step starts from
    t: float                  # momentum t_k
    alpha: float              # stepsize; the metric is I / alpha
    metric: DiagonalMetric
    forward: np.ndarray       # forward point w^{k-1}
    f_x: float                # F(x^k); None at x^0
    iteration: int            # k


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
    return math.sqrt(float(v.dot(v)))


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
        y = x - grad / metric.diag  # proximal_step without its two calls
        x_new = g.prox(y, metric)
        f_new = f.value(x_new) + _g_at_prox(g, x_new)
        if math.isnan(f_new):
            raise NumericalError("NaN objective at the candidate point")
        if f_ref is None:
            return x_new, y, metric, backtracks, f_new
        d = x_new - x
        decrease = 0.5 * math.sqrt((metric.diag * d).dot(d)) ** 2
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
    """The stepsize of pg-fixed and FISTA's first: fixed_stepsize, else 1/L,
    else 1.0 for FISTA with backtracking to shrink it."""
    if config.fixed_stepsize is not None:
        return float(config.fixed_stepsize)
    if f.smoothness is not None:
        return 1.0 / f.smoothness
    if config.method == "fista" and config.line_search != "off":
        return 1.0
    raise ValueError(
        f"{config.method} needs fixed_stepsize in the config or an objective "
        "exposing its smoothness constant"
    )


def _advance(f, g, state, metric, alpha, f_ref, config):
    """The forward-backward update from x^k under the metric a rule chose.

    Backtracks the metric until the test against f_ref accepts, records the
    iteration (wall_ms 0.0: _iterate stamps the run clock) and returns
    (next state, TraceRecord); the next stepsize
    memory is (alpha, accepted metric).  The warm-up, vmpg-dbb, pg-bb,
    pg-fixed and every consensus mode differ only in how they choose metric,
    alpha and f_ref before this call.
    Raises LineSearchError, stamped with the index k, after max_backtracks,
    and NumericalError as line_search does.
    """
    try:
        x_new, y_new, metric, backtracks, f_new = line_search(
            f, g, state.x, state.grad, metric, f_ref, config
        )
    except LineSearchError as err:
        err.iteration = state.iteration
        raise

    u = metric.diag
    d = x_new - state.x
    ud = u * d  # -G_{U^k}(x^k) = U^k (x^{k+1} - x^k)
    record = TraceRecord(
        state.iteration, f_new, math.sqrt((ud * ud).dot(np.reciprocal(u))),
        math.sqrt(ud.dot(d)), backtracks, metric.u_min, metric.u_max, 0.0,
    )
    new_state = SolverState(
        x_new, state.x, f.gradient(x_new), state.grad, metric,
        state.f_history[-config.m_ls:] + [f_new], state.iteration + 1,
        StepsizeState(alpha, metric), y_new, f_new,
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


def _fista_step(f, g, state, config):
    """One accelerated step from z^k; returns (next state, TraceRecord).

    x^{k+1} = prox_{g, I/alpha}(w^k), w^k = z^k - alpha grad f(z^k).  Unless
    line search is off, alpha shrinks by beta until f(x^{k+1}) lies under the
    quadratic upper bound at z^k.  The next state's x_prev is z^k, so the
    grad-map stop rule measures (z^k - x^{k+1}) / alpha.  Raises as
    line_search does.
    """
    backtrack = config.line_search != "off"
    z, alpha, metric = state.z, state.alpha, state.metric
    grad_z = f.gradient(z)
    if backtrack:
        f_z = f.value(z)
        if math.isnan(f_z):
            raise NumericalError("NaN objective at the extrapolated point")
    backtracks = 0
    while True:
        w = z - alpha * grad_z
        x = g.prox(w, metric)
        diff = x - z
        dd = diff.dot(diff)  # ||x^{k+1} - z^k||^2, for the bound and the trace
        if not backtrack:
            obj = f.value(x) + _g_at_prox(g, x)
            break
        bound = f_z + float(grad_z.dot(diff)) + dd / (2 * alpha)
        f_x = f.value(x)  # reused in the objective below
        if math.isnan(f_x):
            raise NumericalError("NaN objective at the candidate point")
        if f_x <= bound:
            obj = f_x + _g_at_prox(g, x)
            break
        if backtracks >= config.max_backtracks:
            raise LineSearchError(state.iteration, backtracks, f_x, bound, metric.u_max)
        alpha /= config.beta
        u = 1.0 / alpha if alpha > 0.0 else math.inf  # alpha may underflow
        metric = DiagonalMetric._trusted_uniform(x.shape[0], u)
        backtracks += 1
    if math.isnan(obj):
        raise NumericalError("NaN objective at the candidate point")
    step = x - state.x
    t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * state.t**2))
    z_next = x + ((state.t - 1.0) / t_next) * step
    root, u = math.sqrt(alpha), 1.0 / alpha
    record = TraceRecord(state.iteration, obj, math.sqrt(dd) / root,
                         math.sqrt(step.dot(step)) / root, backtracks, u, u, 0.0)
    return FistaState(x, z, z_next, t_next, alpha, metric, w, obj, record.iter + 1), record


def _stopped(state, prev_forward, config):
    if config.stop_rule == "forward-step":
        return _norm(state.forward - prev_forward) <= config.eps_tol
    mapping = state.metric.apply(state.x_prev - state.x)
    return _norm(mapping) / max(1.0, _norm(state.x)) <= config.eps_tol


def _iterate(f, g, x0, config, start, step):
    """state = start(x0), then state = step(state) until the stop rule holds
    after a step or the trace has max_iter records.

    start returns the first state and its TraceRecord, or None if it takes
    no step.  x0 is validated by the caller.  Each record's wall_ms is the
    time since the start of the run.  Returns (x, F(x), trace, status); a
    failure returns the last accepted iterate, or x0 and F(x0) if none.
    """
    t0 = time.perf_counter()
    trace = []
    status = MAX_ITER
    try:
        state, record = start(x0)
        if record is not None:
            record.wall_ms = (time.perf_counter() - t0) * 1e3
            trace.append(record)
        while len(trace) < config.max_iter:
            prev_forward = state.forward
            state, record = step(state)
            record.wall_ms = (time.perf_counter() - t0) * 1e3
            trace.append(record)
            if _stopped(state, prev_forward, config):
                status = CONVERGED
                break
    except LineSearchError:
        status = LINE_SEARCH_FAILURE
    except NumericalError:
        status = NUMERICAL_FAILURE
    if not trace:
        return x0, composite_value(f, g, x0), trace, status
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
    x0 = as_vector(x0, dim=f.dim, name="x0")
    if config.method == "fista":
        alpha = _resolve_fixed_stepsize(f, config)
        metric = DiagonalMetric.uniform(x0.shape[0], 1.0 / alpha)
        start = lambda x: (FistaState(x, x, x, 1.0, alpha, metric, x, None, 0), None)
        step = lambda state: _fista_step(f, g, state, config)
    else:
        start = lambda x: _warmup(f, g, x, config)
        step = lambda state: vmpg_step(f, g, state, config)
    x, f_x, trace, status = _iterate(f, g, x0, config, start, step)
    return SolveResult(
        x=x, status=status, trace=trace, iterations=len(trace), final_objective=f_x
    )


def fista(f, g, x0, stepsize=None, config=None):
    """Accelerated proximal gradient (no restart): solve with method "fista".

    stepsize replaces config.fixed_stepsize; without it alpha is 1/L, or 1.0
    when backtracking is active (any line_search mode except "off") and f
    exposes no L.  Under backtracking alpha shrinks until the standard
    quadratic upper-bound test holds; otherwise it must satisfy alpha <= 1/L.
    """
    config = replace(config or SolverConfig(), method="fista", fixed_stepsize=stepsize)
    return solve(f, g, x0, config)

"""Variable-metric proximal gradient solvers.

The driver iterates

    y^{k+1} = x^k - (U^k)^{-1} grad f(x^k)
    x^{k+1} = prox_{g, U^k}(y^{k+1})

where the metric U^k comes from a scalar hybrid BB rule (``pg-bb``), the
diagonal BB subproblem (``vmpg-dbb``), or is held fixed (``pg-fixed``).
Steps are accepted under a nonmonotone sufficient-decrease test and the
metric is rescaled by beta until acceptance.  Method ``fista`` is the usual
accelerated baseline: x^{k+1} = prox_{g, I/alpha}(z^k - alpha grad f(z^k))
from an extrapolated point z^k, with the same trace schema.

One driver loop serves every method and ``solve_consensus``: it takes a
start (the warm-up step, or FISTA's initial state) and a step (``vmpg_step``,
``consensus_round`` or FISTA's step), and alone owns the run clock, the stop
rule, the failure statuses and the result.  So ``stop_rule`` holds for FISTA
too; its forward point is z^k - alpha grad f(z^k), and ``grad-map`` measures
its own gradient map (z^k - x^{k+1}) / alpha.  A solve by ``vmpg-dbb``,
``pg-bb`` or ``pg-fixed``, and every consensus mode, has a third exit where
the pair (f, g) has a certificate: a bound on F(x) - F* that proves the
iterate optimal to rounding (``_duality_gap``).

``solve`` and ``solve_consensus`` validate their inputs once, at the
boundary; inside the loop, step pairs and metrics are built without O(n)
validation and guarded by O(1) checks on scalars the loop computes anyway.
A NaN that one of them catches ends the run with ``NUMERICAL_FAILURE``.
Within ``_advance``, x^{k+1} - x^k and U times it serve both trace norms,
but ``line_search`` has already formed both for its decrease test: its
public 5-tuple, which the benchmark's tracer wraps, cannot hand them on.
numpy is reached through its cheapest entry points that give the same
bits: ``ndarray.dot``, minimum/maximum instead of ``np.clip``,
argmin/argmax for a metric's extremes.  On a large affine f
(``f._extrapolates``) FISTA applies the operator once per candidate: the
image at its extrapolated point is combined from the images it has.
"""

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .core import METRIC_FLOOR, DiagonalMetric, NumericalError, as_vector
from .prox import Consensus, ElasticNet, Lasso, Zero
from .stepsize import BBConfig, StepPair, StepsizeState, diagonal_bb, hybrid_bb

METHODS = ("vmpg-dbb", "pg-bb", "pg-fixed", "fista")
LINE_SEARCH_MODES = ("nonmonotone", "monotone", "off")
STOP_RULES = ("forward-step", "grad-map")

CONVERGED = "converged"
MAX_ITER = "max-iter"
LINE_SEARCH_FAILURE = "line-search-failure"
NUMERICAL_FAILURE = "numerical-failure"
GAP = "gap"  # the stop test of a certified exit, beside the STOP_RULES

# A run with a certificate (_duality_gap) checks it after every gap.every-th
# record, a period each certificate sets for itself, and ends once the gap
# is at most its rounding: _GAP_ROUNDING * eps * (s ||b||^2 + |F(x)|) for a
# least-squares l1 solve, the rounding of the terms that form it, and
# _GAP_ROUNDING * eps * |F(x)| for a strong-convexity certificate.
# The l1 gap is checked every _GAP_EVERY records.  Measured with the gap
# taken at every iteration, pg-bb on 2000 x 500 lasso-ls instances (seeds
# 30-34) reaches its bound, about 23 eps s ||b||^2 there, by iteration
# 144-174; from then on its gap sits at 1.1 to 5.4 times eps s ||b||^2
# (per-run medians), with spikes to 131 on nonmonotone steps.  One l1 gap
# costs about 7 us against about 85 us per iteration (one BLAS thread on the
# Xeon that BENCH_18.json records): every 8th costs about 1% of a run, while
# every record would cost about 8% to end a run about 3.5 iterations sooner.
# Where the l1 solve has a modulus, the check also forms the second-order
# bound, about 11 us in all (BENCH_25.json), and pg-bb on lasso-ls ends at
# records 80-120 in place of 136-208.
# A strong-convexity gap over k > 1 node blocks (a Consensus solve) costs
# about 2.5 us against about 300 us per consensus-ls round (BENCH_24.json),
# so it is checked after every record.  Over one block (Zero, and a
# one-node Consensus solve, which must stop where its pooled Zero solve
# stops) it keeps _GAP_EVERY: it costs about 2 us there too, and on the
# `vmpg bench --kind qp --reg none` grid at the default eps, checking every
# record made an iteration 15.8% slower (median of 12 pairs) and ended no
# run earlier (BENCH_24.json zero_period).
_GAP_EVERY = 8
_GAP_ROUNDING = 16.0
_EPS = np.finfo(float).eps


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
    # the images f._image_of(x^k) and f._image_of(z^k) when f extrapolates
    # (f._extrapolates), else None
    x_image: np.ndarray = None
    z_image: np.ndarray = None


@dataclass
class SolveResult:
    x: np.ndarray
    status: str
    trace: list
    iterations: int
    final_objective: float
    stopped_by: str = None  # the test that ended a converged run: a stop rule or GAP


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
        y = x - grad / metric.diag
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
        if f.smoothness == 0.0 or math.isinf(f.smoothness):  # 1/L or L*I divides by 0
            raise ValueError(f"smoothness must be positive and finite, got {f.smoothness}")
        return 1.0 / f.smoothness
    if config.method == "fista" and config.line_search != "off":
        return 1.0
    raise ValueError(
        f"{config.method} needs fixed_stepsize in the config or an objective "
        "exposing its smoothness constant"
    )


def _fixed_metric(f, config, dim):
    """The validated metric I / stepsize of pg-fixed; ValueError if it is bad."""
    return DiagonalMetric.uniform(dim, 1.0 / _resolve_fixed_stepsize(f, config))


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
    pg-fixed's metric is built and validated on each call; ``solve`` builds
    it once per run.
    """
    ss = state.stepsize_state
    alpha = ss.prev_alpha
    if config.method == "pg-fixed":
        metric = _fixed_metric(f, config, state.x.shape[0])
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

    When the state carries images (f._extrapolates), f's memo serves the
    image of z^k for grad f(z^k) and f(z^k) and then forgets it, so each
    candidate's image is a fresh product and none extrapolated outlives the
    step; the next state's image of z^{k+1} is the same affine combination
    of the images of x^{k+1} and x^k as z^{k+1} is of the points.
    """
    backtrack = config.line_search != "off"
    z, alpha, metric = state.z, state.alpha, state.metric
    extrapolate = state.z_image is not None
    if extrapolate:
        f._install_image(z, state.z_image)
    try:
        grad_z = f.gradient(z)
        if backtrack:
            f_z = f.value(z)
    finally:
        if extrapolate:
            f._install_image(None, None)
    if backtrack and math.isnan(f_z):
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
    beta = (state.t - 1.0) / t_next
    z_next = x + beta * step
    x_image = z_image = None
    if extrapolate:
        x_image = f._image(x)  # the accepted candidate's, still in the memo
        z_image = x_image + beta * (x_image - state.x_image)
    root, u = math.sqrt(alpha), 1.0 / alpha
    record = TraceRecord(state.iteration, obj, math.sqrt(dd) / root,
                         math.sqrt(step.dot(step)) / root, backtracks, u, u, 0.0)
    return FistaState(x, z, z_next, t_next, alpha, metric, w, obj, record.iter + 1,
                      x_image, z_image), record


def _stopped(state, prev_forward, config):
    if config.stop_rule == "forward-step":
        return _norm(state.forward - prev_forward) <= config.eps_tol
    mapping = state.metric.apply(state.x_prev - state.x)
    return _norm(mapping) / max(1.0, _norm(state.x)) <= config.eps_tol


def _l1_gap(f, g):
    """The duality gap of a least-squares f with a Lasso or ElasticNet g, and
    where a modulus is known the second-order bound beside it.

    With F = h + lam1 ||x||_1 and h(x) = s ||Ax - b||^2 + rho ||x||^2 (rho
    is f's ridge plus ElasticNet's lam2 / 2), F is the lasso on the design
    [A; sqrt(rho / s) I] and labels [b; 0].  Rescaling its residual gives
    the dual-feasible theta = c 2s (b - Ax; -sqrt(rho / s) x) with
    c = min(1, lam1 / ||grad h(x)||_inf), of dual value
    D = 2cs (||b||^2 - b'Ax) - c^2 h(x) <= F*, so gap = F(x) - D bounds
    F(x) - F* (Fercoq, Gramfort & Salmon 2015; Ndiaye et al. 2017).  That
    gap is first order in ||x - x*||.  When h is m-strongly convex,
    m = f.strong_convexity + lam2 > 0, so is F, and
    F(x) - F* <= ||v||^2 / (2m) for the least-norm subgradient v of F at x
    (Karimi, Nutini & Schmidt 2016), a second-order bound: v_j is
    grad_j h + lam1 sign(x_j) where x_j != 0 and soft(grad_j h, lam1) where
    x_j = 0.  The certificate is the smaller of the two.
    rounding = _GAP_ROUNDING eps (s ||b||^2 + |F(x)|) bounds the rounding
    of the terms that form the dual gap.  (s, ||b||^2, b'Ax) come from
    f.dual_terms: the certificate costs O(n) work, and no product or call
    of f.value or f.gradient.  None unless f has dual_terms and g is a
    Lasso or an ElasticNet.
    """
    terms = getattr(f, "dual_terms", None)
    if terms is None:
        return None
    if type(g) is Lasso:
        lam1, lam2 = g.lam, 0.0
    elif type(g) is ElasticNet:
        lam1, lam2 = g.lam1, g.lam2
    else:
        return None
    m = (getattr(f, "strong_convexity", None) or 0.0) + lam2

    def gap(x, grad, f_x):
        s, b_sq, b_ax = terms(x)
        h = f_x - lam1 * float(np.abs(x).sum())
        grad_h = grad + lam2 * x
        top = float(np.abs(grad_h).max())  # ||grad h(x)||_inf
        c = 1.0 if top <= lam1 else lam1 / top
        bound = f_x - c * (2.0 * s * (b_sq - b_ax) - c * h)
        if m > 0.0:
            # |v|: |grad h + lam1 sign(x)| off the zeros, |grad h| - lam1
            # clipped at 0 on them
            v = np.abs(grad_h + lam1 * np.sign(x))
            v -= lam1 * (x == 0.0)
            np.maximum(v, 0.0, out=v)
            bound = min(bound, float(v.dot(v)) / (2.0 * m))
        return bound, _GAP_ROUNDING * _EPS * (s * b_sq + abs(f_x))

    gap.every = _GAP_EVERY
    return gap


def _strong_convexity_gap(moduli, blocks):
    """gap(x, grad, F) = ||grad F||^2 / (2m) with m = sum(moduli) and grad F
    the sum of grad's blocks; None unless every modulus is in (0, inf).

    For an m-strongly convex F the Polyak-Lojasiewicz inequality
    F(x) - F* <= ||grad F(x)||^2 / (2m) holds (Karimi, Nutini & Schmidt
    2016), so each modulus must be a true lower bound on its curvature: an
    overstated one ends a run early.  rounding = _GAP_ROUNDING eps |F(x)|.
    O(n) work, no product; checked after every record over more than one
    block, every _GAP_EVERY records over one.
    """
    if not all(m is not None and 0.0 < m < math.inf for m in moduli):
        return None
    m = sum(map(float, moduli))

    def gap(x, grad, f_x):
        total = np.add.reduce(grad.reshape(blocks, -1), 0)
        return float(total.dot(total)) / (2.0 * m), _GAP_ROUNDING * _EPS * abs(f_x)

    gap.every = 1 if blocks > 1 else _GAP_EVERY
    return gap


def _duality_gap(f, g):
    """A bound on F(x) - F* for the pair (f, g), as a function
    (x, grad f(x), F(x)) -> (gap, rounding); None for a pair without one.

    - g = Zero and f with a strong-convexity modulus m: ||grad f||^2 / (2m);
    - g = Consensus over a stacked f = sum_j f_j(x_j) (``f.objectives``,
      one per block) whose nodes each have a modulus m_j: at a consensus
      point x = (z, ..., z), F(x) = sum_j f_j(z) is (sum_j m_j)-strongly
      convex in z with gradient sum_j grad f_j(z), the sum of grad's node
      blocks, so ||sum_j grad f_j||^2 / (2 sum_j m_j);
    - least-squares f (``dual_terms``) with Lasso or ElasticNet: the
      residual-rescaling duality gap, or the second-order bound where a
      modulus is known, whichever is smaller (_l1_gap).

    Each gap is formed from the iterate, the gradient and the objective
    that the run already holds, and rounding bounds its rounding error.
    The moduli are the objectives' ``strong_convexity``; each must be a
    true lower bound on its curvature.  The function's ``every`` is the
    period of its check in records: 1 for a Consensus gap over more than
    one node, _GAP_EVERY otherwise.
    """
    if type(g) is Zero:
        return _strong_convexity_gap([getattr(f, "strong_convexity", None)], 1)
    if type(g) is Consensus:
        nodes = getattr(f, "objectives", None)
        if nodes is None or len(nodes) != g.n_blocks:
            return None
        return _strong_convexity_gap(
            [getattr(node, "strong_convexity", None) for node in nodes], g.n_blocks)
    return _l1_gap(f, g)


def _iterate(f, g, x0, config, start, step, duality_gap=None):
    """state = start(x0), then state = step(state) until the stop rule holds
    after a step, the certificate duality_gap (see _duality_gap) is within
    its rounding after a record whose count is a multiple of
    duality_gap.every, or the trace has max_iter records.

    start returns the first state and its TraceRecord, or None if it takes
    no step.  x0 is validated by the caller.  Each record's wall_ms is the
    time since the start of the run.  Returns (x, F(x), trace, status,
    stopped_by), stopped_by naming the test that ended a converged run and
    None otherwise; a failure returns the last accepted iterate, or x0 and
    F(x0) if none.
    """
    t0 = time.perf_counter()
    every = None if duality_gap is None else duality_gap.every
    trace = []
    status = MAX_ITER
    stopped_by = None
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
                status, stopped_by = CONVERGED, config.stop_rule
                break
            if every is not None and len(trace) % every == 0:
                gap, rounding = duality_gap(state.x, state.grad, state.f_x)
                if gap <= rounding:
                    status, stopped_by = CONVERGED, GAP
                    break
    except LineSearchError:
        status = LINE_SEARCH_FAILURE
    except NumericalError:
        status = NUMERICAL_FAILURE
    if not trace:
        return x0, composite_value(f, g, x0), trace, status, stopped_by
    return state.x, state.f_x, trace, status, stopped_by


def solve(f, g, x0, config=None):
    """Run the configured method from x0 until the stopping test or max_iter.

    vmpg-dbb, pg-bb and pg-fixed also end a run once a certificate proves
    x optimal to rounding (see _duality_gap): a least-squares f under Lasso
    or ElasticNet, an f with a strong-convexity modulus under Zero, and
    stacked nodes that each have one under Consensus.

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

        def start(x):
            # on a large affine f the first step reads the image of x^0 = z^0
            # from here, and every later step the extrapolated one
            image = f._image(x) if getattr(f, "_extrapolates", False) else None
            return FistaState(x, x, x, 1.0, alpha, metric, x, None, 0, image, image), None
        step = lambda state: _fista_step(f, g, state, config)
    elif config.method == "pg-fixed":
        # vmpg_step's pg-fixed rule with its metric built once, before the
        # warm-up: every iteration starts its line search from it
        metric = _fixed_metric(f, config, x0.shape[0])
        start = lambda x: _warmup(f, g, x, config)
        step = lambda state: _advance(f, g, state, metric, state.stepsize_state.prev_alpha,
                                      _reference_value(state, config), config)
    else:
        start = lambda x: _warmup(f, g, x, config)
        step = lambda state: vmpg_step(f, g, state, config)
    # FISTA's state has no gradient at x^k to certify
    duality_gap = None if config.method == "fista" else _duality_gap(f, g)
    x, f_x, trace, status, stopped_by = _iterate(f, g, x0, config, start, step,
                                                 duality_gap)
    return SolveResult(x=x, status=status, trace=trace, iterations=len(trace),
                       final_objective=f_x, stopped_by=stopped_by)

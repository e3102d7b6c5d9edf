"""Barzilai-Borwein stepsize rules, scalar and diagonal.

Given a step pair s = x^k - x^{k-1}, y = grad f(x^k) - grad f(x^{k-1}),
the two classical BB values are

    alpha_bb1 = ||s||^2 / <s, y>,      alpha_bb2 = <s, y> / ||y||^2.

For L-smooth, m-strongly convex f both lie in [1/L, 1/m] with
alpha_bb2 <= alpha_bb1.  ``hybrid_bb`` blends them into a single scalar;
``diagonal_bb`` builds a full diagonal metric by matching the secant
equation coordinate-wise inside the interval the scalar rules span.
Both read the partition from the pair's shape: 1-D arrays are one block,
(m, n) arrays m node blocks fitted at once (the local consensus modes).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import METRIC_FLOOR, DiagonalMetric, NumericalError, as_vector


@dataclass
class StepPair:
    """Iterate difference s and gradient difference y of equal dimension."""

    s: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.s = as_vector(self.s, name="s")
        self.y = as_vector(self.y, dim=self.s.shape[0], name="y")

    @classmethod
    def _trusted(cls, s, y):
        """A pair of equal-shape float arrays, 1-D or (m, n), the solver loop built.

        Skips the O(n) validation; the BB rules check the pair's inner
        products instead and raise NumericalError on a NaN or Inf entry.
        """
        pair = object.__new__(cls)
        pair.s = s
        pair.y = y
        return pair


@dataclass
class BBConfig:
    delta: float = 2.0        # hybrid switching threshold
    mu: float = 1e-6          # diagonal proximity weight, must be > 0
    alpha_min: float = 1e-10  # global stepsize safeguard (lower)
    alpha_max: float = 1e10   # global stepsize safeguard (upper)

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError("mu must be positive and finite")
        if not (0 < self.alpha_min < self.alpha_max):
            raise ValueError("need 0 < alpha_min < alpha_max")
        # Every metric the rules build lies in [1/alpha_max, 1/alpha_min], so
        # bounds with valid reciprocals make each clipped metric valid.
        if not (1.0 / self.alpha_max >= METRIC_FLOOR
                and math.isfinite(1.0 / self.alpha_min)):
            raise ValueError(
                f"need 1/alpha_max >= {METRIC_FLOOR:g} and a finite 1/alpha_min"
            )
        if not self.delta > 1:
            raise ValueError("delta must exceed 1")


def _default_metric():
    return DiagonalMetric(np.ones(1))


@dataclass
class StepsizeState:
    """Memory carried between iterations by the stepsize rules.

    prev_alpha is the last hybrid output (clamped): one float, or one per
    node block after a hybrid fit over (m, n) blocks; prev_metric is the
    metric accepted at the previous iteration (identity before the first).
    """

    prev_alpha: float = 1.0
    prev_metric: DiagonalMetric = field(default_factory=_default_metric)

    @classmethod
    def initial(cls, dim):
        return cls(prev_alpha=1.0, prev_metric=DiagonalMetric.identity(dim))


def bb1(pair):
    """First BB stepsize ||s||^2 / <s, y>, or None when <s, y> <= 0."""
    sy = float(np.dot(pair.s, pair.y))
    if sy <= 0.0:
        return None
    return float(np.dot(pair.s, pair.s)) / sy


def bb2(pair):
    """Second BB stepsize <s, y> / ||y||^2, or None when <s, y> <= 0."""
    sy = float(np.dot(pair.s, pair.y))
    if sy <= 0.0:
        return None
    yy = float(np.dot(pair.y, pair.y))
    if yy == 0.0:
        return None
    return sy / yy


def _guard_pair(products, s, y):
    """Raise NumericalError if the step pair (s, y) has a NaN or Inf entry.

    products is the sum of the pair's inner products s.s, s.y and y.y, which
    the BB rules compute anyway.  It is finite whenever s and y are, short of
    overflow, so it stands in for the O(n) finiteness check, which runs only
    when it is not finite.
    """
    if not math.isfinite(products) and not (
        np.isfinite(s).all() and np.isfinite(y).all()
    ):
        raise NumericalError("non-finite step pair")


def _bb_values(pair):
    """(alpha_bb1, alpha_bb2) as bb1 and bb2 give them; None if either is None.

    Raises NumericalError when s or y has a NaN or Inf entry.
    """
    s, y = pair.s, pair.y
    ss = float(s.dot(s))
    sy = float(s.dot(y))
    yy = float(y.dot(y))
    _guard_pair(ss + sy + yy, s, y)
    if sy <= 0.0 or yy == 0.0:
        return None
    return ss / sy, sy / yy


def _row_dot(a, b):
    """Inner products of matching rows; bitwise equal to np.dot row by row.

    A (1, n) @ (n, 1) matmul reduces each row as np.dot does; einsum and
    (a * b).sum(1) sum in other orders and differ in the last bits.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_bb_values(S, Y):
    """Per-row (alpha_bb1, alpha_bb2, degenerate) of an (m, n) pair as bb1/bb2
    give them.  A row is degenerate where bb1 or bb2 returns None; its two
    values are then meaningless and must not be used.  Raises NumericalError
    when S or Y has a NaN or Inf entry, checked as _bb_values checks a pair.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ss = _row_dot(S, S)
        sy = _row_dot(S, Y)
        yy = _row_dot(Y, Y)
        _guard_pair(ss.sum() + sy.sum() + yy.sum(), S, Y)
        return ss / sy, sy / yy, (sy <= 0.0) | (yy == 0.0)


def hybrid_bb(pair, config, state):
    """Hybrid scalar BB stepsize.

    Takes alpha_bb2 when the two values are close (alpha_bb1 < delta *
    alpha_bb2), otherwise the gap-corrected alpha_bb1 - alpha_bb2 / delta.
    Degenerate curvature or a nonpositive result falls back to the previous
    stepsize.  The result is clamped to [alpha_min, alpha_max].

    An (m, n) pair is m node blocks: the result is an (m,) array, and
    state.prev_alpha (one float or one per block) the fallback of each row.
    """
    if pair.s.ndim == 2:
        a1, a2, degenerate = _row_bb_values(pair.s, pair.y)
        # a degenerate row's a1 and a2 may be inf or NaN; its alpha is discarded
        with np.errstate(invalid="ignore", over="ignore"):
            alpha = np.where(a1 < config.delta * a2, a2, a1 - a2 / config.delta)
        alpha = np.where(degenerate | (alpha <= 0.0), state.prev_alpha, alpha)
        return np.minimum(np.maximum(alpha, config.alpha_min), config.alpha_max)
    values = _bb_values(pair)
    if values is None:
        alpha = state.prev_alpha
    else:
        a1, a2 = values
        alpha = a2 if a1 < config.delta * a2 else a1 - a2 / config.delta
    if alpha <= 0.0:
        alpha = state.prev_alpha
    return float(min(max(alpha, config.alpha_min), config.alpha_max))


def diagonal_bb(pair, config, state):
    """Diagonal BB metric.

    Minimizes ||U s - y||^2 + mu ||U - U_prev||_F^2 over diagonal U with
    (alpha_bb1)^{-1} I <= U <= (alpha_bb2)^{-1} I, which has the closed-form
    coordinate solution

        u_i = clip((s_i y_i + mu u_prev_i) / (s_i^2 + mu), lo, hi).

    The BB values are safeguarded into [alpha_min, alpha_max] before the
    bounds are formed; degenerate curvature widens the bounds to the full
    safeguard interval.  The clip keeps every entry inside the bounds that
    BBConfig validated, so the metric is built without a further O(n) check;
    a NaN (from overflow in s_i y_i or s_i^2) raises NumericalError.

    An (m, n) pair is m node blocks, each bounded by its own BB values; the
    metric, like state.prev_metric, runs over the m n coordinates row by row.
    """
    s, y = pair.s, pair.y
    u_prev = state.prev_metric.diag
    if s.ndim == 2:
        a1, a2, degenerate = _row_bb_values(s, y)
        a1 = np.minimum(np.maximum(a1, config.alpha_min), config.alpha_max)
        a2 = np.minimum(np.maximum(a2, config.alpha_min), config.alpha_max)
        lo = np.where(degenerate, 1.0 / config.alpha_max, 1.0 / a1)
        hi = np.where(degenerate, 1.0 / config.alpha_min, 1.0 / a2)
        swap = lo > hi  # float noise can invert the ordering of eq-close values
        lo, hi = np.where(swap, hi, lo)[:, None], np.where(swap, lo, hi)[:, None]
        u_prev = u_prev.reshape(s.shape)
    else:
        values = _bb_values(pair)
        if values is None:
            lo = 1.0 / config.alpha_max
            hi = 1.0 / config.alpha_min
        else:
            a1 = min(max(values[0], config.alpha_min), config.alpha_max)
            a2 = min(max(values[1], config.alpha_min), config.alpha_max)
            lo = 1.0 / a1
            hi = 1.0 / a2
            if lo > hi:  # float noise can invert the ordering of eq-close values
                lo, hi = hi, lo
        if u_prev.shape[0] != s.shape[0]:
            raise ValueError(
                f"previous metric has dimension {u_prev.shape[0]}, "
                f"step pair has {s.shape[0]}"
            )
    candidates = (s * y + config.mu * u_prev) / (s**2 + config.mu)
    # np.clip(candidates, lo, hi) bit for bit, through two cheaper ufunc calls
    diag = np.minimum(np.maximum(candidates, lo), hi)
    return DiagonalMetric._trusted(diag if diag.ndim == 1 else diag.reshape(-1))

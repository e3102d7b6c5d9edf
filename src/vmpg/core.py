"""Core types: validated vectors, diagonal metrics, and problem interfaces.

Everything downstream works with plain float64 numpy arrays for vectors and
with positive-definite diagonal metrics U.  The metric induces the inner
product <x, y>_U = x' U y and the norm ||x||_U.
"""

import abc
import math

import numpy as np

# Metric diagonals below this are rejected outright: their inverses overflow
# double precision and every downstream formula divides by u.
METRIC_FLOOR = 1e-300


def as_vector(x, dim=None, name="vector"):
    """Coerce to a 1-D float64 array and validate finiteness.

    Raises ValueError on NaN/Inf entries or on a dimension mismatch.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"{name} has dimension {v.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(v)):
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ValueError(f"{name} has a non-finite entry at index {bad}")
    return v


class NumericalError(ArithmeticError):
    """A NaN, or an overflow, in a quantity the solver loop computed itself.

    The loop guards with O(1) checks on scalars it needs anyway (the BB inner
    products, F(x+), the metric's extremes); ``solve`` and
    ``solve_consensus`` end with the status "numerical-failure" when one
    fails.
    """


class DiagonalMetric:
    """Positive-definite diagonal metric U = diag(u).

    Entries are validated strictly positive (floor ``METRIC_FLOOR``);
    constructing a metric with a nonpositive or non-finite entry is an
    error, never a silent clamp.  ``u_min`` and ``u_max`` are computed once,
    at construction.
    """

    __slots__ = ("diag", "u_min", "u_max")

    def __init__(self, diag):
        d = np.asarray(diag, dtype=float)
        if d.ndim != 1:
            raise ValueError(f"metric diagonal must be 1-D, got shape {d.shape}")
        if d.size == 0:
            raise ValueError("metric diagonal is empty")
        self.diag = d
        self.u_min = float(d.min())  # NaN if any entry is NaN
        self.u_max = float(d.max())
        if not (math.isfinite(self.u_min) and math.isfinite(self.u_max)):
            raise ValueError("metric diagonal has non-finite entries")
        if self.u_min < METRIC_FLOOR:
            raise ValueError(
                f"metric diagonal entries must be >= {METRIC_FLOOR:g} "
                f"(min was {self.u_min:g})"
            )

    @classmethod
    def _trusted(cls, diag, u_min=None, u_max=None):
        """Wrap a nonempty 1-D float64 array the solver loop built itself.

        Skips the O(n) validation; the extremes (given, or two reductions the
        trace needs anyway) are checked in O(1) instead.  A NaN entry makes
        both NaN, so every bad diagonal fails the test and raises
        NumericalError rather than ValueError.
        """
        metric = object.__new__(DiagonalMetric)
        metric.diag = diag
        # the entry at argmin is min() bit for bit, a NaN included (argmin
        # returns the first NaN), at a third of the cost; so for max
        metric.u_min = float(diag[diag.argmin()]) if u_min is None else u_min
        metric.u_max = float(diag[diag.argmax()]) if u_max is None else u_max
        if not (metric.u_min >= METRIC_FLOOR and math.isfinite(metric.u_max)):
            raise NumericalError("non-finite metric diagonal")
        return metric

    @classmethod
    def _trusted_uniform(cls, dim, value):
        """Trusted value * I for a float value the loop computed."""
        diag = np.empty(dim)
        diag.fill(value)
        return cls._trusted(diag, value, value)

    def _scaled(self, factor):
        """Trusted factor * U for factor > 1 (line-search rescaling).

        Rounding is monotone, so the extremes scale exactly and only the new
        u_max needs a check.
        """
        return DiagonalMetric._trusted(
            self.diag * factor, self.u_min * factor, self.u_max * factor
        )

    @classmethod
    def identity(cls, dim):
        return cls(np.ones(dim))

    @classmethod
    def uniform(cls, dim, value):
        """Scalar metric value * I."""
        return cls(np.full(dim, float(value)))

    @property
    def dim(self):
        return self.diag.shape[0]

    def apply(self, z):
        """U z."""
        return self.diag * z

    def norm(self, z):
        """||z||_U = sqrt(z' U z)."""
        return math.sqrt(np.dot(self.diag * z, z))

    def __repr__(self):
        return f"DiagonalMetric(dim={self.dim}, u_min={self.u_min:g}, u_max={self.u_max:g})"


def BlockDiagonalMetric(blocks):
    """The DiagonalMetric of the concatenated per-block diagonals.

    Each block is a DiagonalMetric or a diagonal, validated as one.
    """
    if not blocks:
        raise ValueError("need at least one block")
    return DiagonalMetric(np.concatenate([
        (b if isinstance(b, DiagonalMetric) else DiagonalMetric(b)).diag for b in blocks
    ]))


class SmoothObjective(abc.ABC):
    """Differentiable term f of the composite objective F = f + g.

    Implementations may expose the optional attributes ``smoothness`` (an L
    such that grad f is L-Lipschitz), ``strong_convexity`` (m), ``minimizer``
    and ``optimal_value`` when they are known; None means unknown.  m must
    be a true lower bound on f's curvature: solve ends a run once
    ||grad f||^2 / (2m) certifies it, so an overstated m ends it early.
    """

    smoothness = None
    strong_convexity = None
    minimizer = None
    optimal_value = None

    @property
    @abc.abstractmethod
    def dim(self):
        """Ambient dimension."""

    @abc.abstractmethod
    def value(self, x):
        """f(x)."""

    @abc.abstractmethod
    def gradient(self, x):
        """grad f(x)."""


class ProxRegularizer(abc.ABC):
    """Convex (possibly nonsmooth) term g with a metric-scaled prox.

    ``prox(v, metric)`` returns argmin_x g(x) + (1/2) ||v - x||_U^2.
    ``separable`` marks g that splits into a sum of per-coordinate terms.
    ``prox_value`` is g's value at every output of its prox when that is one
    constant, as for an indicator whose prox is feasible by construction;
    None means the solvers evaluate ``value`` there.
    """

    separable = False
    prox_value = None

    @abc.abstractmethod
    def value(self, x):
        """g(x); may be +inf outside the domain."""

    @abc.abstractmethod
    def prox(self, v, metric):
        """Scaled proximal map of g at v under the metric U."""

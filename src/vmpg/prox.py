"""Regularizers with metric-scaled proximal maps.

Every operator solves

    prox_{g,U}(v) = argmin_x  g(x) + (1/2) ||v - x||_U^2

for a positive diagonal metric U in closed form: the lasso, group lasso,
elastic net, nonnegativity, simplex and consensus operators, and their sum
over contiguous blocks (`BlockSeparable`).  There is no prox calculus
(scaling, affine terms, compositions): nothing the solvers run needs one.
A slow numeric oracle (`numeric_prox_oracle`) re-solves the same
subproblem by independent means (1-D minimization, enumeration) so the
closed forms can be checked without trusting them.
"""

import math

import numpy as np

from .core import DiagonalMetric, ProxRegularizer

_EPS = np.finfo(float).eps


def _weight(name, value):
    """value as a float; ValueError unless 0 < value < inf (so not NaN)."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value:g}")
    return value


def _diagonal(metric):
    """U's one entry as a float when U is uniform (u_min == u_max), else its
    diagonal: an elementwise formula gives the same bits with either, and the
    scalar spares it a pass over an n-vector."""
    return metric.u_min if metric.u_min == metric.u_max else metric.diag


class Zero(ProxRegularizer):
    """g = 0; the prox is the identity."""

    separable = True
    prox_value = 0.0

    def value(self, x):
        return 0.0

    def prox(self, v, metric):
        return np.array(v, dtype=float)

    def conjugate(self):
        return _Origin()


class Lasso(ProxRegularizer):
    """g(x) = lam * ||x||_1 (soft thresholding under a diagonal metric)."""

    separable = True

    def __init__(self, lam):
        self.lam = _weight("lam", lam)

    def value(self, x):
        return self.lam * float(np.abs(x).sum())

    def prox(self, v, metric):
        thr = self.lam / _diagonal(metric)
        return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)

    def conjugate(self):
        return _LinfBall(self.lam)


class GroupLasso(ProxRegularizer):
    """g(x) = lam * sum_j ||x_j||_2 over disjoint contiguous groups [a, b).

    The scaled prox is block soft thresholding; it requires the metric to be
    scalar within each group (u_j * I on group j), which is a contract
    violation otherwise.  Groups must not overlap (the blockwise prox would
    then not be the prox of the sum) and must lie inside the vector.
    """

    def __init__(self, lam, groups):
        self.lam = _weight("lam", lam)
        self.groups = [(int(a), int(b)) for a, b in groups]
        end = 0
        for a, b in sorted(self.groups):
            if b <= a:
                raise ValueError(f"empty group ({a}, {b})")
            if a < end:
                raise ValueError(
                    f"group ({a}, {b}) starts before {end}; groups must be disjoint, from 0"
                )
            end = b
        self._end = end

    def _check_length(self, x):
        if len(x) < self._end:
            raise ValueError(f"groups end at {self._end}, past a vector of length {len(x)}")

    def value(self, x):
        self._check_length(x)
        return self.lam * sum(
            float(np.linalg.norm(x[a:b])) for a, b in self.groups
        )

    def prox(self, v, metric):
        self._check_length(v)
        u = metric.diag
        out = np.array(v, dtype=float)
        for a, b in self.groups:
            ug = u[a:b]
            if not np.all(ug == ug[0]):
                raise ValueError(
                    f"metric is not scalar on group ({a}, {b}); "
                    "group soft thresholding needs a block-scalar metric"
                )
            nv = float(np.linalg.norm(v[a:b]))
            if nv == 0.0:
                out[a:b] = 0.0
            else:
                out[a:b] = max(1.0 - self.lam / (ug[0] * nv), 0.0) * v[a:b]
        return out


class ElasticNet(ProxRegularizer):
    """g(x) = lam1 * ||x||_1 + (lam2 / 2) * ||x||_2^2."""

    separable = True

    def __init__(self, lam1, lam2):
        self.lam1 = _weight("lam1", lam1)
        self.lam2 = _weight("lam2", lam2)

    def value(self, x):
        x = np.asarray(x)
        return self.lam1 * float(np.sum(np.abs(x))) + 0.5 * self.lam2 * float(
            np.dot(x, x)
        )

    def prox(self, v, metric):
        u = _diagonal(metric)
        denom = self.lam2 + u
        return np.sign(v) * np.maximum((u * np.abs(v) - self.lam1) / denom, 0.0)


class Nonnegative(ProxRegularizer):
    """Indicator of the nonnegative orthant; the prox clips at zero."""

    separable = True
    prox_value = 0.0  # the clipped point is in the orthant

    def value(self, x):
        return 0.0 if (np.asarray(x) >= 0).all() else np.inf

    def prox(self, v, metric):
        return np.maximum(v, 0.0)

    def conjugate(self):
        return _Nonpositive()


class Simplex(ProxRegularizer):
    """Indicator of the probability simplex {x >= 0, sum x = 1}.

    The scaled projection is x = max(v - nu/U, 0) for the pivot nu that makes
    sum x = 1.  Coordinate i is active exactly when nu < t_i = u_i v_i, so
    with the t_i sorted in descending order the pivot on the top k is
    nu_k = (sum_{i<=k} v_i - 1) / sum_{i<=k} 1/u_i, and the support is the
    last k with t_(k) > nu_k (Duchi et al. 2008; Condat 2016, with weights).
    v - nu / u rounds by about eps |v|, far more than eps once |v| is large,
    so the projection ends by dividing x by its sum: its output then sums
    to 1 within the rounding of a sum of n entries.
    """

    prox_value = 0.0  # the projection is in the simplex by construction

    # value accepts x within _SLACK * n eps sum |x_i|, a few times the
    # rounding of the sum of its entries: a point computed from entries of
    # order one, as by an exact projection formula, lands that close
    _SLACK = 8.0

    def value(self, x):
        x = np.asarray(x)
        slack = self._SLACK * x.size * _EPS * float(np.abs(x).sum())
        if np.all(x >= -slack) and abs(float(np.sum(x)) - 1.0) <= slack:
            return 0.0
        return np.inf

    def prox(self, v, metric):
        u = metric.diag
        v = np.asarray(v, dtype=float)
        t = u * v
        order = np.argsort(-t)
        nu = (np.cumsum(v[order]) - 1.0) / np.cumsum(1.0 / u[order])
        # t_(1) > nu_1 in exact arithmetic; the floor keeps rounding from
        # emptying the support
        k = max(np.count_nonzero(t[order] > nu), 1)
        x = np.maximum(v - nu[k - 1] / u, 0.0)
        x /= x.sum()
        return x


class Consensus(ProxRegularizer):
    """Indicator of {(x_1, ..., x_m): x_1 = ... = x_m} over equal blocks.

    The scaled prox replaces every block with the metric-weighted average
    z = (sum_j U_j)^{-1} (sum_j U_j x_j), computed elementwise.
    """

    prox_value = 0.0  # every block of the prox output is the same z

    def __init__(self, n_blocks):
        if n_blocks < 1:
            raise ValueError("need at least one block")
        self.n_blocks = int(n_blocks)

    def _shape(self, x):
        n, rem = divmod(len(x), self.n_blocks)
        if rem:
            raise ValueError(
                f"length {len(x)} is not divisible into {self.n_blocks} equal blocks"
            )
        return n

    def value(self, x):
        x = np.asarray(x)
        n = self._shape(x)
        blocks = x.reshape(self.n_blocks, n)
        return 0.0 if np.all(blocks == blocks[0]) else np.inf

    def prox(self, v, metric):
        v = np.asarray(v, dtype=float)
        n = self._shape(v)
        if self.n_blocks == 1:  # weighted average of one block is the block
            return v.copy()
        vb = v.reshape(self.n_blocks, n)
        ub = metric.diag.reshape(self.n_blocks, n)
        out = np.empty_like(vb)
        # np.add.reduce is np.sum without its wrapper; the broadcast copy is np.tile
        out[:] = np.add.reduce(ub * vb, 0) / np.add.reduce(ub, 0)
        return out.reshape(-1)


# --- conjugates used by the Moreau identity check ---------------------------


class _LinfBall(ProxRegularizer):
    """Indicator of {z: ||z||_inf <= radius}; conjugate of the l1 norm."""

    separable = True

    def __init__(self, radius):
        self.radius = float(radius)

    def value(self, x):
        return 0.0 if np.max(np.abs(x)) <= self.radius * (1 + 1e-12) else np.inf

    def prox(self, v, metric):
        return np.clip(v, -self.radius, self.radius)


class _Nonpositive(ProxRegularizer):
    """Indicator of the nonpositive orthant; conjugate of Nonnegative."""

    separable = True

    def value(self, x):
        return 0.0 if np.all(np.asarray(x) <= 0) else np.inf

    def prox(self, v, metric):
        return np.minimum(v, 0.0)


class _Origin(ProxRegularizer):
    """Indicator of {0}; conjugate of the zero function."""

    separable = True

    def value(self, x):
        return 0.0 if np.all(np.asarray(x) == 0) else np.inf

    def prox(self, v, metric):
        return np.zeros_like(np.asarray(v, dtype=float))


def moreau_check(g, metric, x):
    """Residual of the scaled Moreau decomposition at x.

    Returns ||x - prox_{g,U}(x) - U^{-1} prox_{g*,U^{-1}}(U x)||_2, which is
    zero in exact arithmetic.  Supported for regularizers exposing a
    conjugate (Lasso, Nonnegative, Zero).
    """
    if not hasattr(g, "conjugate"):
        raise ValueError(f"{type(g).__name__} does not expose a conjugate prox")
    x = np.asarray(x, dtype=float)
    primal = g.prox(x, metric)
    inv = DiagonalMetric(1.0 / metric.diag)
    dual = g.conjugate().prox(metric.apply(x), inv)
    return float(np.linalg.norm(x - primal - inv.apply(dual)))


class BlockSeparable(ProxRegularizer):
    """Sum of regularizers over contiguous blocks; the prox splits blockwise."""

    def __init__(self, parts):
        # parts: list of (regularizer, block_length)
        self.parts = [(g, int(n)) for g, n in parts]
        if any(n <= 0 for _, n in self.parts):
            raise ValueError("block lengths must be positive")

    @property
    def separable(self):
        return all(g.separable for g, _ in self.parts)

    def _slices(self):
        off = 0
        for g, n in self.parts:
            yield g, slice(off, off + n)
            off += n

    @property
    def dim(self):
        return sum(n for _, n in self.parts)

    def value(self, x):
        x = np.asarray(x)
        if len(x) != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {len(x)}")
        return sum(g.value(x[sl]) for g, sl in self._slices())

    def prox(self, v, metric):
        v = np.asarray(v, dtype=float)
        out = np.empty_like(v)
        for g, sl in self._slices():
            out[sl] = g.prox(v[sl], DiagonalMetric(metric.diag[sl]))
        return out


# --- numeric oracle -----------------------------------------------------------


def _brent(fun, lo, hi):
    # imported here: only the test oracle needs scipy.optimize, so importing
    # vmpg (and starting the CLI) does not load it
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        fun, bounds=(lo, hi), method="bounded", options={"xatol": 1e-13, "maxiter": 2000}
    )
    return float(res.x)


def _oracle_coordinatewise(g, v, u):
    """One exact pass of coordinate minimization for separable finite g."""
    x = np.array(v, dtype=float)
    for i in range(len(v)):
        ui, vi = u[i], v[i]

        def phi(t):
            x[i] = t
            return g.value(x) + 0.5 * ui * (vi - t) ** 2

        width = abs(vi) + 1.0
        for _ in range(60):
            t = _brent(phi, vi - width, vi + width)
            if abs(t - vi) < 0.99 * width:
                break
            width *= 2.0  # minimizer pinned at the bracket edge: widen
        x[i] = t
    return x


def _oracle_simplex(v, u):
    """Exact active-set enumeration of the metric projection onto the simplex.

    On a support S the stationary point of (1/2) sum u_i (x_i - v_i)^2 on
    sum x = 1 is x_i = v_i - theta / u_i, theta = (sum_S v_i - 1) / sum_S 1/u_i.
    The projection's support is the one meeting the KKT conditions, x_i >= 0
    on S and u_i v_i <= theta off it; it is chosen by them, never by the
    objective, which can be flat to rounding.
    """
    n = len(v)
    if n > 16:
        raise ValueError("enumeration oracle limited to n <= 16")
    for mask in range(1, 1 << n):
        on = np.array([mask >> i & 1 for i in range(n)], dtype=bool)
        theta = (np.sum(v[on]) - 1.0) / np.sum(1.0 / u[on])
        x = np.where(on, v - theta / u, 0.0)
        if np.all(x >= 0.0) and np.all(u[~on] * v[~on] <= theta):
            return x
    raise ArithmeticError("rounding broke the KKT conditions on every support")


def _oracle_group(g, v, u):
    out = np.array(v, dtype=float)
    for a, b in g.groups:
        vg, ug = v[a:b], float(u[a])
        nv = float(np.linalg.norm(vg))
        if nv == 0.0:
            out[a:b] = 0.0
            continue
        # any w with ||w|| = t satisfies ||w - v|| >= ||v|| - t, with equality on
        # the ray through v, so the block problem reduces to 1-D in the radius
        t = _brent(lambda t: g.lam * t + 0.5 * ug * (nv - t) ** 2, 0.0, nv)
        out[a:b] = (t / nv) * vg
    return out


def _oracle_consensus(g, v, u):
    n = g._shape(v)
    vb = v.reshape(g.n_blocks, n)
    ub = u.reshape(g.n_blocks, n)
    z = np.empty(n)
    for c in range(n):
        vals, wts = vb[:, c], ub[:, c]
        lo, hi = float(vals.min()) - 1.0, float(vals.max()) + 1.0
        z[c] = _brent(lambda t: 0.5 * float(np.sum(wts * (vals - t) ** 2)), lo, hi)
    return np.tile(z, g.n_blocks)


def numeric_prox_oracle(g, v, metric):
    """Solve the prox subproblem without using any closed form.

    Dispatches to 1-D bounded minimization (separable cases), a radius
    reduction (group lasso), or exact support enumeration (simplex).  Meant
    for testing only: slow, small-n.
    """
    v = np.asarray(v, dtype=float)
    u = metric.diag
    if isinstance(g, Zero):
        return v.copy()
    if isinstance(g, Nonnegative):
        out = np.empty_like(v)
        for i in range(len(v)):
            ui, vi = u[i], v[i]
            out[i] = _brent(lambda t: 0.5 * ui * (t - vi) ** 2, 0.0, abs(vi) + 1.0)
        return out
    if isinstance(g, Simplex):
        return _oracle_simplex(v, u)
    if isinstance(g, GroupLasso):
        return _oracle_group(g, v, u)
    if isinstance(g, Consensus):
        return _oracle_consensus(g, v, u)
    if isinstance(g, BlockSeparable):
        out = np.empty_like(v)
        for part, sl in g._slices():
            out[sl] = numeric_prox_oracle(part, v[sl], DiagonalMetric(u[sl]))
        return out
    if g.separable and np.isfinite(g.value(v)):
        return _oracle_coordinatewise(g, v, u)
    raise ValueError(f"no numeric oracle for {type(g).__name__}")

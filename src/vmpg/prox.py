"""Regularizers with metric-scaled proximal maps.

Every operator solves

    prox_{g,U}(v) = argmin_x  g(x) + (1/2) ||v - x||_U^2

for a positive diagonal metric U in closed form.  A slow numeric oracle
(`numeric_prox_oracle`) re-solves the same subproblem by independent means
(1-D minimization, enumeration) so the closed forms can be checked without
trusting them.
"""

from dataclasses import dataclass

import numpy as np

from .core import DiagonalMetric, ProxRegularizer


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
        if lam <= 0:
            raise ValueError("lam must be positive")
        self.lam = float(lam)

    def value(self, x):
        return self.lam * float(np.abs(x).sum())

    def prox(self, v, metric):
        thr = self.lam / metric.diag
        return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)

    def conjugate(self):
        return _LinfBall(self.lam)


class GroupLasso(ProxRegularizer):
    """g(x) = lam * sum_j ||x_j||_2 over contiguous groups.

    The scaled prox is block soft thresholding; it requires the metric to be
    scalar within each group (u_j * I on group j), which is a contract
    violation otherwise.
    """

    def __init__(self, lam, groups):
        if lam <= 0:
            raise ValueError("lam must be positive")
        self.lam = float(lam)
        self.groups = [(int(a), int(b)) for a, b in groups]
        for a, b in self.groups:
            if b <= a:
                raise ValueError(f"empty group ({a}, {b})")

    def value(self, x):
        return self.lam * sum(
            float(np.linalg.norm(x[a:b])) for a, b in self.groups
        )

    def prox(self, v, metric):
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
        if lam1 <= 0 or lam2 <= 0:
            raise ValueError("lam1 and lam2 must be positive")
        self.lam1 = float(lam1)
        self.lam2 = float(lam2)

    def value(self, x):
        x = np.asarray(x)
        return self.lam1 * float(np.sum(np.abs(x))) + 0.5 * self.lam2 * float(
            np.dot(x, x)
        )

    def prox(self, v, metric):
        u = metric.diag
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

    The scaled projection is found by bisection on the pivot
    h(nu) = sum_i max(x_i - nu/u_i, 0) - 1 over the bracket
    [max_i u_i (x_i - 1), max_i u_i x_i].
    """

    # prox outputs satisfy the constraints only to bisection accuracy, so the
    # indicator accepts a matching slack instead of exact equality
    feas_tol = 1e-9

    def __init__(self, tol=1e-12, max_iter=200):
        self.tol = float(tol)
        self.max_iter = int(max_iter)

    def value(self, x):
        x = np.asarray(x)
        if np.all(x >= -self.feas_tol) and abs(float(np.sum(x)) - 1.0) <= self.feas_tol:
            return 0.0
        return np.inf

    def prox(self, v, metric):
        u = metric.diag
        v = np.asarray(v, dtype=float)

        def pivot(nu):
            return float(np.sum(np.maximum(v - nu / u, 0.0))) - 1.0

        lo = float(np.max(u * (v - 1.0)))
        hi = float(np.max(u * v))
        h_lo = pivot(lo)
        if abs(h_lo) <= self.tol:
            return np.maximum(v - lo / u, 0.0)
        nu = hi
        for _ in range(self.max_iter):
            nu = 0.5 * (lo + hi)
            if not lo < nu < hi:  # adjacent floats: nu cannot get closer
                break
            h = pivot(nu)
            if abs(h) <= self.tol:
                break
            if h > 0.0:  # pivot is nonincreasing in nu
                lo = nu
            else:
                hi = nu
            if hi - lo <= 1e-16 * max(1.0, abs(lo), abs(hi)):
                nu = 0.5 * (lo + hi)
                break
        out = np.maximum(v - nu / u, 0.0)
        gap = abs(float(np.sum(out)) - 1.0)
        # each active v_i - nu / u_i rounds by about eps * (|v_i| + 1), so for
        # large |v| no float nu brings the sum within tol of 1
        active = np.abs(v[out > 0.0])
        rounding = (len(v) + 2) * np.finfo(float).eps * (float(np.sum(active)) + 1.0)
        if gap > 10.0 * self.tol + rounding:
            raise RuntimeError(
                f"simplex bisection did not converge: |sum - 1| = {gap:g} "
                f"after {self.max_iter} iterations (bracket [{lo:g}, {hi:g}])"
            )
        return out


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


# --- calculus combinators ----------------------------------------------------


class Scaled(ProxRegularizer):
    """g(x) = scale * phi(x) + offset;  prox_{g,U} = prox_{phi, U/scale}."""

    def __init__(self, inner, scale, offset=0.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.inner = inner
        self.scale = float(scale)
        self.offset = float(offset)

    @property
    def separable(self):
        return self.inner.separable

    def value(self, x):
        return self.scale * self.inner.value(x) + self.offset

    def prox(self, v, metric):
        return self.inner.prox(v, metric.scaled(1.0 / self.scale))


class AffineAddition(ProxRegularizer):
    """g(x) = phi(x) + <a, x> + b;  prox shifts the point by U^{-1} a."""

    def __init__(self, inner, a, b=0.0):
        self.inner = inner
        self.a = np.asarray(a, dtype=float)
        self.b = float(b)

    @property
    def separable(self):
        return self.inner.separable

    def value(self, x):
        return self.inner.value(x) + float(np.dot(self.a, x)) + self.b

    def prox(self, v, metric):
        return self.inner.prox(v - metric.apply_inverse(self.a), metric)


class QuadraticRegularized(ProxRegularizer):
    """g(x) = phi(x) + (1/2) ||x - a||_V^2 for a diagonal metric V.

    prox_{g,U}(v) = prox_{phi, U+V}((U+V)^{-1} (U v + V a)).
    """

    def __init__(self, inner, a, v_metric):
        self.inner = inner
        self.a = np.asarray(a, dtype=float)
        self.v_metric = v_metric

    @property
    def separable(self):
        return self.inner.separable

    def value(self, x):
        return self.inner.value(x) + 0.5 * self.v_metric.norm(x - self.a) ** 2

    def prox(self, v, metric):
        combined = DiagonalMetric(metric.diag + self.v_metric.diag)
        point = (metric.apply(v) + self.v_metric.apply(self.a)) / combined.diag
        return self.inner.prox(point, combined)


class DiagonalAffineComposition(ProxRegularizer):
    """g(x) = phi(A x + b) for nonsingular diagonal A = diag(a).

    prox_{g,U}(v) = A^{-1} (prox_{phi, A^{-1} U A^{-1}}(A v + b) - b); only
    the diagonal case is supported, where the transformed metric is
    diag(u / a^2).
    """

    def __init__(self, inner, a, b=0.0):
        self.inner = inner
        self.a = np.asarray(a, dtype=float)
        if np.any(self.a == 0) or not np.all(np.isfinite(self.a)):
            raise ValueError("A must be diagonal and nonsingular")
        self.b = np.asarray(b, dtype=float) if np.ndim(b) else float(b)

    @property
    def separable(self):
        return self.inner.separable

    def value(self, x):
        return self.inner.value(self.a * x + self.b)

    def prox(self, v, metric):
        transformed = DiagonalMetric(metric.diag / self.a**2)
        z = self.inner.prox(self.a * v + self.b, transformed)
        return (z - self.b) / self.a


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
    """Exact active-set enumeration of the metric projection onto the simplex."""
    n = len(v)
    if n > 16:
        raise ValueError("enumeration oracle limited to n <= 16")
    best, best_obj = None, np.inf
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        w = np.array([1.0 / u[i] for i in idx])
        # stationarity of (1/2) sum u_i (x_i - v_i)^2 on sum x = 1, x_j = 0 off-support
        theta = (sum(v[i] for i in idx) - 1.0) / w.sum()
        xs = np.array([v[i] - theta / u[i] for i in idx])
        if np.any(xs < 0):
            continue
        x = np.zeros(n)
        x[idx] = xs
        obj = 0.5 * float(np.sum(u * (x - v) ** 2))
        if obj < best_obj:
            best, best_obj = x, obj
    return best


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

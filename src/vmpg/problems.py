"""Benchmark problem families: synthetic QPs and regularized regression.

QP instances are built as Q = H D H' with H orthogonal from a seeded
Gaussian and D log-uniformly spaced on [1, kappa], so the strong convexity
and smoothness constants are known by construction.  Regression instances
draw correlated Gaussian features, generate labels from a planted parameter
vector, and pass the design matrix through the standard centering /
column-normalization pipeline.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .core import SmoothObjective


def power_iteration(matvec, dim, max_iter=5000, tol=1e-12):
    """Largest eigenvalue of a symmetric PSD operator by power iteration.

    The operator is applied once per iteration: the image of the normalized
    iterate gives both the Rayleigh quotient and the next iteration's vector.
    """
    rng = np.random.default_rng(0)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    w = matvec(v)
    for _ in range(max_iter):
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
        w = matvec(v)
        lam_next = float(np.dot(v, w))
        if abs(lam_next - lam) <= tol * max(1.0, abs(lam_next)):
            return lam_next
        lam = lam_next
    return lam


class _PointMemo(SmoothObjective):
    """One-entry memo of ``_image_of(x)`` for the last point x seen.

    ``value`` and ``gradient`` at the same point then share one product with
    the objective's matrix, in either order.  The memo is keyed by the dtype,
    shape and bytes of x, never by its identity: a point changed in place is
    recomputed.  The matrix and vectors of the objective must not change in
    place after construction.
    """

    _image_key = None
    _image_value = None

    def _image(self, x):
        key = (x.dtype, x.shape, x.tobytes())
        if key != self._image_key:
            self._image_value = self._image_of(x)
            self._image_key = key
        return self._image_value


class QuadraticObjective(_PointMemo):
    """f(x) = (1/2) x'Qx + q'x + p with symmetric Q; value and gradient share Q @ x."""

    def __init__(self, Q, q, p=0.0, strong_convexity=None, smoothness=None):
        self.Q = np.asarray(Q, dtype=float)
        self.q = np.asarray(q, dtype=float)
        self.p = float(p)
        self.strong_convexity = strong_convexity
        self.smoothness = smoothness
        self._minimizer = None

    @property
    def dim(self):
        return self.q.shape[0]

    def _image_of(self, x):
        return self.Q @ x

    def value(self, x):
        return 0.5 * float(x.dot(self._image(x))) + float(self.q.dot(x)) + self.p

    def gradient(self, x):
        return self._image(x) + self.q

    @property
    def minimizer(self):
        if self._minimizer is None:
            self._minimizer = np.linalg.solve(self.Q, -self.q)
        return self._minimizer

    @property
    def optimal_value(self):
        return self.value(self.minimizer)


class _AffineLoss(_PointMemo):
    """scale * loss(A x; b) + ridge * ||x||^2 over a fixed design matrix A.

    The memoized image is the residual for least squares and the margins for
    logistic, so ``value`` and ``gradient`` share one product A @ x.
    """

    def __init__(self, A, b, scale=None, ridge=0.0):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.scale = 1.0 / self.A.shape[0] if scale is None else float(scale)
        self.ridge = float(ridge)
        if ridge > 0:
            self.strong_convexity = 2.0 * ridge

    @property
    def dim(self):
        return self.A.shape[1]


class LeastSquaresObjective(_AffineLoss):
    """f(x) = scale * ||Ax - b||^2 + ridge * ||x||^2, scale = 1/N by default."""

    _smoothness = None

    def _image_of(self, x):
        return self.A @ x - self.b

    def value(self, x):
        r = self._image(x)
        return self.scale * float(r @ r) + self.ridge * float(x @ x)

    def gradient(self, x):
        return 2.0 * self.scale * (self.A.T @ self._image(x)) + (
            2.0 * self.ridge
        ) * x

    @property
    def smoothness(self):
        # 2*scale*||A||_2^2 (+ ridge curvature), top eigenvalue by power iteration
        if self._smoothness is None:
            top = power_iteration(
                lambda v: self.A.T @ (self.A @ v), self.A.shape[1]
            )
            self._smoothness = 2.0 * self.scale * top + 2.0 * self.ridge
        return self._smoothness


# A tall design of at least this many entries (1 MiB of float64) is solved in
# its Gram form; the README records the timings behind the constant.
_GRAM_MIN_SIZE = 2**17


def _least_squares(A, b, scale=None, ridge=0.0):
    """scale * ||Ax - b||^2 + ridge * ||x||^2 in the cheaper of two exact forms.

    A tall design (N >= n) with at least _GRAM_MIN_SIZE entries gives the
    quadratic (1/2) x'Qx + q'x + p with Q = 2(scale A'A + ridge I),
    q = -2 scale A'b and p = scale b'b: one n x n product per value/gradient
    pair instead of two N x n products, for n^2 more floats.  Its value has
    an absolute rounding error of about eps * scale * ||b||^2, so near a zero
    residual it can dip just below 0.  Any other design keeps the residual
    form, LeastSquaresObjective.
    """
    A = np.asarray(A, dtype=float)
    n_rows, n_cols = A.shape
    if n_rows < n_cols or A.size < _GRAM_MIN_SIZE:
        return LeastSquaresObjective(A, b, scale=scale, ridge=ridge)
    b = np.asarray(b, dtype=float)
    scale = 1.0 / n_rows if scale is None else float(scale)
    Q = A.T @ A
    Q *= 2.0 * scale
    Q.flat[:: n_cols + 1] += 2.0 * ridge
    q = A.T @ b
    q *= -2.0 * scale
    return QuadraticObjective(
        Q,
        q,
        scale * float(b @ b),
        strong_convexity=2.0 * ridge if ridge > 0 else None,
        smoothness=power_iteration(lambda v: Q @ v, n_cols),
    )


class LogisticObjective(_AffineLoss):
    """f(x) = scale * sum_i log(1 + exp(-b_i a_i'x)) + ridge * ||x||^2.

    Labels must be in {-1, +1}.  All exponentials go through logaddexp /
    expit, so values and gradients stay finite for any finite x.
    """

    def __init__(self, A, b, scale=None, ridge=0.0):
        super().__init__(A, b, scale=scale, ridge=ridge)
        if not np.all(np.isin(self.b, (-1.0, 1.0))):
            raise ValueError("logistic labels must be -1 or +1")

    def _image_of(self, x):
        return self.b * (self.A @ x)

    def value(self, x):
        t = self._image(x)
        return self.scale * float(np.sum(np.logaddexp(0.0, -t))) + self.ridge * float(
            x @ x
        )

    def gradient(self, x):
        # imported here: only logistic losses need scipy, so QP and LS runs
        # never load it
        from scipy.special import expit

        t = self._image(x)
        w = -self.b * expit(-t)
        return self.scale * (self.A.T @ w) + (2.0 * self.ridge) * x


class SumObjective(SmoothObjective):
    """Sum of smooth objectives over a shared variable (pooled problems)."""

    def __init__(self, parts):
        if not parts:
            raise ValueError("need at least one part")
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise ValueError(f"parts disagree on dimension: {sorted(dims)}")
        self.parts = list(parts)
        if all(p.smoothness is not None for p in parts):
            self.smoothness = sum(p.smoothness for p in parts)

    @property
    def dim(self):
        return self.parts[0].dim

    def value(self, x):
        return sum(p.value(x) for p in self.parts)

    def gradient(self, x):
        g = self.parts[0].gradient(x).copy()
        for p in self.parts[1:]:
            g += p.gradient(x)
        return g


class ScaledObjective(SmoothObjective):
    """c * f for c > 0 (used to form average objectives)."""

    def __init__(self, inner, c):
        self.inner = inner
        self.c = float(c)
        if inner.smoothness is not None:
            self.smoothness = self.c * inner.smoothness

    @property
    def dim(self):
        return self.inner.dim

    def value(self, x):
        return self.c * self.inner.value(x)

    def gradient(self, x):
        return self.c * self.inner.gradient(x)


@dataclass
class QPProblem:
    Q: np.ndarray
    q: np.ndarray
    p: float
    strong_convexity: float
    smoothness: float
    kappa: float
    seed: int


@dataclass
class RegressionProblem:
    A: np.ndarray
    b: np.ndarray
    loss: str                    # "ls" or "logistic"
    lam: float
    x_star: np.ndarray = None    # planted parameters (None for loaded data)
    seed: int = None
    noise: float = 0.2
    zero_variance_columns: list = field(default_factory=list)


def generate_qp(n, kappa, seed):
    """Random strongly convex QP with condition number exactly kappa.

    Q = H D H' where H orthogonalizes a seeded Gaussian matrix and D is
    log-uniformly spaced on [1, kappa], so m = 1 and L = kappa.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if n < 2 and kappa != 1:
        raise ValueError("n must be >= 2 for kappa > 1")
    rng = np.random.default_rng(seed)
    H, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.logspace(0.0, np.log10(kappa), n) if kappa > 1 else np.ones(n)
    Q = (H * d) @ H.T
    Q = 0.5 * (Q + Q.T)
    q = rng.standard_normal(n)
    return QPProblem(
        Q=Q,
        q=q,
        p=0.0,
        strong_convexity=1.0,
        smoothness=float(kappa),
        kappa=float(kappa),
        seed=seed,
    )


def precondition(A, tol=1e-12):
    """Center columns to mean zero, then normalize them to unit l2 norm.

    Zero-variance columns are left at zero and their indices returned.  The
    pipeline is idempotent up to floating-point roundoff.
    """
    A = np.array(A, dtype=float)
    A -= A.mean(axis=0)
    norms = np.linalg.norm(A, axis=0)
    zero_cols = np.flatnonzero(norms <= tol * np.sqrt(A.shape[0])).tolist()
    safe = norms.copy()
    safe[norms <= tol * np.sqrt(A.shape[0])] = 1.0
    return A / safe, zero_cols


def generate_regression(n_samples, dim, loss, seed, noise=0.2, lam=None,
                        preconditioned=True):
    """Synthetic regression data with correlated Gaussian features.

    Features are N(0, Sigma) rows with Sigma = (GG' + 0.1 I) scaled to unit
    top eigenvalue.  LS labels are a'x* plus Gaussian noise; logistic labels
    threshold the noisy sigmoid of a'x* into {-1, +1}.
    """
    if loss not in ("ls", "logistic"):
        raise ValueError(f"unknown loss {loss!r}")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, dim))
    sigma = G @ G.T + 0.1 * np.eye(dim)
    sigma /= np.linalg.eigvalsh(sigma)[-1]
    chol = np.linalg.cholesky(sigma)
    A = rng.standard_normal((n_samples, dim)) @ chol.T
    x_star = rng.standard_normal(dim)
    if loss == "ls":
        b = A @ x_star + noise * rng.standard_normal(n_samples)
        default_lam = 1e-2
    else:
        from scipy.special import expit

        y = expit(A @ x_star) + noise * rng.uniform(0.0, 1.0, n_samples)
        b = np.where(y >= 0.5, 1.0, -1.0)
        default_lam = 1e-4
    zero_cols = []
    if preconditioned:
        A, zero_cols = precondition(A)
    return RegressionProblem(
        A=A,
        b=b,
        loss=loss,
        lam=default_lam if lam is None else float(lam),
        x_star=x_star,
        seed=seed,
        noise=noise,
        zero_variance_columns=zero_cols,
    )


def smooth_part(problem):
    """The differentiable term of a problem descriptor as a SmoothObjective."""
    if isinstance(problem, QPProblem):
        return QuadraticObjective(
            problem.Q,
            problem.q,
            problem.p,
            strong_convexity=problem.strong_convexity,
            smoothness=problem.smoothness,
        )
    if isinstance(problem, RegressionProblem):
        if problem.loss == "ls":
            return _least_squares(problem.A, problem.b)
        return LogisticObjective(problem.A, problem.b)
    raise TypeError(f"unknown problem type {type(problem).__name__}")


def load_csv(path, label_column, loss="ls", lam=None, header="auto"):
    """Load a delimited numeric dataset into a RegressionProblem.

    The label column is selected by 0-based index (or by name when a header
    row is present); remaining columns form the design matrix, which is then
    preconditioned.  Non-numeric or non-finite cells raise ValueError with
    their row and column.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")

    def parse_row(cells, row_no):
        out = []
        for c, cell in enumerate(cells):
            try:
                val = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: row {row_no}, column {c + 1}: "
                    f"non-numeric cell {cell.strip()!r}"
                ) from None
            if not np.isfinite(val):
                raise ValueError(
                    f"{path}: row {row_no}, column {c + 1}: non-finite value {cell!r}"
                )
            out.append(val)
        return out

    names = None
    start = 0
    if header == "auto":
        try:
            parse_row(rows[0], 1)
        except ValueError:
            names = [c.strip() for c in rows[0]]
            start = 1
    elif header:
        names = [c.strip() for c in rows[0]]
        start = 1

    width = len(rows[start])
    data = []
    for r in range(start, len(rows)):
        if len(rows[r]) != width:
            raise ValueError(
                f"{path}: row {r + 1} has {len(rows[r])} cells, expected {width}"
            )
        data.append(parse_row(rows[r], r + 1))
    if not data:
        raise ValueError(f"{path}: no data rows after the header")
    table = np.array(data)

    if isinstance(label_column, str):
        if names is None or label_column not in names:
            raise ValueError(f"{path}: no column named {label_column!r}")
        label_idx = names.index(label_column)
    else:
        label_idx = int(label_column)
        if not 0 <= label_idx < width:
            raise ValueError(
                f"{path}: label column {label_idx} out of range 0..{width - 1}"
            )
    b = table[:, label_idx]
    A = np.delete(table, label_idx, axis=1)
    if loss == "logistic" and not np.all(np.isin(b, (-1.0, 1.0))):
        raise ValueError(f"{path}: logistic labels must be -1 or +1")
    A, zero_cols = precondition(A)
    if lam is None:
        lam = 1e-2 if loss == "ls" else 1e-4
    return RegressionProblem(
        A=A,
        b=b,
        loss=loss,
        lam=float(lam),
        x_star=None,
        seed=None,
        noise=0.0,
        zero_variance_columns=zero_cols,
    )

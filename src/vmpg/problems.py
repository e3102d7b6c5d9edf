"""Benchmark problem families: synthetic QPs and regularized regression.

QP instances are built as Q = H D H' with H orthogonal from a seeded
Gaussian and D log-uniformly spaced on [1, kappa], so the strong convexity
and smoothness constants are known by construction.  Regression instances
draw correlated Gaussian features, generate labels from a planted parameter
vector, and pass the design matrix through the standard centering /
column-normalization pipeline.
"""

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import SmoothObjective


class _PointMemo(SmoothObjective):
    """One-entry memo of ``_image_of(x)`` for the last point x seen.

    ``value`` and ``gradient`` at the same point then share one product with
    the objective's matrix, in either order.  The memo is keyed by the dtype,
    shape and bytes of x, never by its identity: a point changed in place is
    recomputed.  The matrix and vectors of the objective must not change in
    place after construction.

    ``_extrapolates`` is True when the image is affine in x and the product
    costs more than a combination of two images: FISTA then forms the image
    at its extrapolated point from the images it has, and serves it to
    ``value`` and ``gradient`` through ``_install_image``.  An installed
    image is served by the identity of its point, with no key: the caller
    holds that point unchanged until it uninstalls the image.
    """

    _image_key = None
    _image_value = None
    _installed = None  # (point, image) served by identity, else None
    _extrapolates = False

    def _image(self, x):
        installed = self._installed
        if installed is not None and x is installed[0]:
            return installed[1]
        key = (x.dtype, x.shape, x.tobytes())
        if key != self._image_key:
            self._image_value = self._image_of(x)
            self._image_key = key
        return self._image_value

    def _install_image(self, x, image):
        """Serve image to reads of the array x itself, until a call with x None."""
        self._installed = None if x is None else (x, image)


# A matrix of at least this many entries (1 MiB of float64) is large: a tall
# least-squares design that large is solved in its Gram form, and a symmetric
# Q that large is applied through one triangle.  The README records the
# timings behind the constant.
_GRAM_MIN_SIZE = 2**17


class QuadraticObjective(_PointMemo):
    """f(x) = (1/2) x'Qx + q'x + p with symmetric Q; value and gradient share Q @ x.

    How Q is applied is decided once, at construction.  A C- or F-contiguous
    Q of at least _GRAM_MIN_SIZE entries that equals its transpose exactly
    is applied by BLAS dsymv, which reads one triangle of Q (half the bytes
    of Q @ x, and within rounding of it) through a column-major view; the
    first such Q imports scipy.linalg.  Every other Q is applied as Q @ x.
    On the dsymv path the view is bound at construction, so Q must not be
    replaced or changed in place afterwards.

    strong_convexity must be at most the least eigenvalue of Q (see
    SmoothObjective); it is not checked against Q here.
    """

    _triangle = None  # column-major view of a large symmetric Q, else None
    scale = None  # s of the least-squares loss a Gram form was built from, else None

    def __init__(self, Q, q, p=0.0, strong_convexity=None, smoothness=None):
        self.Q = np.asarray(Q, dtype=float)
        self.q = np.asarray(q, dtype=float)
        if self.q.ndim != 1 or self.Q.shape != self.q.shape * 2:
            raise ValueError(f"Q has shape {self.Q.shape} and q {self.q.shape}; "
                             "need (n, n) and (n,)")
        self.p = float(p)
        self.strong_convexity = strong_convexity
        self.smoothness = smoothness
        self._minimizer = None
        Q = self.Q
        if (Q.size >= _GRAM_MIN_SIZE and (Q.flags.c_contiguous or Q.flags.f_contiguous)
                and np.array_equal(Q, Q.T)):
            from scipy.linalg.blas import dsymv

            self._dsymv = dsymv
            self._triangle = Q if Q.flags.f_contiguous else Q.T
            self._extrapolates = True

    @property
    def dim(self):
        return self.q.shape[0]

    def _image_of(self, x):
        if self._triangle is None:
            return self.Q @ x
        if x.shape != self.q.shape:  # dsymv would read a prefix of a longer x
            raise ValueError(f"point has shape {x.shape}, expected {self.q.shape}")
        return self._dsymv(1.0, self._triangle, x)

    def value(self, x):
        return 0.5 * float(x.dot(self._image(x))) + float(self.q.dot(x)) + self.p

    def gradient(self, x):
        return self._image(x) + self.q

    @property
    def dual_terms(self):
        """None, or for a Gram form of s ||Ax - b||^2 + ridge ||x||^2 a function
        of x giving (s, ||b||^2, b'Ax) from p = s b'b and q'x = -2s b'Ax."""
        # a bound method made on each read, never stored on the instance,
        # where it would form a reference cycle that outlives the objective
        return None if self.scale is None else self._gram_dual_terms

    def _gram_dual_terms(self, x):
        s = self.scale
        return s, self.p / s, float(self.q.dot(x)) / (-2.0 * s)

    @property
    def minimizer(self):
        if self._minimizer is None:
            self._minimizer = np.linalg.solve(self.Q, -self.q)
        return self._minimizer

    @property
    def optimal_value(self):
        return self.value(self.minimizer)


def _check_design(A, b):
    """ValueError naming A and b unless A is N x n and b has N entries."""
    if A.ndim != 2 or b.shape != A.shape[:1]:
        raise ValueError(f"A has shape {A.shape} and b {b.shape}; need (N, n) and (N,)")


def _loss_constants(n_rows, scale, ridge):
    """(scale, ridge) as floats, scale = 1/n_rows when None.

    Raises ValueError unless 0 < scale < inf and 0 <= ridge < inf: a negative
    ridge makes the objective unbounded below, and a NaN or infinite one
    makes every value NaN.
    """
    scale = 1.0 / n_rows if scale is None else float(scale)
    ridge = float(ridge)
    if not 0.0 < scale < np.inf:
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    if not 0.0 <= ridge < np.inf:
        raise ValueError(f"ridge must be nonnegative and finite, got {ridge!r}")
    return scale, ridge


class _AffineLoss(_PointMemo):
    """scale * loss(A x; b) + ridge * ||x||^2 over a fixed design matrix A.

    The memoized image is the residual for least squares and the margins for
    logistic, so ``value`` and ``gradient`` share one product A @ x.
    ``smoothness`` bounds the Hessian scale * A' D A + 2 ridge I, where the
    loss's second derivative D is at most ``_curvature``.
    """

    _curvature = None  # set by each loss
    _smoothness = None

    def __init__(self, A, b, scale=None, ridge=0.0):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        _check_design(self.A, self.b)
        self.scale, self.ridge = _loss_constants(self.A.shape[0], scale, ridge)
        self._extrapolates = self.A.size >= _GRAM_MIN_SIZE
        if ridge > 0:
            self.strong_convexity = 2.0 * ridge

    @property
    def dim(self):
        return self.A.shape[1]

    @property
    def smoothness(self):
        # curvature * scale * ||A||_2^2 + 2 * ridge, ||A||_2^2 the top
        # eigenvalue of the smaller Gram matrix, A'A or AA', by eigvalsh;
        # computed on first use
        if self._smoothness is None:
            A = self.A
            gram = A.T @ A if A.shape[0] >= A.shape[1] else A @ A.T
            top = float(np.linalg.eigvalsh(gram)[-1])
            self._smoothness = self._curvature * self.scale * top + 2.0 * self.ridge
        return self._smoothness


class LeastSquaresObjective(_AffineLoss):
    """f(x) = scale * ||Ax - b||^2 + ridge * ||x||^2, scale = 1/N by default."""

    _curvature = 2.0

    def _image_of(self, x):
        return self.A @ x - self.b

    def value(self, x):
        r = self._image(x)
        return self.scale * float(r @ r) + self.ridge * float(x @ x)

    def gradient(self, x):
        return 2.0 * self.scale * (self.A.T @ self._image(x)) + (
            2.0 * self.ridge
        ) * x

    def dual_terms(self, x):
        """(scale, ||b||^2, b'Ax) at x from the memoized residual r = Ax - b:
        no product when value or gradient was last taken at x."""
        b_sq = float(self.b.dot(self.b))
        return self.scale, b_sq, float(self.b.dot(self._image(x))) + b_sq


def _eigvalsh_error(eig):
    """A bound on the absolute error of the eigenvalues eig that eigvalsh
    returned for a symmetric matrix of order len(eig): 16 n eps max|eig|."""
    return 16 * eig.shape[0] * np.finfo(float).eps * np.abs(eig).max()


def _least_squares(A, b, scale=None, ridge=0.0):
    """scale * ||Ax - b||^2 + ridge * ||x||^2 in the cheaper of two exact forms.

    A tall design (N >= n) with at least _GRAM_MIN_SIZE entries gives the
    quadratic (1/2) x'Qx + q'x + p with Q = 2(scale A'A + ridge I),
    q = -2 scale A'b and p = scale b'b: one n x n product per value/gradient
    pair instead of two N x n products, for n^2 more floats.  Q is exactly
    symmetric, so a large one is applied through one triangle, and its
    smoothness is its top eigenvalue by eigvalsh.  Its value has an absolute
    rounding error of about eps * scale * ||b||^2, so near a zero residual
    it can dip just below 0.  The quadratic keeps scale, so that its
    dual_terms give the least-squares duality gap.  Its strong_convexity is
    the least eigenvalue from the same eigvalsh spectrum, rounded down by
    _eigvalsh_error and floored at 2 ridge; None when that is not positive
    (a rank-deficient design without a ridge).  Any other design keeps the
    residual form, LeastSquaresObjective, whose modulus is 2 ridge alone.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_design(A, b)
    n_rows, n_cols = A.shape
    if n_rows < n_cols or A.size < _GRAM_MIN_SIZE:
        return LeastSquaresObjective(A, b, scale=scale, ridge=ridge)
    scale, ridge = _loss_constants(n_rows, scale, ridge)
    Q = A.T @ A
    Q *= 2.0 * scale
    Q.flat[:: n_cols + 1] += 2.0 * ridge
    q = A.T @ b
    q *= -2.0 * scale
    eig = np.linalg.eigvalsh(Q)
    modulus = max(float(eig[0] - _eigvalsh_error(eig)), 2.0 * ridge)
    f = QuadraticObjective(
        Q,
        q,
        scale * float(b @ b),
        strong_convexity=modulus if modulus > 0 else None,
        smoothness=float(eig[-1]),
    )
    f.scale = scale
    return f


class LogisticObjective(_AffineLoss):
    """f(x) = scale * sum_i log(1 + exp(-b_i a_i'x)) + ridge * ||x||^2.

    Labels must be in {-1, +1}.  All exponentials go through logaddexp /
    expit, so values and gradients stay finite for any finite x.  The
    logistic loss has second derivative at most 1/4, so ``smoothness`` is
    scale * ||A||_2^2 / 4 + 2 * ridge.
    """

    _curvature = 0.25

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
    if not 1 <= kappa < math.inf:  # also rejects a NaN kappa
        raise ValueError(f"kappa must be finite and >= 1, got {kappa}")
    if n < (1 if kappa == 1 else 2):
        raise ValueError("n must be >= 1, and >= 2 for kappa > 1")
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


def _default_lam(kind):
    """The regularizer weight a problem of this kind gets when none is given."""
    return 1e-4 if kind == "logistic" else 1e-2


def _precondition_in_place(A, tol=1e-12):
    """Center and normalize the float columns of A in place; zero-variance indices.

    Works on A's own memory, so preconditioning a freshly built design needs
    no second N x n array.  ``A /= norms`` divides exactly as ``A / norms``.
    """
    A -= A.mean(axis=0)
    norms = np.linalg.norm(A, axis=0)
    zero = norms <= tol * np.sqrt(A.shape[0])
    norms[zero] = 1.0
    A /= norms
    return np.flatnonzero(zero).tolist()


def precondition(A, tol=1e-12):
    """Center columns to mean zero, then normalize them to unit l2 norm.

    Zero-variance columns are left at zero and their indices returned.  The
    pipeline is idempotent up to floating-point roundoff.  A is not modified.
    """
    A = np.array(A, dtype=float)
    zero_cols = _precondition_in_place(A, tol)
    return A, zero_cols


def generate_regression(n_samples, dim, loss, seed, noise=0.2, lam=None,
                        preconditioned=True):
    """Synthetic regression data with correlated Gaussian features.

    Features are N(0, Sigma) rows with Sigma = (GG' + 0.1 I) scaled to unit
    top eigenvalue.  LS labels are a'x* plus Gaussian noise; logistic labels
    threshold the noisy sigmoid of a'x* into {-1, +1}.
    """
    if loss not in ("ls", "logistic"):
        raise ValueError(f"unknown loss {loss!r}")
    if dim < 1 or n_samples < 1:
        raise ValueError(f"need dim >= 1 and n_samples >= 1, got {dim} and {n_samples}")
    if not math.isfinite(noise):
        raise ValueError(f"noise must be finite, got {noise}")
    rng = np.random.default_rng(seed)
    # each n x n factor is dropped once read and A is preconditioned in
    # place, so the peak is the one product below, which holds its N x n
    # input and output at once
    G = rng.standard_normal((dim, dim))
    sigma = G @ G.T
    del G
    sigma += 0.1 * np.eye(dim)
    sigma /= np.linalg.eigvalsh(sigma)[-1]
    chol = np.linalg.cholesky(sigma)
    del sigma
    A = rng.standard_normal((n_samples, dim)) @ chol.T
    del chol
    x_star = rng.standard_normal(dim)
    if loss == "ls":
        b = A @ x_star + noise * rng.standard_normal(n_samples)
    else:
        from scipy.special import expit

        y = expit(A @ x_star) + noise * rng.uniform(0.0, 1.0, n_samples)
        b = np.where(y >= 0.5, 1.0, -1.0)
    zero_cols = _precondition_in_place(A) if preconditioned else []
    return RegressionProblem(
        A=A,
        b=b,
        loss=loss,
        lam=_default_lam(loss) if lam is None else float(lam),
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
    their row and column.  The file is read twice, once to count its rows
    and once to parse each row straight into the design matrix and the
    label vector, so no table of strings or Python floats is held.
    """
    if loss not in ("ls", "logistic"):
        raise ValueError(f"unknown loss {loss!r}")

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

    with open(path, newline="") as fh:
        rows = (row for row in csv.reader(fh) if row)
        head = list(itertools.islice(rows, 2))
        n_rows = len(head) + sum(1 for _ in rows)
        if not head:
            raise ValueError(f"{path}: no data rows")
        names = None
        if header == "auto":
            try:
                parse_row(head[0], 1)
            except ValueError:
                names = [c.strip() for c in head[0]]
        elif header:
            names = [c.strip() for c in head[0]]
        start = int(names is not None)
        n_data = n_rows - start
        if not n_data:
            raise ValueError(f"{path}: no data rows after the header")
        width = len(head[start])

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
        A = np.empty((n_data, width - 1))
        b = np.empty(n_data)
        fh.seek(0)
        rows = enumerate((row for row in csv.reader(fh) if row), 1)
        for i, (row_no, cells) in enumerate(itertools.islice(rows, start, None)):
            if len(cells) != width:
                raise ValueError(
                    f"{path}: row {row_no} has {len(cells)} cells, expected {width}"
                )
            values = parse_row(cells, row_no)
            b[i] = values.pop(label_idx)
            A[i] = values
    if loss == "logistic" and not np.all(np.isin(b, (-1.0, 1.0))):
        raise ValueError(f"{path}: logistic labels must be -1 or +1")
    zero_cols = _precondition_in_place(A)
    return RegressionProblem(
        A=A,
        b=b,
        loss=loss,
        lam=_default_lam(loss) if lam is None else float(lam),
        x_star=None,
        seed=None,
        noise=0.0,
        zero_variance_columns=zero_cols,
    )

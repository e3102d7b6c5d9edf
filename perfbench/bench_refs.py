"""Reference optima computed without vmpg.prox or vmpg.solver.

Each reference starts from a generic solver (scipy's L-BFGS-B or a closed
form) and then polishes the result with a few exact active-set steps: fix the active constraints or the lasso signs, solve the reduced
linear KKT system, and repeat until the KKT conditions hold to near machine
precision.  A reference that cannot be certified raises BenchmarkError, so a
wrong optimum can never classify a solve.
"""

import numpy as np
from scipy.optimize import minimize

# KKT residuals are accepted up to this multiple of the problem's gradient
# scale; the polished solutions reach about 1e-14.
KKT_TOL = 1e-9
ACTIVE_SET_ROUNDS = 50


class BenchmarkError(RuntimeError):
    """The harness could not produce or check a result; the run is void."""


def _lbfgsb(fun, x0, bounds):
    res = minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                   options=dict(maxiter=50_000, maxfun=100_000, maxcor=30,
                                ftol=1e-12, gtol=1e-9))
    return res.x


def _scale(grad_terms):
    return max(1.0, float(np.max(np.abs(grad_terms))))


def nonneg_qp(Q, q):
    """argmin 1/2 x'Qx + q'x over x >= 0; returns (x, F*)."""
    n = q.shape[0]
    x = _lbfgsb(lambda x: (0.5 * x @ Q @ x + q @ x, Q @ x + q),
                np.zeros(n), [(0.0, None)] * n)
    free = x > 0
    scale = _scale(q)
    for _ in range(ACTIVE_SET_ROUNDS):
        x = np.zeros(n)
        x[free] = np.linalg.solve(Q[np.ix_(free, free)], -q[free])
        grad = Q @ x + q
        negative = free & (x < 0)
        pushing = ~free & (grad < -KKT_TOL * scale)
        if not negative.any() and not pushing.any():
            return x, float(0.5 * x @ Q @ x + q @ x)
        free = (free & ~negative) | pushing
    raise BenchmarkError("nonnegative QP reference did not certify")


def lasso_ls(A, b, lam):
    """argmin (1/N)||Ax - b||^2 + lam ||x||_1; returns (x, F*).

    L-BFGS-B runs on the split x = p - q with p, q >= 0, using the Gram form
    so each evaluation costs one n x n product.
    """
    N, n = A.shape
    G = A.T @ A / N
    c = A.T @ b / N

    def split(z):
        x = z[:n] - z[n:]
        grad = 2.0 * (G @ x - c)
        value = x @ G @ x - 2.0 * c @ x + lam * z.sum()
        return value, np.concatenate([grad + lam, lam - grad])

    z = _lbfgsb(split, np.zeros(2 * n), [(0.0, None)] * (2 * n))
    x = z[:n] - z[n:]
    sign = np.sign(x)
    scale = _scale(2.0 * c)
    for _ in range(ACTIVE_SET_ROUNDS):
        S = sign != 0
        x = np.zeros(n)
        x[S] = np.linalg.solve(G[np.ix_(S, S)], c[S] - 0.5 * lam * sign[S])
        grad = 2.0 * (G @ x - c)
        flipped = S & (np.sign(x) != sign)
        excess = ~S & (np.abs(grad) > lam + KKT_TOL * scale)
        if not flipped.any() and not excess.any():
            r = A @ x - b
            return x, float(r @ r / N + lam * np.abs(x).sum())
        sign = np.where(flipped, 0.0, sign)
        sign = np.where(excess, -np.sign(grad), sign)
    raise BenchmarkError("lasso reference did not certify")


def pooled_ridge(A, b, ridge, n_nodes):
    """argmin of sum_j (1/N)||A_j x - b_j||^2 + ridge ||x||^2 over m nodes.

    Every node keeps the global 1/N loss scale and its own ridge term, so
    the pooled objective is (1/N)||Ax - b||^2 + m ridge ||x||^2.
    """
    N, n = A.shape
    H = A.T @ A / N + n_nodes * ridge * np.eye(n)
    x = np.linalg.solve(H, A.T @ b / N)
    r = A @ x - b
    residual = np.linalg.norm(2.0 * (H @ x - A.T @ b / N))
    if not residual <= KKT_TOL * _scale(A.T @ b / N):
        raise BenchmarkError("consensus reference did not certify")
    return x, float(r @ r / N + n_nodes * ridge * (x @ x))

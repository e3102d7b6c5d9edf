"""Regression instances against the builders they replaced, and their peak memory.

``reference_precondition``, ``reference_generate_regression`` and
``reference_load_csv`` build instances as they stood before the design was
preconditioned in place and the covariance factors were released early.
The current builders must agree with them byte for byte, and building a
2000 x 500 instance must stay near the floor set by its one N x n product.
"""

import csv
import tracemalloc

import numpy as np
import pytest

from vmpg.problems import _default_lam, generate_regression, load_csv, precondition


def reference_precondition(A, tol=1e-12):
    A = np.array(A, dtype=float)
    A -= A.mean(axis=0)
    norms = np.linalg.norm(A, axis=0)
    zero_cols = np.flatnonzero(norms <= tol * np.sqrt(A.shape[0])).tolist()
    safe = norms.copy()
    safe[norms <= tol * np.sqrt(A.shape[0])] = 1.0
    return A / safe, zero_cols


def reference_generate_regression(n_samples, dim, loss, seed, noise=0.2,
                                  preconditioned=True):
    """(A, b, x_star, zero_variance_columns)."""
    from scipy.special import expit

    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, dim))
    sigma = G @ G.T + 0.1 * np.eye(dim)
    sigma /= np.linalg.eigvalsh(sigma)[-1]
    chol = np.linalg.cholesky(sigma)
    A = rng.standard_normal((n_samples, dim)) @ chol.T
    x_star = rng.standard_normal(dim)
    if loss == "ls":
        b = A @ x_star + noise * rng.standard_normal(n_samples)
    else:
        y = expit(A @ x_star) + noise * rng.uniform(0.0, 1.0, n_samples)
        b = np.where(y >= 0.5, 1.0, -1.0)
    zero_cols = []
    if preconditioned:
        A, zero_cols = reference_precondition(A)
    return A, b, x_star, zero_cols


def reference_load_csv(path, label_column):
    """(A, b, zero_variance_columns) of a headerless all-numeric file."""
    with open(path, newline="") as fh:
        table = np.array([[float(c) for c in row] for row in csv.reader(fh) if row])
    A, zero_cols = reference_precondition(np.delete(table, label_column, axis=1))
    return A, table[:, label_column], zero_cols


def same_array(a, b):
    """Equal dtype, shape, memory order and bytes."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.flags.c_contiguous == b.flags.c_contiguous
            and a.flags.f_contiguous == b.flags.f_contiguous
            and a.tobytes(order="A") == b.tobytes(order="A"))


@pytest.mark.parametrize("preconditioned", [True, False])
@pytest.mark.parametrize("loss", ["ls", "logistic"])
@pytest.mark.parametrize("shape", [(2000, 500), (4000, 100), (50, 80), (2, 6)])
def test_generate_regression_matches_the_reference(shape, loss, preconditioned):
    prob = generate_regression(*shape, loss, 17, preconditioned=preconditioned)
    A, b, x_star, zero_cols = reference_generate_regression(
        *shape, loss, 17, preconditioned=preconditioned)
    assert same_array(prob.A, A)
    assert same_array(prob.b, b)
    assert same_array(prob.x_star, x_star)
    assert prob.zero_variance_columns == zero_cols
    assert prob.lam == _default_lam(loss)


def design(kind):
    rng = np.random.default_rng(18)
    A = rng.standard_normal((30, 5)) * rng.uniform(0.1, 50.0, 5) + 3.0
    if kind == "fortran":
        return np.asfortranarray(A)
    if kind == "integer":
        return rng.integers(-20, 20, size=(30, 5))
    if kind == "zero-variance":
        A[:, 3] = 7.25
    return A


@pytest.mark.parametrize("kind", ["c", "fortran", "integer", "zero-variance"])
def test_precondition_matches_the_reference_and_leaves_its_input(kind):
    A = design(kind)
    before = A.copy(order="K")
    out, zero_cols = precondition(A)
    want, want_zero = reference_precondition(A)
    assert same_array(out, want)
    assert zero_cols == want_zero
    assert same_array(A, before)
    if kind == "zero-variance":
        assert zero_cols == [3]


def test_load_csv_matches_the_reference(tmp_path):
    rng = np.random.default_rng(19)
    table = rng.standard_normal((25, 5)) * 10.0
    table[:, 2] = 4.5  # a zero-variance feature
    path = tmp_path / "data.csv"
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in table))
    prob = load_csv(str(path), label_column=1)
    A, b, zero_cols = reference_load_csv(path, 1)
    assert same_array(prob.A, A)
    assert np.asarray(prob.b).tobytes() == b.tobytes()
    assert prob.zero_variance_columns == zero_cols == [1]


def test_generate_regression_peak_stays_near_its_one_product():
    # the product standard_normal((N, n)) @ chol.T holds its input and output
    # at once: 2 x A.nbytes plus the n x n factor, 2.25 x at 2000 x 500
    generate_regression(40, 10, "ls", 0)  # first-use allocations of numpy and BLAS
    for seed in (3, 4, 5):
        tracemalloc.start()
        try:
            prob = generate_regression(2000, 500, "ls", seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * prob.A.nbytes, (seed, peak / prob.A.nbytes)


def test_load_csv_peak_stays_near_its_arrays(tmp_path):
    # each row is parsed straight into A and b; the peak is A and b plus the
    # one A-sized temporary of np.linalg.norm in the preconditioning, 2.06 x
    # A.nbytes traced on a 5000 x 21 file (it was 18.3 x with a table of
    # strings and one of Python floats)
    table = np.random.default_rng(20).standard_normal((5000, 21))
    path = tmp_path / "data.csv"
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in table))
    load_csv(str(path), label_column=0)  # first-use allocations of csv and numpy
    for label in (0, 9, 20):
        tracemalloc.start()
        try:
            prob = load_csv(str(path), label_column=label)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * prob.A.nbytes, (label, peak / prob.A.nbytes)
        assert prob.b.base is None  # b owns its memory, not a view of a table
        assert prob.b.tobytes() == table[:, label].tobytes()

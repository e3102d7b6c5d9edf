"""Problem generators, objective classes, and dataset loading."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg.blas import dsymv
from scipy.special import expit

from vmpg.consensus import ConsensusProblem, solve_consensus, split_regression
from vmpg import problems
from vmpg.core import DiagonalMetric, NumericalError, SmoothObjective
from vmpg.problems import (
    LeastSquaresObjective,
    LogisticObjective,
    QuadraticObjective,
    ScaledObjective,
    SumObjective,
    generate_qp,
    generate_regression,
    load_csv,
    precondition,
    _least_squares,
    smooth_part,
)
from vmpg.prox import Lasso, Nonnegative
from vmpg.solver import (
    LINE_SEARCH_FAILURE,
    NUMERICAL_FAILURE,
    FistaState,
    SolverConfig,
    _fista_step,
    solve,
)

from test_fista_reference import LARGE_KINDS, extrapolating_fista, large, large_lam


def fd_gradient(f, x, h=1e-6):
    """Central finite differences, one coordinate at a time."""
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f.value(x + e) - f.value(x - e)) / (2.0 * h)
    return g


class TestGenerateQP:
    def test_unit_condition_number_gives_identity(self):
        prob = generate_qp(n=8, kappa=1, seed=0)
        np.testing.assert_allclose(prob.Q, np.eye(8), atol=1e-12)

    def test_condition_number_matches_request(self):
        prob = generate_qp(n=100, kappa=1e4, seed=3)
        eigs = np.linalg.eigvalsh(prob.Q)
        cond = eigs[-1] / eigs[0]
        assert 0.999e4 <= cond <= 1.001e4
        assert abs(eigs[0] - 1.0) <= 1e-8
        assert abs(eigs[-1] - 1e4) <= 1e-4

    def test_symmetric(self):
        prob = generate_qp(n=40, kappa=50, seed=5)
        np.testing.assert_array_equal(prob.Q, prob.Q.T)

    def test_same_seed_is_bitwise_identical(self):
        a = generate_qp(n=30, kappa=100, seed=11)
        b = generate_qp(n=30, kappa=100, seed=11)
        assert np.array_equal(a.Q, b.Q)
        assert np.array_equal(a.q, b.q)

    def test_different_seeds_differ(self):
        a = generate_qp(n=30, kappa=100, seed=11)
        b = generate_qp(n=30, kappa=100, seed=12)
        assert not np.array_equal(a.q, b.q)

    def test_gradient_vanishes_at_minimizer(self):
        prob = generate_qp(n=25, kappa=100, seed=2)
        f = smooth_part(prob)
        np.testing.assert_allclose(
            f.gradient(f.minimizer), np.zeros(25), atol=1e-10
        )

    def test_rejects_bad_kappa(self):
        with pytest.raises(ValueError):
            generate_qp(n=10, kappa=0.5, seed=0)

    @pytest.mark.parametrize("n, kappa", [(0, 1.0), (-1, 1.0), (1, 10.0)])
    def test_rejects_too_small_a_dimension(self, n, kappa):
        # n = 0 with kappa = 1 once built an empty instance that gen wrote
        with pytest.raises(ValueError, match="n must be >= 1"):
            generate_qp(n=n, kappa=kappa, seed=0)

    @pytest.mark.parametrize("kappa", [np.nan, np.inf])
    def test_rejects_a_non_finite_kappa(self, kappa):
        # a NaN kappa fails both kappa < 1 and kappa > 1, which built Q = I
        with pytest.raises(ValueError, match="kappa must be finite"):
            generate_qp(n=10, kappa=kappa, seed=0)


class TestGenerateRegression:
    def test_same_seed_is_bitwise_identical(self):
        a = generate_regression(n_samples=20, dim=6, loss="ls", seed=4)
        b = generate_regression(n_samples=20, dim=6, loss="ls", seed=4)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.b, b.b)

    def test_logistic_labels_are_signs(self):
        prob = generate_regression(n_samples=50, dim=8, loss="logistic", seed=6)
        assert set(np.unique(prob.b)) <= {-1.0, 1.0}

    def test_noiseless_ls_labels_are_exact(self):
        prob = generate_regression(
            n_samples=30, dim=5, loss="ls", seed=7, noise=0.0, preconditioned=False
        )
        assert np.array_equal(prob.b, prob.A @ prob.x_star)

    def test_rejects_unknown_loss(self):
        with pytest.raises(ValueError):
            generate_regression(n_samples=10, dim=3, loss="huber", seed=0)

    @pytest.mark.parametrize("loss", ["ls", "logistic"])
    @pytest.mark.parametrize("n_samples, dim", [(10, 0), (0, 3), (10, -1)])
    def test_rejects_an_empty_shape(self, loss, n_samples, dim):
        with pytest.raises(ValueError, match="need dim >= 1 and n_samples >= 1"):
            generate_regression(n_samples=n_samples, dim=dim, loss=loss, seed=0)

    @pytest.mark.parametrize("loss", ["ls", "logistic"])
    @pytest.mark.parametrize("noise", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_noise(self, loss, noise):
        # a NaN noise made every logistic label -1
        with pytest.raises(ValueError, match="noise must be finite"):
            generate_regression(n_samples=10, dim=3, loss=loss, seed=0, noise=noise)

    def test_preconditioned_columns_are_centered_unit(self):
        prob = generate_regression(n_samples=60, dim=9, loss="ls", seed=8)
        np.testing.assert_allclose(prob.A.mean(axis=0), np.zeros(9), atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.norm(prob.A, axis=0), np.ones(9), rtol=1e-12
        )


def test_first_logistic_use_imports_scipy_and_computes_the_same_bits():
    """A fresh interpreter loads scipy.special only when a logistic problem
    needs it, and its labels and gradient match this process, which has scipy
    loaded already."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from vmpg.problems import generate_regression, smooth_part\n"
        "print('scipy.special' in sys.modules)\n"
        "p = generate_regression(40, 12, 'logistic', 5)\n"
        "grad = smooth_part(p).gradient(np.linspace(-1.0, 1.0, 12))\n"
        "print(p.b.tobytes().hex(), grad.tobytes().hex())\n"
        "print('scipy.special' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(problems.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    before, values, after = out.stdout.splitlines()
    p = generate_regression(40, 12, "logistic", 5)
    grad = smooth_part(p).gradient(np.linspace(-1.0, 1.0, 12))
    assert (before, after) == ("False", "True")
    assert values == f"{p.b.tobytes().hex()} {grad.tobytes().hex()}"


class TestPrecondition:
    def test_idempotent(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((40, 7)) * rng.uniform(0.1, 50.0, 7)
        once, _ = precondition(A)
        twice, _ = precondition(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_constant_column_reported_and_zeroed(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((30, 4))
        A[:, 2] = 5.0
        out, zero_cols = precondition(A)
        assert zero_cols == [2]
        np.testing.assert_array_equal(out[:, 2], np.zeros(30))
        assert np.all(np.isfinite(out))


class TestObjectives:
    def test_logistic_value_at_origin_is_log_two(self):
        prob = generate_regression(n_samples=40, dim=6, loss="logistic", seed=12)
        f = smooth_part(prob)
        assert abs(f.value(np.zeros(6)) - np.log(2.0)) <= 1e-12

    def test_logistic_rejects_soft_labels(self):
        with pytest.raises(ValueError):
            LogisticObjective(np.ones((3, 2)), np.array([1.0, 0.5, -1.0]))

    def test_logistic_stays_finite_at_extreme_points(self):
        f = LogisticObjective(np.eye(2), np.array([1.0, -1.0]))
        for x in (np.array([1e3, -1e3]), np.array([-1e3, 1e3])):
            assert np.isfinite(f.value(x))
            assert np.all(np.isfinite(f.gradient(x)))

    @pytest.mark.parametrize("shape", [(25, 10), (10, 25)], ids=["tall", "wide"])
    def test_least_squares_smoothness_matches_top_eigenvalue(self, shape):
        rng = np.random.default_rng(13)
        A = rng.standard_normal(shape)
        f = LeastSquaresObjective(A, rng.standard_normal(shape[0]), ridge=0.3)
        expected = 2.0 * (1.0 / shape[0]) * np.linalg.norm(A, 2) ** 2 + 0.6
        np.testing.assert_allclose(f.smoothness, expected, rtol=64 * np.finfo(float).eps)

    @pytest.mark.parametrize("shape", [(200, 20), (40, 200)], ids=["tall", "wide"])
    def test_logistic_smoothness_bounds_the_hessian(self, monkeypatch, shape):
        n_samples, dim = shape
        prob = generate_regression(n_samples=n_samples, dim=dim, loss="logistic", seed=0)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda M: calls.append(M.shape) or eigvalsh(M))
        f = LogisticObjective(prob.A, prob.b, ridge=0.3)
        assert calls == []  # computed on first use ...
        smoothness = f.smoothness
        # ... from the smaller Gram matrix, and kept
        assert f.smoothness == smoothness and calls == [(min(shape),) * 2]
        monkeypatch.undo()
        expected = f.scale * np.linalg.norm(prob.A, 2) ** 2 / 4 + 0.6
        np.testing.assert_allclose(smoothness, expected, rtol=64 * np.finfo(float).eps)
        rng = np.random.default_rng(31)
        for scale in (0.0, 1.0, 10.0):
            t = prob.b * (prob.A @ (scale * rng.standard_normal(dim)))
            curvature = expit(t) * expit(-t)  # at most 1/4, at t = 0
            hessian = f.scale * (prob.A.T * curvature) @ prob.A + 0.6 * np.eye(dim)
            assert np.linalg.eigvalsh(hessian)[-1] <= f.smoothness * (1 + 1e-9)

    @pytest.mark.parametrize("loss", ["ls", "logistic"])
    def test_finite_difference_gradients(self, loss):
        prob = generate_regression(n_samples=30, dim=7, loss=loss, seed=14)
        f = smooth_part(prob)
        rng = np.random.default_rng(15)
        for _ in range(5):
            x = rng.standard_normal(7)
            grad = f.gradient(x)
            approx = fd_gradient(f, x)
            np.testing.assert_allclose(grad, approx, rtol=1e-5, atol=1e-8)

    def test_quadratic_finite_difference_gradient(self):
        prob = generate_qp(n=6, kappa=30, seed=16)
        f = smooth_part(prob)
        rng = np.random.default_rng(17)
        x = rng.standard_normal(6)
        np.testing.assert_allclose(
            f.gradient(x), fd_gradient(f, x), rtol=1e-5, atol=1e-8
        )

    def test_sum_objective_combines_terms(self):
        f1 = QuadraticObjective(np.eye(2), np.array([1.0, 0.0]), 0.0)
        f2 = QuadraticObjective(2 * np.eye(2), np.array([0.0, -1.0]), 1.0)
        total = SumObjective([f1, f2])
        x = np.array([0.3, -0.7])
        assert abs(total.value(x) - (f1.value(x) + f2.value(x))) <= 1e-14
        np.testing.assert_allclose(
            total.gradient(x), f1.gradient(x) + f2.gradient(x)
        )

    def test_scaled_objective(self):
        f = QuadraticObjective(np.eye(2), np.zeros(2), 1.0)
        h = ScaledObjective(f, 0.25)
        x = np.array([2.0, 0.0])
        assert abs(h.value(x) - 0.25 * f.value(x)) <= 1e-14
        np.testing.assert_allclose(h.gradient(x), 0.25 * f.gradient(x))


def affine_loss(form, **constants):
    """One affine loss built on a fixed instance: residual, Gram or logistic."""
    loss = "logistic" if form == "logistic" else "ls"
    shape = (2048, 64) if form == "gram" else (40, 6)
    prob = generate_regression(*shape, loss=loss, seed=60)
    build = LogisticObjective if form == "logistic" else _least_squares
    return build(prob.A, prob.b, **constants)


class TestLossConstants:
    """scale and ridge are checked once, where each affine loss is built."""

    @pytest.mark.parametrize("form", ["residual", "gram", "logistic"])
    @pytest.mark.parametrize("constants", [
        dict(ridge=-1.0), dict(ridge=np.nan), dict(ridge=np.inf),
        dict(scale=0.0), dict(scale=-1.0), dict(scale=np.nan), dict(scale=np.inf),
    ], ids=lambda c: f"{next(iter(c))}={next(iter(c.values()))}")
    def test_bad_constant_is_rejected(self, form, constants):
        name = next(iter(constants))
        with pytest.raises(ValueError, match=f"{name} must be"):
            affine_loss(form, **constants)

    @pytest.mark.parametrize("form", ["residual", "gram", "logistic"])
    def test_valid_constants_are_kept_as_floats(self, form):
        f = affine_loss(form, scale=0.25, ridge=0)
        g = affine_loss(form, ridge=0.05)
        if form == "gram":  # its modulus is read off its spectrum (TestGramModulus)
            assert type(f.strong_convexity) is float and g.strong_convexity > 0.1
            return
        assert f.strong_convexity is None
        assert (f.scale, f.ridge) == (0.25, 0.0)
        assert type(f.scale) is float and type(f.ridge) is float
        assert g.strong_convexity == 0.1


class TestLoadCsv:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_small_headerless_file(self, tmp_path):
        path = self.write(tmp_path, "1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        prob = load_csv(path, label_column=1)
        np.testing.assert_array_equal(prob.b, [2.0, 4.0, 6.0])
        assert prob.A.shape == (3, 1)
        assert prob.loss == "ls"

    def test_header_with_named_label(self, tmp_path):
        path = self.write(tmp_path, "x1,x2,y\n1,2,3\n4,5,6\n7,8,10\n")
        prob = load_csv(path, label_column="y")
        np.testing.assert_array_equal(prob.b, [3.0, 6.0, 10.0])
        assert prob.A.shape == (3, 2)

    @pytest.mark.parametrize("header", [True, "auto"])
    def test_header_without_data_rows(self, tmp_path, header):
        path = self.write(tmp_path, "x1,x2,y\n\n")
        with pytest.raises(ValueError, match="no data rows after the header"):
            load_csv(path, label_column=0, header=header)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = self.write(tmp_path, "1,2\n3,oops\n5,6\n")
        with pytest.raises(ValueError, match="row 2.*column 2"):
            load_csv(path, label_column=0)

    def test_nan_cell_rejected(self, tmp_path):
        path = self.write(tmp_path, "1,2\n3,nan\n5,6\n")
        with pytest.raises(ValueError, match="row 2.*column 2"):
            load_csv(path, label_column=0)

    def test_ragged_row_rejected(self, tmp_path):
        path = self.write(tmp_path, "1,2\n3\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(path, label_column=0)

    def test_label_out_of_range(self, tmp_path):
        path = self.write(tmp_path, "1,2\n3,4\n")
        with pytest.raises(ValueError, match="label column"):
            load_csv(path, label_column=5)

    def test_missing_named_label(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ValueError, match="no column named"):
            load_csv(path, label_column="z")

    def test_logistic_labels_validated(self, tmp_path):
        path = self.write(tmp_path, "1,0.5\n2,1\n")
        with pytest.raises(ValueError, match="-1 or \\+1"):
            load_csv(path, label_column=1, loss="logistic")

    def test_constant_feature_column_flagged(self, tmp_path):
        path = self.write(tmp_path, "1,7,2\n3,7,4\n5,7,6\n-1,7,0\n")
        prob = load_csv(path, label_column=2)
        assert prob.zero_variance_columns == [1]
        np.testing.assert_array_equal(prob.A[:, 1], np.zeros(4))

    def test_loaded_problem_feeds_the_solver(self, tmp_path):
        rng = np.random.default_rng(19)
        A = rng.standard_normal((12, 3))
        b = A @ np.array([1.0, -2.0, 0.5]) + 0.01 * rng.standard_normal(12)
        lines = "\n".join(
            ",".join(repr(float(v)) for v in list(row) + [lab])
            for row, lab in zip(A, b)
        )
        path = self.write(tmp_path, lines + "\n")
        prob = load_csv(path, label_column=3)
        f = smooth_part(prob)
        assert f.dim == 3
        assert np.isfinite(f.value(np.zeros(3)))


class ReferenceLeastSquares(SmoothObjective):
    """Memo-free least squares: A @ x is recomputed by every call."""

    def __init__(self, A, b, scale=None, ridge=0.0):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.scale = 1.0 / self.A.shape[0] if scale is None else float(scale)
        self.ridge = float(ridge)
        if ridge > 0:  # the modulus a consensus certificate reads
            self.strong_convexity = 2.0 * self.ridge

    @property
    def dim(self):
        return self.A.shape[1]

    def value(self, x):
        r = self.A @ x - self.b
        return self.scale * float(r @ r) + self.ridge * float(x @ x)

    def gradient(self, x):
        return 2.0 * self.scale * (self.A.T @ (self.A @ x - self.b)) + (
            2.0 * self.ridge
        ) * x

    def dual_terms(self, x):
        """(scale, ||b||^2, b'Ax), the terms of the duality gap solve checks."""
        b_sq = float(self.b @ self.b)
        return self.scale, b_sq, float(self.b @ (self.A @ x - self.b)) + b_sq


class ReferenceLogistic(ReferenceLeastSquares):
    """Memo-free logistic loss: A @ x is recomputed by every call."""

    dual_terms = None  # no least-squares duality gap

    def value(self, x):
        t = self.b * (self.A @ x)
        return self.scale * float(np.sum(np.logaddexp(0.0, -t))) + self.ridge * float(
            x @ x
        )

    def gradient(self, x):
        t = self.b * (self.A @ x)
        w = -self.b * expit(-t)
        return self.scale * (self.A.T @ w) + (2.0 * self.ridge) * x


OBJECTIVES = {
    "ls": (LeastSquaresObjective, ReferenceLeastSquares),
    "logistic": (LogisticObjective, ReferenceLogistic),
}


def objective_pair(loss, n_samples=60, dim=9, seed=21, ridge=0.05):
    """A memoized objective and its memo-free reference on the same data."""
    prob = generate_regression(n_samples=n_samples, dim=dim, loss=loss, seed=seed)
    memoized, reference = OBJECTIVES[loss]
    return (
        memoized(prob.A, prob.b, ridge=ridge),
        reference(prob.A, prob.b, ridge=ridge),
    )


def same_bits(a, b):
    """Equal dtype, shape and bytes (NaN payloads and signed zeros included)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("loss", ["ls", "logistic"])
class TestSharedAffineImage:
    """value and gradient share A @ x yet match the memo-free formulas bit for bit."""

    def check(self, f, ref, x, order):
        for kind in order:
            assert same_bits(getattr(f, kind)(x), getattr(ref, kind)(x)), kind

    def test_value_then_gradient_and_gradient_then_value(self, loss):
        f, ref = objective_pair(loss)
        rng = np.random.default_rng(22)
        self.check(f, ref, rng.standard_normal(f.dim), ("value", "gradient"))
        self.check(f, ref, rng.standard_normal(f.dim), ("gradient", "value"))
        self.check(f, ref, rng.standard_normal(f.dim), ("gradient", "gradient", "value"))

    def test_alternating_points(self, loss):
        f, ref = objective_pair(loss)
        rng = np.random.default_rng(23)
        x1, x2 = rng.standard_normal(f.dim), rng.standard_normal(f.dim)
        for x in (x1, x2, x1, x2, x2, x1):
            self.check(f, ref, x, ("value", "gradient"))
        for x in (x1, x2, x1):
            self.check(f, ref, x, ("gradient", "value"))

    def test_point_changed_in_place(self, loss):
        f, ref = objective_pair(loss)
        rng = np.random.default_rng(24)
        x = rng.standard_normal(f.dim)
        f.value(x)
        x[...] = rng.standard_normal(f.dim)
        self.check(f, ref, x, ("gradient", "value"))
        x[3] += 1.0
        self.check(f, ref, x, ("value", "gradient"))
        x[...] = -0.0
        f.gradient(x)
        x[...] = 0.0  # equal to -0.0 by value, not by bits
        self.check(f, ref, x, ("value", "gradient"))

    def test_views_of_a_stacked_vector(self, loss):
        f, ref = objective_pair(loss)
        rng = np.random.default_rng(25)
        xb = rng.standard_normal(3 * f.dim).reshape(3, f.dim)
        for j in (0, 1, 2, 1):
            self.check(f, ref, xb[j], ("value", "gradient"))
        strided = np.asfortranarray(xb)  # each row is a view with stride 3
        for j in (2, 0):
            self.check(f, ref, strided[j], ("gradient", "value"))

    def test_point_with_nan(self, loss):
        f, ref = objective_pair(loss)
        x = np.random.default_rng(26).standard_normal(f.dim)
        x[4] = np.nan
        with np.errstate(invalid="ignore"):
            self.check(f, ref, x, ("value", "gradient", "value"))
            assert np.isnan(f.value(x))

    @pytest.mark.parametrize("method", ["vmpg-dbb", "pg-bb", "fista"])
    def test_solve_traces_match_the_reference(self, loss, method):
        f, ref = objective_pair(loss, n_samples=80, dim=12, seed=27)
        config = SolverConfig(method=method, eps_tol=1e-8, max_iter=300)
        if method == "fista":
            ref.smoothness = f.smoothness
        got = solve(f, Lasso(0.01), np.zeros(f.dim), config)
        want = solve(ref, Lasso(0.01), np.zeros(f.dim), config)
        assert got.iterations == want.iterations > 5
        assert (got.status, got.stopped_by) == (want.status, want.stopped_by)
        assert same_bits(got.x, want.x)
        assert same_bits(got.final_objective, want.final_objective)
        for a, b in zip(got.trace, want.trace):
            a, b = dataclasses.asdict(a), dataclasses.asdict(b)
            del a["wall_ms"], b["wall_ms"]
            assert a == b

    def test_consensus_trace_matches_the_reference(self, loss):
        prob = generate_regression(n_samples=90, dim=6, loss=loss, seed=28)
        shards = split_regression(prob, n_nodes=3, ridge=0.01)
        reference = ConsensusProblem(
            objectives=[
                OBJECTIVES[loss][1](f.A, f.b, scale=f.scale, ridge=f.ridge)
                for f in shards.objectives
            ],
            dim=shards.dim,
        )
        config = SolverConfig(eps_tol=1e-8, max_iter=100)
        got = solve_consensus(shards, np.zeros(6), "local-dbb", config)
        want = solve_consensus(reference, np.zeros(6), "local-dbb", config)
        assert got.iterations == want.iterations > 5
        assert same_bits(got.z, want.z)
        for a, b in zip(got.trace, want.trace):
            a, b = dataclasses.asdict(a), dataclasses.asdict(b)
            del a["wall_ms"], b["wall_ms"]
            assert a == b


class ReferenceQuadratic(SmoothObjective):
    """Memo-free quadratic: Q @ x is recomputed by every call."""

    def __init__(self, Q, q, p=0.0):
        self.Q, self.q, self.p = Q, q, p

    @property
    def dim(self):
        return self.q.shape[0]

    def product(self, x):
        return self.Q @ x

    def value(self, x):
        return 0.5 * float(x @ self.product(x)) + float(self.q @ x) + self.p

    def gradient(self, x):
        return self.product(x) + self.q


class ReferenceGramLeastSquares(ReferenceQuadratic):
    """Memo-free Gram form of s ||Ax - b||^2 + ridge ||x||^2, with the terms
    of its duality gap from p = s b'b and q = -2s A'b, and the modulus given."""

    def __init__(self, Q, q, p, scale, strong_convexity=None):
        super().__init__(Q, q, p)
        self.scale = scale
        self.strong_convexity = strong_convexity

    def dual_terms(self, x):
        s = self.scale
        return s, self.p / s, float(self.q @ x) / (-2.0 * s)


def column_major(Q):
    """Q, or its transpose if that is the column-major one: what dsymv reads."""
    return Q if Q.flags.f_contiguous else Q.T


class SymvQuadratic(ReferenceQuadratic):
    """Memo-free quadratic: every call applies Q by a direct dsymv call."""

    def product(self, x):
        return dsymv(1.0, column_major(self.Q), x)


def quadratic_pair(kind, seed=41):
    """A QuadraticObjective and its memo-free reference: a QP, a Gram-form LS,
    or a QP whose Q is large enough (>= 1 MiB) to be applied by dsymv."""
    if kind in ("qp", "qp-400"):
        prob = generate_qp(n=100 if kind == "qp" else 400, kappa=1e4, seed=seed)
        f = QuadraticObjective(prob.Q, prob.q, prob.p, smoothness=prob.smoothness)
    else:
        f = smooth_part(generate_regression(n_samples=2048, dim=64, loss="ls", seed=seed))
        assert isinstance(f, QuadraticObjective)
        return f, ReferenceGramLeastSquares(f.Q, f.q, f.p, f.scale, f.strong_convexity)
    reference = SymvQuadratic if kind == "qp-400" else ReferenceQuadratic
    return f, reference(f.Q, f.q, f.p)


@pytest.mark.parametrize("kind", ["qp", "gram-ls", "qp-400"])
class TestSharedQuadraticImage:
    """value and gradient share Q @ x yet match the memo-free formulas bit for bit."""

    check = TestSharedAffineImage.check

    def test_value_then_gradient_and_gradient_then_value(self, kind):
        f, ref = quadratic_pair(kind)
        rng = np.random.default_rng(42)
        self.check(f, ref, rng.standard_normal(f.dim), ("value", "gradient"))
        self.check(f, ref, rng.standard_normal(f.dim), ("gradient", "value"))
        self.check(f, ref, rng.standard_normal(f.dim), ("gradient", "gradient", "value"))

    def test_alternating_points(self, kind):
        f, ref = quadratic_pair(kind)
        rng = np.random.default_rng(43)
        x1, x2 = rng.standard_normal(f.dim), rng.standard_normal(f.dim)
        for x in (x1, x2, x1, x2, x2, x1):
            self.check(f, ref, x, ("value", "gradient"))
        for x in (x1, x2, x1):
            self.check(f, ref, x, ("gradient", "value"))

    def test_point_changed_in_place(self, kind):
        f, ref = quadratic_pair(kind)
        rng = np.random.default_rng(44)
        x = rng.standard_normal(f.dim)
        f.value(x)
        x[...] = rng.standard_normal(f.dim)
        self.check(f, ref, x, ("gradient", "value"))
        x[3] += 1.0
        self.check(f, ref, x, ("value", "gradient"))
        x[...] = -0.0
        f.gradient(x)
        x[...] = 0.0  # equal to -0.0 by value, not by bits
        self.check(f, ref, x, ("value", "gradient"))

    def test_an_installed_image_is_served_to_its_array_alone(self, kind):
        f, ref = quadratic_pair(kind)
        rng = np.random.default_rng(48)
        z = rng.standard_normal(f.dim)
        marker = np.full(f.dim, 7.0)  # no point's image: shows where it is served
        f._install_image(z, marker)
        assert same_bits(f.gradient(z), marker + f.q)
        # equal bits in another array, and a point changed in place between
        # two reads, go by the bytes key to a fresh product
        self.check(f, ref, z.copy(), ("value", "gradient"))
        x = rng.standard_normal(f.dim)
        self.check(f, ref, x, ("gradient", "value"))
        x[5] += 1.0
        self.check(f, ref, x, ("value", "gradient"))
        assert same_bits(f.value(z), 0.5 * float(z @ marker) + float(f.q @ z) + f.p)
        f._install_image(None, None)
        self.check(f, ref, z, ("gradient", "value"))

    def test_views_of_a_stacked_vector(self, kind):
        f, ref = quadratic_pair(kind)
        rng = np.random.default_rng(45)
        xb = rng.standard_normal(3 * f.dim).reshape(3, f.dim)
        for j in (0, 1, 2, 1):
            self.check(f, ref, xb[j], ("value", "gradient"))
        strided = np.asfortranarray(xb)  # each row is a view with stride 3
        for j in (2, 0):
            self.check(f, ref, strided[j], ("gradient", "value"))

    def test_point_with_nan(self, kind):
        f, ref = quadratic_pair(kind)
        x = np.random.default_rng(46).standard_normal(f.dim)
        x[4] = np.nan
        with np.errstate(invalid="ignore"):
            self.check(f, ref, x, ("value", "gradient", "value"))
            assert np.isnan(f.value(x))

    @pytest.mark.parametrize("method", ["vmpg-dbb", "pg-bb", "fista"])
    def test_solve_traces_match_the_reference(self, kind, method):
        f, ref = quadratic_pair(kind, seed=47)
        ref.smoothness = f.smoothness
        g = Nonnegative() if kind == "qp" else Lasso(0.01)
        config = SolverConfig(method=method, eps_tol=1e-8, max_iter=300)
        got = solve(f, g, np.zeros(f.dim), config)
        if method == "fista" and f._extrapolates:
            # on a large Q FISTA forms the image of its extrapolated point by
            # combination, which the loop does explicitly on the reference
            want = extrapolating_fista(ref, g, np.zeros(f.dim), config=config)
        else:
            want = solve(ref, g, np.zeros(f.dim), config)
        assert got.iterations == want.iterations > 5
        assert (got.status, got.stopped_by) == (want.status, want.stopped_by)
        assert same_bits(got.x, want.x)
        assert same_bits(got.final_objective, want.final_objective)
        for a, b in zip(got.trace, want.trace):
            a, b = dataclasses.asdict(a), dataclasses.asdict(b)
            del a["wall_ms"], b["wall_ms"]
            assert a == b


class CountingMatrix(np.ndarray):
    """A view of a matrix that counts its products M @ v; M.T shares the count."""

    def __array_finalize__(self, obj):
        self.count = getattr(obj, "count", None)

    def __matmul__(self, other):
        self.count[0] += 1
        return np.asarray(self) @ other


def count_products(f, attr="A"):
    """Swap f.A (or f.Q) for a counting view; returns the one-element count list."""
    matrix = getattr(f, attr).view(CountingMatrix)
    matrix.count = [0]
    setattr(f, attr, matrix)
    return matrix.count


def count_symv(f):
    """Count f's dsymv calls; returns the one-element count list."""
    calls = [0]

    def counting_dsymv(*args, _inner=f._dsymv):
        calls[0] += 1
        return _inner(*args)

    f._dsymv = counting_dsymv
    return calls


def log_points(f):
    """Log (call, point bytes) of every f.value/f.gradient call, in order."""
    points = []
    for call in ("value", "gradient"):
        def logged(x, _call=call, _inner=getattr(f, call)):
            points.append((_call, x.tobytes()))
            return _inner(x)
        setattr(f, call, logged)
    return points


def value_repeats(points):
    """Values taken at the point evaluated just before them, bit for bit."""
    return sum(
        call == "value" and bits == prev
        for (call, bits), (_, prev) in zip(points[1:], points[:-1])
    )


class TestOperatorApplications:
    @pytest.mark.parametrize("line_search", ["nonmonotone", "monotone"])
    @pytest.mark.parametrize("loss", ["ls", "logistic"])
    @pytest.mark.parametrize("method", ["vmpg-dbb", "pg-bb"])
    def test_variable_metric_methods_use_two_products_per_iteration(
        self, loss, method, line_search
    ):
        f, _ = objective_pair(loss, n_samples=80, dim=12, seed=29)
        count = count_products(f)
        points = log_points(f)
        config = SolverConfig(
            method=method, eps_tol=1e-8, max_iter=300, line_search=line_search
        )
        result = solve(f, Lasso(0.01), np.zeros(f.dim), config)
        if line_search == "monotone":
            assert sum(r.backtracks for r in result.trace) > 0
        # grad(x0) = 2 and F(x0) = 1, then per accepted iteration one
        # product per candidate and one for the gradient at the accepted
        # point.  A value at the point evaluated just before it costs
        # nothing: F(x0) always, and near the optimum a candidate that
        # repeats the previous point bit for bit.
        repeats = value_repeats(points)
        assert result.iterations > 5
        assert 1 <= repeats <= 3
        assert count[0] == 3 + sum(2 + r.backtracks for r in result.trace) - repeats

    @pytest.mark.parametrize("loss", ["ls", "logistic"])
    def test_fista_uses_at_most_three_products_per_iteration(self, loss):
        f, _ = objective_pair(loss, n_samples=80, dim=12, seed=30)
        f.smoothness  # its Gram product runs before the count starts
        count = count_products(f)
        result = solve(
            f, Lasso(0.01), np.zeros(f.dim),
            SolverConfig(method="fista", eps_tol=1e-8, max_iter=300),
        )
        assert result.iterations > 5
        assert count[0] <= sum(3 + r.backtracks for r in result.trace)

    @pytest.mark.parametrize("shape", [(120, 20), (20, 120)], ids=["tall", "wide"])
    def test_least_squares_smoothness_products(self, shape):
        """One product, the smaller Gram matrix, on first use and none after."""
        prob = generate_regression(n_samples=shape[0], dim=shape[1], loss="ls", seed=33)
        f = LeastSquaresObjective(prob.A, prob.b, ridge=0.1)
        count = count_products(f)
        A = prob.A
        gram = A.T @ A if shape[0] >= shape[1] else A @ A.T
        top = float(np.linalg.eigvalsh(gram)[-1])
        assert same_bits(f.smoothness, 2.0 * f.scale * top + 0.2)
        f.smoothness  # kept, so a second read costs no product
        assert count[0] == 1


@pytest.mark.parametrize("kind", ["qp", "gram-ls"])
class TestQuadraticProducts:
    """A quadratic applies Q once per candidate point: value and gradient share it."""

    @pytest.mark.parametrize("line_search", ["nonmonotone", "monotone"])
    @pytest.mark.parametrize("method", ["vmpg-dbb", "pg-bb"])
    def test_variable_metric_methods_use_one_product_per_iteration(
        self, kind, method, line_search
    ):
        f, _ = quadratic_pair(kind, seed=29)
        g = Nonnegative() if kind == "qp" else Lasso(0.01)
        count = count_products(f, "Q")
        points = log_points(f)
        config = SolverConfig(
            method=method, eps_tol=1e-8, max_iter=300, line_search=line_search
        )
        result = solve(f, g, np.zeros(f.dim), config)
        if line_search == "monotone":
            assert sum(r.backtracks for r in result.trace) > 0
        # grad(x0) = 1 and F(x0) = 1, then per accepted iteration one product
        # per candidate; the gradient at the accepted point reuses its
        # candidate's product.  A value at the point evaluated just before it
        # costs nothing: F(x0) always, and near the optimum a candidate that
        # repeats the previous point bit for bit.
        repeats = value_repeats(points)
        assert result.iterations > 5
        assert 1 <= repeats <= 3
        assert count[0] == 2 + sum(1 + r.backtracks for r in result.trace) - repeats

    def test_fista_uses_at_most_two_products_per_iteration(self, kind):
        f, _ = quadratic_pair(kind, seed=30)
        g = Nonnegative() if kind == "qp" else Lasso(0.01)
        count = count_products(f, "Q")
        result = solve(
            f, g, np.zeros(f.dim),
            SolverConfig(method="fista", eps_tol=1e-8, max_iter=300),
        )
        assert result.iterations > 5
        assert count[0] <= sum(2 + r.backtracks for r in result.trace)


def large_quadratic(kind, seed):
    """A quadratic whose Q is symmetric and at least 1 MiB: a QP (Q row- or
    column-major), or the Gram form of the benchmark's lasso-ls design."""
    if kind.startswith("qp-400"):
        prob = generate_qp(n=400, kappa=1e4, seed=seed)
        Q = np.asfortranarray(prob.Q) if kind.endswith("fortran") else prob.Q
        return QuadraticObjective(Q, prob.q, prob.p, smoothness=prob.smoothness)
    f = smooth_part(generate_regression(n_samples=2000, dim=500, loss="ls", seed=seed))
    assert isinstance(f, QuadraticObjective)
    return f


class TestSymmetricProduct:
    """A large, contiguous, exactly symmetric Q is applied by dsymv; every
    other Q keeps the bits of Q @ x."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", ["qp-400", "qp-400-fortran", "lasso-ls"])
    def test_large_symmetric_q_is_applied_by_dsymv(self, kind, seed):
        f = large_quadratic(kind, seed)
        assert f.Q.flags.f_contiguous == kind.endswith("fortran")
        x = np.random.default_rng(60 + seed).standard_normal(f.dim)
        symv = dsymv(1.0, column_major(f.Q), x)
        assert same_bits(f.gradient(x), symv + f.q)
        assert same_bits(f.value(x), 0.5 * float(x.dot(symv)) + float(f.q.dot(x)) + f.p)
        # within the rounding bound of a product, n eps |Q| |x|, of Q @ x,
        # and not its bits, so the checks above tell the two paths apart
        gemv = f.Q @ x
        eps = np.finfo(float).eps
        bound = f.dim * eps * np.linalg.norm(f.Q) * np.linalg.norm(x)
        assert np.linalg.norm(symv - gemv) <= bound
        assert not same_bits(symv, gemv)

    @pytest.mark.parametrize("case", ["asymmetric", "strided", "below-1-mib"])
    def test_other_q_keeps_the_gemv_bits(self, case):
        prob = generate_qp(n=362 if case == "below-1-mib" else 400, kappa=1e4, seed=3)
        Q = prob.Q
        if case == "asymmetric":
            Q = Q.copy()
            Q[0, 1] += 1e-9
        elif case == "strided":
            wide = np.zeros((400, 800))
            wide[:, ::2] = Q
            Q = wide[:, ::2]  # symmetric, 1.2 MiB, neither C- nor F-contiguous
        f = QuadraticObjective(Q, prob.q, prob.p)
        x = np.random.default_rng(63).standard_normal(f.dim)
        gemv = Q @ x
        assert not same_bits(dsymv(1.0, np.asfortranarray(Q), x), gemv)
        assert same_bits(f.gradient(x), gemv + prob.q)
        assert same_bits(f.value(x), 0.5 * float(x.dot(gemv)) + float(prob.q.dot(x)) + prob.p)

    def test_point_of_another_shape_is_rejected(self):
        f = large_quadratic("qp-400", 4)
        for x in (np.ones(401), np.ones((400, 1))):
            with pytest.raises(ValueError, match="shape"):
                f.gradient(x)

    @pytest.mark.parametrize("line_search", ["nonmonotone", "monotone"])
    @pytest.mark.parametrize("method", ["vmpg-dbb", "pg-bb"])
    def test_variable_metric_methods_use_one_product_per_candidate(self, method, line_search):
        f = large_quadratic("qp-400", 29)
        calls = count_symv(f)
        gemv_calls = count_products(f, "Q")  # the triangle is bound: never used
        points = log_points(f)
        config = SolverConfig(
            method=method, eps_tol=1e-8, max_iter=300, line_search=line_search
        )
        result = solve(f, Nonnegative(), np.zeros(f.dim), config)
        # as for a small quadratic (TestQuadraticProducts): grad(x0) and
        # F(x0) share one product, then one per candidate point
        repeats = value_repeats(points)
        assert result.iterations > 5
        assert repeats >= 1
        assert gemv_calls[0] == 0
        assert calls[0] == 2 + sum(1 + r.backtracks for r in result.trace) - repeats


FISTA_SETTINGS = pytest.mark.parametrize(
    "line_search, step", [("nonmonotone", None), ("nonmonotone", 64.0), ("off", None)],
    ids=["1/L", "64/L", "off"])


def fista_run(f, line_search, step, lam=0.01):
    """FISTA from 0 with Lasso(lam), at stepsize 1/L or step/L (which backtracks)."""
    stepsize = None if step is None else step / f.smoothness
    config = SolverConfig(method="fista", fixed_stepsize=stepsize, line_search=line_search,
                          eps_tol=1e-8, max_iter=200)
    result = solve(f, Lasso(lam), np.zeros(f.dim), config)
    assert result.iterations > 5
    assert (sum(r.backtracks for r in result.trace) > 0) == (step is not None)
    return result


class TestFistaProducts:
    """On a large affine objective FISTA reads grad f and f at its extrapolated
    point z^k from an image formed by combination, so it applies the operator
    once per candidate: after the start's product at x^0, one per accepted
    iteration plus one per backtrack on a quadratic, and two (A for the
    candidate, A.T for the gradient) on a residual or logistic loss."""

    @FISTA_SETTINGS
    @pytest.mark.parametrize("kind", ["lasso-ls", "qp-400"])
    def test_one_symmetric_product_per_iteration(self, kind, line_search, step):
        f = large_quadratic(kind, 121)
        calls = count_symv(f)
        gemv_calls = count_products(f, "Q")
        result = fista_run(f, line_search, step)
        assert gemv_calls[0] == 0
        assert calls[0] == 1 + sum(1 + r.backtracks for r in result.trace)

    @FISTA_SETTINGS
    @pytest.mark.parametrize("kind", ["ls-wide", "logistic"])
    def test_two_products_per_iteration_on_a_large_design(self, kind, line_search, step):
        f = large(kind, 121)
        f.smoothness  # its Gram product runs before the count starts
        count = count_products(f)
        result = fista_run(f, line_search, step, large_lam(kind))
        assert count[0] == 1 + sum(2 + r.backtracks for r in result.trace)


class Faulty(Lasso):
    """Lasso whose prox output on call number ``at`` is moved by ``fault``."""

    def __init__(self, lam, at, fault):
        super().__init__(lam)
        self.at, self.fault, self.calls = at, fault, 0

    def prox(self, v, metric):
        self.calls += 1
        x = super().prox(v, metric)
        return x + self.fault if self.calls == self.at else x


@pytest.mark.parametrize("kind", LARGE_KINDS)
class TestNoExtrapolatedImageOutlivesASolve:
    """After FISTA on a large affine objective, value and gradient anywhere,
    the points the solve visited included, have a fresh objective's bits."""

    def check(self, f, fresh, points):
        for x in points:
            for call in ("value", "gradient"):
                assert same_bits(getattr(f, call)(x), getattr(fresh, call)(x)), call

    @pytest.mark.parametrize("end", ["converged", LINE_SEARCH_FAILURE, NUMERICAL_FAILURE])
    def test_after_each_ending(self, kind, end):
        """The line search fails at once from 64/L with no backtracks allowed;
        a NaN from the 20th prox call ends the run after 19 iterations."""
        f = large(kind, 5)
        points = log_points(f)
        lam = large_lam(kind)
        g = Faulty(lam, 20, np.nan) if end == NUMERICAL_FAILURE else Lasso(lam)
        stepsize = 64.0 / f.smoothness if end == LINE_SEARCH_FAILURE else None
        with np.errstate(invalid="ignore"):
            result = solve(f, g, np.zeros(f.dim), SolverConfig(
                method="fista", fixed_stepsize=stepsize, max_backtracks=0))
        assert result.status == end
        if end == NUMERICAL_FAILURE:
            assert result.iterations == 19
        visited = [np.frombuffer(bits) for _, bits in points[-6:]]
        rng = np.random.default_rng(6)
        with np.errstate(invalid="ignore"):
            self.check(f, large(kind, 5), [result.x, *visited, *rng.standard_normal((2, f.dim))])

    def test_after_a_nan_at_the_extrapolated_point(self, kind):
        f = large(kind, 5)
        x = np.random.default_rng(7).standard_normal(f.dim)
        image = f._image_of(x)
        image[0] = np.nan
        metric = DiagonalMetric.uniform(f.dim, f.smoothness)
        state = FistaState(x, x, x, 1.0, 1.0 / f.smoothness, metric, x, None, 0, image, image)
        with pytest.raises(NumericalError), np.errstate(invalid="ignore"):
            _fista_step(f, Lasso(large_lam(kind)), state, SolverConfig(method="fista"))
        self.check(f, large(kind, 5), [x])


def test_scipy_linalg_loads_only_for_a_large_symmetric_q():
    """Small QPs, residual-form and small Gram-form least squares run without
    scipy.linalg; the first large symmetric Q imports it."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from vmpg import Lasso, Nonnegative, SolverConfig, solve\n"
        "from vmpg.problems import (QuadraticObjective, generate_qp,\n"
        "                           generate_regression, smooth_part)\n"
        "runs = [(generate_qp(100, 1e4, 0), Nonnegative()),\n"
        "        (generate_regression(1000, 50, 'ls', 0), Lasso(0.01)),\n"
        "        (generate_regression(2048, 64, 'ls', 0), Lasso(0.01))]\n"
        "for problem, g in runs:\n"
        "    f = smooth_part(problem)\n"
        "    for method in ('vmpg-dbb', 'fista'):\n"
        "        solve(f, g, np.zeros(f.dim), SolverConfig(method=method, max_iter=50))\n"
        "print(type(f).__name__, 'scipy.linalg' in sys.modules)\n"
        "p = generate_qp(400, 1e4, 0)\n"
        "QuadraticObjective(p.Q, p.q)\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(problems.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == ["QuadraticObjective False", "True"]


def form_pair(A, b, ridge=0.0):
    """The Gram and the residual form of (1/N)||Ax - b||^2 + ridge ||x||^2."""
    gram = _least_squares(A, b, ridge=ridge)
    assert isinstance(gram, QuadraticObjective)
    return gram, LeastSquaresObjective(A, b, ridge=ridge)


def rounding_bounds(A, b, x, ridge):
    """Bounds on |value| and max |gradient entry| differences between the forms.

    Each entry of either form is a sum of at most N products, whose rounding
    error grows like sqrt(N) eps times the sum of the magnitudes of its terms
    (Higham, "Accuracy and Stability of Numerical Algorithms", 3.5).  With
    s = 1/N those sums are at most s (||A||_F ||x|| + ||b||)^2 + ridge ||x||^2
    for the value and 2 s ||A||_F (||A||_F ||x|| + ||b||) + 2 ridge ||x|| per
    gradient entry; the factor 4 covers the two forms and their last sums.
    """
    n_rows = A.shape[0]
    s, eps = 1.0 / n_rows, np.finfo(float).eps
    a_norm, x_norm, b_norm = np.linalg.norm(A), np.linalg.norm(x), np.linalg.norm(b)
    value = s * (a_norm * x_norm + b_norm) ** 2 + ridge * x_norm**2
    gradient = 2 * s * a_norm * (a_norm * x_norm + b_norm) + 2 * ridge * x_norm
    tol = 4 * np.sqrt(n_rows) * eps
    return tol * value, tol * gradient


class TestGramModulus:
    """The Gram form's strong_convexity is its least eigenvalue rounded down by
    eigvalsh's error bound, floored at 2 ridge, and None if not positive."""

    @staticmethod
    def svd_modulus(f, A, ridge):
        """2 s sigma_min(A)^2 + 2 ridge, the modulus of the loss from an SVD."""
        return 2 * f.scale * np.linalg.svd(A, compute_uv=False)[-1] ** 2 + 2 * ridge

    @pytest.mark.parametrize("ridge", [0.0, 1e-3])
    @pytest.mark.parametrize("design", ["tall", "near-square", "correlated"])
    def test_modulus_is_a_lower_bound(self, design, ridge):
        rng = np.random.default_rng(61)
        if design == "correlated":  # the ill-conditioned features of the generator
            A = generate_regression(n_samples=600, dim=256, loss="ls", seed=65).A
        else:
            A = rng.standard_normal((2048, 64) if design == "tall" else (514, 512))
        f = _least_squares(A, rng.standard_normal(A.shape[0]), ridge=ridge)
        assert isinstance(f, QuadraticObjective)
        assert 2 * ridge < f.strong_convexity <= self.svd_modulus(f, A, ridge)
        eig = np.linalg.eigvalsh(f.Q)
        assert f.strong_convexity == eig[0] - problems._eigvalsh_error(eig)

    @pytest.mark.parametrize("ridge", [0.0, 1e-3])
    @pytest.mark.parametrize("design", ["duplicate-column", "low-rank", "nearly-duplicate"])
    def test_no_safe_least_eigenvalue_falls_back_to_the_ridge(self, design, ridge):
        rng = np.random.default_rng(62)
        if design == "low-rank":
            A = rng.standard_normal((1024, 100)) @ rng.standard_normal((100, 128))
        else:
            A = rng.standard_normal((1024, 128))
            A[:, 7] = A[:, 5] + (1e-9 * rng.standard_normal(1024)
                                 if design == "nearly-duplicate" else 0.0)
        f = _least_squares(A, rng.standard_normal(1024), ridge=ridge)
        assert isinstance(f, QuadraticObjective)
        assert f.strong_convexity == (2 * ridge if ridge > 0 else None)
        eig = np.linalg.eigvalsh(f.Q)
        assert eig[0] - problems._eigvalsh_error(eig) <= 2 * ridge

    def test_the_cli_checks_a_qp_file_by_the_same_rounding(self):
        import vmpg.cli

        assert vmpg.cli._eigvalsh_error is problems._eigvalsh_error


class TestLeastSquaresForms:
    """Tall, large designs take the Gram form; the two forms agree to rounding."""

    def test_lasso_ls_shape_takes_the_gram_form(self):
        prob = generate_regression(n_samples=2000, dim=500, loss="ls", seed=0)
        f = smooth_part(prob)
        assert isinstance(f, QuadraticObjective)
        assert f.Q.shape == (500, 500)

    def test_consensus_ls_shards_keep_the_residual_form(self):
        prob = generate_regression(n_samples=4000, dim=100, loss="ls", seed=0)
        shards = split_regression(prob, n_nodes=20, ridge=1e-2)
        assert len(shards.objectives) == 20
        assert all(type(f) is LeastSquaresObjective for f in shards.objectives)

    @pytest.mark.parametrize(
        "shape", [(200, 1000), (1000, 1001), (300, 20), (511, 256)]
    )
    def test_wide_or_small_designs_keep_the_residual_form(self, shape):
        rng = np.random.default_rng(50)
        A = rng.standard_normal(shape)
        f = _least_squares(A, rng.standard_normal(shape[0]))
        assert type(f) is LeastSquaresObjective

    def test_smallest_gram_design(self):
        rng = np.random.default_rng(51)
        A = rng.standard_normal((512, 256))  # 2**17 entries
        assert isinstance(_least_squares(A, rng.standard_normal(512)), QuadraticObjective)

    def test_logistic_keeps_its_form(self):
        prob = generate_regression(n_samples=2048, dim=64, loss="logistic", seed=52)
        assert type(smooth_part(prob)) is LogisticObjective

    def test_single_node_split_builds_the_same_objective_as_smooth_part(self):
        prob = generate_regression(n_samples=2048, dim=64, loss="ls", seed=53)
        pooled = smooth_part(prob)
        (node,) = split_regression(prob, n_nodes=1, ridge=0.0).objectives
        assert isinstance(node, QuadraticObjective)
        for attr in ("Q", "q", "p", "smoothness", "strong_convexity"):
            assert same_bits(getattr(node, attr), getattr(pooled, attr)), attr

    @pytest.mark.parametrize("ridge", [0.0, 0.05])
    def test_curvature_constants(self, ridge):
        prob = generate_regression(n_samples=2048, dim=64, loss="ls", seed=54)
        gram, residual = form_pair(prob.A, prob.b, ridge)
        assert residual.strong_convexity == (2 * ridge if ridge > 0 else None)
        eig = np.linalg.eigvalsh(gram.Q)
        assert gram.strong_convexity == eig[0] - problems._eigvalsh_error(eig) > 2 * ridge
        top = eig[-1]
        np.testing.assert_allclose(gram.smoothness, top, rtol=1e-7)
        np.testing.assert_allclose(gram.smoothness, residual.smoothness, rtol=1e-7)

    @pytest.mark.parametrize("ridge", [0.0, 0.05])
    def test_forms_agree_within_rounding(self, ridge):
        prob = generate_regression(n_samples=2048, dim=64, loss="ls", seed=55)
        gram, residual = form_pair(prob.A, prob.b, ridge)
        rng = np.random.default_rng(56)
        for x in (np.zeros(64), rng.standard_normal(64), 1e3 * rng.standard_normal(64)):
            value_tol, gradient_tol = rounding_bounds(prob.A, prob.b, x, ridge)
            assert abs(gram.value(x) - residual.value(x)) <= value_tol
            assert np.max(np.abs(gram.gradient(x) - residual.gradient(x))) <= gradient_tol

    def test_noiseless_instance_at_its_solution(self):
        rng = np.random.default_rng(57)
        A = rng.standard_normal((2048, 64))
        x_true = rng.standard_normal(64)
        b = A @ x_true
        gram, residual = form_pair(A, b)
        value_tol, gradient_tol = rounding_bounds(A, b, x_true, 0.0)
        # the exact value is 0; the Gram form's rounding may put it just below
        assert 0.0 <= residual.value(x_true) <= value_tol
        assert abs(gram.value(x_true)) <= value_tol
        assert np.max(np.abs(gram.gradient(x_true))) <= gradient_tol
        assert np.max(np.abs(residual.gradient(x_true))) <= gradient_tol

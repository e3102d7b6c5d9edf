"""Metric algebra and the objective/regularizer interfaces."""

import numpy as np
import pytest

from vmpg.core import BlockDiagonalMetric, DiagonalMetric, as_vector


class TestDiagonalMetric:
    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError):
            DiagonalMetric(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            DiagonalMetric(np.array([1.0, -2.0]))

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(ValueError):
            DiagonalMetric(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            DiagonalMetric(np.array([np.inf, 1.0]))

    def test_identity_and_uniform_constructors(self):
        ident = DiagonalMetric.identity(3)
        np.testing.assert_array_equal(ident.diag, np.ones(3))
        uni = DiagonalMetric.uniform(4, 2.5)
        np.testing.assert_array_equal(uni.diag, np.full(4, 2.5))

    def test_apply_is_elementwise_product(self):
        u = DiagonalMetric(np.array([2.0, 3.0]))
        np.testing.assert_allclose(u.apply(np.array([1.0, -1.0])), [2.0, -3.0])

    def test_extremes(self):
        u = DiagonalMetric(np.array([2.0, 8.0, 4.0]))
        assert u.u_min == 2.0
        assert u.u_max == 8.0
        assert u.dim == 3


class TestNorm:
    def test_zero_vector(self):
        assert DiagonalMetric(np.array([3.0, 5.0])).norm(np.zeros(2)) == 0.0

    def test_identity_metric_is_euclidean(self):
        value = DiagonalMetric.identity(2).norm(np.ones(2))
        np.testing.assert_allclose(value, np.sqrt(2.0))

    def test_hand_expansion(self):
        value = DiagonalMetric(np.array([3.0, 4.0])).norm(np.array([2.0, 1.0]))
        np.testing.assert_allclose(value, 4.0)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            DiagonalMetric.identity(2).norm(np.ones(3))

    def test_squared_norm_equals_inner_product(self):
        """||z||_U^2 == <z, Uz> across random vectors and metrics."""
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = rng.integers(1, 12)
            z = rng.standard_normal(n)
            u = DiagonalMetric(rng.uniform(0.1, 10.0, n))
            np.testing.assert_allclose(
                u.norm(z) ** 2, float(z @ u.apply(z)), rtol=1e-12, atol=1e-300
            )


class TestBlockDiagonalMetric:
    def test_apply_matches_per_block_concatenation(self):
        rng = np.random.default_rng(2)
        blocks = [DiagonalMetric(rng.uniform(0.5, 2.0, k)) for k in (2, 3, 1)]
        big = BlockDiagonalMetric(blocks)
        z = rng.standard_normal(6)
        parts = [blocks[0].apply(z[:2]), blocks[1].apply(z[2:5]), blocks[2].apply(z[5:])]
        np.testing.assert_array_equal(big.apply(z), np.concatenate(parts))

    def test_diag_concatenates_blocks(self):
        blocks = [DiagonalMetric(np.array([1.0, 2.0])), DiagonalMetric(np.array([3.0]))]
        big = BlockDiagonalMetric(blocks)
        np.testing.assert_array_equal(big.diag, [1.0, 2.0, 3.0])
        assert big.dim == 3

    def test_norm_matches_diagonal_equivalent(self):
        rng = np.random.default_rng(3)
        blocks = [DiagonalMetric(rng.uniform(0.5, 2.0, 3)) for _ in range(2)]
        big = BlockDiagonalMetric(blocks)
        flat = DiagonalMetric(big.diag)
        z = rng.standard_normal(6)
        np.testing.assert_allclose(big.norm(z), flat.norm(z), rtol=1e-12)


class TestAsVector:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector([1.0, np.nan])

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            as_vector([1.0, 2.0], dim=3)

    def test_returns_float_array(self):
        v = as_vector([1, 2, 3])
        assert v.dtype == np.float64

"""Scaled proximal operators, their block-separable sum, and the numeric oracle."""

import numpy as np
import pytest

from vmpg.core import BlockDiagonalMetric, DiagonalMetric
from vmpg.prox import (
    BlockSeparable,
    Consensus,
    ElasticNet,
    GroupLasso,
    Lasso,
    Nonnegative,
    Simplex,
    Zero,
    _oracle_simplex,
    moreau_check,
    numeric_prox_oracle,
)


def metric(diag):
    return DiagonalMetric(np.asarray(diag, dtype=float))


class TestLasso:
    def test_hand_thresholds(self):
        out = Lasso(1.0).prox(np.array([3.0, -0.5]), metric([1.0, 2.0]))
        np.testing.assert_allclose(out, [2.0, 0.0])

    def test_vanishing_penalty_returns_input(self):
        v = np.array([1.5, -2.5])
        out = Lasso(1e-14).prox(v, metric([1.0, 1.0]))
        np.testing.assert_allclose(out, v, atol=1e-13)

    def test_zero_is_fixed_point(self):
        out = Lasso(1.0).prox(np.zeros(2), metric([3.0, 4.0]))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_rejects_nonpositive_lam(self):
        with pytest.raises(ValueError):
            Lasso(0.0)


class TestGroupLasso:
    def test_hand_shrinkage(self):
        g = GroupLasso(5.0, [(0, 2)])
        out = g.prox(np.array([3.0, 4.0]), metric([2.0, 2.0]))
        np.testing.assert_allclose(out, [1.5, 2.0])

    def test_full_shrinkage_zeroes_group(self):
        g = GroupLasso(20.0, [(0, 2)])
        out = g.prox(np.array([3.0, 4.0]), metric([2.0, 2.0]))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_single_size_one_group_matches_lasso(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(1) * 3
            u = rng.uniform(0.2, 5.0, 1)
            lam = rng.uniform(0.1, 2.0)
            a = GroupLasso(lam, [(0, 1)]).prox(v, metric(u))
            b = Lasso(lam).prox(v, metric(u))
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_zero_group_maps_to_zero(self):
        out = GroupLasso(1.0, [(0, 2)]).prox(np.zeros(2), metric([1.0, 1.0]))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_nonscalar_metric_rejected(self):
        with pytest.raises(ValueError):
            GroupLasso(1.0, [(0, 2)]).prox(np.ones(2), metric([1.0, 2.0]))

    @pytest.mark.parametrize("groups", [
        [(0, 2), (1, 3)],
        [(1, 3), (0, 2)],
        [(0, 3), (1, 2)],
        [(-1, 2)],
    ], ids=["overlap", "overlap-unsorted", "nested", "negative-start"])
    def test_overlapping_or_negative_groups_rejected(self, groups):
        # blockwise shrinkage of overlapping groups is not the prox of the sum:
        # [(0, 2), (1, 3)] at v = (3, 4, 0) gave (2.4, 3, 0)
        with pytest.raises(ValueError, match="groups must be disjoint"):
            GroupLasso(1.0, groups)

    def test_disjoint_groups_in_any_order_accepted(self):
        g = GroupLasso(5.0, [(2, 4), (0, 2)])
        out = g.prox(np.array([3.0, 4.0, 0.0, 0.0]), metric(np.full(4, 2.0)))
        np.testing.assert_allclose(out, [1.5, 2.0, 0.0, 0.0])

    @pytest.mark.parametrize("call", ["prox", "value"])
    def test_group_past_the_vector_rejected(self, call):
        g = GroupLasso(1.0, [(0, 5)])
        with pytest.raises(ValueError, match="past a vector of length 3"):
            if call == "prox":
                g.prox(np.ones(3), metric(np.ones(3)))
            else:
                g.value(np.ones(3))


class TestElasticNet:
    def test_hand_value(self):
        out = ElasticNet(1.0, 1.0).prox(np.array([3.0]), metric([1.0]))
        np.testing.assert_allclose(out, [1.0])

    def test_small_quadratic_term_approaches_lasso(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(5) * 2
        u = rng.uniform(0.5, 3.0, 5)
        a = ElasticNet(0.7, 1e-12).prox(v, metric(u))
        b = Lasso(0.7).prox(v, metric(u))
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_zero_input(self):
        out = ElasticNet(1.0, 1.0).prox(np.zeros(3), metric([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out, np.zeros(3))


def vector_lasso(g, v, diag):
    """Lasso.prox dividing by the whole diagonal, as it did for every metric."""
    return np.sign(v) * np.maximum(np.abs(v) - g.lam / diag, 0.0)


def vector_elastic_net(g, v, diag):
    """ElasticNet.prox on the whole diagonal, as it did for every metric."""
    return np.sign(v) * np.maximum((diag * np.abs(v) - g.lam1) / (g.lam2 + diag), 0.0)


def threshold_inputs():
    """v with signed zeros, +-inf, huge, tiny and subnormal entries."""
    rng = np.random.default_rng(7)
    special = [0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 5e-324, -5e-324, 0.1, -0.1]
    return np.concatenate([special, rng.standard_normal(30) * 10.0 ** rng.integers(-8, 9, 30)])


class TestUniformThreshold:
    """Under a uniform metric (u_min == u_max) Lasso and ElasticNet threshold by
    one scalar, with the bits of the elementwise formula on the diagonal."""

    @pytest.mark.parametrize("u", [1e-300, 1e-150, 3e-8, 1.0, 2.0 / 3.0, 7e5, 1e150, 1e300])
    @pytest.mark.parametrize("build", ["uniform", "trusted", "scaled", "full"])
    def test_uniform_metric_gives_the_vector_bits(self, u, build):
        v = threshold_inputs()
        n = v.shape[0]
        if build == "uniform":
            m = DiagonalMetric.uniform(n, u)
        elif build == "trusted":
            m = DiagonalMetric._trusted_uniform(n, u)
        elif build == "scaled":  # a line-search rescaling of a uniform metric
            m = DiagonalMetric._trusted_uniform(n, u / 2.0 if u > 1e-299 else u)._scaled(2.0)
        else:
            m = metric(np.full(n, u))
        assert m.u_min == m.u_max
        for g in (Lasso(0.05), Lasso(1e200), Lasso(1e-200)):
            with np.errstate(over="ignore", invalid="ignore"):
                assert Lasso.prox(g, v, m).tobytes() == vector_lasso(g, v, m.diag).tobytes()
        for g in (ElasticNet(0.05, 0.02), ElasticNet(1e200, 1e-200), ElasticNet(1e-200, 1e200)):
            with np.errstate(over="ignore", invalid="ignore"):
                got = ElasticNet.prox(g, v, m)
                assert got.tobytes() == vector_elastic_net(g, v, m.diag).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_non_uniform_metric_keeps_the_vector_bits(self, seed):
        rng = np.random.default_rng(seed)
        v = threshold_inputs()
        diag = 10.0 ** rng.uniform(-300, 300, v.shape[0])
        diag[:3] = diag[3]  # mostly equal entries are still not uniform
        m = metric(diag)
        assert m.u_min < m.u_max
        with np.errstate(over="ignore", invalid="ignore"):
            assert Lasso(0.05).prox(v, m).tobytes() == vector_lasso(Lasso(0.05), v, diag).tobytes()
            g = ElasticNet(0.05, 0.02)
            assert g.prox(v, m).tobytes() == vector_elastic_net(g, v, diag).tobytes()


class TestWeights:
    @pytest.mark.parametrize("weight", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("build", [
        Lasso,
        lambda w: GroupLasso(w, [(0, 2)]),
        lambda w: ElasticNet(w, 1.0),
        lambda w: ElasticNet(1.0, w),
    ], ids=["lasso", "group-lasso", "elastic-net-lam1", "elastic-net-lam2"])
    def test_rejects_weights_that_are_not_positive_and_finite(self, build, weight):
        with pytest.raises(ValueError, match="must be positive and finite"):
            build(weight)


class TestNonnegative:
    def test_clips_negative_coordinates(self):
        out = Nonnegative().prox(np.array([-1.0, 2.0]), metric([5.0, 0.5]))
        np.testing.assert_array_equal(out, [0.0, 2.0])

    def test_feasible_point_is_fixed(self):
        v = np.array([0.5, 1.5])
        np.testing.assert_array_equal(Nonnegative().prox(v, metric([1, 1])), v)

    def test_all_negative(self):
        out = Nonnegative().prox(np.array([-5.0, -5.0]), metric([1, 1]))
        np.testing.assert_array_equal(out, np.zeros(2))


class TestSimplex:
    def test_point_on_simplex_is_fixed(self):
        out = Simplex().prox(np.array([0.5, 0.5]), metric([1.0, 1.0]))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-11)

    def test_hand_solved_pivot(self):
        out = Simplex().prox(np.array([2.0, 0.0]), metric([1.0, 1.0]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-11)

    def test_dimension_one_returns_the_vertex(self):
        out = Simplex().prox(np.array([-3.7]), metric([2.0]))
        np.testing.assert_allclose(out, [1.0], atol=1e-11)

    def test_large_entries_stop_at_float_accuracy(self):
        """v - nu / u rounds by about 1e-12 here; the output is 1/12 to that
        accuracy."""
        out = Simplex().prox(np.full(12, 5166.0), metric(np.full(12, 203.0)))
        eps_v = np.finfo(float).eps * 5166.0
        np.testing.assert_allclose(out, np.full(12, 1.0 / 12.0), rtol=0, atol=12 * eps_v)

    def test_value_accepts_every_projection(self):
        """Entries up to 1e8 round v - nu / u by about 1e-8; the projection's
        final division by its sum leaves it inside the indicator's slack."""
        rng = np.random.default_rng(0)
        g = Simplex()
        for _ in range(1000):
            v = rng.uniform(-1e8, 1e8, 8)
            u = np.exp(rng.uniform(-14.0, 14.0, 8))
            out = g.prox(v, metric(u))
            assert g.value(out) == 0.0, (v, u)

    def test_value_rejects_points_off_the_simplex(self):
        g = Simplex()
        assert g.value(np.array([0.25, 0.75])) == 0.0
        assert g.value(np.array([0.25, 0.75 + 1e-12])) == np.inf
        assert g.value(np.array([-1e-12, 1.0 + 1e-12])) == np.inf
        assert g.value(np.array([0.5, 0.5, 0.5])) == np.inf

    def test_output_constraints_and_kkt(self):
        """Nonnegative, unit sum, and a common multiplier on the support."""
        rng = np.random.default_rng(2)
        g = Simplex()
        for _ in range(100):
            n = int(rng.integers(1, 12))
            v = rng.standard_normal(n) * 3
            u = rng.uniform(0.1, 10.0, n)
            out = g.prox(v, metric(u))
            assert np.all(out >= 0)
            assert abs(float(np.sum(out)) - 1.0) <= 1e-10
            support = out > 0
            nus = u[support] * (v[support] - out[support])
            assert np.ptp(nus) <= 1e-8 if nus.size > 1 else True

    @staticmethod
    def adversarial_inputs():
        """(v, u) with n = 1, u from e^-14 to e^14, |v| up to 1e8, and tied u_i v_i."""
        rng = np.random.default_rng(13)
        cases = [
            (np.array([-1e8]), np.array([np.exp(-14.0)])),
            (np.array([1e8]), np.array([np.exp(14.0)])),
            (np.full(2, -1e8), np.full(2, np.exp(-10.0))),
            (np.full(12, 5166.0), np.full(12, 203.0)),
            (np.zeros(5), np.exp(np.linspace(-14.0, 14.0, 5))),
        ]
        for _ in range(100):
            n = int(rng.integers(1, 9))
            u = np.exp(rng.uniform(-14.0, 14.0, n))
            cases.append((rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 8.0), u))
            # powers of two make every u_i v_i equal to t exactly
            u = 2.0 ** rng.integers(-20, 21, n).astype(float)
            t = rng.uniform(-1.0, 1.0) * 1e8 * u.min()
            cases.append((t / u, u))
        return cases

    def test_adversarial_inputs_meet_kkt_and_the_oracle(self):
        """Within rounding: feasible, x = max(v - nu/u, 0) for the pivot nu of
        its own support, and as good as the enumeration oracle's point."""
        eps = np.finfo(float).eps
        for v, u in self.adversarial_inputs():
            x = Simplex().prox(v, metric(u))
            tol = 2.0 * (len(v) + 2) * eps * (float(np.sum(np.abs(v))) + 1.0)
            assert np.all(x >= 0.0)
            assert abs(float(np.sum(x)) - 1.0) <= tol
            s = x > 0.0
            nu = (np.sum(v[s]) - 1.0) / np.sum(1.0 / u[s])
            assert np.max(np.abs(x - np.maximum(v - nu / u, 0.0))) <= tol
            # the objective is flat to rounding here, so compare objectives,
            # each off by at most tol sum u (|v| + 1)
            ref = _oracle_simplex(v, u)
            gap = 0.5 * float(np.sum(u * (x - v) ** 2) - np.sum(u * (ref - v) ** 2))
            assert abs(gap) <= tol * float(np.sum(u * (np.abs(v) + 1.0)))


class TestSimplexOracle:
    @pytest.mark.parametrize("v, u, want", [
        # on these the objective is flat to rounding, and picking the support
        # by the smallest objective gave (1, 0) and x_5 = 0
        (np.full(2, -1e8), np.full(2, np.exp(-10.0)), np.array([0.5, 0.5])),
        (np.array([0.5, 0.0, 0.0, 0.5, 1.0, -1.0]),
         np.exp(np.array([14.0, 0.0, -14.0, 0.0, -14.0, 14.0])),
         np.array([0.5, 0.0, 0.0, 0.5 - 8.315287e-7, 8.315287e-7, 0.0])),
    ], ids=["tied-large", "spread-metric"])
    def test_support_is_chosen_by_the_kkt_conditions(self, v, u, want):
        x = _oracle_simplex(v, u)
        tol = 2.0 * (len(v) + 2) * np.finfo(float).eps * (float(np.sum(np.abs(v))) + 1.0)
        np.testing.assert_array_equal(x > 0.0, want > 0.0)
        np.testing.assert_allclose(x, want, rtol=1e-6, atol=tol)
        np.testing.assert_allclose(x, Simplex().prox(v, metric(u)), rtol=0, atol=tol)


class TestConsensus:
    def test_weighted_average(self):
        g = Consensus(2)
        big = BlockDiagonalMetric([metric([1.0]), metric([3.0])])
        out = g.prox(np.array([0.0, 4.0]), big)
        np.testing.assert_allclose(out, [3.0, 3.0])

    def test_equal_metrics_give_plain_average(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(6)
        big = DiagonalMetric(np.full(6, 2.0))
        out = Consensus(3).prox(v, big)
        avg = v.reshape(3, 2).mean(axis=0)
        np.testing.assert_allclose(out, np.tile(avg, 3), rtol=1e-12)

    def test_single_block_is_identity(self):
        v = np.array([1.0, -2.0])
        out = Consensus(1).prox(v, metric([4.0, 0.25]))
        np.testing.assert_array_equal(out, v)

    def test_indecomposable_length_rejected(self):
        with pytest.raises(ValueError):
            Consensus(2).prox(np.ones(3), metric([1, 1, 1]))


class TestZero:
    def test_prox_is_identity_and_value_zero(self):
        v = np.array([3.0, -1.0])
        g = Zero()
        np.testing.assert_array_equal(g.prox(v, metric([2.0, 2.0])), v)
        assert g.value(v) == 0.0


class TestMoreauIdentity:
    def test_zero_regularizer_residual_is_zero(self):
        x = np.array([1.0, -2.0, 0.5])
        assert moreau_check(Zero(), metric([1.0, 2.0, 0.5]), x) <= 1e-14

    def test_lasso_and_nonnegative_spot_checks(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            x = rng.standard_normal(n) * 2
            u = metric(rng.uniform(0.2, 5.0, n))
            assert moreau_check(Lasso(rng.uniform(0.1, 2.0)), u, x) <= 1e-8
            assert moreau_check(Nonnegative(), u, x) <= 1e-8

    def test_unsupported_regularizer_rejected(self):
        with pytest.raises(ValueError):
            moreau_check(Simplex(), metric([1.0]), np.array([1.0]))


class TestFirmNonexpansiveness:
    def test_prox_contracts_in_metric_norm(self):
        """||prox(a) - prox(b)||_U <= ||a - b||_U for every operator."""
        rng = np.random.default_rng(5)
        n = 6
        ops = [
            Lasso(0.8),
            GroupLasso(0.8, [(0, 3), (3, 6)]),
            ElasticNet(0.5, 0.7),
            Nonnegative(),
            Simplex(),
            Consensus(2),
            Zero(),
        ]
        for g in ops:
            for _ in range(50):
                u = rng.uniform(0.2, 5.0, n)
                if isinstance(g, GroupLasso):
                    u[0:3] = u[0]
                    u[3:6] = u[3]
                um = metric(u)
                a = rng.standard_normal(n) * 2
                b = rng.standard_normal(n) * 2
                da = g.prox(a, um) - g.prox(b, um)
                assert um.norm(da) <= um.norm(a - b) + 1e-10


class TestSeparability:
    def test_blockwise_prox_equals_joint(self):
        rng = np.random.default_rng(6)
        g = BlockSeparable([(Lasso(0.5), 3), (Nonnegative(), 2), (Zero(), 2)])
        for _ in range(100):
            v = rng.standard_normal(7) * 2
            u = rng.uniform(0.2, 5.0, 7)
            joint = g.prox(v, metric(u))
            parts = [
                Lasso(0.5).prox(v[:3], metric(u[:3])),
                Nonnegative().prox(v[3:5], metric(u[3:5])),
                Zero().prox(v[5:], metric(u[5:])),
            ]
            np.testing.assert_array_equal(joint, np.concatenate(parts))


class TestNumericOracle:
    def test_zero_returns_input_exactly(self):
        v = np.array([1.0, -2.0])
        out = numeric_prox_oracle(Zero(), v, metric([1.0, 3.0]))
        np.testing.assert_array_equal(out, v)

    def test_lasso_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            v = rng.standard_normal(n) * 2
            u = rng.uniform(0.2, 5.0, n)
            lam = rng.uniform(0.1, 2.0)
            closed = Lasso(lam).prox(v, metric(u))
            ref = numeric_prox_oracle(Lasso(lam), v, metric(u))
            np.testing.assert_allclose(closed, ref, atol=1e-6)

    def test_simplex_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            v = rng.standard_normal(n) * 2
            u = rng.uniform(0.2, 5.0, n)
            closed = Simplex().prox(v, metric(u))
            ref = numeric_prox_oracle(Simplex(), v, metric(u))
            np.testing.assert_allclose(closed, ref, atol=1e-6)

"""Operator norms, quadratic factorizations, distances, Gaussian means and approximation numbers."""

import math

import numpy as np
import pytest
import scipy.linalg

from qnlab.numkernel import RandomSource, singular_values
from qnlab.factorization import (
    approx_numbers,
    delta_upper,
    envelope_distance,
    euclidean_distance,
    gamma2_upper,
    gaussian_mean,
    op_norm,
)
from qnlab.spaces import OperatorSpec, Polytope, Quadratic, Schatten, WeightedLp

EUCLID2 = WeightedLp.euclidean(2)
EUCLID3 = WeightedLp.euclidean(3)


class TestOpNorm:
    def test_euclidean_identity_exact(self):
        res = op_norm(OperatorSpec.identity(EUCLID2))
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.kind == "exact"

    def test_atomic_source_exact(self):
        l1 = WeightedLp.unweighted(1.0, 2)
        res = op_norm(OperatorSpec(3 * np.eye(2), l1, l1))
        assert res.value == pytest.approx(3.0)
        assert res.kind == "exact"

    def test_corner_atoms_into_euclidean(self):
        linf = WeightedLp.unweighted(math.inf, 2)
        res = op_norm(OperatorSpec(np.eye(2), linf, EUCLID2))
        assert res.value == pytest.approx(math.sqrt(2.0))
        assert res.kind == "exact"

    def test_search_route_reaches_diagonal_witness(self):
        # largest ratio of the concave gauge to the round one sits at the
        # normalized diagonal, with value 2^(3/2)
        res = op_norm(
            OperatorSpec(np.eye(2), EUCLID2, WeightedLp.unweighted(0.5, 2)),
            rng=RandomSource(7),
        )
        assert res.kind == "lower-bound"
        assert res.value == pytest.approx(2.0 ** 1.5, rel=1e-6)

    def test_quadratic_spaces_exact(self):
        gen = RandomSource(31).generator()
        g0, g1 = gen.standard_normal((3, 3)), gen.standard_normal((3, 3))
        a_s, a_t = g0 @ g0.T + np.eye(3), g1 @ g1.T + np.eye(3)
        m = gen.standard_normal((3, 3))
        res = op_norm(OperatorSpec(m, Quadratic(a_s), Quadratic(a_t)))
        assert res.kind == "exact"
        # s_1(A_t^(1/2) M A_s^(-1/2))^2 is the top eigenvalue of (M' A_t M, A_s)
        top = scipy.linalg.eigh(m.T @ a_t @ m, a_s, eigvals_only=True)[-1]
        assert res.value == pytest.approx(math.sqrt(top), rel=1e-10)

    def test_zero_operator(self):
        res = op_norm(OperatorSpec(np.zeros((2, 2)), EUCLID2, EUCLID2))
        assert res.value == 0.0
        assert res.kind == "exact"

    def test_scaling_homogeneity(self):
        gen = RandomSource(13).generator()
        m = gen.standard_normal((2, 2))
        base = op_norm(OperatorSpec(m, EUCLID2, EUCLID2)).value
        scaled = op_norm(OperatorSpec(2.5 * m, EUCLID2, EUCLID2)).value
        assert scaled == pytest.approx(2.5 * base, rel=1e-10)


class TestQuadraticFactorization:
    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_euclidean_identity_is_one(self, d):
        res = gamma2_upper(OperatorSpec.identity(WeightedLp.euclidean(d)), rng=RandomSource(1))
        assert res.certified
        assert res.lower == pytest.approx(1.0, abs=1e-9)
        assert res.upper == pytest.approx(1.0, abs=1e-6)

    def test_flat_sum_identity_bracket(self):
        res = gamma2_upper(OperatorSpec.identity(WeightedLp.unweighted(1.0, 3)), rng=RandomSource(2))
        assert res.certified
        assert res.upper == pytest.approx(math.sqrt(3.0), rel=1e-9)
        assert res.witness.product == pytest.approx(res.upper, rel=1e-12)

    def test_witness_reconstructs_operator(self):
        gen = RandomSource(3).generator()
        m = gen.standard_normal((3, 3))
        res = gamma2_upper(OperatorSpec(m, EUCLID3, WeightedLp.unweighted(1.0, 3)), rng=RandomSource(4))
        assert np.allclose(res.witness.v @ res.witness.w, m, atol=1e-9)
        assert res.lower <= res.upper * (1 + 1e-12)

    def test_searched_factor_norm_is_uncertified(self):
        # an l3 source has neither an exact route nor the row bound into the
        # round middle space, so the first factor's norm is searched
        m = RandomSource(18).generator().standard_normal((3, 3))
        u = OperatorSpec(m, WeightedLp.unweighted(3.0, 3), WeightedLp.unweighted(1.0, 3))
        res = gamma2_upper(u, budget=2, rng=RandomSource(19))
        assert not res.certified
        assert res.upper >= res.lower > 0


class TestDistances:
    @pytest.mark.parametrize("p", [1.0, math.inf])
    def test_two_dim_extreme_spaces(self, p):
        res = euclidean_distance(WeightedLp.unweighted(p, 2), rng=RandomSource(3))
        assert res.certified
        assert res.lower == pytest.approx(math.sqrt(2.0), rel=1e-9)
        assert res.upper == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_bracket_and_floor(self):
        res = euclidean_distance(WeightedLp.unweighted(1.0, 3), rng=RandomSource(5))
        assert 1.0 <= res.lower <= res.upper * (1 + 1e-12)
        assert res.upper <= math.sqrt(3.0) + 0.01

    @pytest.mark.parametrize(
        "n,p,target",
        [(2, 0.5, 2.0), (3, 0.5, 3.0), (2, 2 / 3, math.sqrt(2.0))],
    )
    def test_envelope_distance_unweighted(self, n, p, target):
        res = envelope_distance(WeightedLp.unweighted(p, n), rng=RandomSource(6))
        assert res.kind == "certified-lower-bound"
        assert res.value == pytest.approx(target, rel=1e-9)

    def test_envelope_distance_witness_reproduces_value(self):
        sp = WeightedLp.unweighted(0.5, 3)
        res = envelope_distance(sp, rng=RandomSource(6))
        x = res.witness
        assert sp.gauge(x) / sp.envelope_gauge(x) == pytest.approx(res.value, rel=1e-9)

    def test_envelope_route_upper(self):
        res = delta_upper(OperatorSpec.identity(WeightedLp.unweighted(0.5, 3)), rng=RandomSource(7))
        assert res.upper == pytest.approx(3.0, rel=1e-6)
        assert res.lower <= res.upper
        res1 = delta_upper(OperatorSpec.identity(WeightedLp.unweighted(1.0, 3)), rng=RandomSource(7))
        assert res1.upper == pytest.approx(1.0, rel=1e-9)

    def test_envelope_route_matches_envelope_distance(self):
        sp = WeightedLp.unweighted(2 / 3, 2)
        via_op = delta_upper(OperatorSpec.identity(sp), rng=RandomSource(8))
        direct = envelope_distance(sp, rng=RandomSource(8))
        assert via_op.upper == pytest.approx(direct.value, rel=1e-6)


class TestGaussianMean:
    def test_identity_root_mean_square(self):
        res = gaussian_mean(OperatorSpec.identity(EUCLID3), samples=100_000, rng=RandomSource(6))
        assert abs(res.value - math.sqrt(3.0)) <= 4 * res.stderr

    def test_diagonal_variance_sum(self):
        u = OperatorSpec(np.diag([3.0, 4.0]), EUCLID2, EUCLID2)
        res = gaussian_mean(u, samples=100_000, rng=RandomSource(7))
        assert abs(res.value - 5.0) <= 4 * res.stderr

    def test_zero_operator(self):
        res = gaussian_mean(OperatorSpec(np.zeros((2, 2)), EUCLID2, EUCLID2), samples=2000, rng=RandomSource(8))
        assert res.value == 0.0

    def test_validation(self):
        u = OperatorSpec.identity(EUCLID2)
        with pytest.raises(ValueError):
            gaussian_mean(u, samples=100, rng=RandomSource(1))
        assert gaussian_mean(u, samples=2000) == gaussian_mean(u, samples=2000, rng=RandomSource(0))
        bad = OperatorSpec.identity(WeightedLp.unweighted(1.0, 2))
        with pytest.raises(ValueError, match="Euclidean"):
            gaussian_mean(bad, samples=2000, rng=RandomSource(1))


class TestApproxNumbers:
    def test_diagonal_exact_values(self):
        u = OperatorSpec(np.diag([3.0, 2.0, 1.0]), EUCLID3, EUCLID3)
        for k, expected in ((1, 3.0), (2, 2.0), (3, 1.0), (4, 0.0)):
            res = approx_numbers(u, k, rng=RandomSource(9))
            assert res.kind == "exact"
            assert res.value == pytest.approx(expected, abs=1e-12)

    def test_first_number_is_op_norm(self):
        gen = RandomSource(10).generator()
        m = gen.standard_normal((3, 3))
        u = OperatorSpec(m, EUCLID3, EUCLID3)
        assert approx_numbers(u, 1, rng=RandomSource(11)).value == pytest.approx(
            op_norm(u).value, abs=1e-9
        )

    def test_matches_singular_values_for_euclidean_target(self):
        gen = RandomSource(12).generator()
        m = gen.standard_normal((4, 4))
        u = OperatorSpec(m, WeightedLp.euclidean(4), WeightedLp.euclidean(4))
        svals = singular_values(m)
        for k in range(1, 5):
            assert approx_numbers(u, k, rng=RandomSource(13)).value == pytest.approx(
                svals[k - 1], abs=1e-12
            )

    def test_nonincreasing_for_general_target(self):
        gen = RandomSource(14).generator()
        m = gen.standard_normal((3, 3))
        u = OperatorSpec(m, EUCLID3, WeightedLp.unweighted(1.0, 3))
        vals = [approx_numbers(u, k, budget=12, rng=RandomSource(15, (k,))).value for k in (1, 2, 3)]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_row_bound_into_unconditional_target(self):
        # l1.5 has no exact route from a round source but is unconditional,
        # so every residual norm is a row bound and the value bounds a_k
        m = RandomSource(20).generator().standard_normal((4, 4))
        u = OperatorSpec(m, WeightedLp.euclidean(4), WeightedLp.unweighted(1.5, 4))
        first = approx_numbers(u, 1, rng=RandomSource(21))
        assert first.kind == "upper-bound"
        assert first.value >= op_norm(u, rng=RandomSource(22)).value
        assert approx_numbers(u, 2, budget=4, rng=RandomSource(21)).kind == "upper-bound"

    def test_searched_residual_norms_are_labelled(self):
        # a Schatten target is neither quadratic, nor atomic in its dual,
        # nor unconditional: the residual norms are searched
        m = RandomSource(20).generator().standard_normal((4, 4))
        u = OperatorSpec(m, WeightedLp.euclidean(4), Schatten(1.0, 2, 2))
        res = approx_numbers(u, 2, budget=4, rng=RandomSource(23))
        assert res.kind == "search"
        assert res.value > 0

    def test_validation(self):
        u = OperatorSpec.identity(EUCLID2)
        with pytest.raises(ValueError):
            approx_numbers(u, 0)
        with pytest.raises(ValueError):
            approx_numbers(u, 1, budget=0)

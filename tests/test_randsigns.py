"""Sign-vector averages and the constants built from them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnlab.numkernel import RandomSource
from qnlab.randsigns import (
    _best_ascent,
    cotype2_lower,
    kconvexity_lower,
    khintchine_ratio,
    rademacher_average,
    type2_lower,
)
from qnlab.spaces import OperatorSpec, WeightedLp

EUCLID2 = WeightedLp.euclidean(2)
EUCLID3 = WeightedLp.euclidean(3)


class TestRademacherAverage:
    def test_orthonormal_vectors_in_euclidean(self):
        res = rademacher_average(EUCLID2, np.eye(2), 2.0)
        assert res.mode == "exact"
        assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-12)
        # every sign pattern has the same norm, so the exponent is irrelevant
        res7 = rademacher_average(EUCLID3, np.eye(3), 7.0)
        assert res7.value == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_linear_sum_and_max_spaces(self):
        assert rademacher_average(WeightedLp.unweighted(1.0, 2), np.eye(2), 2.0).value == pytest.approx(2.0)
        assert rademacher_average(WeightedLp.unweighted(math.inf, 2), np.eye(2), 2.0).value == pytest.approx(1.0)

    def test_max_exponent_mode(self):
        v = np.array([[1.0, 0.0], [0.5, 0.5]])
        res = rademacher_average(EUCLID2, v, math.inf)
        best = max(
            float(np.linalg.norm(e1 * v[0] + e2 * v[1]))
            for e1 in (-1, 1)
            for e2 in (-1, 1)
        )
        assert res.value == pytest.approx(best, rel=1e-12)

    def test_sampled_matches_exact(self):
        v = RandomSource(5).generator().standard_normal((3, 2))
        exact = rademacher_average(EUCLID2, v, 2.0)
        sampled = rademacher_average(
            EUCLID2, v, 2.0, mode="sampled", rng=RandomSource(6), samples=20_000
        )
        assert abs(sampled.value - exact.value) <= 4 * sampled.stderr + 1e-9

    def test_sampled_defaults_rng_and_needs_samples(self):
        default = rademacher_average(EUCLID2, np.eye(2), 2.0, mode="sampled")
        assert default == rademacher_average(EUCLID2, np.eye(2), 2.0, mode="sampled", rng=RandomSource(0))
        with pytest.raises(ValueError):
            rademacher_average(EUCLID2, np.eye(2), 2.0, mode="sampled", rng=RandomSource(1), samples=100)

    @given(st.permutations(range(3)))
    @settings(max_examples=10, deadline=None)
    def test_vector_order_invariance(self, perm):
        v = np.array([[1.0, 0.2], [-0.3, 0.8], [0.5, -0.5]])
        base = rademacher_average(EUCLID2, v, 2.0).value
        assert rademacher_average(EUCLID2, v[list(perm)], 2.0).value == pytest.approx(base, rel=1e-12)

    def test_sign_flip_invariance(self):
        v = np.array([[1.0, 0.2], [-0.3, 0.8]])
        flipped = v.copy()
        flipped[0] *= -1
        for q in (1.0, 2.0, 4.0):
            assert rademacher_average(EUCLID2, flipped, q).value == pytest.approx(
                rademacher_average(EUCLID2, v, q).value, rel=1e-12
            )

    @given(st.floats(min_value=0.5, max_value=3.0), st.floats(min_value=0.1, max_value=4.0))
    @settings(max_examples=30, deadline=None)
    def test_exponent_monotonicity(self, q, bump):
        v = np.array([[1.0, 0.2], [-0.3, 0.8]])
        lo = rademacher_average(EUCLID2, v, q).value
        hi = rademacher_average(EUCLID2, v, q + bump).value
        assert lo <= hi * (1 + 1e-12)


class TestKhintchineRatio:
    def test_scalar_two_vector_value(self):
        got = khintchine_ratio(WeightedLp.euclidean(1), [[1.0], [1.0]], 4.0, 2.0)
        assert got == pytest.approx(2.0 ** 0.25, rel=1e-12)

    def test_at_least_one_for_nested_exponents(self):
        gen = RandomSource(7).generator()
        for _ in range(10):
            v = gen.standard_normal((3, 2))
            assert khintchine_ratio(EUCLID2, v, 4.0, 2.0) >= 1 - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            khintchine_ratio(EUCLID2, np.eye(2), 2.0, 4.0)


class TestTypeCotypeConstants:
    def test_flat_sum_space_type_witness(self):
        est = type2_lower(OperatorSpec.identity(WeightedLp.unweighted(1.0, 2)), n=2, rng=RandomSource(3))
        assert est.value == pytest.approx(math.sqrt(2.0), rel=1e-9)
        assert est.kind == "certified-lower-bound"

    def test_max_space_cotype_witness(self):
        est = cotype2_lower(OperatorSpec.identity(WeightedLp.unweighted(math.inf, 2)), n=2, rng=RandomSource(3))
        assert est.value == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_euclidean_constants_are_one(self):
        u = OperatorSpec.identity(EUCLID3)
        assert type2_lower(u, n=4, rng=RandomSource(1)).value == pytest.approx(1.0, abs=1e-9)
        assert cotype2_lower(u, n=4, rng=RandomSource(1)).value == pytest.approx(1.0, abs=1e-9)
        assert kconvexity_lower(u, n=3, rng=RandomSource(1)).value == pytest.approx(1.0, abs=1e-9)

    def test_type_witness_reproduces_value(self):
        u = OperatorSpec.identity(WeightedLp.unweighted(0.5, 2))
        est = type2_lower(u, n=3, budget=4, rng=RandomSource(9))
        vectors = est.witness
        num = rademacher_average(u.target, u.apply_many(vectors), 2.0).value
        den = math.sqrt(sum(u.source.gauge(v) ** 2 for v in vectors))
        assert num / den == pytest.approx(est.value, rel=1e-9)

    def test_cotype_witness_reproduces_value(self):
        u = OperatorSpec.identity(WeightedLp.unweighted(1.0, 3))
        est = cotype2_lower(u, n=3, budget=4, rng=RandomSource(9))
        vectors = est.witness
        num = math.sqrt(sum(u.target.gauge(w) ** 2 for w in u.apply_many(vectors)))
        den = rademacher_average(u.source, vectors, 2.0).value
        assert num / den == pytest.approx(est.value, rel=1e-9)

    def test_kconvexity_at_least_one(self):
        for sp in (WeightedLp.unweighted(0.5, 2), WeightedLp.unweighted(1.0, 3)):
            est = kconvexity_lower(OperatorSpec.identity(sp), n=3, budget=3, rng=RandomSource(11))
            assert est.value >= 1 - 1e-9

    def test_search_keeps_first_strict_best(self):
        def objective(x):
            return 1.0 / (1.0 + abs(float(x[0]) - 1.0))

        starts = [np.array([0.5, 0.0]), np.array([1.0, 7.0]), np.array([1.0, 9.0])]
        # budget 0 only scores each start; ties keep the earlier start
        value, best = _best_ascent(objective, starts, 0)
        assert value == 1.0 and np.array_equal(best, [1.0, 7.0])
        value, best = _best_ascent(objective, starts[:1], [40])
        assert 1.0 / 1.5 < value == objective(best)

    def test_size_validation(self):
        u = OperatorSpec.identity(EUCLID2)
        with pytest.raises(ValueError):
            type2_lower(u, n=0)
        with pytest.raises(ValueError):
            type2_lower(u, n=13)
        with pytest.raises(ValueError):
            kconvexity_lower(u, n=9)

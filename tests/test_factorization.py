"""Operator norms, quadratic factorizations, distances, Gaussian means and approximation numbers."""

import math

import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qnlab.numkernel import RandomSource, singular_values
from qnlab.factorization import (
    _norm_bound,
    _search_op_norm,
    approx_numbers,
    delta,
    envelope_distance,
    euclidean_distance,
    gamma2_upper,
    gaussian_mean,
    op_norm,
)
from qnlab.interpolation import equal_norms_type
from qnlab.randsigns import cotype2_lower, kconvexity_lower, type2_lower
from qnlab.sidon import FiniteAbelianGroup, all_characters, imbalance_lower
from qnlab.spaces import OperatorSpec, Polytope, Quadratic, RConvexAtoms, Schatten, WeightedLp

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
        # a rotation of the round ball keeps the identity's norm into l_{1/2}^2,
        # 2^(3/2), reached at the rotated diagonal; no route covers it
        c, s = math.cos(0.3), math.sin(0.3)
        res = op_norm(
            OperatorSpec(np.array([[c, -s], [s, c]]), EUCLID2, WeightedLp.unweighted(0.5, 2)),
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
        assert (res.route, res.kind, res.witness) == ("zero", "exact", None)

    def test_scaling_homogeneity(self):
        gen = RandomSource(13).generator()
        m = gen.standard_normal((2, 2))
        base = op_norm(OperatorSpec(m, EUCLID2, EUCLID2)).value
        scaled = op_norm(OperatorSpec(2.5 * m, EUCLID2, EUCLID2)).value
        assert scaled == pytest.approx(2.5 * base, rel=1e-10)

    def test_budget_checked_before_routing(self):
        l3 = WeightedLp.unweighted(3.0, 2)
        exact_pair = OperatorSpec(np.ones((3, 2)), l3, WeightedLp.unweighted(1.0, 3))
        searched_pair = OperatorSpec(np.eye(2), EUCLID2, WeightedLp.unweighted(0.5, 2))
        for u in (exact_pair, searched_pair):
            with pytest.raises(ValueError, match="budget"):
                op_norm(u, budget=0)


ROUTE_KINDS = {
    "zero": "exact",
    "atoms": "exact",
    "dual-atoms": "exact",
    "quadratic": "exact",
    "hölder": "exact",
    "row-bound": "upper-bound",
    "ascent": "lower-bound",
}
WITNESS_KINDS = ["lp0.5", "lp1", "lp1.5", "lp2", "lp3", "linf", "quadratic", "polytope", "atoms", "schatten"]


def _seeded_space(kind, d, gen):
    if kind.startswith("lp") or kind == "linf":
        p = math.inf if kind == "linf" else float(kind[2:])
        return WeightedLp(p, gen.uniform(0.5, 2.0, d))
    if kind == "quadratic":
        g = gen.standard_normal((d, d))
        return Quadratic(g @ g.T + np.eye(d))
    if kind == "polytope":
        v = np.vstack([gen.standard_normal((d + 1, d)), np.eye(d)])
        return Polytope(np.vstack([v, -v]))
    if kind == "atoms":
        return RConvexAtoms(gen.standard_normal((d + 1, d)), 0.5)
    return Schatten(0.5, 1, d)


class TestNormWitness:
    """Every operator norm names its route, its kind follows from the route,
    and a witness has source gauge 1 and reproduces the value."""

    @given(
        st.sampled_from(WITNESS_KINDS),
        st.sampled_from(WITNESS_KINDS),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=2, max_value=3),
        st.booleans(),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_witness_reproduces_value(self, kind_s, kind_t, ds, dt, diagonal, seed):
        gen = RandomSource(48, (seed,)).generator()
        if diagonal:
            dt = ds
        source, target = _seeded_space(kind_s, ds, gen), _seeded_space(kind_t, dt, gen)
        m = np.diag(gen.uniform(-3.0, 3.0, ds)) if diagonal else gen.standard_normal((dt, ds))
        rng = RandomSource(49, (seed,))
        for res in (op_norm(OperatorSpec(m, source, target), budget=200, rng=rng),
                    _norm_bound(m, source, target, rng)):
            assert res.kind == ROUTE_KINDS[res.route]
            assert (res.witness is None) == (res.route in ("zero", "dual-atoms", "row-bound"))
            if res.witness is not None:
                w = res.witness
                assert source.gauge(w) == pytest.approx(1.0, rel=1e-12)
                assert target.gauge(m @ w) / source.gauge(w) == pytest.approx(res.value, rel=1e-12)


_SMALL_MAP = OperatorSpec(np.array([[1.0, 2.0], [0.0, 1.0]]), EUCLID2, WeightedLp.unweighted(1.5, 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: gamma2_upper(_SMALL_MAP, budget=2.5),
        lambda: type2_lower(_SMALL_MAP, 2, budget=2.5),
        lambda: type2_lower(_SMALL_MAP, 2.5),
        lambda: kconvexity_lower(_SMALL_MAP, 2.5),
        lambda: cotype2_lower(_SMALL_MAP, True),
        lambda: equal_norms_type(EUCLID2, 1.0, 2.5),
        lambda: approx_numbers(_SMALL_MAP, 1.5),
        lambda: approx_numbers(_SMALL_MAP, True),
        lambda: gaussian_mean(_SMALL_MAP, samples=1000.5),
        lambda: op_norm(_SMALL_MAP, budget=True),
        lambda: imbalance_lower(FiniteAbelianGroup((2,)), all_characters(FiniteAbelianGroup((2,))), EUCLID2, 2.0, 1.5),
    ],
    ids=[
        "gamma2_upper-budget", "type2_lower-budget", "type2_lower-n", "kconvexity_lower-n",
        "cotype2_lower-n", "equal_norms_type-n", "approx_numbers-k", "approx_numbers-bool",
        "gaussian_mean-samples", "op_norm-bool", "imbalance_lower-budget",
    ],
)
def test_counts_must_be_integers(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize(
    "search,args",
    [
        (type2_lower, (_SMALL_MAP,)),
        (kconvexity_lower, (_SMALL_MAP,)),
        (equal_norms_type, (EUCLID2, 1.0)),
    ],
)
def test_integral_float_counts_run_as_integers(search, args):
    a, b = search(*args, 2.0, budget=1), search(*args, 2, budget=1)
    assert a.value == b.value
    assert np.array_equal(a.witness, b.witness)


def _lp_dual_norm(a, p):
    q = p / (p - 1.0)
    return float((np.abs(a) ** q).sum(axis=-1) ** (1.0 / q))


class TestDualAtomRoute:
    """A target gauge that is a max over dual atoms f gives the norm as the
    largest dual gauge of M' f over the source."""

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_row_into_l1_reads_dual_norm(self, p):
        a = RandomSource(41).generator().standard_normal(4)
        res = op_norm(OperatorSpec(a[None, :], WeightedLp.unweighted(p, 4), WeightedLp.unweighted(1.0, 1)))
        assert res.kind == "exact"
        assert res.value == pytest.approx(_lp_dual_norm(a, p), rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_lp_into_linf_reads_largest_row_dual_norm(self, p):
        m = RandomSource(42).generator().standard_normal((3, 4))
        res = op_norm(OperatorSpec(m, WeightedLp.unweighted(p, 4), WeightedLp.unweighted(math.inf, 3)))
        assert res.kind == "exact"
        assert res.value == pytest.approx(max(_lp_dual_norm(row, p) for row in m), rel=1e-12)

    def test_quadratic_into_linf(self):
        gen = RandomSource(43).generator()
        g = gen.standard_normal((3, 3))
        a = g @ g.T + np.eye(3)
        m = gen.standard_normal((2, 3))
        res = op_norm(OperatorSpec(m, Quadratic(a), WeightedLp.unweighted(math.inf, 2)))
        assert res.kind == "exact"
        expected = max(math.sqrt(row @ np.linalg.solve(a, row)) for row in m)
        assert res.value == pytest.approx(expected, rel=1e-12)

    def test_smooth_source_into_l1_matches_sign_closed_form(self):
        # the bench's shape: seeded Gaussian l3^2 -> l1^3 operators; the
        # search from the same source stays below the exact value
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
        for i in range(20):
            m = RandomSource(44, (i,)).generator().standard_normal((3, 2))
            u = OperatorSpec(m, WeightedLp.unweighted(3.0, 2), WeightedLp.unweighted(1.0, 3))
            res = op_norm(u)
            assert res.kind == "exact"
            assert res.value == pytest.approx(max(_lp_dual_norm(m.T @ e, 3.0) for e in signs), rel=1e-12)
            assert res.value >= _search_op_norm(u, 2000, RandomSource(45, (i,))).value

    @given(
        st.sampled_from(["box", "polytope"]),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_atoms_route(self, kind, d, m_dim, seed):
        # the atoms route serves these sources first; the dual-atom formula
        # must give the same norm
        gen = RandomSource(46, (seed,)).generator()
        if kind == "box":
            source = WeightedLp.unweighted(math.inf, d)
        else:
            d = max(d, 2)  # facet enumeration needs dim >= 2
            verts = gen.standard_normal((d + 1, d))
            source = Polytope(np.vstack([verts, -verts]))
        target = WeightedLp.unweighted(1.0, m_dim)
        m = gen.standard_normal((m_dim, d))
        res = op_norm(OperatorSpec(m, source, target))
        assert res.kind == "exact"
        dual_formula = source.dual_space().gauge_many(target.dual_atoms() @ m).max()
        assert res.value == pytest.approx(dual_formula, rel=1e-9)


EXPONENTS = [0.5, 2 / 3, 1.0, 1.5, 2.0, 3.0, math.inf]


class TestHolderRoute:
    """A diagonal map between kinds with an Lp form has Hölder's closed form."""

    def test_identity_into_concave_ball_is_exact(self):
        # the largest ratio of the l_{1/2} gauge to the round one sits at the
        # normalized diagonal, with value 2^(3/2)
        res = op_norm(OperatorSpec(np.eye(2), EUCLID2, WeightedLp.unweighted(0.5, 2)))
        assert res.kind == "exact"
        assert res.value == pytest.approx(2.0 ** 1.5, rel=1e-12)

    @given(
        st.integers(min_value=1, max_value=4),
        st.sampled_from(EXPONENTS),
        st.sampled_from(EXPONENTS),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_no_ratio_exceeds_it_and_the_witness_reaches_it(self, d, p, q, seed):
        gen = RandomSource(47, (seed,)).generator()
        source = WeightedLp(p, gen.uniform(0.2, 5.0, d))
        target = WeightedLp(q, gen.uniform(0.2, 5.0, d))
        diag = gen.uniform(-3.0, 3.0, d) * (gen.random(d) < 0.8)  # some entries 0
        if not np.any(diag):
            diag[0] = 1.0
        m = np.diag(diag)
        res = op_norm(OperatorSpec(m, source, target))
        assert res.kind == "exact"
        pts = np.vstack([np.eye(d), np.ones((1, d)), gen.standard_normal((256, d))])
        ratios = target.gauge_many(pts @ m.T) / source.gauge_many(pts)
        assert ratios.max() <= res.value * (1 + 1e-12)
        # Hölder's equality case, in y = x / s: an axis of the largest a_i
        # when q >= p, else y = a^(rho/p) with 1/rho = 1/q - 1/p
        a = np.abs(diag) * source.scales / target.scales
        if q >= p:
            y = np.eye(d)[np.argmax(a)]
        else:
            rho = 1.0 / (1.0 / q - 1.0 / p)
            y = a ** (rho / p)
        x = y * source.scales
        assert target.gauge(m @ x) / source.gauge(x) == pytest.approx(res.value, rel=1e-9)

    def test_diagonal_quadratic_target_has_an_lp_form(self):
        # a diagonal ellipsoid is the weighted l2 ball of the same weights
        m = np.diag([1.5, -0.7, 2.0])
        source = WeightedLp(3.0, [1.0, 2.0, 0.5])
        target = Quadratic(np.diag([0.5, 4.0, 1.5]))
        res = op_norm(OperatorSpec(m, source, target))
        assert res.kind == "exact"
        assert res.value == pytest.approx(3.0881288275067553, rel=1e-12)
        same = op_norm(OperatorSpec(m, source, WeightedLp(2.0, [0.5, 4.0, 1.5])))
        assert res.value == pytest.approx(same.value, rel=1e-14)
        pts = RandomSource(53).generator().standard_normal((200_000, 3))
        ratios = target.gauge_many(pts @ m.T) / source.gauge_many(pts)
        assert ratios.max() <= res.value * (1 + 1e-12)


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


GAMMA2_EXPONENTS = [0.5, 2 / 3, 1.0, 2.0, 3.0, math.inf]


class TestGamma2Bracket:
    """One bracket for gamma2: the lower bound is the larger of the operator
    norm and the parallelogram bound, a quadratic end closes the bracket
    with one split, and the Euclidean distance is gamma2 of the identity."""

    @pytest.mark.parametrize("p,two_point", [(1.0, math.sqrt(2.0)), (0.5, 2.0 * math.sqrt(2.0))])
    def test_parallelogram_bound_lifts_identity_lower(self, p, two_point):
        # axis pairs: g(e1 + e2)^2 + g(e1 - e2)^2 against 2 (g(e1)^2 + g(e2)^2)
        res = gamma2_upper(OperatorSpec.identity(WeightedLp.unweighted(p, 3)), rng=RandomSource(24))
        assert res.lower == pytest.approx(two_point, rel=1e-12)

    def test_quadratic_target_factors_through_itself(self):
        gen = RandomSource(25).generator()
        g = gen.standard_normal((2, 2))
        target = Quadratic(g @ g.T + np.eye(2))
        m = gen.standard_normal((2, 3))
        u = OperatorSpec(m, WeightedLp.unweighted(0.5, 3), target)
        res = gamma2_upper(u, rng=RandomSource(26))
        assert res.certified
        assert res.witness.inner_dim == 2
        assert res.upper == pytest.approx(op_norm(u).value, rel=1e-12)
        assert res.lower == pytest.approx(res.upper, rel=1e-12)

    @given(
        st.sampled_from(GAMMA2_EXPONENTS),
        st.sampled_from(GAMMA2_EXPONENTS),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_bracket_properties(self, p, q, ds, dt, seed):
        gen = RandomSource(27, (seed,)).generator()
        source = WeightedLp(p, gen.uniform(0.5, 2.0, ds))
        target = WeightedLp(q, gen.uniform(0.5, 2.0, dt))
        m = gen.standard_normal((dt, ds))
        u = OperatorSpec(m, source, target)
        res = gamma2_upper(u, budget=2, rng=RandomSource(28, (seed,)))
        assert 0 < res.lower <= res.upper
        w = res.witness
        assert np.allclose(w.v @ w.w, m, atol=1e-9 * max(1.0, np.abs(m).max()))
        if res.certified:
            assert w.product == pytest.approx(res.upper, rel=1e-12)
        if 2.0 in (p, q) and op_norm(u).kind == "exact":
            # a quadratic end gives gamma2(u) = ||u||, reached by one split
            assert res.certified
            assert res.lower == pytest.approx(res.upper, rel=1e-12)

    @given(st.sampled_from(GAMMA2_EXPONENTS), st.integers(min_value=2, max_value=3), st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_euclidean_distance_is_gamma2_of_the_identity(self, p, d, seed):
        space = WeightedLp(p, RandomSource(29, (seed,)).generator().uniform(0.5, 2.0, d))
        dist = euclidean_distance(space, budget=2, rng=RandomSource(30, (seed,)))
        g = gamma2_upper(OperatorSpec.identity(space), budget=2, rng=RandomSource(30, (seed,)))
        assert (dist.lower, dist.upper, dist.certified) == (g.lower, g.upper, g.certified)
        assert (dist.witness.norm_w, dist.witness.norm_v) == (g.witness.norm_w, g.witness.norm_v)
        assert np.array_equal(dist.witness.w, g.witness.w)
        assert np.array_equal(dist.witness.v, g.witness.v)


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
        assert (res.kind, res.route) == ("exact", "hölder")
        assert res.value == pytest.approx(target, rel=1e-12)

    def test_envelope_distance_witness_reproduces_value(self):
        sp = WeightedLp.unweighted(0.5, 3)
        res = envelope_distance(sp, rng=RandomSource(6))
        x = res.witness
        assert sp.gauge(x) / sp.envelope_gauge(x) == pytest.approx(res.value, rel=1e-9)

    def test_envelope_route_upper(self):
        u = OperatorSpec.identity(WeightedLp.unweighted(0.5, 3))
        res = delta(u, rng=RandomSource(7))
        assert res.value == pytest.approx(3.0, rel=1e-6)
        assert op_norm(u, rng=RandomSource(7, (1,))).value <= res.value
        res1 = delta(OperatorSpec.identity(WeightedLp.unweighted(1.0, 3)), rng=RandomSource(7))
        assert res1.value == pytest.approx(1.0, rel=1e-9)
        assert res1.kind == "exact"


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
        vals = [approx_numbers(u, k, rng=RandomSource(15, (k,))).value for k in (1, 2, 3)]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_row_bound_into_unconditional_target(self):
        # l1.5 has no exact route from a round source but is unconditional,
        # so every residual norm is a row bound and the value bounds a_k
        m = RandomSource(20).generator().standard_normal((4, 4))
        u = OperatorSpec(m, WeightedLp.euclidean(4), WeightedLp.unweighted(1.5, 4))
        first = approx_numbers(u, 1, rng=RandomSource(21))
        assert first.kind == "upper-bound"
        assert first.value >= op_norm(u, rng=RandomSource(22)).value
        assert approx_numbers(u, 2, rng=RandomSource(21)).kind == "upper-bound"

    def test_searched_residual_norms_are_labelled(self):
        # a Schatten target is neither quadratic, nor atomic in its dual,
        # nor unconditional: the residual norms are searched
        m = RandomSource(20).generator().standard_normal((4, 4))
        u = OperatorSpec(m, WeightedLp.euclidean(4), Schatten(1.0, 2, 2))
        res = approx_numbers(u, 2, rng=RandomSource(23))
        assert res.kind == "search"
        assert res.value > 0

    def test_validation(self):
        u = OperatorSpec.identity(EUCLID2)
        with pytest.raises(ValueError):
            approx_numbers(u, 0)

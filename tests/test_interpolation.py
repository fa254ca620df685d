"""Split functionals, intermediate gauges, and operator bounds."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scipy.optimize import minimize, minimize_scalar

from qnlab import interpolation
from qnlab.numkernel import RandomSource
from qnlab.interpolation import (
    NormPair,
    ThetaParams,
    diagonal_theta_norm,
    equal_norms_type,
    interp_operator_bound_check,
    k_functional,
    quadratic_theta_norm_exact,
    theta_norm,
    theta_norm_constant,
)
from qnlab.spaces import Quadratic, Schatten, WeightedLp

scales = st.floats(min_value=0.2, max_value=5.0, allow_nan=False)


def scale_vectors(dim):
    return st.lists(scales, min_size=dim, max_size=dim).map(np.array)


class TestGauges:
    def test_diagonal_quadratic_scale_convention(self):
        g = NormPair.diagonal([2.0, 3.0], [1.0, 1.0]).space0
        assert g.gauge([1.0, 0.0]) == pytest.approx(2.0)
        assert g.gauge([0.0, 1.0]) == pytest.approx(3.0)
        assert np.allclose(g.matrix, np.diag([4.0, 9.0]))

    def test_space_gauge_wraps_spaces_only(self):
        sp = WeightedLp.euclidean(2)
        pair = NormPair.from_spaces(sp, WeightedLp.unweighted(1.0, 2))
        assert pair.space0 is sp
        assert pair.space0.gauge([3.0, 4.0]) == pytest.approx(5.0)

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            NormPair(Quadratic(np.diag([1.0])), Quadratic(np.diag([1.0, 4.0])))

    def test_pair_flags(self):
        quad = NormPair.diagonal([1.0, 2.0], [2.0, 1.0])
        assert quad.is_quadratic and quad.space0.coordinate_scales(2.0) is not None
        mixed = NormPair.from_spaces(WeightedLp.euclidean(2), WeightedLp.unweighted(1.0, 2))
        assert not mixed.is_quadratic


class TestSplitFunctional:
    def test_one_dim_quadratic_closed_form(self):
        a, b, t, x = 4.0, 9.0, 0.7, 1.5
        pair = NormPair.diagonal([a], [b])
        kv = k_functional(pair, 2.0, t, [x])
        assert kv.exact
        assert kv.value == pytest.approx(a * b * t * x / math.hypot(a, b * t), rel=1e-12)

    def test_matched_linear_weights(self):
        pair = NormPair.from_spaces(WeightedLp(1.0, [1.0, 2.0]), WeightedLp(1.0, [3.0, 1.0]))
        kv = k_functional(pair, 1.0, 0.5, [1.0, 1.0])
        assert kv.exact
        assert kv.value == pytest.approx(min(1.0, 1.5) + min(2.0, 0.5))

    def test_matched_concave_weights(self):
        pair = NormPair.from_spaces(WeightedLp(0.5, [1.0, 1.0]), WeightedLp(0.5, [4.0, 4.0]))
        kv = k_functional(pair, 0.5, 0.25, [1.0, 1.0])
        assert kv.exact
        # per-coordinate scales 1 and 16; at t = 1/4 both coordinates keep
        # the first gauge, so the value is the first gauge of x
        assert kv.value == pytest.approx(4.0)

    def test_one_dim_mixed_pair(self):
        pair = NormPair(Quadratic(np.array([[16.0]])), WeightedLp(1.0, [3.0]))
        kv = k_functional(pair, 1.0, 2.0, [1.0])
        assert kv.exact
        assert kv.value == pytest.approx(min(4.0, 6.0))

    def test_equal_gauges_at_matching_exponent(self):
        sp = WeightedLp.unweighted(0.5, 2)
        pair = NormPair(sp, sp)
        kv = k_functional(pair, 0.5, 0.3, [1.0, 1.0])
        assert kv.exact
        assert kv.value == pytest.approx(0.3 * sp.gauge([1.0, 1.0]))

    @pytest.mark.parametrize("s", [math.inf, math.nan])
    def test_non_finite_exponent_rejected(self, s):
        # at s = inf the search valued every split at vals ** 0 = 1, so
        # x = (100, 100) read 1.0 though every split costs at least |x| / 2
        with pytest.raises(ValueError, match="finite exponent"):
            k_functional(NormPair.diagonal([1.0, 2.0], [2.0, 1.0]), s, 1.0, [100.0, 100.0])

    def test_searched_value_is_bracketed(self):
        pair = NormPair.from_spaces(WeightedLp.unweighted(1.0, 3), WeightedLp.unweighted(math.inf, 3))
        x = np.array([1.0, -0.5, 0.25])
        for t in (0.2, 1.0, 5.0):
            kv = k_functional(pair, 1.0, t, x, budget=150)
            assert not kv.exact
            assert kv.lower <= kv.value * (1 + 1e-12)
            assert kv.value <= min(pair.space0.gauge(x), t * pair.space1.gauge(x)) + 1e-9

    @pytest.mark.parametrize("p,q", [(2.0, 1.0), (1.0, 2.0), (math.inf, 0.5)])
    def test_weighted_lp_constants_are_the_true_extremes(self, p, q):
        gen = RandomSource(31).generator()
        pair = NormPair(WeightedLp(p, gen.uniform(0.2, 5.0, 4)), WeightedLp(q, gen.uniform(0.2, 5.0, 4)))
        c, cap = pair.equivalence_constants()
        s0, s1 = pair.space0.scales, pair.space1.scales
        # Holder's equality case: the extreme on the side where the
        # exponents shrink sits off the axes and off the all-ones vector
        lo, hi = min(p, q), max(p, q)
        rho = 1.0 / (1.0 / lo - 1.0 / hi)
        a = s0 / s1 if q < p else s1 / s0
        witness = (s0 if q < p else s1) * a ** (rho / hi)
        ratio = pair.space1.gauge(witness) / pair.space0.gauge(witness)
        assert ratio == pytest.approx(cap if q < p else c, rel=1e-12)
        # the other extreme sits on an axis
        axes = pair.space1.gauge_many(np.eye(4)) / pair.space0.gauge_many(np.eye(4))
        assert (axes.min() if q < p else axes.max()) == pytest.approx(c if q < p else cap, rel=1e-12)
        # 1000 sampled directions, axes and all-ones included, bracket
        # inside the true constants and miss the off-axis extreme
        pts = np.vstack([np.eye(4), np.ones((1, 4)), gen.standard_normal((995, 4))])
        sampled = pair.space1.gauge_many(pts) / pair.space0.gauge_many(pts)
        assert c * (1 - 1e-12) <= sampled.min() and sampled.max() <= cap * (1 + 1e-12)
        missed = cap / sampled.max() if q < p else sampled.min() / c
        assert missed > 1.0 + 1e-6

    def test_pair_without_routes_has_no_constants(self):
        # no exact operator-norm route joins two Schatten balls, so the
        # searched value comes with the trivial lower bound
        pair = NormPair(Schatten(1.0, 2, 2), Schatten(0.5, 2, 2))
        assert pair.equivalence_constants() is None
        kv = k_functional(pair, 1.0, 0.5, [1.0, 0.5, -0.25, 2.0], budget=20)
        assert not kv.exact
        assert kv.lower == 0.0 and kv.value > 0

    def test_monotone_in_t(self):
        pair = NormPair.diagonal([1.0, 2.0, 3.0], [2.5, 0.7, 1.1])
        x = np.array([0.3, -1.2, 0.8])
        vals = [k_functional(pair, 2.0, t, x).value for t in (0.1, 0.5, 1.0, 4.0)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_zero_vector(self):
        pair = NormPair.diagonal([1.0], [1.0])
        assert k_functional(pair, 2.0, 1.0, [0.0]).value == 0.0

    def test_validation(self):
        pair = NormPair.diagonal([1.0], [1.0])
        with pytest.raises(ValueError):
            k_functional(pair, 2.0, 0.0, [1.0])
        with pytest.raises(ValueError):
            k_functional(pair, 2.0, 1.0, [1.0], budget=0)
        concave_space = WeightedLp.unweighted(0.5, 2)
        concave = NormPair(concave_space, concave_space)
        with pytest.raises(ValueError):
            k_functional(concave, 0.25, 1.0, [1.0, 1.0])

    @given(scale_vectors(3), scale_vectors(3), st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=40, deadline=None)
    def test_diagonal_quadratic_split_matches_per_coordinate_formula(self, w0, w1, t):
        pair = NormPair.diagonal(w0, w1)
        x = np.array([0.7, -1.1, 0.4])
        kv = k_functional(pair, 2.0, t, x)
        c = t * w1
        per = w0 * c * np.abs(x) / np.sqrt(w0**2 + c**2)
        assert kv.exact
        assert kv.value == pytest.approx(float(np.sqrt(np.sum(per**2))), rel=1e-10)

    def test_general_quadratic_split_matches_linear_system(self):
        gen = RandomSource(29).generator()
        g0, g1 = gen.standard_normal((3, 3)), gen.standard_normal((3, 3))
        pair = NormPair(Quadratic(g0 @ g0.T + np.eye(3)), Quadratic(g1 @ g1.T + np.eye(3)))
        x = gen.standard_normal(3)
        a0, a1 = pair.space0.matrix, pair.space1.matrix
        for t in (1e-3, 0.5, 2.0, 1e3):
            # the minimizing split solves (A0 + t^2 A1) x0 = t^2 A1 x
            x0 = np.linalg.solve(a0 + t * t * a1, t * t * (a1 @ x))
            x1 = x - x0
            want = math.sqrt(x0 @ a0 @ x0 + t * t * (x1 @ a1 @ x1))
            kv = k_functional(pair, 2.0, t, x)
            assert kv.exact
            assert kv.value == pytest.approx(want, rel=1e-10)


def _lattice_pair(r, w0, w1, flip):
    lin, cav = WeightedLp(1.0, w0), WeightedLp(r, w1)
    return NormPair(cav, lin) if flip else NormPair(lin, cav)


@st.composite
def lattice_cases(draw, max_dim=4):
    """An l1 / lr pair in either order, a vector with some zero coordinates
    and a few nodes t."""
    d = draw(st.integers(min_value=2, max_value=max_dim))
    r = draw(st.floats(min_value=0.05, max_value=1.0, exclude_min=True))
    w0, w1 = draw(scale_vectors(d)), draw(scale_vectors(d))
    coord = st.one_of(
        st.just(0.0), st.floats(min_value=1e-3, max_value=3.0), st.floats(min_value=-3.0, max_value=-1e-3)
    )
    x = np.array(draw(st.lists(coord, min_size=d, max_size=d)))
    assume(np.any(x))
    ts = np.array(draw(st.lists(st.floats(min_value=1e-4, max_value=1e4), min_size=1, max_size=3)))
    return r, w0, w1, x, ts, draw(st.booleans())


def _brute_k(pair, s, ts, lam, x):
    """Smallest split value over the splits x0 = lam * x, at every t."""
    x0 = lam * x
    g0, g1 = pair.space0.gauge_many(x0), pair.space1.gauge_many(x - x0)
    return np.min(g0**s + (ts[:, None] * g1) ** s, axis=1) ** (1.0 / s)


class TestLatticeRoute:
    """The exact route for weighted l1 against weighted lr pairs, r <= 1."""

    @given(lattice_cases(), st.sampled_from(["r", 1.0, 2.0]))
    @settings(max_examples=60, deadline=None)
    def test_never_above_the_split_search(self, case, s):
        r, w0, w1, x, ts, flip = case
        s = r if s == "r" else s
        pair = _lattice_pair(r, w0, w1, flip)
        got = interpolation._exact_k(pair, s, ts, x)
        searched = interpolation._search_k(pair, ts, x, s, 40)
        assert np.all(got <= searched * (1.0 + 1e-15))

    @given(lattice_cases(max_dim=3), st.sampled_from([1.0, 2.0]))
    @settings(max_examples=40, deadline=None)
    def test_never_above_a_dense_grid(self, case, s):
        r, w0, w1, x, ts, flip = case
        pair = _lattice_pair(r, w0, w1, flip)
        grid = np.linspace(0.0, 1.0, 201 if x.shape[0] == 2 else 41)
        lam = np.array(list(itertools.product(grid, repeat=x.shape[0])))
        got = interpolation._exact_k(pair, s, ts, x)
        assert np.all(got <= _brute_k(pair, s, ts, lam, x) * (1.0 + 1e-15))

    @given(lattice_cases(), st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=40, deadline=None)
    def test_reversal_identity(self, case, s):
        r, w0, w1, x, ts, _ = case
        s = max(s, r)
        direct = interpolation._exact_k(_lattice_pair(r, w0, w1, False), s, ts, x)
        reverse = interpolation._exact_k(_lattice_pair(r, w0, w1, True), s, 1.0 / ts, x)
        np.testing.assert_allclose(ts * reverse, direct, rtol=1e-14)

    @given(lattice_cases(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_concave_exponents_take_the_best_mask(self, case, frac):
        r, w0, w1, x, ts, flip = case
        s = r + frac * (1.0 - r)  # r <= s <= 1
        pair = _lattice_pair(r, w0, w1, flip)
        masks = np.array(list(itertools.product((0.0, 1.0), repeat=x.shape[0])))
        got = interpolation._exact_k(pair, s, ts, x)
        np.testing.assert_allclose(got, _brute_k(pair, s, ts, masks, x), rtol=1e-15)

    def test_exact_up_to_dim_8_then_searched(self):
        params = ThetaParams(0.3, nodes=50, t_min=1e-5, t_max=1e5, budget=5)
        for d, exact in ((8, True), (9, False)):
            sp = WeightedLp.unweighted(0.5, d)
            pair = NormPair.from_spaces(sp.envelope_space(), sp)
            x = RandomSource(13, (d,)).generator().standard_normal(d)
            for s in (0.5, 1.0, 2.0):
                assert (interpolation._exact_k(pair, s, np.array([1.0]), x) is not None) == exact
                assert k_functional(pair, s, 1.0, x).exact == exact
            assert theta_norm(pair, params, x).exact == exact
            assert theta_norm(pair, params, np.zeros(d)).exact  # K = 0


@st.composite
def quadratic_cases(draw):
    """A diagonal or general quadratic pair, a nonzero vector and a few
    nodes t."""
    d = draw(st.integers(min_value=2, max_value=4))
    if draw(st.booleans()):
        pair = NormPair.diagonal(draw(scale_vectors(d)), draw(scale_vectors(d)))
    else:
        gen = RandomSource(draw(st.integers(min_value=0, max_value=2**32 - 1))).generator()
        g0, g1 = gen.uniform(-1.0, 1.0, (2, d, d))
        c0, c1 = draw(scales), draw(scales)
        pair = NormPair(Quadratic(g0 @ g0.T + 0.1 * c0 * np.eye(d)), Quadratic(g1 @ g1.T + 0.1 * c1 * np.eye(d)))
    coord = st.floats(min_value=-3.0, max_value=3.0)
    x = np.array(draw(st.lists(coord, min_size=d, max_size=d)))
    assume(np.abs(x).max() > 1e-3)
    ts = np.array(draw(st.lists(st.floats(min_value=1e-4, max_value=1e4), min_size=1, max_size=3)))
    return pair, x, ts


def _dual_lower_k1(pair, t, x):
    """A lower bound on K_1(t, x) from a feasible dual functional.

    For lam in [0, 1], f = M^{-1} x with ``M = (1 - lam) A0^{-1} + lam
    A1^{-1} / t^2`` maximizes <f, x> on the ellipsoid f' M f <= 1, which
    contains the dual set; scaled into the dual set, f gives the bound
    ``<f, x> / max(|f|_0*, |f|_1* / t)``.  lam comes from a bounded scalar
    minimization of x' M^{-1} x, the endpoints included."""
    i0, i1 = np.linalg.inv(pair.space0.matrix), np.linalg.inv(pair.space1.matrix) / t**2

    def solve(lam):
        return np.linalg.solve((1.0 - lam) * i0 + lam * i1, x)

    lam = minimize_scalar(lambda u: x @ solve(u), bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-12}).x
    best = 0.0
    for u in (0.0, lam, 1.0):
        f = solve(u)
        best = max(best, f @ x / max(math.sqrt(f @ i0 @ f), math.sqrt(f @ i1 @ f)))
    return best


class TestQuadraticS1Route:
    """The exact route for quadratic pairs at s = 1 (duality over lam)."""

    @given(quadratic_cases())
    @settings(max_examples=60, deadline=None)
    def test_between_a_dual_bound_and_the_split_search(self, case):
        pair, x, ts = case
        got = interpolation._exact_k(pair, 1.0, ts, x)
        lower = np.array([_dual_lower_k1(pair, t, x) for t in ts])
        assert np.all(got >= lower * (1.0 - 1e-6))
        searched = interpolation._search_k(pair, ts, x, 1.0, 40)
        assert np.all(got <= searched * (1.0 + 1e-12))

    @given(quadratic_cases())
    @settings(max_examples=30, deadline=None)
    def test_labelled_exact(self, case):
        pair, x, ts = case
        for t in ts:
            kv = k_functional(pair, 1.0, t, x)
            assert kv.exact and kv.lower == kv.value

    def test_trivial_splits_far_out(self):
        pair = NormPair(Quadratic([[4.0, 1.0], [1.0, 3.0]]), Quadratic([[2.0, 0.0], [0.0, 5.0]]))
        x = np.array([0.6, -1.1])
        g0, g1 = pair.space0.gauge(x), pair.space1.gauge(x)
        # far out on either side one of the trivial splits is optimal
        got = interpolation._exact_k(pair, 1.0, np.array([1e-6, 1e6]), x)
        np.testing.assert_allclose(got, [1e-6 * g1, g0], rtol=1e-14)


class TestIntermediateGauge:
    def test_normalizing_constant(self):
        assert theta_norm_constant(0.5) == pytest.approx(math.sqrt(math.pi / 8))
        with pytest.raises(ValueError):
            theta_norm_constant(0.0)

    @given(st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=30, deadline=None)
    def test_constant_symmetry(self, th):
        assert theta_norm_constant(th) == pytest.approx(theta_norm_constant(1 - th), rel=1e-12)

    def test_one_dim_closed_form(self):
        pair = NormPair.diagonal([4.0], [9.0])
        got = quadratic_theta_norm_exact(pair, [1.5], 0.5)
        assert got == pytest.approx(theta_norm_constant(0.5) * 4**0.5 * 9**0.5 * 1.5, rel=1e-12)

    @pytest.mark.parametrize(
        "theta,frozen",
        [(0.25, 1.7121313470), (0.5, 1.3074475525), (0.75, 1.0851889398)],
    )
    def test_three_dim_diagonal_frozen_values(self, theta, frozen):
        w0 = [1.0, 2.0, 3.0]
        w1 = [2.5, 0.7, 1.1]
        x = [0.3, -1.2, 0.8]
        pair = NormPair.diagonal(w0, w1)
        exact = quadratic_theta_norm_exact(pair, x, theta)
        assert exact == pytest.approx(frozen, abs=1e-9)
        assert diagonal_theta_norm(w0, w1, x, theta) == pytest.approx(frozen, abs=1e-9)
        quad = theta_norm(pair, ThetaParams(theta), x)
        assert quad.value == pytest.approx(exact, rel=1e-3)
        # the window tails are added analytically and stay a small share
        assert quad.tail_mass < 0.01

    def test_quadrature_against_eigen_route_general_pair(self):
        gen = RandomSource(19).generator()
        for _ in range(5):
            g0 = gen.standard_normal((3, 3))
            g1 = gen.standard_normal((3, 3))
            a0 = g0 @ g0.T + np.eye(3)
            a1 = g1 @ g1.T + np.eye(3)
            pair = NormPair(Quadratic(a0), Quadratic(a1))
            x = gen.standard_normal(3)
            exact = quadratic_theta_norm_exact(pair, x, 0.5)
            quad = theta_norm(pair, ThetaParams(0.5), x).value
            assert quad == pytest.approx(exact, rel=1e-3)

    def test_weighted_l2_spaces_take_the_exact_route(self):
        gen = RandomSource(23).generator()
        w0, w1 = gen.uniform(0.5, 2.0, 2), gen.uniform(0.5, 2.0, 2)
        x = gen.standard_normal(2)
        params = ThetaParams(0.4, nodes=50, t_min=1e-5, t_max=1e5, budget=20)
        spaces = NormPair.from_spaces(WeightedLp(2.0, w0**2), WeightedLp(2.0, w1**2))
        assert spaces.is_quadratic
        got = theta_norm(spaces, params, x).value
        want = theta_norm(NormPair.diagonal(w0, w1), params, x).value
        assert got == pytest.approx(want, rel=1e-12)

    def test_one_dim_mixed_pair_takes_the_exact_route(self):
        params = ThetaParams(0.5, nodes=50, t_min=1e-5, t_max=1e5, budget=20)
        mixed = NormPair(Quadratic([[16.0]]), WeightedLp(1.0, [3.0]))
        got = theta_norm(mixed, params, [1.5]).value
        want = theta_norm(NormPair.diagonal([4.0], [3.0]), params, [1.5]).value
        assert got == pytest.approx(want, rel=1e-12)

    @given(scale_vectors(2), scale_vectors(2), st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_homogeneity(self, w0, w1, lam):
        pair = NormPair.diagonal(w0, w1)
        x = np.array([0.8, -0.6])
        base = quadratic_theta_norm_exact(pair, x, 0.3)
        assert quadratic_theta_norm_exact(pair, lam * x, 0.3) == pytest.approx(
            abs(lam) * base, rel=1e-10, abs=1e-12
        )

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ThetaParams(1.5)
        with pytest.raises(ValueError):
            ThetaParams(0.5, nodes=10)
        with pytest.raises(ValueError):
            ThetaParams(0.5, t_min=1.0)

    @pytest.mark.parametrize("grid", [{"t_min": -1.0}, {"t_min": 0.0}, {"t_max": math.inf}])
    def test_degenerate_grid_rejected(self, grid):
        # these ran to a NaN gauge, or failed inside np.geomspace
        with pytest.raises(ValueError, match="grid"):
            ThetaParams(0.5, **grid)


class TestDerivedChecks:
    def test_operator_bound_on_seeded_diagonal_instances(self):
        gen = RandomSource(42).generator()
        for i in range(8):
            d = 2 + (i % 3)
            src = NormPair.diagonal(np.exp(gen.standard_normal(d) * 0.5),
                                    np.exp(gen.standard_normal(d) * 0.5))
            tgt = NormPair.diagonal(np.exp(gen.standard_normal(d) * 0.5),
                                    np.exp(gen.standard_normal(d) * 0.5))
            res = interp_operator_bound_check(
                np.diag(gen.standard_normal(d)), src, tgt, 0.5, rng=RandomSource(100 + i)
            )
            assert res.passed
            assert res.endpoint_kind == "exact"
            assert res.lhs <= res.rhs * 1.02

    def test_equal_norms_constants(self):
        flat = equal_norms_type(WeightedLp.unweighted(1.0, 2), 1.0, 2, rng=RandomSource(4))
        assert flat.value == pytest.approx(1.0, abs=1e-9)
        assert flat.kind == "certified-lower-bound"
        round_ = equal_norms_type(WeightedLp.euclidean(3), 2.0, 4, rng=RandomSource(4))
        assert round_.value == pytest.approx(1.0, abs=1e-9)

    def test_equal_norms_validation(self):
        with pytest.raises(ValueError):
            equal_norms_type(WeightedLp.euclidean(2), 2.5, 2)
        with pytest.raises(ValueError):
            equal_norms_type(WeightedLp.euclidean(2), 1.0, 0)


def _per_node_search(pair, ts, x, s, budget):
    """Reference split search: one scalar scipy Nelder-Mead per start, node
    by node, each node after the first warm-started from the previous
    node's best split."""
    ks = np.empty(len(ts))
    warm = None
    for i, t in enumerate(ts):

        def objective(x0):
            return pair.space0.gauge(x0) ** s + (t * pair.space1.gauge(x - x0)) ** s

        starts = [np.zeros_like(x), x.copy(), 0.5 * x]
        if pair.dim <= 8:
            for j in range(pair.dim):
                mask = np.zeros_like(x)
                mask[j] = x[j]
                starts.append(mask)
        if warm is not None:
            starts.append(np.asarray(warm, dtype=float))
        best_val, best_x0 = math.inf, starts[0]
        for s0 in starts:
            val = objective(s0)
            if val < best_val:
                best_val, best_x0 = val, s0.copy()
            res = minimize(
                objective, s0, method="Nelder-Mead", options={"maxfev": budget, "xatol": 1e-10, "fatol": 1e-14}
            )
            if res.fun < best_val:
                best_val, best_x0 = float(res.fun), np.asarray(res.x, dtype=float)
        ks[i] = best_val ** (1.0 / s)
        warm = best_x0
    return ks


class TestBatchedSplitSearch:
    @pytest.mark.parametrize("budget", [10, 20])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("r", [0.5, 2.0 / 3.0])
    def test_matches_per_node_search(self, monkeypatch, r, d, budget):
        gen = RandomSource(11, (d,)).generator()
        w0, w1 = gen.uniform(0.5, 2.0, d), gen.uniform(0.5, 2.0, d)
        pair = NormPair.from_spaces(WeightedLp(1.5, w0), WeightedLp(r, w1))
        params = ThetaParams(0.9 * r / (2.0 - r), nodes=50, t_min=1e-5, t_max=1e5, budget=budget)
        x = gen.standard_normal(d)
        # no exact route covers the pair, so both runs below really search
        for s in (1.0, 2.0):
            assert interpolation._exact_k(pair, s, np.array([0.05, 1.0, 20.0]), x) is None
        cases = [(s, t) for s in (1.0, 2.0) for t in (0.05, 1.0, 20.0)]

        def run():
            theta = theta_norm(pair, params, x).value
            ks = [k_functional(pair, s, t, x, budget=budget).value for s, t in cases]
            return np.array([theta, *ks])

        got = run()
        monkeypatch.setattr(interpolation, "_search_k", _per_node_search)
        want = run()
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

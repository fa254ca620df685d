"""Gauges, duals, envelopes, operators, quotients, and sections."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from qnlab.numkernel import DegenerateMatrixError, RandomSource
from qnlab.spaces import (
    OperatorSpec,
    Polytope,
    Quadratic,
    RConvexAtoms,
    Schatten,
    WeightedLp,
    coordinate_section,
    horn_check,
    horn_check_many,
    quotient,
)

SQUARE = Polytope(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))
OCTA_PLUS = np.vstack([np.eye(3), [[1.0, 1.0, 0.0]]])


def lp_gauge(atoms, x):
    """Reference convex-hull gauge: ``min sum |lam| : atoms.T @ lam = x``,
    as a linear program at the vector's own scale."""
    a = np.asarray(atoms, dtype=float)
    m = a.shape[0]
    res = linprog(np.ones(2 * m), A_eq=np.hstack([a.T, -a.T]), b_eq=x, bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


def brute_atom_gauge(atoms, r, x):
    """Reference r-convex atom gauge: the least ``(sum |lam|^r)^(1/r)`` over
    the least-norm solutions of ``x = block @ lam`` for every nonempty
    subset of the atoms, copies and negatives included."""
    a = np.asarray(atoms, dtype=float)
    best = math.inf
    for mask in range(1, 2 ** len(a)):
        block = a[[i for i in range(len(a)) if mask >> i & 1]].T
        lam = np.linalg.pinv(block) @ x
        if np.abs(block @ lam - x).max() <= 1e-9 * max(1.0, np.abs(x).max()):
            best = min(best, float((np.abs(lam) ** r).sum() ** (1.0 / r)))
    return best


def horn_reference(a, b, p, k):
    """One pair at one k, one SVD per matrix: the loop that
    ``horn_check_many`` stacks."""
    s_ab, s_a, s_b = (np.linalg.svd(m, full_matrices=False)[1][:k] for m in (a @ b, a, b))
    return float((s_ab**p).sum()), float(((s_a * s_b) ** p).sum())


def finite_vectors(dim, lo=-4.0, hi=4.0):
    coord = st.floats(min_value=lo, max_value=hi, allow_nan=False, width=32)
    return st.lists(coord, min_size=dim, max_size=dim).map(np.array)


class TestWeightedLpGauge:
    def test_concave_exponent_square_growth(self):
        # (|1|^{1/2} + |1|^{1/2})^2 = 4
        assert WeightedLp.unweighted(0.5, 2).gauge([1.0, 1.0]) == pytest.approx(4.0)

    def test_two_thirds_exponent(self):
        assert WeightedLp.unweighted(2 / 3, 3).gauge([1.0, 1.0, 1.0]) == pytest.approx(3**1.5)

    def test_weighted_sum_and_max(self):
        assert WeightedLp(1.0, [2.0, 5.0]).gauge([1.0, -1.0]) == pytest.approx(7.0)
        assert WeightedLp(math.inf, [2.0, 5.0]).gauge([1.0, -1.0]) == pytest.approx(5.0)

    def test_euclidean_flag_and_value(self):
        e = WeightedLp.euclidean(2)
        assert e.is_euclidean
        assert e.gauge([3.0, 4.0]) == pytest.approx(5.0)
        assert not WeightedLp(2.0, [1.0, 2.0]).is_euclidean

    def test_from_scales_unit_vectors(self):
        sp = WeightedLp.from_scales(0.5, [2.0, 3.0])
        assert sp.gauge([2.0, 0.0]) == pytest.approx(1.0)
        assert sp.gauge([0.0, 3.0]) == pytest.approx(1.0)

    def test_r_exponent(self):
        assert WeightedLp.unweighted(0.5, 2).r_exponent == pytest.approx(0.5)
        assert WeightedLp.unweighted(1.0, 2).r_exponent == pytest.approx(1.0)
        assert WeightedLp.euclidean(2).r_exponent == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedLp(0.0, [1.0])
        with pytest.raises(ValueError):
            WeightedLp(1.0, [1.0, -1.0])
        with pytest.raises(ValueError):
            WeightedLp.unweighted(1.0, 0)

    @given(finite_vectors(3), finite_vectors(3))
    @settings(max_examples=60, deadline=None)
    def test_r_triangle_inequality(self, x, y):
        for p in (0.5, 1.0, 2.0):
            sp = WeightedLp.unweighted(p, 3)
            r = min(p, 1.0)
            lhs = sp.gauge(x + y) ** r
            rhs = sp.gauge(x) ** r + sp.gauge(y) ** r
            assert lhs <= rhs * (1 + 1e-9) + 1e-9

    @given(finite_vectors(3), st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity(self, x, lam):
        sp = WeightedLp.unweighted(0.5, 3)
        assert sp.gauge(lam * x) == pytest.approx(abs(lam) * sp.gauge(x), rel=1e-9, abs=1e-9)

    @given(finite_vectors(4))
    @settings(max_examples=40, deadline=None)
    def test_gauge_many_matches_gauge(self, x):
        # every kind: the scalar gauge is the batch kernel on one row, bit
        # for bit; other batch rows agree to rounding
        kinds = (
            WeightedLp.unweighted(0.5, 3),
            WeightedLp(math.inf, [1.0, 2.0, 0.5]),
            WeightedLp.unweighted(2 / 3, 3),
            Quadratic([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]]),
            Schatten(0.5, 2, 2),
            Polytope(np.vstack([OCTA_PLUS, -OCTA_PLUS])),
            RConvexAtoms(OCTA_PLUS, 0.5),
        )
        for sp in kinds:
            v = x[: sp.dim]
            assert sp.gauge(v) == sp.gauge_many(v[None])[0]
            batch = sp.gauge_many(np.vstack([v, 2 * v]))
            assert batch[0] == pytest.approx(sp.gauge(v), rel=1e-12, abs=1e-12)
            assert batch[1] == pytest.approx(sp.gauge(2 * v), rel=1e-12, abs=1e-12)


class TestDualGauges:
    """Dual gauges are the gauges of the dual spaces."""

    def test_dual_values(self):
        def dual(sp, f):
            return sp.dual_space().gauge(f)

        assert dual(WeightedLp.euclidean(2), [3.0, 4.0]) == pytest.approx(5.0)
        assert dual(WeightedLp.unweighted(1.0, 2), [3.0, -4.0]) == pytest.approx(4.0)
        assert dual(WeightedLp.unweighted(math.inf, 2), [3.0, -4.0]) == pytest.approx(7.0)
        # concave-exponent ball has the same extreme points as its envelope
        assert dual(WeightedLp.unweighted(0.5, 2), [3.0, 1.0]) == pytest.approx(3.0)
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        f = np.array([1.0, -2.0])
        assert dual(Quadratic(a), f) == pytest.approx(math.sqrt(f @ np.linalg.solve(a, f)), rel=1e-12)

    def test_kinds_without_dual_space(self):
        assert Schatten(1.0, 2, 2).dual_space() is None
        assert Schatten(0.5, 2, 2).dual_space() is None

    def test_concave_atom_hull_dual_is_envelope_dual(self):
        # the 1/2-hull of the axes is the l_{1/2}^2 ball: both duals are l_inf^2
        atoms = RConvexAtoms(np.eye(2), 0.5).dual_space()
        lp = WeightedLp.unweighted(0.5, 2).dual_space()
        for f in ([3.0, 1.0], [-0.5, 2.0], [1.0, -1.0], [0.0, 0.25]):
            assert atoms.gauge(f) == pytest.approx(lp.gauge(f), rel=1e-12)

    def test_polytope_dual(self):
        assert SQUARE.dual_space().gauge([1.0, 0.0]) == pytest.approx(1.0)
        assert SQUARE.dual_space().gauge([1.0, 1.0]) == pytest.approx(2.0)

    @given(finite_vectors(2), finite_vectors(2))
    @settings(max_examples=60, deadline=None)
    def test_pairing_bounded_by_dual_times_gauge(self, f, x):
        quad = Quadratic(np.array([[2.0, 0.5], [0.5, 1.0]]))
        for sp in (WeightedLp.unweighted(1.0, 2), WeightedLp.euclidean(2), SQUARE, quad):
            lhs = abs(float(f @ x))
            rhs = sp.dual_space().gauge(f) * sp.gauge(x)
            assert lhs <= rhs * (1 + 1e-9) + 1e-9


class TestDualAtoms:
    """``dual_atoms`` derives from the dual space; where it is not None, the
    largest pairing with it is the kind's own gauge."""

    @staticmethod
    def _assert_gauge_is_max_pairing(sp, seed):
        F = sp.dual_atoms()
        assert F is not None
        for y in RandomSource(seed).generator().standard_normal((40, sp.dim)):
            assert float(np.max(F @ y)) == pytest.approx(sp.gauge(y), rel=1e-12, abs=0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [1.0, math.inf])
    def test_weighted_lp(self, p, dim):
        w = RandomSource(41, (dim,)).generator().uniform(0.2, 5.0, dim)
        self._assert_gauge_is_max_pairing(WeightedLp(p, w), 42)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_polytope(self, dim):
        verts = RandomSource(43, (dim,)).generator().standard_normal((dim + 3, dim))
        self._assert_gauge_is_max_pairing(Polytope(np.vstack([verts, -verts])), 44)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_convex_atom_hull(self, dim):
        atoms = RandomSource(45, (dim,)).generator().standard_normal((dim + 2, dim))
        self._assert_gauge_is_max_pairing(RConvexAtoms(atoms, 1.0), 46)

    def test_kinds_without_dual_atoms(self):
        verts = RandomSource(47).generator().standard_normal((8, 6))
        for sp in (
            WeightedLp.unweighted(0.5, 3),
            WeightedLp.unweighted(1.5, 3),
            WeightedLp.euclidean(3),
            Quadratic([[2.0, 1.0], [1.0, 2.0]]),
            Schatten(1.0, 2, 2),
            Polytope(np.vstack([verts, -verts])),
            RConvexAtoms(np.eye(2), 0.5),
        ):
            assert sp.dual_atoms() is None, str(sp)


class TestEnvelopes:
    def test_concave_exponent_envelope_is_linear_sum(self):
        sp = WeightedLp.unweighted(0.5, 3)
        assert sp.envelope_gauge([1.0, 1.0, 1.0]) == pytest.approx(3.0)
        env = sp.envelope_space()
        assert isinstance(env, WeightedLp)
        assert env.p == pytest.approx(1.0)

    def test_envelope_below_gauge(self):
        sp = WeightedLp.unweighted(0.5, 3)
        gen = RandomSource(21).generator()
        for _ in range(20):
            x = gen.standard_normal(3)
            assert sp.envelope_gauge(x) <= sp.gauge(x) * (1 + 1e-12)

    def test_envelope_fixed_point_for_convex_space(self):
        sp = WeightedLp.unweighted(1.0, 2)
        x = np.array([0.3, -0.7])
        assert sp.envelope_gauge(x) == pytest.approx(sp.gauge(x))

    def test_atoms_have_unit_gauge(self):
        sp = WeightedLp(0.5, [1.0, 4.0])
        atoms = sp.envelope_atoms()
        for a in atoms:
            assert sp.gauge(a) == pytest.approx(1.0)

    def test_atomic_hull_envelope(self):
        ra = RConvexAtoms(np.eye(2), 0.5)
        assert ra.gauge([1.0, 1.0]) == pytest.approx(4.0)
        env = ra.envelope_space()
        assert isinstance(env, Polytope)
        assert env.gauge([1.0, 1.0]) == pytest.approx(2.0)


class TestSchatten:
    def test_singular_value_sums(self):
        flat = np.diag([3.0, 2.0, 1.0]).ravel()
        assert Schatten(1.0, 3, 3).gauge(flat) == pytest.approx(6.0)
        assert Schatten(2.0, 3, 3).gauge(flat) == pytest.approx(math.sqrt(14.0))
        assert Schatten(0.5, 3, 3).gauge(flat) == pytest.approx((3**0.5 + 2**0.5 + 1) ** 2)

    def test_rotation_invariance(self):
        gen = RandomSource(23).generator()
        m = gen.standard_normal((3, 3))
        q, _ = np.linalg.qr(gen.standard_normal((3, 3)))
        sp = Schatten(0.5, 3, 3)
        assert sp.gauge((q @ m).ravel()) == pytest.approx(sp.gauge(m.ravel()), rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            Schatten(3.0, 2, 2)
        with pytest.raises(ValueError):
            Schatten(1.0, 7, 2)


class TestPolytopeAndAtoms:
    def test_square_gauge(self):
        assert SQUARE.gauge([2.0, 0.0]) == pytest.approx(2.0)
        assert SQUARE.gauge([1.0, 1.0]) == pytest.approx(1.0)

    def test_gauge_of_tiny_vectors_is_homogeneous(self):
        # vectors below the LP's feasibility tolerance must not read as 0
        for t in (1e-9, 1e-300):
            assert SQUARE.gauge([2.0 * t, 0.0]) == pytest.approx(2.0 * t)
            assert SQUARE.gauge([t, t]) == pytest.approx(t)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_facet_gauges_match_lp_reference(self, dim):
        gen = RandomSource(31).split(dim).generator()
        half = gen.standard_normal((dim + 3, dim))
        poly = Polytope(np.vstack([half, -half]))
        atoms = RConvexAtoms(half, 0.5)
        for x in gen.standard_normal((20, dim)):
            ref = lp_gauge(half, x)
            assert poly.gauge(x) == pytest.approx(ref, rel=1e-9)
            assert atoms.envelope_gauge(x) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("batch", [1, 7, 16_384])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_facet_form_is_the_per_row_max(self, dim, batch):
        # cube and doubled cross-polytope vertices, scaled per axis by powers
        # of two, have dyadic facet normals; with dyadic points every
        # <n_f, x> is exact in double precision, whatever summation order or
        # fused multiply-adds the matrix product takes for a batch shape.  So
        # the facet form must equal the exact per-row max bit for bit
        cube = np.array(list(itertools.product([-1.0, 1.0], repeat=dim)))
        cross = 2.0 * np.vstack([np.eye(dim), -np.eye(dim)])
        poly = Polytope(np.vstack([cube, cross]) * 2.0 ** np.arange(-1, dim - 1))
        normals = np.asarray(poly.facet_normals) * 64
        assert np.array_equal(normals, np.round(normals)), "facet normals are not multiples of 1/64"
        x = RandomSource(41).split(dim, batch).generator().integers(-64, 65, (batch, dim))
        exact = (normals.astype(np.int64) @ x.T).max(axis=0) / 1024.0
        got = poly.gauge_many(x / 16.0)
        assert np.array_equal(got, exact)
        assert [poly.gauge(row / 16.0) for row in x[:7]] == got[:7].tolist()

    def test_lp_route_above_dim_five(self):
        # the cross-polytope is the l1 ball; dim 6 solves one LP per row
        eye = np.eye(6)
        cross = Polytope(np.vstack([eye, -eye]))
        ell1 = WeightedLp.unweighted(1.0, 6)
        x = RandomSource(32).generator().standard_normal(6)
        for t in (1.0, 1e-9, 1e-300):
            assert cross.gauge(t * x) == pytest.approx(ell1.gauge(t * x), rel=1e-9)
        assert cross.gauge_many(np.zeros((2, 6))).tolist() == [0.0, 0.0]

    def test_polytope_requires_symmetry_and_span(self):
        with pytest.raises(ValueError):
            Polytope(np.array([[1.0, 0.0], [0.0, 1.0]]))  # not symmetric
        with pytest.raises(ValueError):
            Polytope(np.array([[1.0, 0.0], [-1.0, 0.0]]))  # does not span

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.integers(0, 3),
        st.sampled_from([0.3, 0.5, 1.0]),
        st.lists(st.tuples(st.booleans(), st.integers(0, 7), st.integers(0, 8)), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_gauge_ignores_copies_and_negatives_of_atoms(self, seed, dim, extra, r, dups):
        gen = RandomSource(seed).generator()
        base = gen.standard_normal((dim + extra, dim))
        atoms = base.copy()
        for negate, src, pos in dups:  # insert copies or negatives anywhere
            row = atoms[src % len(atoms)]
            atoms = np.insert(atoms, pos % (len(atoms) + 1), -row if negate else row, axis=0)
        plain, padded = RConvexAtoms(base, r), RConvexAtoms(atoms, r)
        pts = np.vstack([gen.standard_normal((2, dim)), 2.5 * base[:1], np.zeros((1, dim))])
        got = padded.gauge_many(pts)
        assert got == pytest.approx(plain.gauge_many(pts), rel=1e-12, abs=0)
        assert got == pytest.approx([brute_atom_gauge(atoms, r, x) for x in pts], rel=1e-12, abs=0)
        for x in pts:
            assert padded.gauge(x) == padded.gauge_many(x[None])[0]

    def test_atoms_validation(self):
        with pytest.raises(ValueError):
            RConvexAtoms(np.eye(2), 1.5)
        with pytest.raises(ValueError):
            RConvexAtoms(np.zeros((2, 2)), 0.5)


_W = np.array([0.5, 2.0, 3.0])

# (space, its Lp form (p, a) with gauge(x) = ||a x||_p, or None)
LP_FORM_CASES = [
    *[(WeightedLp(p, _W), (p, _W if math.isinf(p) else _W ** (1.0 / p))) for p in (0.5, 1.0, 2.0, 3.0, math.inf)],
    (Quadratic(np.diag([4.0, 9.0, 0.25])), (2.0, np.array([2.0, 3.0, 0.5]))),
    (Quadratic([[2.0, 1.0], [1.0, 2.0]]), None),
    (SQUARE, None),
    (RConvexAtoms(np.eye(2), 0.5), None),
    (Schatten(1.0, 2, 2), None),
]


def _check_lp_form(space, expected):
    """The Lp form contract: coordinate scales and unconditionality derive
    from the one form, and a kind without one has neither."""
    exponents = (0.5, 1.0, 2.0, 3.0, math.inf)
    form = space.lp_form()
    if expected is None:
        assert form is None
        assert not space.is_unconditional
        assert all(space.coordinate_scales(s) is None for s in exponents)
        return
    p, a = form
    assert p == expected[0]
    assert a == pytest.approx(expected[1], rel=1e-15, abs=0)
    xs = RandomSource(61).generator().standard_normal((40, space.dim))
    ax = np.abs(a * xs)
    norms = ax.max(axis=1) if math.isinf(p) else (ax**p).sum(axis=1) ** (1.0 / p)
    assert [space.gauge(x) for x in xs] == pytest.approx(norms, rel=1e-12, abs=0)
    if not math.isinf(p):
        assert np.array_equal(space.coordinate_scales(p), a)
    assert all(space.coordinate_scales(s) is None for s in exponents if s != p or math.isinf(s))
    assert space.is_unconditional


class TestQuadratic:
    def test_gauge_dual_and_envelope(self):
        sp = Quadratic([[2.0, 1.0], [1.0, 2.0]])
        x = np.array([1.0, -2.0])
        assert sp.gauge(x) == pytest.approx(math.sqrt(x @ sp.matrix @ x))
        assert np.allclose(sp.gauge_many(np.vstack([x, 2 * x])), [sp.gauge(x), 2 * sp.gauge(x)])
        assert sp.r_exponent == 1.0
        assert sp.envelope_space() is sp

    def test_kind_facts(self):
        sp = Quadratic([[2.0, 1.0], [1.0, 2.0]])
        assert sp.quadratic_form is sp.matrix
        assert sp.ball_atoms() is None
        for space, form in LP_FORM_CASES:
            _check_lp_form(space, form)
        assert np.array_equal(WeightedLp(2.0, [1.0, 3.0]).quadratic_form, np.diag([1.0, 3.0]))
        assert WeightedLp.unweighted(1.0, 2).quadratic_form is None
        assert Quadratic(np.eye(2)).is_euclidean

    def test_validation(self):
        with pytest.raises(DegenerateMatrixError):
            Quadratic(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="not symmetric"):
            Quadratic([[1.0, 0.5], [0.0, 1.0]])


class TestOperators:
    def test_identity_and_apply(self):
        sp = WeightedLp.euclidean(3)
        u = OperatorSpec.identity(sp)
        x = np.array([1.0, -2.0, 0.5])
        assert np.array_equal((x[None] @ u.matrix.T)[0], x)
        assert np.array_equal((np.vstack([x, 2 * x]) @ u.matrix.T)[1], 2 * x)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            OperatorSpec(np.eye(3), WeightedLp.euclidean(2), WeightedLp.euclidean(3))


class TestHornCheck:
    def test_diagonal_pair_equality(self):
        res = horn_check(np.diag([2.0, 1.0]), np.diag([3.0, 1.0]), 1.0, 1)
        assert res.passed
        assert res.lhs == pytest.approx(6.0)
        assert res.rhs == pytest.approx(6.0)

    def test_seeded_random_pairs_all_pass(self):
        rng = RandomSource(29)
        for i in range(50):
            gen = rng.split(i).generator()
            a = gen.standard_normal((3, 3))
            b = gen.standard_normal((3, 3))
            for p in (1 / 3, 0.5, 1.0):
                for k in (1, 2, 3):
                    assert horn_check(a, b, p, k).passed

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.integers(1, 12),
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True), min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_many_matches_each_pair_bit_for_bit(self, seed, n, side, grow, ps):
        # every k up to 12, so pairwise sums of 8 or more terms are covered
        m, q, r = (min(12, side + g) for g in grow)
        gen = RandomSource(seed).generator()
        a, b = gen.standard_normal((n, m, q)), gen.standard_normal((n, q, r))
        kmax = min(m, q, r)
        lhs, rhs, passed = horn_check_many(a, b, ps, kmax)
        assert lhs.shape == rhs.shape == passed.shape == (len(ps), n, kmax)
        for k in range(1, kmax + 1):
            assert np.array_equal(horn_check_many(a, b, ps, k)[0], lhs[..., :k])
            for t, p in enumerate(ps):
                for i in range(n):
                    one = horn_check(a[i], b[i], p, k)
                    assert (one.lhs, one.rhs) == horn_reference(a[i], b[i], p, k)
                    assert (lhs[t, i, k - 1], rhs[t, i, k - 1], passed[t, i, k - 1]) == (one.lhs, one.rhs, one.passed)

    def test_validation(self):
        # horn_check too raises on every bad pair: p, k, non-finite entries, sides
        eye = np.eye(2)
        with pytest.raises(ValueError):
            horn_check_many(eye[None], eye[None], (), 1)  # no exponent
        bad = [
            (eye[None], eye[None], 0.0, 1),  # p outside (0, 1]
            (eye[None], eye[None], 1.5, 1),
            (eye[None], eye[None], math.nan, 1),
            (eye[None], eye[None], 1.0, 0),  # k outside [1, kmax]
            (eye[None], eye[None], 1.0, 3),
            (np.ones((1, 2, 3)), np.ones((1, 3, 1)), 0.5, 2),
            (eye, eye, 1.0, 1),  # not stacks
            (eye[None], np.stack([eye, eye]), 1.0, 1),  # stack lengths differ
            (np.ones((1, 2, 3)), np.ones((1, 2, 3)), 1.0, 1),  # inner sides differ
            (np.array([[[1.0, math.nan], [0.0, 1.0]]]), eye[None], 1.0, 1),
            (eye[None], np.array([[[1.0, math.inf], [0.0, 1.0]]]), 1.0, 1),
            (np.ones((1, 33, 2)), np.ones((1, 2, 2)), 1.0, 1),  # sides above 32
            (np.ones((1, 2, 33)), np.ones((1, 33, 2)), 1.0, 1),
            (np.ones((1, 2, 2)), np.ones((1, 2, 33)), 1.0, 1),
        ]
        for a, b, p, k in bad:
            with pytest.raises(ValueError):
                horn_check_many(a, b, (p,), k)
            with pytest.raises(ValueError):  # one bad exponent among good ones
                horn_check_many(a, b, (0.5, p), k)
            if a.ndim == b.ndim == 3 and len(a) == len(b) == 1:
                with pytest.raises(ValueError):
                    horn_check(a[0], b[0], p, k)


class TestQuotientsAndSections:
    def test_quotient_of_concave_ball_by_diagonal(self):
        q = quotient(WeightedLp.unweighted(0.5, 2), [[1.0, -1.0]])
        assert isinstance(q, RConvexAtoms)
        assert q.dim == 1
        assert np.allclose(np.abs(np.asarray(q.atoms).ravel()), math.sqrt(0.5))
        assert q.gauge([1.0]) == pytest.approx(math.sqrt(2.0))

    def test_quotient_of_linear_sum_is_polytope(self):
        q = quotient(WeightedLp.unweighted(1.0, 3), [[1.0, -1.0, 0.0]])
        assert isinstance(q, Polytope)
        assert q.dim == 2

    def test_quotient_gauge_dominated_by_ambient(self):
        # the image of any ambient point has quotient gauge <= ambient gauge
        sp = WeightedLp.unweighted(1.0, 3)
        kernel = np.array([[1.0, -1.0, 0.0]])
        q = quotient(sp, kernel)
        from qnlab.numkernel import orthonormal_complement

        basis = orthonormal_complement(kernel)
        gen = RandomSource(31).generator()
        for _ in range(20):
            x = gen.standard_normal(3)
            assert q.gauge(basis @ x) <= sp.gauge(x) * (1 + 1e-9)

    def test_quotient_of_smooth_exponent_unsupported(self):
        with pytest.raises(ValueError, match="not representable"):
            quotient(WeightedLp.unweighted(1.5, 3), [[1.0, 0.0, 0.0]])

    @pytest.mark.parametrize(
        "space", [Quadratic(np.diag([1.0, 2.0, 3.0, 4.0])), Schatten(1.0, 2, 2)]
    )
    def test_quotient_without_finite_generators_unsupported(self, space):
        with pytest.raises(ValueError):
            quotient(space, [[1.0, 0.0, 0.0, 0.0]])

    def test_quotient_of_atom_hull_keeps_unsymmetrized_atoms(self):
        # 8 atoms and their negations would be 16 > MAX_ATOMS
        atoms = RandomSource(37).generator().standard_normal((8, 3))
        q = quotient(RConvexAtoms(atoms, 0.5), [[1.0, 2.0, -1.0]])
        assert isinstance(q, RConvexAtoms)
        assert q.r == 0.5 and q.dim == 2 and q.atoms.shape == (8, 2)

    def test_quotient_of_convex_atom_hull_is_polytope(self):
        q = quotient(RConvexAtoms(np.eye(3), 1.0), [[0.0, 0.0, 1.0]])
        assert isinstance(q, Polytope)
        assert q.gauge([1.0, 1.0]) == pytest.approx(2.0)

    def test_coordinate_section(self):
        sec = coordinate_section(WeightedLp(0.5, [1.0, 4.0, 9.0]), [0, 2])
        assert sec.p == pytest.approx(0.5)
        assert np.allclose(sec.weights, [1.0, 9.0])
        with pytest.raises(ValueError):
            coordinate_section(WeightedLp.euclidean(3), [])
        with pytest.raises(ValueError):
            coordinate_section(WeightedLp.euclidean(3), [0, 3])
        # duplicate indices collapse to the set they name
        assert coordinate_section(WeightedLp.euclidean(3), [0, 0]).dim == 1

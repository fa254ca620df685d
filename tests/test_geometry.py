"""Ellipsoids, exact and Monte-Carlo volumes, and volume-ratio checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnlab.numkernel import RandomSource
from qnlab.geometry import (
    Ellipsoid,
    inscribed_ellipsoid,
    mvee,
    mvee_of_ball,
    rhull_volume_defect,
    santalo_check,
    section_projection_volume_check,
    unit_ball_volume,
    volume,
    vr_star,
)
from qnlab.spaces import Polytope, Quadratic, RConvexAtoms, Schatten, WeightedLp, quotient

SQUARE = Polytope(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))
CROSS2 = Polytope(np.vstack([np.eye(2), -np.eye(2)]))
SPD3 = np.array([[2.0, 0.7, 0.0], [0.7, 1.5, 0.3], [0.0, 0.3, 1.0]])


def cube_vertices(d):
    return np.array(np.meshgrid(*([[-1.0, 1.0]] * d))).reshape(d, -1).T


class TestEllipsoid:
    def test_unit_ball_volumes(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)
        with pytest.raises(ValueError):
            unit_ball_volume(0)

    def test_volume_of_shaped_ellipsoid(self):
        # shape diag(4, 1): semi-axes 1/2 and 1
        e = Ellipsoid(np.diag([4.0, 1.0]))
        assert e.volume() == pytest.approx(math.pi / 2)

    def test_polar_is_inverse_shape(self):
        e = Ellipsoid(np.diag([4.0, 1.0]))
        assert np.allclose(e.polar().shape, np.diag([0.25, 1.0]))
        assert np.allclose(e.polar().polar().shape, e.shape)

    def test_boundary_radii_scale_to_boundary(self):
        e = Ellipsoid(np.diag([4.0, 1.0]))
        gen = RandomSource(3).generator()
        dirs = gen.standard_normal((16, 2))
        radii = e.boundary_radii(dirs)
        vals = e.quadratic_form(dirs * radii[:, None])
        assert np.allclose(vals, 1.0, atol=1e-10)

    def test_sample_interior_inside_and_deterministic(self):
        e = Ellipsoid(np.diag([4.0, 1.0]))
        a = e.sample_interior(RandomSource(5), 200)
        b = e.sample_interior(RandomSource(5), 200)
        assert np.array_equal(a, b)
        assert np.all(e.quadratic_form(a) <= 1 + 1e-12)

    def test_shape_must_be_spd(self):
        with pytest.raises(Exception):
            Ellipsoid(np.diag([1.0, -1.0]))


class TestEnclosingEllipsoid:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cross_polytope_vertices_give_identity(self, d):
        e = mvee(np.vstack([np.eye(d), -np.eye(d)]))
        assert np.abs(e.shape - np.eye(d)).max() <= 1e-4

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cube_vertices_give_identity_over_dim(self, d):
        e = mvee(cube_vertices(d))
        assert np.abs(e.shape - np.eye(d) / d).max() <= 1e-4

    def test_encloses_random_clouds(self):
        for i in range(10):
            gen = RandomSource(7, (i,)).generator()
            pts = gen.standard_normal((12, 3))
            pts = np.vstack([pts, -pts])
            e = mvee(pts)
            assert np.all(e.quadratic_form(pts) <= 1 + 1e-6)

    def test_closed_form_balls(self):
        assert np.allclose(mvee_of_ball(WeightedLp.unweighted(1.0, 3)).shape, np.eye(3))
        assert np.allclose(mvee_of_ball(WeightedLp.unweighted(1.5, 3)).shape, np.eye(3))
        assert np.allclose(
            mvee_of_ball(WeightedLp.unweighted(math.inf, 3)).shape, np.eye(3) / 3
        )
        # exponent 4: circumscribed sphere radius d^(1/2 - 1/4)
        e = mvee_of_ball(WeightedLp.unweighted(4.0, 3))
        assert np.allclose(np.diag(e.shape), 3 ** (-(4 - 2) / 4))
        # quadratic case: the ball is the ellipsoid itself
        w = np.array([2.0, 5.0])
        assert np.allclose(mvee_of_ball(WeightedLp(2.0, w)).shape, np.diag(w))
        assert np.array_equal(mvee_of_ball(Quadratic(SPD3)).shape, SPD3)

    def test_polytope_keeps_its_vertex_list(self):
        # the interior vertex [0.5, 0] stays in the point set the ellipsoid
        # is computed from, so the result matches mvee of the full list
        v = np.array([[1.0, 1.0], [1.0, -1.0], [0.5, 0.0]])
        poly = Polytope(np.vstack([v, -v]))
        assert np.array_equal(mvee_of_ball(poly).shape, mvee(poly.vertices).shape)


class TestInscribedEllipsoid:
    def test_cube_and_cross(self):
        res = inscribed_ellipsoid(WeightedLp.unweighted(math.inf, 2))
        assert res.maximal
        assert np.allclose(res.ellipsoid.shape, np.eye(2))
        res = inscribed_ellipsoid(WeightedLp.unweighted(1.0, 2))
        assert res.maximal
        assert np.allclose(res.ellipsoid.shape, 2 * np.eye(2))

    def test_concave_ball_gets_surrogate(self):
        res = inscribed_ellipsoid(WeightedLp.unweighted(0.5, 3))
        assert not res.maximal
        assert np.allclose(res.ellipsoid.shape, 27 * np.eye(3))
        # the surrogate ball really is inscribed: its boundary stays inside
        # the unit ball (gauge <= 1) and touches it along the diagonal
        sp = WeightedLp.unweighted(0.5, 3)
        gen = RandomSource(9).generator()
        dirs = np.vstack([gen.standard_normal((64, 3)), np.ones((1, 3))])
        radii = res.ellipsoid.boundary_radii(dirs)
        gauges = sp.gauge_many(dirs * radii[:, None])
        assert np.all(gauges <= 1 + 1e-9)
        assert gauges.max() == pytest.approx(1.0, abs=1e-9)

    def test_quadratic_ball_is_its_own(self):
        res = inscribed_ellipsoid(Quadratic(SPD3))
        assert res.maximal
        assert np.array_equal(res.ellipsoid.shape, SPD3)

    def test_convex_atom_hull_goes_through_its_polar(self):
        atoms = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        res = inscribed_ellipsoid(RConvexAtoms(atoms, 1.0))
        ref = inscribed_ellipsoid(Polytope(np.vstack([atoms, -atoms])))
        assert res.maximal
        assert np.array_equal(res.ellipsoid.shape, ref.ellipsoid.shape)
        with pytest.raises(NotImplementedError):
            inscribed_ellipsoid(RConvexAtoms(atoms, 0.5))
        with pytest.raises(NotImplementedError):
            inscribed_ellipsoid(WeightedLp(0.5, [1.0, 2.0]))


class TestVolume:
    def test_closed_forms(self):
        assert volume(WeightedLp.unweighted(1.0, 2)).value == pytest.approx(2.0)
        assert volume(WeightedLp.unweighted(0.5, 2)).value == pytest.approx(2 / 3)
        assert volume(WeightedLp.unweighted(0.5, 3)).value == pytest.approx(4 / 45)
        assert volume(WeightedLp.euclidean(2)).value == pytest.approx(math.pi)
        assert volume(WeightedLp.unweighted(1.0, 2)).method == "closed-form"

        est = volume(Quadratic(SPD3))
        assert est.method == "closed-form"
        assert est.value == Ellipsoid(SPD3).volume()
        assert volume(Quadratic(SPD3), "closed-form").value == est.value

    def test_triangulation(self):
        assert volume(SQUARE).value == pytest.approx(4.0)
        assert volume(CROSS2).value == pytest.approx(2.0)
        assert volume(SQUARE).method == "triangulation"

    def test_auto_triangulates_polytopes_up_to_dim_five(self):
        kernel = RandomSource(4).generator().standard_normal((1, 5))
        quot = quotient(WeightedLp.unweighted(1.0, 5), kernel)
        assert isinstance(quot, Polytope) and quot.dim == 4
        est = volume(quot, "auto")
        assert est.method == "triangulation"
        assert est.value == volume(quot, "triangulation").value
        cube6 = Polytope(cube_vertices(6))
        with pytest.raises(ValueError):
            volume(cube6, "triangulation")

    def test_monte_carlo_matches_exact(self):
        est = volume(SQUARE, method="monte-carlo", rng=RandomSource(11), samples=50_000)
        assert est.stderr > 0
        assert abs(est.value - 4.0) <= 4 * est.stderr + 1e-9

    def test_monte_carlo_defaults_rng_and_needs_enough_samples(self):
        default = volume(SQUARE, method="monte-carlo", samples=50_000)
        assert default == volume(SQUARE, method="monte-carlo", rng=RandomSource(0), samples=50_000)
        with pytest.raises(ValueError, match="at least 10000"):
            volume(SQUARE, method="monte-carlo", rng=RandomSource(1), samples=500)

    def test_method_mismatch(self):
        with pytest.raises(ValueError):
            volume(WeightedLp.unweighted(0.5, 2), method="triangulation")
        with pytest.raises(ValueError, match="needs a QuasiNormedSpace"):
            volume(Ellipsoid(SPD3))

    @pytest.mark.parametrize(
        "space,method",
        [
            (SQUARE, "closed-form"),
            (Quadratic(SPD3), "triangulation"),
            (RConvexAtoms(np.eye(2), 0.5), "closed-form"),
            (SQUARE, "exact"),
        ],
    )
    def test_method_mismatch_across_kinds(self, space, method):
        with pytest.raises(ValueError):
            volume(space, method=method)

    @pytest.mark.parametrize("method", ["auto", "closed-form", "monte-carlo"])
    def test_schatten_ball_has_no_volume(self, method):
        with pytest.raises(ValueError):
            volume(Schatten(1.0, 2, 2), method, RandomSource(1), 10_000)

    def test_schatten_ball_has_no_ellipsoids(self):
        with pytest.raises(ValueError):
            mvee_of_ball(Schatten(0.5, 2, 2))
        with pytest.raises(NotImplementedError):
            inscribed_ellipsoid(Schatten(1.0, 2, 2))

    def test_monte_carlo_without_hits_raises(self):
        # the 0.2-hull of the axes is a sliver of its enclosing ball, so no
        # sample lands inside; the ratio must not divide by a zero estimate
        thin = RConvexAtoms(np.eye(6), 0.2)
        with pytest.raises(ValueError, match="0 hits in 10000 samples"):
            vr_star(thin, RandomSource(1), 10_000)


class TestVolumeRatios:
    def test_cross_outer_ratio(self):
        assert vr_star(CROSS2).value == pytest.approx(math.sqrt(math.pi / 2), rel=1e-9)

    def test_concave_ball_outer_ratio(self):
        est = vr_star(WeightedLp.unweighted(0.5, 2))
        assert est.value == pytest.approx(math.sqrt(3 * math.pi / 2), rel=1e-9)

    def test_ratios_at_least_one(self):
        for i in range(6):
            gen = RandomSource(13, (i,)).generator()
            verts = gen.standard_normal((5, 2))
            poly = Polytope(np.vstack([verts, -verts]))
            assert vr_star(poly).value >= 1 - 1e-9

    def test_hull_defect_of_square(self):
        est = rhull_volume_defect(SQUARE, 0.5, rng=RandomSource(15), samples=150_000)
        # hull with exponent 1/2 of the corners has volume 4/3 (exact)
        assert abs(est.value - math.sqrt(3.0)) <= 5 * est.stderr + 1e-6
        near = rhull_volume_defect(SQUARE, 1.0, rng=RandomSource(15), samples=50_000)
        assert near.value == pytest.approx(1.0, abs=5 * near.stderr + 1e-6)

    def test_hull_defect_up_to_dim_five(self):
        for d in (4, 5):
            assert rhull_volume_defect(Polytope(np.vstack([np.eye(d), -np.eye(d)])), 1.0).value == 1.0
        with pytest.raises(ValueError, match="exact polytope volume"):
            rhull_volume_defect(Polytope(np.vstack([np.eye(6), -np.eye(6)])), 1.0)

    def test_hull_defect_of_four_dim_cross_polytope(self):
        # the 1/2-hull of the axes is the l_{1/2}^4 ball, of volume
        # 4^4 / 8!; the cross-polytope has volume 2^4 / 4!
        cross4 = Polytope(np.vstack([np.eye(4), -np.eye(4)]))
        est = rhull_volume_defect(cross4, 0.5, rng=RandomSource(16), samples=20_000)
        expected = ((2.0 / 3.0) / (256.0 / 40320.0)) ** 0.25
        assert abs(est.value - expected) <= 5 * est.stderr


class TestPolarVolumeComparison:
    def test_square_exact_path(self):
        res = santalo_check(SQUARE)
        assert res.passed
        assert res.outer_ratio == pytest.approx(math.sqrt(math.pi / 2), rel=1e-9)
        assert res.dual_inner_ratio == pytest.approx(math.sqrt(4 / math.pi), rel=1e-9)

    def test_seeded_polytopes_pass(self):
        for i in range(20):
            gen = RandomSource(17, (i,)).generator()
            verts = gen.standard_normal((4, 2))
            poly = Polytope(np.vstack([verts, -verts]))
            assert santalo_check(poly).passed


class TestSplitVolumeInequality:
    @pytest.mark.parametrize(
        "beta,n,k,bound",
        [(1, 2, 1, 2), (2, 2, 1, 6), (3, 2, 1, 20), (2, 3, 1, 15), (2, 3, 2, 15)],
    )
    def test_unweighted_equality_cases(self, beta, n, k, bound):
        sp = WeightedLp.unweighted(1.0 / beta, n)
        res = section_projection_volume_check(sp, tuple(range(k)))
        assert res.passed
        assert res.bound == bound
        assert res.ratio == pytest.approx(bound, rel=1e-9)

    def test_weighted_instance_below_bound(self):
        sp = WeightedLp(0.5, [1.0, 3.0, 0.5])
        res = section_projection_volume_check(sp, (0, 2))
        assert res.passed
        assert res.ratio <= res.bound * (1 + 1e-9)

    def test_validation(self):
        sp = WeightedLp.unweighted(0.5, 3)
        with pytest.raises(ValueError):
            section_projection_volume_check(sp, ())
        with pytest.raises(ValueError):
            section_projection_volume_check(sp, (0, 1, 2))
        with pytest.raises(ValueError):
            section_projection_volume_check(WeightedLp.unweighted(0.7, 3), (0,))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_mvee_contains_every_seeded_cloud(seed):
    gen = RandomSource(seed).generator()
    pts = gen.standard_normal((10, 2))
    pts = np.vstack([pts, -pts])
    e = mvee(pts)
    assert np.all(e.quadratic_form(pts) <= 1 + 1e-6)

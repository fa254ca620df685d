"""Ellipsoids, volumes, and volume-ratio inequalities.

The central objects are centered ellipsoids ``{x : x' Q x <= 1}`` with Q
symmetric positive-definite.  This module computes

* minimum-volume enclosing ellipsoids of symmetric point sets (Khachiyan
  multiplicative updates plus away steps, then rescaled so every input
  point lies inside exactly);
* enclosing/inscribed ellipsoids of concrete unit balls;
* volumes, exactly where a closed form or a fan triangulation applies and
  by rejection sampling inside the enclosing ellipsoid otherwise;
* the outer volume ratio of a ball, the polar comparison of that ratio
  with the dual ball's inner ratio, and the section/projection
  inequality.

Nothing here dispatches on a space kind: the kinds give their closed-form
ellipsoids (``enclosing_form``, ``inscribed_form``), ball and dual-ball
generators (``ball_atoms``, ``dual_atoms``) and exact volumes
(``exact_volume``: weighted Lp and quadratic closed forms, polytope fan
triangulation up to dim 5).

Monte-Carlo results carry a standard error and every randomized path is a
pure function of the supplied RandomSource.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkernel import (
    DegenerateMatrixError,
    RandomSource,
    as_matrix,
    as_spd,
    dedup_rows,
    frozen_array,
    require_symmetric_rows,
    spd_power,
)
from .spaces import (
    Polytope,
    Quadratic,
    QuasiNormedSpace,
    RConvexAtoms,
    WeightedLp,
    coordinate_section,
    unit_ball_volume,  # re-exported: geometry is its public home
)

_MC_MIN_SAMPLES = 10_000
_MVEE_TOLERANCE = 1e-7  # relative stopping slack of the enclosing-ellipsoid iteration
_MVEE_MAX_ITER = 200_000


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """Centered ellipsoid {x : x' shape x <= 1}."""

    shape: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shape", frozen_array(as_spd(self.shape)))

    @property
    def dim(self) -> int:
        return int(self.shape.shape[0])

    def volume(self) -> float:
        return Quadratic(self.shape).exact_volume()[0]

    def polar(self) -> "Ellipsoid":
        return Ellipsoid(spd_power(self.shape, -1.0))

    def quadratic_form(self, points) -> np.ndarray:
        pts = as_matrix(points, cols=self.dim)
        return np.einsum("ij,jk,ik->i", pts, self.shape, pts)

    def boundary_radii(self, directions) -> np.ndarray:
        """Distance to the boundary along each (nonzero) direction row."""
        return 1.0 / np.sqrt(self.quadratic_form(directions))

    def sample_interior(self, rng: RandomSource, n: int) -> np.ndarray:
        """n points uniform in the ellipsoid (pure in (rng, n))."""
        g = rng.generator()
        d = self.dim
        x = g.standard_normal((n, d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        radii = g.random(n) ** (1.0 / d)
        return (x * radii[:, None]) @ spd_power(self.shape, -0.5)


def mvee(points) -> Ellipsoid:
    """Minimum-volume centered ellipsoid enclosing a symmetric point set.

    Khachiyan-style multiplicative weight updates on the dual problem
    ``max log det sum_i u_i x_i x_i'`` with away/drop steps for the
    support weights, stopped once every point satisfies
    ``x' Q x <= (1 + _MVEE_TOLERANCE) * dim`` (``_MVEE_TOLERANCE`` = 1e-7)
    in the unnormalized form; the result is then rescaled so the largest
    quadratic form value is exactly 1, which makes it enclosing regardless
    of the stopping point.  The volume is optimal within a factor
    ``(1 + _MVEE_TOLERANCE) ** (dim / 2)``.  Raises ``RuntimeError`` if
    ``_MVEE_MAX_ITER`` updates do not reach the stopping rule.
    """
    X = as_matrix(points)
    m, d = X.shape
    scale = float(np.abs(X).max())
    if scale <= 0 or np.linalg.matrix_rank(X, tol=1e-10 * scale) < d:
        raise DegenerateMatrixError("point set does not span the space")
    require_symmetric_rows(X, 1e-9, "point set")

    u = np.full(m, 1.0 / m)
    for _ in range(_MVEE_MAX_ITER):
        M = X.T @ (u[:, None] * X)
        kappa = np.einsum("ij,jk,ik->i", X, np.linalg.inv(M), X)
        jp = int(np.argmax(kappa))
        kp = kappa[jp]
        if kp <= d * (1.0 + _MVEE_TOLERANCE):
            break
        support = u > 0.0
        jn = int(np.where(support)[0][np.argmin(kappa[support])])
        kn = kappa[jn]
        if kp - d >= d - kn:
            alpha = (kp - d) / (d * (kp - 1.0))
            j = jp
            drop = False
        else:
            cap = -u[jn] / (1.0 - u[jn])
            if kn >= 1.0 + 1e-12:
                alpha = (kn - d) / (d * (kn - 1.0))  # negative: away step
            else:
                alpha = cap  # formula degenerates below 1; drop the point
            drop = alpha <= cap
            alpha = max(alpha, cap)
            j = jn
        u *= 1.0 - alpha
        u[j] = 0.0 if drop else u[j] + alpha
        u /= u.sum()
    else:
        raise RuntimeError("enclosing ellipsoid iteration did not converge")
    M = X.T @ (u[:, None] * X)
    Q = np.linalg.inv(d * M)
    Q = 0.5 * (Q + Q.T)
    worst = float(np.einsum("ij,jk,ik->i", X, Q, X).max())
    return Ellipsoid(Q / worst)


def mvee_of_ball(space: QuasiNormedSpace) -> Ellipsoid:
    """Minimum-volume ellipsoid enclosing a concrete unit ball.

    The kind's closed form (``enclosing_form``: weighted Lp with p > 1, a
    quadratic ball is its own) where it has one; otherwise :func:`mvee` of
    the ball's generators G and -G (``ball_atoms``), since the ellipsoid
    encloses an e-convex hull exactly when it encloses the generators.
    Balls with neither (Schatten) raise ``ValueError``.
    """
    form = space.enclosing_form()
    if form is not None:
        return Ellipsoid(form)
    gens = space.ball_atoms()
    if gens is None:
        raise ValueError(f"no enclosing ellipsoid path for {type(space).__name__}")
    g = gens[0]
    return mvee(dedup_rows(np.vstack([g, -g])))


@dataclass(frozen=True)
class InscribedResult:
    ellipsoid: Ellipsoid
    maximal: bool  # False when the ball surrogate was used


def inscribed_ellipsoid(space: QuasiNormedSpace) -> InscribedResult:
    """Largest inscribed ellipsoid of a convex ball, or a certified
    inscribed ball for unweighted non-convex Lp.

    The kind's closed form (``inscribed_form``) where it has one: weighted
    Lp with p >= 1 and quadratic balls.  For non-convex unweighted Lp that
    form is the largest inscribed *ball* (radius ``dim ** (1/2 - 1/p)``,
    touching the diagonal), returned with ``maximal=False``; by
    sign/permutation symmetry it is the natural round surrogate, and it is
    certified inscribed.  Other convex balls go through polarity: the
    maximal inscribed ellipsoid of a symmetric convex body is the polar of
    the minimum-volume ellipsoid of the polar body, here of the dual ball's
    finite generators (``dual_atoms``: polytopes up to dim 5, convex atom
    hulls).  Anything else raises ``NotImplementedError``.
    """
    form = space.inscribed_form()
    if form is not None:
        return InscribedResult(Ellipsoid(form[0]), form[1])
    dual = space.dual_atoms() if space.r_exponent == 1.0 else None
    if dual is None:
        raise NotImplementedError(f"no inscribed ellipsoid path for {type(space).__name__}")
    return InscribedResult(mvee(dual).polar(), True)


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    method: str  # closed-form | triangulation | monte-carlo
    stderr: float = 0.0
    samples: int = 0


def _mc_volume(space: QuasiNormedSpace, rng: RandomSource, samples: int) -> VolumeEstimate:
    if samples < _MC_MIN_SAMPLES:
        raise ValueError(f"monte-carlo volume needs at least {_MC_MIN_SAMPLES} samples")
    proposal = mvee_of_ball(space)
    vol_e = proposal.volume()
    chunk = 200_000
    hits = 0
    done = 0
    piece = 0
    while done < samples:
        take = min(chunk, samples - done)
        pts = proposal.sample_interior(rng.split(piece), take)
        hits += int(np.count_nonzero(space.gauge_many(pts) <= 1.0))
        done += take
        piece += 1
    if hits == 0:
        raise ValueError(
            f"monte-carlo volume found {hits} hits in {samples} samples; "
            "the ball is too thin in its enclosing ellipsoid for this sample count"
        )
    rate = hits / samples
    value = vol_e * rate
    stderr = vol_e * math.sqrt(max(rate * (1.0 - rate), 0.0) / samples)
    return VolumeEstimate(value, "monte-carlo", stderr, samples)


def volume(
    obj: QuasiNormedSpace,
    method: str = "auto",
    rng: RandomSource = RandomSource(0),
    samples: int = 100_000,
) -> VolumeEstimate:
    """Volume of a space's unit ball (an ellipsoid's is ``Ellipsoid.volume()``).

    ``method`` is one of ``auto``, ``closed-form``, ``triangulation``,
    ``monte-carlo``.  The exact routes are the kind's ``exact_volume``:
    closed forms for weighted Lp and quadratic balls, fan triangulation
    for polytopes of dim <= 5.  Auto takes that route where the kind has
    one and rejection sampling inside the enclosing ellipsoid otherwise;
    asking for a route the kind lacks raises ``ValueError``, as does
    Monte-Carlo on a ball without an enclosing ellipsoid (Schatten).
    """
    if not isinstance(obj, QuasiNormedSpace):
        raise ValueError("volume needs a QuasiNormedSpace")
    if method not in ("auto", "closed-form", "triangulation", "monte-carlo"):
        raise ValueError(f"unknown volume method {method!r}")
    exact = obj.exact_volume() if method != "monte-carlo" else None
    if method == "auto":
        method = exact[1] if exact else "monte-carlo"
    if method == "monte-carlo":
        return _mc_volume(obj, rng, samples)
    if exact is None or exact[1] != method:
        raise ValueError(f"no {method} volume for {type(obj).__name__} in dim {obj.dim}")
    return VolumeEstimate(exact[0], method)


@dataclass(frozen=True)
class RatioEstimate:
    value: float
    stderr: float = 0.0


def _volume_root(num: float, den: float, est: VolumeEstimate, d: int) -> tuple[float, float]:
    """``(num / den) ** (1/d)`` and its delta-method standard error, where
    ``est`` is whichever of the two volumes carries one."""
    value = (num / den) ** (1.0 / d)
    return value, (value * est.stderr / (d * est.value) if est.stderr else 0.0)


def vr_star(
    space: QuasiNormedSpace, rng: RandomSource = RandomSource(0), samples: int = 100_000
) -> RatioEstimate:
    """Outer volume ratio: (vol enclosing ellipsoid / vol ball) ** (1/dim)."""
    outer = mvee_of_ball(space)
    vb = volume(space, "auto", rng, samples)
    return RatioEstimate(*_volume_root(outer.volume(), vb.value, vb, space.dim))


@dataclass(frozen=True)
class SantaloResult:
    outer_ratio: float
    dual_inner_ratio: float
    slack: float
    passed: bool


def santalo_check(
    space: QuasiNormedSpace, rng: RandomSource = RandomSource(0), samples: int = 100_000
) -> SantaloResult:
    """Polar volume comparison: outer ratio of X at least inner ratio of X*.

    Requires a convex ball (r_exponent 1) so the dual ball is available in
    the same representation family.  The dual's inscribed ellipsoid is
    taken as the polar of the enclosing ellipsoid of X (an inscribed
    ellipsoid of the dual ball by polarity, so the reported dual ratio is
    an upper bound on the true inner ratio and the comparison is the
    stronger one).  Because an ellipsoid and its polar have an exact volume
    product, exact-volume paths reduce to the polar volume-product
    inequality with only float rounding as slack; Monte-Carlo paths get a
    three-standard-error allowance.
    """
    if space.r_exponent != 1.0:
        raise ValueError("polar comparison needs a convex ball")
    dual = space.dual_space()
    d = space.dim
    outer_ell = mvee_of_ball(space)
    vb = volume(space, "auto", rng.split(0), samples)
    vd = volume(dual, "auto", rng.split(1), samples)
    outer_value, outer_err = _volume_root(outer_ell.volume(), vb.value, vb, d)
    inner_value, inner_err = _volume_root(vd.value, outer_ell.polar().volume(), vd, d)
    slack = 3.0 * math.hypot(outer_err, inner_err) + 1e-9
    passed = outer_value >= inner_value - slack
    return SantaloResult(outer_value, inner_value, slack, passed)


@dataclass(frozen=True)
class SplitVolumeResult:
    ratio: float
    bound: int
    subset: tuple[int, ...]
    passed: bool


def section_projection_volume_check(space: WeightedLp, subset) -> SplitVolumeResult:
    """Coordinate split inequality for Lp balls with 1/p a small integer.

    For a weighted Lp ball B with p = 1/beta (beta in {1, 2, 3}) and a
    coordinate subset S of size k out of N, both the section by S and the
    orthogonal projection onto the complementary coordinates are weighted
    Lp balls again, and

        vol_k(B & S) * vol_{N-k}(proj B) / vol_N(B) <= binom(N beta, k beta)

    with equality in the unweighted case.  All three volumes are closed
    form here, so the check is exact up to float arithmetic: it passes
    within a relative slack of 1e-9.
    """
    if not isinstance(space, WeightedLp):
        raise ValueError("split volume check needs a WeightedLp space")
    beta = round(1.0 / space.p)
    if beta not in (1, 2, 3) or abs(1.0 / space.p - beta) > 1e-12:
        raise ValueError("need p = 1/beta with beta in {1, 2, 3}")
    idx = tuple(sorted(set(int(i) for i in subset)))
    n = space.dim
    if not idx or idx[0] < 0 or idx[-1] >= n or len(idx) >= n:
        raise ValueError("subset must be a proper nonempty coordinate set")
    comp = tuple(i for i in range(n) if i not in idx)
    k = len(idx)
    vol_section = coordinate_section(space, idx).exact_volume()[0]
    vol_projection = coordinate_section(space, comp).exact_volume()[0]
    vol_full = space.exact_volume()[0]
    ratio = vol_section * vol_projection / vol_full
    bound = math.comb(n * beta, k * beta)
    return SplitVolumeResult(ratio, bound, idx, ratio <= bound * (1.0 + 1e-9))


def rhull_volume_defect(
    space: Polytope,
    r: float,
    rng: RandomSource = RandomSource(0),
    samples: int = 100_000,
) -> RatioEstimate:
    """Volume defect of r-convexifying a polytope's extreme points.

    Returns ``(vol B / vol co_r(extreme points)) ** (1/dim)``.  For r = 1
    the r-hull is the polytope itself and the defect is exactly 1; for
    r < 1 the hull volume is estimated by rejection sampling against the
    exact atom gauge.  The polytope's volume must be exact (fan
    triangulation, dim <= 5); other dimensions raise ``ValueError``.
    """
    if not isinstance(space, Polytope):
        raise ValueError("rhull_volume_defect needs a Polytope")
    if not (0 < r <= 1):
        raise ValueError("r must lie in (0, 1]")
    exact = space.exact_volume()
    if exact is None:
        raise ValueError(f"no exact polytope volume in dim {space.dim}")
    if r == 1.0:
        return RatioEstimate(1.0, 0.0)
    hull_space = RConvexAtoms(np.asarray(space.extreme_vertices), r)
    vol_r = _mc_volume(hull_space, rng, samples)
    return RatioEstimate(*_volume_root(exact[0], vol_r.value, vol_r, space.dim))

"""Ellipsoids, volumes, and volume-ratio inequalities.

The central objects are centered ellipsoids ``{x : x' Q x <= 1}`` with Q
symmetric positive-definite.  This module computes

* minimum-volume enclosing ellipsoids of symmetric point sets (Khachiyan
  multiplicative updates plus away steps, then rescaled so every input
  point lies inside exactly);
* enclosing/inscribed ellipsoids of concrete unit balls;
* volumes, exactly where a closed form or a fan triangulation applies and
  otherwise by averaging the radial function over Gaussian directions of
  the enclosing ellipsoid (terms in [0, 1], see :func:`volume`).  Each
  Gaussian row is read through ``_MC_FRAMES`` = 16 random orthogonal
  frames drawn once per estimate, so one row gives sixteen directions, and
  rows are drawn ``_MC_CHUNK`` = 1,024 at a time; the standard error is
  taken over rows, which are independent, and the effective-sample guard
  over directions;
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
    as_integer,
    as_matrix,
    as_spd,
    dedup_rows,
    frozen_array,
    require_symmetric_rows,
    spd_power,
)
from .spaces import (
    Quadratic,
    QuasiNormedSpace,
    WeightedLp,
    coordinate_section,
    unit_ball_volume,  # re-exported: geometry is its public home
)

_MC_MIN_SAMPLES = 10_000
_MC_FRAMES = 16  # random orthogonal frames that read each Gaussian row as that many directions
# Gaussian rows per draw: one gauge_many call of _MC_FRAMES * _MC_CHUNK =
# 16,384 directions, cache-sized.  Draws from one generator concatenate, and
# the row sums behind the stderr never straddle two draws, so the result
# does not depend on the chunk
_MC_CHUNK = 1_024
_MC_MIN_ESS = 2_000  # fewest effective samples a monte-carlo volume may rest on
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
    dual = space.dual_atoms()
    if dual is None:
        raise NotImplementedError(f"no inscribed ellipsoid path for {type(space).__name__}")
    return InscribedResult(mvee(dual).polar(), True)


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    method: str  # closed-form | triangulation | monte-carlo
    stderr: float = 0.0
    samples: int = 0


def _orthonormal_rows(stack: np.ndarray) -> np.ndarray:
    """Gram-Schmidt of the rows of each matrix in a stack of square ones, as
    one batched QR of the transposes with R's diagonal made positive."""
    q, r = np.linalg.qr(np.swapaxes(stack, 1, 2))
    return np.swapaxes(q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :], 1, 2)


def _mc_volume(space: QuasiNormedSpace, rng: RandomSource, samples: int) -> VolumeEstimate:
    samples = as_integer("samples", samples, _MC_MIN_SAMPLES)
    proposal = mvee_of_ball(space)
    d = proposal.dim
    k = _MC_FRAMES
    root = spd_power(proposal.shape, -0.5)
    gen = rng.generator()
    # frame F_j reads the Gaussian row z as the direction z F_j root: z F_j
    # is again standard Gaussian, and |z F_j| = |z|
    lift = np.concatenate(_orthonormal_rows(gen.standard_normal((k, d, d))) @ root, axis=1)
    # terms shifted by the first block's mean keep the variance exact when
    # they are (nearly) constant, as for a quadratic ball.  s1 and s2 sum
    # them per direction; r2, rn and nn sum U ** 2, n U and n ** 2 per row,
    # where a row's U sums its n <= k shifted terms
    shift = s1 = s2 = r2 = rn = nn = 0.0
    # rows come in blocks shaped (rows, directions per row): the full rows
    # in chunks, then the last row alone if it carries fewer than k
    full, left = divmod(samples, k)
    blocks = [(min(_MC_CHUNK, full - start), k) for start in range(0, full, _MC_CHUNK)]
    if left:
        blocks.append((1, left))
    for i, (n, width) in enumerate(blocks):
        z = gen.standard_normal((n, d))
        gauges = space.gauge_many((z @ lift[:, : width * d]).reshape(-1, d))
        terms = np.sqrt(np.einsum("ij,ij->i", z, z))[:, None] / gauges.reshape(n, width)
        np.power(terms, d, out=terms)
        if i == 0:
            shift = float(terms.mean())
        terms -= shift
        row_sums = terms.sum(axis=1)
        total = float(row_sums.sum())
        s1 += total
        s2 += float(terms.ravel() @ terms.ravel())
        r2 += float(row_sums @ row_sums)
        rn += width * total
        nn += n * width**2
    offset = s1 / samples
    mean = shift + offset
    if not mean**2 > 0.0:  # the squared terms, and so the stderr, underflow first
        raise ValueError(f"monte-carlo volume underflows: the ball fills {mean:.3g} of its ellipsoid")
    var = max(s2 / samples - offset**2, 0.0)
    ess = samples * mean**2 / (var + mean**2)  # sum(t) ** 2 / sum(t ** 2), per direction
    if not ess >= _MC_MIN_ESS:
        raise ValueError(
            f"monte-carlo volume rests on {ess:.3g} effective samples, under {_MC_MIN_ESS}: too thin a ball"
        )
    # rows are independent but the directions of one row are not, so the
    # stderr is the cluster one: sqrt(sum over rows of (T - n mean) ** 2) / samples
    spread = max(r2 - 2.0 * offset * rn + offset**2 * nn, 0.0)
    vol_e = proposal.volume()
    return VolumeEstimate(vol_e * mean, "monte-carlo", vol_e * math.sqrt(spread) / samples, samples)


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
    one and Monte-Carlo otherwise; asking for a route the kind lacks raises
    ``ValueError``, as does Monte-Carlo on a ball without an enclosing
    ellipsoid (Schatten) or on a ball too thin in it for the sample.

    Monte-Carlo averages the radial function over Gaussian directions of
    the enclosing ellipsoid E = {x : x' Q x <= 1}: vol B = vol E * mean(t)
    with t = (|z| / g(Q^(-1/2) z)) ** d over ``samples`` standard Gaussian
    directions z.  Each term is the hit-or-miss chance along one direction,
    in [0, 1] as B lies in E.  The directions come sixteen to a Gaussian
    row z0: ``_MC_FRAMES`` = 16 random orthogonal frames F_j, drawn first
    from the same generator (Gram-Schmidt of a Gaussian matrix), read it as
    z = z0 F_j, again standard Gaussian with |z| = |z0|, so a direction
    costs d / 16 normal draws.  So ceil(samples / 16) rows, drawn
    ``_MC_CHUNK`` = 1,024 at a time, give exactly ``samples`` directions,
    the last row perhaps fewer than sixteen.  Rows are independent and the
    directions of one row are not, so the stderr is the cluster one over
    rows, sqrt(sum_g (T_g - n_g mean) ** 2) / samples for a row g whose
    n_g terms sum to T_g.  A thin ball (a spiky r-hull) puts its mean on rare
    directions, and a sample that misses them reads low with too small a
    stderr; so fewer than ``_MC_MIN_ESS`` = 2,000 effective samples
    ``sum(t) ** 2 / sum(t ** 2)``, counted over directions, raise
    ``ValueError``, as does a share of E whose square underflows (below
    about 2e-162).  ``samples`` is an integer of at least 10,000; booleans
    and fractional counts raise ``ValueError``.
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
    if dual is None:
        raise ValueError(f"{type(space).__name__} has no dual ball representation")
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
    n = space.dim
    idx = tuple(sorted({as_integer(f"subset[{j}]", i, 0, n - 1) for j, i in enumerate(subset)}))
    if not idx or len(idx) >= n:
        raise ValueError("subset must be a proper nonempty coordinate set")
    comp = tuple(i for i in range(n) if i not in idx)
    k = len(idx)
    vol_section = coordinate_section(space, idx).exact_volume()[0]
    vol_projection = coordinate_section(space, comp).exact_volume()[0]
    vol_full = space.exact_volume()[0]
    ratio = vol_section * vol_projection / vol_full
    bound = math.comb(n * beta, k * beta)
    return SplitVolumeResult(ratio, bound, idx, ratio <= bound * (1.0 + 1e-9))


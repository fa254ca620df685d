"""Operator norms, factorizations through Euclidean space, and the
derived distance and approximation quantities.

Quantities computed here come with explicit certification semantics:

* ``op_norm`` is exact when a finite extreme-point description makes the
  supremum a finite maximum (atomic source against a compatible target,
  quadratic source against a finite-dual-atom or quadratic target), and a
  certified lower bound from budgeted search otherwise; the factor and
  residual norms below take the same exact routes, then the row bound
  (a true upper bound), then an uncertified search value;
* ``gamma2_upper`` reports the bracket [search lower bound on the operator
  norm, best factorization product found]; the product is a true upper
  bound exactly when both factor norms were evaluated exactly or as
  genuine upper bounds, recorded in ``certified``;
* ``euclidean_distance`` combines that bracket for the identity with the
  parallelogram-defect lower bound evaluated on vector pairs;
* ``envelope_distance`` is a certified lower bound with witness: the gauge
  maximized over the convex-envelope unit sphere;
* ``approx_numbers`` is exact (a singular value) for quadratic targets and
  an upper bound from low-rank fitting otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkernel import RandomSource, as_matrix, frozen_array, singular_values, spd_power, svd
from .randsigns import ConstantEstimate, _best_ascent
from .spaces import OperatorSpec, QuasiNormedSpace, WeightedLp
from .geometry import mvee_of_ball

@dataclass(frozen=True)
class OpNormResult:
    value: float
    kind: str  # exact | lower-bound | upper-bound


def _search_op_norm(u: OperatorSpec, budget: int, rng: RandomSource) -> float:
    m = np.asarray(u.matrix)
    d = u.source.dim

    def objective(x):
        den = u.source.gauge(x)
        if den <= 1e-18:
            return 0.0
        return u.target.gauge(m @ x) / den

    starts = [np.ones(d)]
    starts.extend(np.eye(d))
    starts.extend(-np.eye(d))
    n_random = max(4, budget // 500)
    for i in range(n_random):
        starts.append(rng.split(3, i).generator().standard_normal(d))
    return _best_ascent(objective, starts, max(budget, 60 * d))[0]


def _exact_op_norm(u: OperatorSpec) -> float | None:
    """The operator norm by an exact route, or None when none applies.

    A zero matrix has norm 0.  An atomic source whose hull exponent does
    not exceed the target's triangle exponent gives a finite maximum over
    its atoms; a quadratic source gives the largest singular value of the
    rescaled matrix against a quadratic target, and the largest Euclidean
    norm of the pulled-back functionals against a target with finitely
    many dual atoms.
    """
    m = np.asarray(u.matrix)
    if not np.any(m):
        return 0.0
    atoms = u.source.ball_atoms()
    if atoms is not None and atoms[1] <= u.target.r_exponent + 1e-15:
        return float(u.target.gauge_many(atoms[0] @ m.T).max())
    qs = u.source.quadratic_form
    if qs is None:
        return None
    inv_half = spd_power(qs, -0.5)
    qt = u.target.quadratic_form
    if qt is not None:
        return float(singular_values(spd_power(qt, 0.5) @ m @ inv_half)[0])
    dual = u.target.dual_atoms()
    if dual is None:
        return None
    pulled = dual @ m @ inv_half
    return float(np.sqrt((pulled**2).sum(axis=1)).max())


def op_norm(u: OperatorSpec, budget: int = 2000, rng: RandomSource = RandomSource(0)) -> OpNormResult:
    """Largest gauge amplification of the operator: exact (kind ``exact``)
    on the routes of ``_exact_op_norm``, else a certified lower bound (kind
    ``lower-bound``) from coordinate ascent, ``budget`` evaluations per
    start, from the axes, the ones vector and seeded Gaussian starts."""
    exact = _exact_op_norm(u)
    if exact is not None:
        return OpNormResult(exact, "exact")
    if budget <= 0:
        raise ValueError("the search needs a positive budget")
    return OpNormResult(_search_op_norm(u, budget, rng), "lower-bound")


def _norm_bound(
    matrix: np.ndarray, source: QuasiNormedSpace, target: QuasiNormedSpace, rng: RandomSource
) -> tuple[float, bool]:
    """The operator norm when an exact route gives it, else a true upper
    bound when one is available, else a 500-evaluation search value; with
    whether the value bounds the norm from above (``certified``).

    Beyond the exact routes, a quadratic source against an unconditional
    target admits the row bound: the target gauge of the vector of
    whitened row lengths, since every coordinate of the image is at most
    its row's length.
    """
    u = OperatorSpec(matrix, source, target)
    exact = _exact_op_norm(u)
    if exact is not None:
        return exact, True
    qs = source.quadratic_form
    if qs is not None and target.is_unconditional:
        rows = np.asarray(matrix) @ spd_power(qs, -0.5)
        return target.gauge(np.sqrt((rows**2).sum(axis=1))), True
    return _search_op_norm(u, 500, rng), False


@dataclass(frozen=True)
class FactorizationWitness:
    """A factorization u = v w through a Euclidean middle space."""

    inner_dim: int
    w: np.ndarray  # inner_dim x source_dim
    v: np.ndarray  # target_dim x inner_dim
    norm_w: float
    norm_v: float

    def __post_init__(self):
        object.__setattr__(self, "w", frozen_array(as_matrix(self.w, rows=self.inner_dim)))
        object.__setattr__(self, "v", frozen_array(as_matrix(self.v, cols=self.inner_dim)))

    @property
    def product(self) -> float:
        return self.norm_w * self.norm_v


@dataclass(frozen=True)
class Gamma2Result:
    lower: float
    upper: float
    witness: FactorizationWitness
    certified: bool  # upper is a true upper bound (factor norms exact/upper)


def _factor_norms(
    w: np.ndarray, v: np.ndarray, source: QuasiNormedSpace, target: QuasiNormedSpace,
    rng: RandomSource,
) -> tuple[float, float, bool]:
    middle = WeightedLp.euclidean(w.shape[0])
    nw, w_ok = _norm_bound(w, source, middle, rng)
    nv, v_ok = _norm_bound(v, middle, target, rng)
    return nw, nv, w_ok and v_ok


def gamma2_upper(
    u: OperatorSpec,
    budget: int = 8,
    rng: RandomSource = RandomSource(0),
) -> Gamma2Result:
    """Bracket for the least factorization product through Euclidean space
    of the operator's rank (dimension 1 for the zero map).

    The upper bound searches over invertible reparameterizations of an
    initial split (SVD-based; for identity operators also the enclosing
    ellipsoid shape root, which John's theorem puts within sqrt(dim) of
    optimal).  The lower bound is the operator norm, since any
    factorization's product dominates it.
    """
    m = np.asarray(u.matrix)
    dy, dx = m.shape
    s_all = singular_values(m) if np.any(m) else np.zeros(min(dx, dy))
    rank = int(np.sum(s_all > (s_all[0] if s_all.size else 0.0) * 1e-12))
    k = max(rank, 1)
    if not np.any(m):
        witness = FactorizationWitness(k, np.zeros((k, dx)), np.zeros((dy, k)), 0.0, 0.0)
        return Gamma2Result(0.0, 0.0, witness, True)
    lower = op_norm(u, rng=rng.split(0)).value

    s, u_left, vt = svd(m)
    roots = np.sqrt(s[:rank])
    w0 = np.zeros((k, dx))
    v0 = np.zeros((dy, k))
    w0[:rank] = roots[:, None] * vt[:rank]
    v0[:, :rank] = u_left[:, :rank] * roots[None, :]
    candidates = [(w0, v0)]
    if dx == dy == k and np.allclose(m, np.eye(dx), atol=1e-12):
        try:
            q = mvee_of_ball(u.source).shape
            candidates.append((spd_power(q, 0.5), spd_power(q, -0.5)))
        except (ValueError, NotImplementedError, RuntimeError):
            pass

    best = None
    for w, v in candidates:
        nw, nv, ok = _factor_norms(w, v, u.source, u.target, rng.split(1))
        if best is None or nw * nv < best[0]:
            best = (nw * nv, w, v, nw, nv, ok)
    scale = 0.25
    for i in range(max(budget, 0)):
        _, wb, vb, _, _, _ = best
        t = np.eye(k) + scale * rng.split(2, i).generator().standard_normal((k, k))
        try:
            t_inv = np.linalg.inv(t)
        except np.linalg.LinAlgError:
            continue
        w, v = t @ wb, vb @ t_inv
        nw, nv, ok = _factor_norms(w, v, u.source, u.target, rng.split(3, i))
        if nw * nv < best[0]:
            best = (nw * nv, w, v, nw, nv, ok)
        else:
            scale *= 0.7
    product, w, v, nw, nv, ok = best
    recon = v @ w
    if not np.allclose(recon, m, atol=1e-9 * max(1.0, np.abs(m).max())):
        raise RuntimeError("factorization drifted away from the operator")
    upper = product if ok else max(product, lower)
    witness = FactorizationWitness(k, w, v, nw, nv)
    return Gamma2Result(lower, upper, witness, ok)


@dataclass(frozen=True)
class DistanceBracket:
    lower: float
    upper: float
    certified: bool


def euclidean_distance(
    space: QuasiNormedSpace, budget: int = 8, rng: RandomSource = RandomSource(0)
) -> DistanceBracket:
    """Bracket for the least two-sided Euclidean comparison constant of the
    gauge (the identity's factorization constant).

    Lower bound: any Euclidean comparison transports the parallelogram law,
    so for every pair x, y the ratio
    (g(x+y)^2 + g(x-y)^2) / (2 g(x)^2 + 2 g(y)^2) and its reciprocal are
    at most the squared constant; maximized over deterministic axis pairs
    and sampled pairs, floored at 1.
    """
    d = space.dim
    g = gamma2_upper(OperatorSpec.identity(space), budget=budget, rng=rng.split(0))
    pairs = [(np.eye(d)[i], np.eye(d)[j]) for i in range(d) for j in range(i + 1, d)]
    gen = rng.split(1).generator()
    for _ in range(64):
        pairs.append((gen.standard_normal(d), gen.standard_normal(d)))
    xs, ys = (np.array(side) for side in zip(*pairs))
    num = space.gauge_many(xs + ys) ** 2 + space.gauge_many(xs - ys) ** 2
    den = 2.0 * (space.gauge_many(xs) ** 2 + space.gauge_many(ys) ** 2)
    ok = (num > 0) & (den > 0)
    ratio = num[ok] / den[ok]
    lower = float(np.sqrt(np.maximum(ratio, 1.0 / ratio)).max(initial=1.0))
    return DistanceBracket(lower, max(g.upper, lower) if g.certified else g.upper, g.certified)


def envelope_distance(
    space: QuasiNormedSpace, budget: int = 8, rng: RandomSource = RandomSource(0)
) -> ConstantEstimate:
    """Certified lower bound (with witness) on the distance to the convex
    envelope: the gauge maximized over the envelope unit sphere."""
    d = space.dim

    def objective(x):
        env = space.envelope_gauge(x)
        if env <= 1e-18:
            return 0.0
        return space.gauge(x) / env

    starts = [np.ones(d)]
    starts.extend(np.eye(d))
    for i in range(max(budget, 2)):
        starts.append(np.abs(rng.split(5, i).generator().standard_normal(d)))
    best_v, best_x = _best_ascent(objective, starts, 80 * d)
    env = space.envelope_gauge(best_x)
    return ConstantEstimate(best_v, "certified-lower-bound", best_x / env)


@dataclass(frozen=True)
class DeltaResult:
    upper: float  # estimate of the norm from the envelope source (>= delta)
    lower: float  # operator norm lower bound (delta >= op norm)
    kind: str  # certification of the upper evaluation


def delta_upper(u: OperatorSpec, budget: int = 2000, rng: RandomSource = RandomSource(0)) -> DeltaResult:
    """Bracket for the least factorization product through a convex space.

    Factoring through the source's convex envelope with the identity shows
    the constant is at most the operator norm taken from the envelope
    gauge; that norm is evaluated exactly when an exact route exists and
    estimated by search otherwise (kind records which).  The floor is the
    plain operator norm.
    """
    env = u.source.envelope_space()
    upper_res = op_norm(OperatorSpec(u.matrix, env, u.target), budget, rng)
    lower = op_norm(u, budget, rng.split(1)).value
    return DeltaResult(upper_res.value, lower, upper_res.kind)


@dataclass(frozen=True)
class GaussianMean:
    value: float
    stderr: float
    samples: int


def gaussian_mean(u: OperatorSpec, samples: int = 100_000, rng: RandomSource = RandomSource(0)) -> GaussianMean:
    """Root mean square of the target gauge of the image of a standard
    Gaussian vector; standard error by batch means."""
    if not u.source.is_euclidean:
        raise ValueError("gaussian mean needs a Euclidean source")
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    m = np.asarray(u.matrix)
    if not np.any(m):
        return GaussianMean(0.0, 0.0, samples)
    n_batches = 20
    per = samples // n_batches
    batch_means = np.empty(n_batches)
    for b in range(n_batches):
        g = rng.split(b).generator().standard_normal((per, u.source.dim))
        vals = u.target.gauge_many(g @ m.T)
        batch_means[b] = np.mean(vals**2)
    mean_sq = float(np.mean(batch_means))
    err_sq = float(np.std(batch_means, ddof=1)) / math.sqrt(n_batches)
    value = math.sqrt(mean_sq)
    stderr = err_sq / (2.0 * value) if value > 0 else 0.0
    return GaussianMean(value, stderr, per * n_batches)


@dataclass(frozen=True)
class ApproxNumber:
    value: float
    kind: str  # exact | upper-bound | search


def approx_numbers(
    u: OperatorSpec, k: int, budget: int = 24, rng: RandomSource = RandomSource(0)
) -> ApproxNumber:
    """k-th approximation number: distance to operators of rank below k.

    Exact (a singular value of the rescaled matrix) for quadratic source
    and target.  Otherwise the smallest residual norm found from a
    truncated-SVD initialization refined by perturbing the low-rank
    factors: kind ``upper-bound`` when every residual norm it kept came
    from an exact route or the row bound, and ``search`` when one was a
    searched lower estimate of that residual's norm.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    qs = u.source.quadratic_form
    if qs is None:
        raise ValueError("approximation numbers need a quadratic source")
    m = np.asarray(u.matrix) @ spd_power(qs, -0.5)  # operator from the standard Euclidean ball
    if not np.any(m):
        return ApproxNumber(0.0, "exact")
    s_all = singular_values(m)
    rank = int(np.sum(s_all > s_all[0] * 1e-12))
    if k > rank:
        return ApproxNumber(0.0, "exact")
    qt = u.target.quadratic_form
    if qt is not None:
        return ApproxNumber(float(singular_values(spd_power(qt, 0.5) @ m)[k - 1]), "exact")

    middle = WeightedLp.euclidean(u.source.dim)
    s, u_left, vt = svd(m)
    r = k - 1
    a = u_left[:, :r] * s[:r][None, :]
    b = vt[:r]
    best, ok = _norm_bound(m - a @ b, middle, u.target, rng.split(9))
    if r == 0:
        return ApproxNumber(best, "upper-bound" if ok else "search")
    scale = 0.3 * s[0]
    for i in range(max(budget, 0)):
        gen = rng.split(11, i).generator()
        a2 = a + scale * gen.standard_normal(a.shape)
        b2 = b + scale * gen.standard_normal(b.shape)
        val, ok2 = _norm_bound(m - a2 @ b2, middle, u.target, rng.split(9))
        if val < best:
            best, a, b, ok = val, a2, b2, ok and ok2
        else:
            scale *= 0.7
    return ApproxNumber(best, "upper-bound" if ok else "search")

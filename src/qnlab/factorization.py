"""Operator norms, factorizations through Euclidean space, and the
derived distance and approximation quantities.

Quantities computed here come with explicit certification semantics.
Operator norms take one route table, ``_exact_op_norm``: zero (a zero
matrix), atoms (an atomic source against a target of at least its hull
exponent), dual atoms (any source with a dual space against a target with
finitely many dual atoms), quadratic (quadratic source and target) and
Hölder (a diagonal map between kinds whose gauge is a weighted power sum
``||a x||_p``, the kind's ``lp_form``).  The same table gives
the equivalence constants of two spaces, as norms of the identity.
Every norm is an ``OpNormResult`` that names its route and, where the
route has one, a witness; its kind follows from the route: ``exact`` from
the table, ``upper-bound`` from the row bound, ``lower-bound`` from a search.

* ``op_norm`` is exact on a route and a searched lower bound otherwise;
  the factor and residual norms below (``_norm_bound``) take the same
  routes, then the row bound, then a short search;
* ``gamma2_upper`` reports the bracket [max(operator norm, parallelogram
  bound), factorization product], the product from one split through a
  quadratic end and from a search otherwise; it is a true upper bound
  exactly when both factor norms were evaluated exactly or as genuine
  upper bounds, recorded in ``certified``;
* ``euclidean_distance`` is that bracket for the identity;
* ``delta`` is the operator norm from the envelope source, which is the
  least factorization product through a Banach space;
* ``envelope_distance`` is delta of the identity: the norm of the identity
  from the convex envelope onto the space;
* ``approx_numbers`` is exact (a singular value) for quadratic targets and
  an upper bound from low-rank fitting otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkernel import RandomSource, as_integer, as_matrix, frozen_array, singular_values, spd_power, svd
from .randsigns import _best_ascent, _guarded_ratio
from .spaces import OperatorSpec, QuasiNormedSpace, WeightedLp
from .geometry import mvee_of_ball

@dataclass(frozen=True)
class OpNormResult:
    """An operator norm, its route and, where the route has one, a witness
    x of source gauge 1 at which the target gauge of M x is the value."""

    value: float
    route: str  # zero | atoms | dual-atoms | quadratic | hölder | row-bound | ascent
    witness: np.ndarray | None = None

    def __post_init__(self):
        if self.witness is not None:
            object.__setattr__(self, "witness", frozen_array(self.witness))

    @property
    def kind(self) -> str:  # exact | upper-bound | lower-bound
        return {"row-bound": "upper-bound", "ascent": "lower-bound"}.get(self.route, "exact")


def _search_op_norm(u: OperatorSpec, budget: int, rng: RandomSource) -> OpNormResult:
    m = np.asarray(u.matrix)
    d = u.source.dim

    def objective(X):
        den = u.source.gauge_many(X)
        return _guarded_ratio(u.target.gauge_many(X @ m.T), den, den > 1e-18)

    starts = [np.ones(d), *np.eye(d), *-np.eye(d)]
    starts += [rng.split(3, i).generator().standard_normal(d) for i in range(max(4, budget // 500))]
    value, x = _best_ascent(objective, starts, max(budget, 60 * d))
    return OpNormResult(value, "ascent", x / u.source.gauge(x))


def _exact_op_norm(u: OperatorSpec) -> OpNormResult | None:
    """The operator norm by the first exact route that applies, or None.

    * zero: a zero matrix has norm 0;
    * atoms: an atomic source whose hull exponent does not exceed the
      target's triangle exponent gives a finite maximum over its atoms;
    * dual atoms: a target gauge that is the max over dual atoms F, with a
      source that has a dual space X°, gives max over f in F of the dual
      gauge of M' f (the support function of the source ball);
    * quadratic: a quadratic source and target give the largest singular
      value of the rescaled matrix;
    * Hölder: a square diagonal D between kinds with an ``lp_form``,
      ||a x||_p and ||b y||_q, gives ``_lp_ratio_sup(|diag D| b / a, p,
      q)``, in the coordinates z = a x of the source.
    """
    m = np.asarray(u.matrix)
    if not np.any(m):
        return OpNormResult(0.0, "zero")
    atoms = u.source.ball_atoms()
    if atoms is not None and atoms[1] <= u.target.r_exponent + 1e-15:
        gains = u.target.gauge_many(atoms[0] @ m.T)
        return OpNormResult(float(gains.max()), "atoms", atoms[0][gains.argmax()])
    dual = u.target.dual_atoms()
    source_dual = None if dual is None else u.source._dual
    if source_dual is not None:
        return OpNormResult(float(source_dual.gauge_many(dual @ m).max()), "dual-atoms")
    qs, qt = u.source.quadratic_form, u.target.quadratic_form
    if qs is not None and qt is not None:
        root = spd_power(qs, -0.5)
        s, _, vt = svd(spd_power(qt, 0.5) @ m @ root)
        return OpNormResult(float(s[0]), "quadratic", root @ vt[0])
    ls, lt = u.source.lp_form(), u.target.lp_form()
    if ls is None or lt is None or m.shape[0] != m.shape[1] or np.any(m - np.diag(np.diag(m))):
        return None
    value, z = _lp_ratio_sup(np.abs(np.diag(m)) * lt[1] / ls[1], ls[0], lt[0])
    return OpNormResult(value, "hölder", z / ls[1])


def _lp_ratio_sup(a: np.ndarray, p: float, q: float) -> tuple[float, np.ndarray]:
    """``sup over y != 0 of ||a y||_q / ||y||_p`` for a >= 0, not all 0, and
    a maximizer with ||y||_p = 1: max a_i when q >= p (its axis attains it),
    else ||a||_rho with 1/rho = 1/q - 1/p (Hölder; y ~ a^(rho/p) attains it)."""
    top = float(a.max())
    if q >= p:
        return top, np.eye(a.size)[a.argmax()]
    rho = 1.0 / (1.0 / q - 1.0 / p)
    y = (a / top) ** (rho / p)  # overflow-safe, as is the value below
    return top * float(np.sum((a / top) ** rho) ** (1.0 / rho)), y / np.linalg.norm(y, p)


def op_norm(u: OperatorSpec, budget: int = 2000, rng: RandomSource = RandomSource(0)) -> OpNormResult:
    """Largest gauge amplification of the operator: exact on the routes of
    ``_exact_op_norm``, else a certified lower bound (route ``ascent``)
    from coordinate ascent, ``budget`` evaluations per start, from the
    axes, the ones vector and seeded Gaussian starts.  ``budget`` must be
    a positive integer whichever way the norm is found."""
    budget = as_integer("budget", budget, 1)
    exact = _exact_op_norm(u)
    return exact if exact is not None else _search_op_norm(u, budget, rng)


def _norm_bound(
    matrix: np.ndarray, source: QuasiNormedSpace, target: QuasiNormedSpace, rng: RandomSource
) -> OpNormResult:
    """The operator norm by the routes of ``_exact_op_norm``, else the row
    bound (route ``row-bound``, an upper bound), else a 500-evaluation
    search (route ``ascent``, a lower bound).

    The row bound applies to a quadratic source against an unconditional
    target: the target gauge of the vector of whitened row lengths, since
    every coordinate of the image is at most its row's length.
    """
    u = OperatorSpec(matrix, source, target)
    exact = _exact_op_norm(u)
    if exact is not None:
        return exact
    qs = source.quadratic_form
    if qs is not None and target.is_unconditional:
        rows = np.asarray(matrix) @ spd_power(qs, -0.5)
        return OpNormResult(target.gauge(np.sqrt((rows**2).sum(axis=1))), "row-bound")
    return _search_op_norm(u, 500, rng)


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
    nw = _norm_bound(w, source, middle, rng)
    nv = _norm_bound(v, middle, target, rng)
    return nw.value, nv.value, "lower-bound" not in (nw.kind, nv.kind)


def _two_point_bound(u: OperatorSpec, rng: RandomSource) -> float:
    """Lower bound on gamma2(u) from the parallelogram law of the middle
    space of any u = v w: with c = ||v|| ||w||, every pair x, y has
    g_Y(u(x+y))^2 + g_Y(u(x-y))^2 <= 2 c^2 (g_X(x)^2 + g_X(y)^2) and
    2 (g_Y(ux)^2 + g_Y(uy)^2) <= c^2 (g_X(x+y)^2 + g_X(x-y)^2).  Maximized
    over the axis pairs and 64 Gaussian pairs."""
    d = u.source.dim
    i, j = np.triu_indices(d, 1)
    drawn = rng.generator().standard_normal((64, 2, d))
    xs = np.concatenate([np.eye(d)[i], drawn[:, 0]])
    ys = np.concatenate([np.eye(d)[j], drawn[:, 1]])
    rows = np.concatenate([xs, ys, xs + ys, xs - ys])
    gx = u.source.gauge_many(rows).reshape(4, -1) ** 2
    gy = u.target.gauge_many(rows @ np.asarray(u.matrix).T).reshape(4, -1) ** 2
    num = np.concatenate([gy[2] + gy[3], 2.0 * (gy[0] + gy[1])])
    den = np.concatenate([2.0 * (gx[0] + gx[1]), gx[2] + gx[3]])
    return math.sqrt(_guarded_ratio(num, den, den > 0).max())


def gamma2_upper(
    u: OperatorSpec,
    budget: int = 8,
    rng: RandomSource = RandomSource(0),
) -> Gamma2Result:
    """Bracket for gamma2(u), the least product ||v|| ||w|| over u = v w
    through a Euclidean space; the lower bound is the larger of the
    operator norm and ``_two_point_bound``.

    A quadratic end gives gamma2(u) = ||u||, reached by one split: through
    the target's form A, w = A^(1/2) M and v = A^(-1/2), else through the
    source's form B, w = B^(1/2) and v = M B^(-1/2).  Otherwise ``budget``
    reparameterizations of an SVD split through the rank are searched (for
    identities also the enclosing ellipsoid's shape root, within sqrt(dim)
    of optimal by John's theorem).  The zero map factors through dim 1.
    """
    budget = as_integer("budget", budget, 0)
    m = np.asarray(u.matrix)
    dy, dx = m.shape
    if not np.any(m):
        witness = FactorizationWitness(1, np.zeros((1, dx)), np.zeros((dy, 1)), 0.0, 0.0)
        return Gamma2Result(0.0, 0.0, witness, True)
    norm = op_norm(u, rng=rng.split(0))
    lower = max(norm.value, _two_point_bound(u, rng.split(4)))

    # With a quadratic end, one factor is an isometry and the other has
    # the norm of u, so the split's product is ||u||: no search.
    qs, qt = u.source.quadratic_form, u.target.quadratic_form
    exact = norm.kind == "exact"
    if qt is not None:
        best = (norm.value, spd_power(qt, 0.5) @ m, spd_power(qt, -0.5), norm.value, 1.0, exact)
        budget = 0
    elif qs is not None:
        best = (norm.value, spd_power(qs, 0.5), m @ spd_power(qs, -0.5), 1.0, norm.value, exact)
        budget = 0
    else:
        s, u_left, vt = svd(m)
        k = int(np.sum(s > s[0] * 1e-12))  # the rank
        roots = np.sqrt(s[:k])
        candidates = [(roots[:, None] * vt[:k], u_left[:, :k] * roots[None, :])]
        if dx == dy == k and np.allclose(m, np.eye(dx), atol=1e-12):
            try:
                q = mvee_of_ball(u.source).shape
                candidates.append((spd_power(q, 0.5), spd_power(q, -0.5)))
            except (ValueError, RuntimeError):
                pass
        best = None
        for w, v in candidates:
            nw, nv, ok = _factor_norms(w, v, u.source, u.target, rng.split(1))
            if best is None or nw * nv < best[0]:
                best = (nw * nv, w, v, nw, nv, ok)
    k = best[1].shape[0]
    scale = 0.25
    for i in range(budget):
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
    if upper < lower <= upper * (1.0 + 1e-12):  # a rounding excess, not a bug
        lower = upper
    witness = FactorizationWitness(k, w, v, nw, nv)
    return Gamma2Result(lower, upper, witness, ok)


def euclidean_distance(
    space: QuasiNormedSpace, budget: int = 8, rng: RandomSource = RandomSource(0)
) -> Gamma2Result:
    """Bracket for the least two-sided Euclidean comparison constant of the
    gauge: ``gamma2_upper`` of the identity, since id = v w has w injective."""
    return gamma2_upper(OperatorSpec.identity(space), budget, rng)


def delta(u: OperatorSpec, rng: RandomSource = RandomSource(0)) -> OpNormResult:
    """The least factorization product delta(u) through a Banach space.

    By the universal property of the Banach envelope (Kalton, Peck and
    Roberts, *An F-space sampler*), delta(u) equals the operator norm taken
    from the envelope gauge: every bounded map into a Banach space keeps its
    norm on the convex hull of the source ball, and the identity onto the
    envelope attains it.  So this is ``op_norm`` from the envelope source:
    delta itself when a route gives that norm (kind ``exact``), and a
    certified lower bound on delta when it was searched (kind
    ``lower-bound``).
    """
    return op_norm(OperatorSpec(u.matrix, u.source._envelope, u.target), rng=rng)


def envelope_distance(
    space: QuasiNormedSpace, budget: int = 2000, rng: RandomSource = RandomSource(0)
) -> OpNormResult:
    """The largest g_X(x) / g_env(x): delta of the identity, the norm of the
    identity from the convex envelope onto the space."""
    return op_norm(OperatorSpec(np.eye(space.dim), space._envelope, space), budget, rng)


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
    samples = as_integer("samples", samples, 1000)
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


def approx_numbers(u: OperatorSpec, k: int, rng: RandomSource = RandomSource(0)) -> ApproxNumber:
    """k-th approximation number: distance to operators of rank below k.

    Exact (a singular value of the rescaled matrix) for quadratic source
    and target.  Otherwise the smallest residual norm found from a
    truncated-SVD initialization refined by 24 rounds of perturbing the
    low-rank factors: kind ``upper-bound`` when the kept residual's norm came from
    an exact route or the row bound, and ``search`` when it was a searched
    lower estimate of that norm.
    """
    k = as_integer("k", k, 1)
    qs = u.source.quadratic_form
    if qs is None:
        raise ValueError("approximation numbers need a quadratic source")
    m = np.asarray(u.matrix) @ spd_power(qs, -0.5)  # operator from the standard Euclidean ball
    if not np.any(m):
        return ApproxNumber(0.0, "exact")
    s, u_left, vt = svd(m)
    rank = int(np.sum(s > s[0] * 1e-12))
    if k > rank:
        return ApproxNumber(0.0, "exact")
    qt = u.target.quadratic_form
    if qt is not None:
        return ApproxNumber(float(singular_values(spd_power(qt, 0.5) @ m)[k - 1]), "exact")

    middle = WeightedLp.euclidean(u.source.dim)
    r = k - 1
    a = u_left[:, :r] * s[:r][None, :]
    b = vt[:r]
    best = _norm_bound(m - a @ b, middle, u.target, rng.split(9))
    scale = 0.3 * s[0]
    for i in range(24 if r else 0):  # a rank-0 fit has nothing to perturb
        gen = rng.split(11, i).generator()
        a2 = a + scale * gen.standard_normal(a.shape)
        b2 = b + scale * gen.standard_normal(b.shape)
        res = _norm_bound(m - a2 @ b2, middle, u.target, rng.split(9))
        if res.value < best.value:
            best, a, b = res, a2, b2
        else:
            scale *= 0.7
    return ApproxNumber(best.value, "search" if best.kind == "lower-bound" else "upper-bound")

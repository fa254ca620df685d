"""Two-space splitting functionals and the scale of spaces between them.

A pair of quasi-normed spaces (X0, X1) on the same R^n, with gauges g0 and
g1, induces for each t > 0 the splitting value ``K_s(t, x) = inf over
x = x0 + x1 of (g0(x0)^s + t^s g1(x1)^s)^(1/s)``.  Integrating its s = 2
version against ``t^(-1-2*theta)`` and normalizing by
``sqrt(theta*(1-theta))`` yields the intermediate gauge ``theta_norm``.

One route selector serves ``k_functional`` (at one t) and ``theta_norm``
(at every quadrature node).  Its exact routes, tried in order:

* equal spaces and s equal to the space's triangle exponent r:
  ``K_r(t, x) = min(1, t) g(x)``;
* both spaces with per-coordinate scales at exponent s, that is Lp forms
  of exponent s (diagonal quadratic pairs at s = 2, weighted Lp pairs with
  p0 = p1 = s) or any pair in dimension one: the infimum separates per
  coordinate;
* both spaces quadratic and s = 2: simultaneous diagonalization of
  (A0, A1) gives ``K_2(t, x)^2 = sum_i mu_i t^2 y_i^2 / (1 + mu_i t^2)``;
  it also gives the intermediate gauge in closed form
  (``quadratic_theta_norm_exact``), which the numerical integrator is
  tested against;
* both spaces quadratic and s = 1 (``_dual_minima``): by duality,
  ``K_1(t, x)^2 = min over lam in [0, 1] of sum_i y_i^2 / (1 - lam +
  lam / (t^2 mu_i))`` in the same coordinates, a convex problem in lam
  that one bisection solves;
* one space a weighted l1 and the other a weighted lr with r <= 1, in
  either order, in dimension at most 8 (``_lattice_k``): splits can be
  taken as x0 = lam * x with lam in the unit box, where the l1 term is
  linear and the lr term concave.  For s <= 1 the minimum sits at one of
  the 2^d coordinate masks; for s = 2 on one of the box edges, each a 1-D
  problem whose minimum a bisection finds.  This covers the pairs
  (envelope of l_r^d, l_r^d).

Everything else is a budgeted Nelder-Mead minimization over splits x0
(``_search_k``): node by node, ``scipy.optimize.minimize`` from the starts
0, x, x/2, the coordinate masks of x and the best split of the previous
node.  No pair that the experiments or the benchmark build reaches it;
general pairs such as weighted l1.5 against weighted l0.5 do.

The returned value is then an upper estimate of the true infimum, bracketed
below by ``2^(1/s - 1/r) * max(min(1, t c) g0(x), min(1/C, t) g1(x))``
where c <= g1/g0 <= C are the pair's equivalence constants, the norms of
the identity in both directions from the exact operator-norm routes
(``factorization._exact_op_norm``); a pair that no route covers gets the
lower bound 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.optimize import minimize

from .factorization import _exact_op_norm, op_norm
from .numkernel import RandomSource, as_integer, as_matrix, as_vector
from .spaces import OperatorSpec, QuasiNormedSpace, Quadratic
from .randsigns import ConstantEstimate, _guarded_ratio, _row_gauges, _search_tuples, _sign_averages


_OPERATOR_DIRECTIONS = 24  # unit vectors of the interpolated operator check
_OPERATOR_TOLERANCE = 0.02  # relative slack of the interpolated operator check


@dataclass(frozen=True, eq=False)
class NormPair:
    """Two spaces on the same coordinate space, ready for splitting."""

    space0: QuasiNormedSpace
    space1: QuasiNormedSpace

    def __post_init__(self):
        if self.space0.dim != self.space1.dim:
            raise ValueError("both spaces must live on the same dimension")

    @property
    def dim(self) -> int:
        return self.space0.dim

    @property
    def r_exponent(self) -> float:
        return min(self.space0.r_exponent, self.space1.r_exponent)

    @property
    def is_quadratic(self) -> bool:
        return self.space0.quadratic_form is not None and self.space1.quadratic_form is not None

    @property
    def is_equal(self) -> bool:
        return self.space0 is self.space1

    @classmethod
    def from_spaces(cls, space0: QuasiNormedSpace, space1: QuasiNormedSpace) -> "NormPair":
        return cls(space0, space1)

    @classmethod
    def diagonal(cls, weights0, weights1) -> "NormPair":
        """Quadratic pair with gauges ``sqrt(sum_i (w_i x_i)^2)``."""
        w0, w1 = as_vector(weights0), as_vector(weights1)
        if np.any(w0 <= 0) or np.any(w1 <= 0):
            raise ValueError("diagonal weights must be positive")
        return cls(Quadratic(np.diag(w0**2)), Quadratic(np.diag(w1**2)))

    @cached_property
    def _eigsplit(self) -> tuple[np.ndarray, np.ndarray]:
        """(mu, back) with back = V^{-1} for the congruence diagonalizing
        (A0, A1): V' A0 V = I, V' A1 V = diag(mu)."""
        if not self.is_quadratic:
            raise ValueError("eigen split needs a quadratic pair")
        a0 = self.space0.quadratic_form
        mu, vecs = scipy.linalg.eigh(self.space1.quadratic_form, a0)
        back = vecs.T @ a0
        return np.maximum(mu, 0.0), back

    def equivalence_constants(self) -> tuple[float, float] | None:
        """The true (c, C) with c <= g1(x)/g0(x) <= C: C is the norm of the
        identity from space0 to space1 and 1/c the norm back, when an exact
        route of ``_exact_op_norm`` gives both; otherwise None."""
        eye = np.eye(self.dim)
        back = _exact_op_norm(OperatorSpec(eye, self.space1, self.space0))
        cap = _exact_op_norm(OperatorSpec(eye, self.space0, self.space1))
        if back is None or cap is None:
            return None
        return 1.0 / back.value, cap.value


@dataclass(frozen=True)
class KValue:
    value: float  # best split found (an upper estimate unless exact)
    lower: float  # true lower bound: from exact equivalence constants, else 0
    exact: bool


_MAX_MASK_DIM = 8  # coordinate masks are enumerated up to this dimension
_BISECTIONS = 60


def _separable_k(a: np.ndarray, b: np.ndarray, ts: np.ndarray, x: np.ndarray, s: float) -> np.ndarray:
    """Exact splitting values at every t in ``ts`` from per-coordinate scales.

    Each coordinate minimizes ``(a y)^s + (t b (x - y))^s`` on its own: for
    s <= 1 the integrand is concave in the split, so an endpoint wins and
    the value is ``min(a, t b) |x_i|``; for s > 1 the interior optimum gives
    ``a (t b) / (a^q + (t b)^q)^(1/q) |x_i|`` with q = s/(s-1).
    """
    c = ts[:, None] * b
    if s <= 1.0:
        per = np.minimum(a, c) * np.abs(x)
    else:
        q = s / (s - 1.0)
        m = np.maximum(a, c)
        lo = np.minimum(a, c)
        # (a^q + c^q)^(1/q) = m (1 + (lo/m)^q)^(1/q), overflow-safe
        per = lo * np.abs(x) / (1.0 + (lo / m) ** q) ** (1.0 / q)
    return np.sum(per**s, axis=1) ** (1.0 / s)


def _lattice_k(
    lin: QuasiNormedSpace,
    cav: QuasiNormedSpace,
    s: float,
    t_lin: np.ndarray,
    t_cav: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """Exact values of ``inf ((t_lin g0(x0))^s + (t_cav g1(x - x0))^s)^(1/s)``
    at every node, for s <= 1 or s = 2, when g0 = ``lin`` is a weighted l1
    gauge ``sum_i a_i |x_i|`` and g1 = ``cav`` a weighted lr gauge
    ``(sum_i (b_i |x_i|)^r)^(1/r)`` with r <= 1.  The splitting value takes
    t_lin = 1, t_cav = t; the reversed pair takes t_lin = t, t_cav = 1,
    which is ``K(t, x; X0, X1) = t K(1/t, x; X1, X0)`` without rounding 1/t.

    Both gauges are unconditional, so clipping a split coordinate to the
    segment [0, x_i] lowers both terms: x0 = lam * x with lam in [0, 1]^d.
    Then A(lam) = g0(x0) is linear and B(lam) = g1(x - x0) is concave.

    * s <= 1: A^s + t^s B^s is concave, so its minimum over the box sits at
      one of the 2^d vertices, the coordinate masks.
    * s = 2: at a minimizer lam*, lam* also minimizes the concave B over the
      polytope {lam in the box : A(lam) = A(lam*)}, whose vertices lie on
      edges of the box.  So the minimum is on one of the d 2^(d-1) edges.
      On an edge, with v = 1 - lam_i, the objective is
      ``f(v) = (alpha + beta (1 - v))^2 + t^2 (c + gamma v^r)^(2/r)`` and
      ``f'/2 = G(v) - beta (alpha + beta)``, where
      ``G(v) = t^2 gamma h(v) + beta^2 v`` and
      ``h(v) = v^(r-1) (c + gamma v^r)^((2-r)/r)``.  With y = gamma v^r / c
      and z = (2 - r)/(1 + y), ``v h'/h = 1 - z`` and
      ``v^2 h''/h = z (z - 1) + r y z/(1 + y)``.  So h decreases exactly
      where z > 1, an initial segment of the edge since z falls as v grows,
      and is strictly convex there: G' increases on that segment and is
      positive after it.  G is quasi-convex, and f' changes sign at most
      twice, as +, -, +.  The interior minimum of an edge is therefore the
      last point where ``G'(v) < 0 or G(v) < beta (alpha + beta)``, a
      predicate that holds on an initial segment of the edge: one
      vectorized bisection per (node, edge) finds it.  The bisection runs
      on u = v^r, which resolves B^r = c + gamma u uniformly, and 60
      halvings suffice.

    Every bisected point is a feasible split, so no edge value falls below
    the true minimum; the minimum with the mask values is the infimum up
    to rounding (Peetre's K-functional; Bergh and Lofstrom, Interpolation
    Spaces, 1976, ch. 3).  The masks are valued by the spaces' own gauges,
    as the split search values its starts.
    """
    r = cav.r_exponent
    masks = np.array(list(itertools.product((0.0, 1.0), repeat=x.shape[0])))
    a_mask = lin.gauge_many(masks * x)
    b_mask = cav.gauge_many((1.0 - masks) * x)
    vals = np.min((t_lin[:, None] * a_mask) ** s + (t_cav[:, None] * b_mask) ** s, axis=1)
    if s == 2.0:
        # B = (...)^(1/r) amplifies relative errors by 1/r: the edge values
        # are formed in extended precision where the platform has it
        ax = np.abs(x).astype(np.longdouble)
        u = lin.coordinate_scales(1.0) * ax
        w = (cav.coordinate_scales(r) * ax) ** np.longdouble(r)
        vals = _edge_minima(u, w, r, t_lin**2, t_cav**2, vals)
    return vals ** (1.0 / s)


def _edge_minima(
    u: np.ndarray, w: np.ndarray, r: float, ta: np.ndarray, tb: np.ndarray, best: np.ndarray
) -> np.ndarray:
    """``best`` lowered, node by node, to the smallest value of
    ``ta A^2 + tb B^2`` inside the box edges, where A = sum_i lam_i u_i and
    B^r = sum_i (1 - lam_i) w_i: the s = 2 case of ``_lattice_k`` with
    t^2 = tb/ta, kept as two factors.

    Along an edge A >= alpha and B^r >= c, so an edge whose bound
    ``ta alpha^2 + tb c^(2/r)`` is not below ``best`` cannot improve it and
    is skipped, as are the flat edges along zero coordinates.  The
    bisection runs in double precision, the values in the precision of u
    and w."""
    live = np.flatnonzero(u > 0)
    rest = np.array(list(itertools.product((0.0, 1.0), repeat=u.shape[0] - 1)))
    axis = np.repeat(live, len(rest))
    lam = np.concatenate([np.insert(rest, i, 0.0, axis=1) for i in live])
    free = 1.0 - lam
    free[np.arange(len(axis)), axis] = 0.0
    alpha, c = lam @ u, free @ w
    # powers overflow where the mask values do, and inside the bisection
    # (h/v up, v down) only where B^r is flat to rounding
    with np.errstate(over="ignore", invalid="ignore"):
        bound = ta[:, None] * alpha.astype(float) ** 2 + tb[:, None] * c.astype(float) ** (2.0 / r)
        node, edge = np.nonzero(bound < best[:, None])
        alpha, beta, c, gamma = alpha[edge], u[axis[edge]], c[edge], w[axis[edge]]
        ta, tb = ta[node], tb[node]
        a, b, cc, g = (z.astype(float) for z in (alpha, beta, c, gamma))  # for the bisection
        steep = ta * b**2
        level = ta * b * (a + b)
        tbg = tb * g
        lo, hi = np.zeros(len(node)), np.ones(len(node))
        for _ in range(_BISECTIONS):
            mid = 0.5 * (lo + hi)
            gu = g * mid
            phi = cc + gu
            tbgh_over_v = tbg * (phi / mid) ** ((2.0 - r) / r)
            slope = (1.0 - r) - (2.0 - r) * gu / phi  # -v h'/h
            before = (tbgh_over_v * slope > steep) | ((tbgh_over_v + steep) * mid ** (1.0 / r) < level)
            np.copyto(lo, mid, where=before)
            np.copyto(hi, mid, where=~before)
    # A and B both from the split v, so that f is the objective of one
    # feasible split (v**r need not give back hi exactly)
    rl = w.dtype.type(r)
    v = hi.astype(w.dtype) ** (1 / rl)
    f = ta * (alpha + beta * (1 - v)) ** 2 + tb * (c + gamma * v**rl) ** (2 / rl)
    out = best.copy()
    np.minimum.at(out, node, f.astype(float))
    return out


def _exact_k(pair: NormPair, s: float, ts: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """Exact splitting values of x at every t in ``ts``, or None when no
    exact route covers the pair at exponent s (see the module docstring)."""
    sp0, sp1 = pair.space0, pair.space1
    if pair.is_equal and s == sp0.r_exponent:
        return np.minimum(1.0, ts) * sp0.gauge(x)
    a, b = sp0.coordinate_scales(s), sp1.coordinate_scales(s)
    if a is not None and b is not None:
        return _separable_k(a, b, ts, x, s)
    if pair.is_quadratic and s == 2.0:
        mu, back = pair._eigsplit
        y2 = (back @ x) ** 2
        tt = ts[:, None] ** 2
        return np.sqrt(np.sum(mu * tt * y2 / (1.0 + mu * tt), axis=1))
    if pair.is_quadratic and s == 1.0:
        mu, back = pair._eigsplit
        # S(0), S(1): the splits x0 = x, x0 = 0 by the spaces' own gauges, as
        # eigen-coordinates lose digits when the pair is ill-conditioned
        ends = np.minimum(sp0.gauge(x), ts * sp1.gauge(x)) ** 2
        return np.sqrt(_dual_minima(ts[:, None] ** 2 * mu, (back @ x) ** 2, ends))
    if pair.dim <= _MAX_MASK_DIM and (s <= 1.0 or s == 2.0):
        one = np.ones_like(ts)
        if _is_l1_lr(sp0, sp1):
            return _lattice_k(sp0, sp1, s, one, ts, x)
        if _is_l1_lr(sp1, sp0):
            return _lattice_k(sp1, sp0, s, ts, one, x)
    return None


def _dual_minima(a: np.ndarray, y2: np.ndarray, best: np.ndarray) -> np.ndarray:
    """``best`` (S(0) and S(1) below) lowered, node by node, to K_1(t, x)^2
    of a quadratic pair, from ``a = t^2 mu`` (one row per node) and the
    eigen-coordinates y of x (``y2 = y^2``).

    In those coordinates g0(x)^2 = sum_i y_i^2 and g1(x)^2 = sum_i mu_i
    y_i^2, and by duality ``K_1(t, x) = sup <g, y>`` over the g with
    ``sum_i g_i^2 <= 1`` and ``sum_i g_i^2 / mu_i <= t^2``.  For lam in
    [0, 1], the ellipsoid ``sum_i g_i^2 (1 - lam + lam / a_i) <= 1``
    contains that set, so ``S(lam) = sum_i y_i^2 a_i / D_i`` with
    ``D_i = (1 - lam) a_i + lam`` bounds K_1^2 from above; g = 0 is
    strictly feasible, so Lagrange duality holds and K_1^2 is the minimum
    of S (Bergh and Lofstrom, Interpolation Spaces, 1976, ch. 3).  S is
    convex, so one vectorized bisection on the sign of
    ``S'(lam) = -sum_i y_i^2 a_i (1 - a_i) / D_i^2`` finds its minimum,
    and the smallest S over the evaluated lam, S(0) = g0(x)^2 and
    S(1) = t^2 g1(x)^2 included, is never below the infimum beyond
    rounding.
    """
    lo, hi = np.zeros((a.shape[0], 1)), np.ones((a.shape[0], 1))
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        den = (1.0 - mid) * a + mid
        best = np.minimum(best, np.sum(y2 * a / den, axis=1))
        falling = np.sum(y2 * a * (1.0 - a) / den**2, axis=1, keepdims=True) > 0
        np.copyto(lo, mid, where=falling)
        np.copyto(hi, mid, where=~falling)
    return best


def _is_l1_lr(lin: QuasiNormedSpace, cav: QuasiNormedSpace) -> bool:
    return lin.coordinate_scales(1.0) is not None and cav.coordinate_scales(cav.r_exponent) is not None


_XATOL, _FATOL = 1e-10, 1e-14  # Nelder-Mead stop tolerances of the split search


def _search_k(pair: NormPair, ts: np.ndarray, x: np.ndarray, s: float, budget: int) -> np.ndarray:
    """Searched splitting values of x at every t in ``ts``.

    Each node minimizes ``g0(x0)^s + (t g1(x - x0))^s`` with a budgeted
    Nelder-Mead (``minimize``) from the starts 0, x, x/2, (for d <= 8) the
    coordinate masks of x and, after the first node, the best split of the
    previous node.  The starts and results are then valued in one batch
    per space, as the exact routes value their splits (a lone row can round
    differently, and an lr gauge amplifies that by 1/r), and a node keeps
    the first smallest value in the order start, result, start by start.
    """
    sp0, sp1 = pair.space0, pair.space1
    cold = [np.zeros_like(x), x, 0.5 * x]
    if pair.dim <= _MAX_MASK_DIM:
        cold.extend(np.diag(x))
    options = {"maxfev": budget, "xatol": _XATOL, "fatol": _FATOL}
    ks = np.empty(len(ts))
    warm = []
    for i, t in enumerate(ts):

        def objective(x0):
            return sp0.gauge(x0) ** s + (t * sp1.gauge(x - x0)) ** s

        splits = []
        for start in cold + warm:
            splits += [start, minimize(objective, start, method="Nelder-Mead", options=options).x]
        splits = np.array(splits)
        vals = sp0.gauge_many(splits) ** s + (t * sp1.gauge_many(x - splits)) ** s
        best = int(np.argmin(vals))
        ks[i] = vals[best] ** (1.0 / s)  # a scalar power, as array powers round differently
        warm = [splits[best]]
    return ks


def k_functional(
    pair: NormPair,
    s: float,
    t: float,
    x,
    budget: int = 200,
) -> KValue:
    """Splitting value of x at parameter t with exponent s.

    Exact on the routes listed in the module docstring (equal spaces at
    their triangle exponent, per-coordinate scales, quadratic pairs at
    s = 1 and s = 2, weighted l1 against weighted lr pairs at s <= 1 or
    s = 2); ``budget`` then plays no part.  Otherwise a budgeted split
    search returns an upper estimate together with the analytic lower
    bound from the pair's equivalence constants, or 0 when the pair has
    none.
    """
    if not (t > 0):
        raise ValueError("t must be positive")
    budget = as_integer("budget", budget, 1)
    if not (pair.r_exponent <= s < math.inf):  # at s = inf the split's value x ** (1/s) is 1
        raise ValueError("need a finite exponent s >= the pair's triangle exponent")
    v = as_vector(x, pair.dim)
    if not np.any(v):
        return KValue(0.0, 0.0, True)
    ts = np.array([t])
    exact = _exact_k(pair, s, ts, v)
    if exact is not None:
        val = float(exact[0])
        return KValue(val, val, True)
    val = float(_search_k(pair, ts, v, s, budget)[0])
    constants = pair.equivalence_constants()
    if constants is None:
        return KValue(val, 0.0, False)
    c, cap = constants
    r = pair.r_exponent
    scale = 2.0 ** (1.0 / s - 1.0 / r)
    lower = scale * max(
        min(1.0, t * c) * pair.space0.gauge(v),
        min(1.0 / cap, t) * pair.space1.gauge(v),
    )
    return KValue(val, min(lower, val), False)


def theta_norm_constant(theta: float) -> float:
    """Value of the intermediate gauge at 1 for the pair (|.|, |.|) on R."""
    if not (0 < theta < 1):
        raise ValueError("theta must lie in (0, 1)")
    return math.sqrt(theta * (1 - theta) * math.pi / (2.0 * math.sin(math.pi * theta)))


@dataclass(frozen=True)
class ThetaParams:
    """Quadrature layout for the intermediate gauge (from s = 2 splits)."""

    theta: float
    t_min: float = 1e-6
    t_max: float = 1e6
    nodes: int = 400
    budget: int = 200

    def __post_init__(self):
        if not (0 < self.theta < 1):
            raise ValueError("theta must lie in (0, 1)")
        if not (0 < self.t_min <= 1e-4 and 1e4 <= self.t_max < math.inf):
            raise ValueError("the grid must be finite and positive and cover at least [1e-4, 1e4]")
        object.__setattr__(self, "nodes", as_integer("nodes", self.nodes, 50))
        object.__setattr__(self, "budget", as_integer("budget", self.budget, 1))


@dataclass(frozen=True)
class ThetaNormResult:
    value: float
    theta: float
    tail_mass: float  # analytic share of the squared integral
    exact: bool  # node values from an exact route, not the split search


def theta_norm(pair: NormPair, params: ThetaParams, x) -> ThetaNormResult:
    """Intermediate gauge by log-space trapezoid quadrature plus analytic
    tails ``g1(x)^2 t_min^(2-2 theta)/(2-2 theta)`` and
    ``g0(x)^2 t_max^(-2 theta)/(2 theta)``.  The splitting values at the
    nodes come from the exact route when one covers the pair (quadratic
    pairs, per-coordinate scales, and weighted l1 against weighted lr
    pairs, whose s = 2 route bisects along the box edges), else from the
    split search, node by node, each node also started from the best split
    of the one before.  ``params.budget`` applies to the search only;
    ``exact`` says which route ran."""
    v = as_vector(x, pair.dim)
    th = params.theta
    if not np.any(v):
        return ThetaNormResult(0.0, th, 0.0, True)
    ts = np.geomspace(params.t_min, params.t_max, params.nodes)
    ks = _exact_k(pair, 2.0, ts, v)
    exact = ks is not None
    if not exact:
        ks = _search_k(pair, ts, v, 2.0, params.budget)
    u = np.log(ts)
    integrand = ks**2 * np.exp(-2.0 * th * u)
    core = float(np.trapezoid(integrand, u))
    g0x = pair.space0.gauge(v)
    g1x = pair.space1.gauge(v)
    low_tail = g1x**2 * params.t_min ** (2.0 - 2.0 * th) / (2.0 - 2.0 * th)
    high_tail = g0x**2 * params.t_max ** (-2.0 * th) / (2.0 * th)
    total = core + low_tail + high_tail
    value = math.sqrt(th * (1.0 - th) * total)
    tail = (low_tail + high_tail) / total if total > 0 else 0.0
    return ThetaNormResult(value, th, tail, exact)


def quadratic_theta_norm_exact(pair: NormPair, x, theta: float) -> float:
    """Closed form for quadratic pairs: diagonalize (A0, A1) simultaneously
    and sum the one-dimensional values coordinate by coordinate."""
    if not pair.is_quadratic:
        raise ValueError("closed form needs a quadratic pair")
    if not (0 < theta < 1):
        raise ValueError("theta must lie in (0, 1)")
    v = as_vector(x, pair.dim)
    mu, back = pair._eigsplit
    y2 = (back @ v) ** 2
    return theta_norm_constant(theta) * math.sqrt(float(np.sum(mu**theta * y2)))


def diagonal_theta_norm(weights0, weights1, x, theta: float) -> float:
    """Closed form for a pair of diagonal quadratic gauges."""
    w0 = as_vector(weights0)
    w1 = as_vector(weights1, w0.shape[0])
    v = as_vector(x, w0.shape[0])
    if np.any(w0 <= 0) or np.any(w1 <= 0):
        raise ValueError("weights must be positive")
    if not (0 < theta < 1):
        raise ValueError("theta must lie in (0, 1)")
    coeff = w0 ** (1.0 - theta) * w1**theta
    return theta_norm_constant(theta) * math.sqrt(float(np.sum((coeff * v) ** 2)))


@dataclass(frozen=True)
class OperatorInterpolationResult:
    lhs: float  # largest intermediate-gauge amplification found
    rhs: float  # allowed bound: norm0^(1-theta) * norm1^theta
    endpoint0: float
    endpoint1: float
    endpoint_kind: str
    passed: bool


def interp_operator_bound_check(
    matrix,
    source: NormPair,
    target: NormPair,
    theta: float,
    rng: RandomSource = RandomSource(0),
) -> OperatorInterpolationResult:
    """Verify that the intermediate-gauge norm of the operator is bounded
    by the geometric mean of its endpoint norms, on the axes and sampled
    directions (``_OPERATOR_DIRECTIONS`` vectors in all), with the default
    ``ThetaParams(theta)`` quadrature, within a relative slack of
    ``_OPERATOR_TOLERANCE`` (2%).

    The left side, the largest ratio found, is a lower estimate of the
    true intermediate operator norm.  When ``endpoint_kind`` is ``exact``
    the right side is the true bound, so a failure can only come from a
    broken estimator or a false bound.  When it is ``lower-bound`` the
    right side is a product of search lower bounds on the endpoint norms
    and may sit below the true bound, so a failure can also come from a
    search that stopped short.
    """
    m = as_matrix(matrix, rows=target.dim, cols=source.dim)
    params = ThetaParams(theta)
    end0 = op_norm(OperatorSpec(m, source.space0, target.space0), rng=rng.split(0))
    end1 = op_norm(OperatorSpec(m, source.space1, target.space1), rng=rng.split(1))
    n0, n1 = end0.value, end1.value
    rhs = n0 ** (1.0 - theta) * n1**theta
    d = source.dim
    extra = max(_OPERATOR_DIRECTIONS - d, 0)
    pts = np.vstack([np.eye(d), rng.split(2).generator().standard_normal((extra, d))])
    lhs = 0.0
    for p in pts:
        denom = theta_norm(source, params, p).value
        if denom <= 0:
            continue
        lhs = max(lhs, theta_norm(target, params, m @ p).value / denom)
    kind = "exact" if end0.kind == end1.kind == "exact" else "lower-bound"
    passed = lhs <= rhs * (1.0 + _OPERATOR_TOLERANCE)
    return OperatorInterpolationResult(lhs, rhs, n0, n1, kind, passed)


def equal_norms_type(
    space: QuasiNormedSpace,
    p: float,
    n: int,
    budget: int = 6,
    rng: RandomSource = RandomSource(0),
) -> ConstantEstimate:
    """Certified lower bound for the equal-norms variant: the best T with
    ``L2 sign average <= T * N^(1/p) * max_i gauge(x_i)`` over N-tuples."""
    if not (0 < p <= 2):
        raise ValueError("need 0 < p <= 2")
    n, budget = as_integer("n", n, 1, 12), as_integer("budget", budget, 0)
    scale = n ** (1.0 / p)

    def objective(S):
        m = _row_gauges(space, S).max(axis=-1)
        return _guarded_ratio(_sign_averages(space, S, 2.0), scale * m, m > 1e-18)

    return _search_tuples(objective, n, space.dim, budget, rng)

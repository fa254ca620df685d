"""The three benchmark workloads: op templates, output checks, suite configs.

A workload is a fixed list of op templates plus the registered harness
experiments it owns.  One *round* builds every template once from
``RandomSource(seed).split(round, template index)`` and runs the ops back
to back, so every round has the same mix of op kinds and only the inputs
change with the seed.  Each template returns an :class:`Op`: the timed
call, and a check of its output made through an independent route (a
closed form, an analytic bound, or re-evaluation of a witness through
public functions).  Checks run outside the timed and traced region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from qnlab import factorization as fz
from qnlab import geometry as geo
from qnlab import interpolation as itp
from qnlab import randsigns as rs
from qnlab import sidon as sd
from qnlab import spaces as sp
from qnlab.numkernel import RandomSource, orthonormal_complement
from qnlab.spaces import OperatorSpec, Polytope, RConvexAtoms, Schatten, WeightedLp

# Search budgets and sample counts of the library ops.  Changing any of
# them changes the benchmark, so both commits of a comparison must agree.
# theta_norm ops search at 20 evaluations per Nelder-Mead start, so every
# solve iterates well past its d + 1 starting simplex; suite:lemma5 runs at
# 10 (its default, 40, takes about a minute per pass).
THETA_BUDGET = 20
K_BUDGET = 40  # split-search budget of k_functional
CONST_N = 2  # tuple length of the certified sign-average constants
CONST_BUDGET = 1  # random starts budget of the certified constants
OPNORM_BUDGET = 200
GAMMA2_BUDGET = 2
MC_SAMPLES = 200_000
SIGN_SAMPLES = 20_000  # sampled sign averages
SIGN_N = 10  # vectors in a sampled sign average (exact reference <= 12)

TOL = 1e-9  # relative float slack for bounds that hold exactly

# Harness experiments owned by each workload, with the configs they run at
# (the seed is the workload seed).  Every registered experiment belongs to
# exactly one workload; run.py refuses to start otherwise.
SUITES = {
    "interp-search": (
        ("suite:lemma5", {"budget": 10}),
        ("interp", {}),
    ),
    "certify": (
        ("typecotype", {}),
        ("gamma2", {}),
        ("sidon", {}),
        ("suite:theorem6", {}),
        ("suite:theorem8", {}),
        ("suite:lemma1-exponent", {}),
        ("suite:weak-cotype2", {}),
    ),
    "geometry-mc": (
        ("volume", {}),
        ("ellipsoid", {}),
        ("suite:horn", {}),
        ("suite:lemma11", {}),
        ("suite:santalo", {}),
        ("suite:theorem15", {}),
    ),
}


@dataclass
class Op:
    """One library call on generated inputs, with its output check.

    ``check`` returns None when the output is correct and a message when it
    is not.  Monte-Carlo ops also give ``relerr`` (relative standard error
    of the result) and ``z`` (standardized distance from an exact
    reference; ``one_sided`` when the reference is only an upper bound).
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    relerr: Callable[[Any], float] | None = None
    z: Callable[[Any], float] | None = None
    one_sided: bool = False


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float, np.floating)) and math.isfinite(v) for v in values)


def _at_most(a, b, label):
    if not _finite(a, b):
        return f"{label}: non-finite ({a!r}, {b!r})"
    if a > b + TOL * max(1.0, abs(b)):
        return f"{label}: {a!r} > {b!r}"
    return None


def _first(*msgs):
    return next((m for m in msgs if m), None)


# --------------------------------------------------------------------------
# interp-search


def _theta_reference(params, k_sq, g0x, low_gauge_sq):
    """Quadrature, at the library's nodes and tails, of a bound on K^2.

    The tails are ``low_gauge_sq t_min^(2-2 theta)/(2-2 theta)`` and
    ``g0(x)^2 t_max^(-2 theta)/(2 theta)``, as in ``theta_norm``."""
    th = params.theta
    ts = np.geomspace(params.t_min, params.t_max, params.nodes)
    u = np.log(ts)
    core = float(np.trapezoid(k_sq(ts) * np.exp(-2.0 * th * u), u))
    low = low_gauge_sq * params.t_min ** (2.0 - 2.0 * th) / (2.0 - 2.0 * th)
    high = g0x**2 * params.t_max ** (-2.0 * th) / (2.0 * th)
    return math.sqrt(th * (1.0 - th) * (core + low + high))


def _upper_theta(params, g0x, g1x):
    # every split search starts from x0 = 0 and x0 = x: K <= min(g0(x), t g1(x))
    return _theta_reference(params, lambda t: np.minimum(g0x**2, (t * g1x) ** 2), g0x, g1x**2)


def _separable_k_sq(a, b, x):
    """Exact squared s = 2 splitting value of diagonal quadratic scales."""

    def k_sq(ts):
        c = ts[:, None] * b[None, :]
        return np.sum((a * c) ** 2 / (a**2 + c**2) * x**2, axis=1)

    return k_sq


def _theta_params(theta):
    return itp.ThetaParams(theta, nodes=50, t_min=1e-5, t_max=1e5, budget=THETA_BUDGET)


def theta_lattice(r, d, factor):
    """theta_norm on the lattice pair (envelope of l_r^d, l_r^d): searched."""

    def build(rng):
        space = WeightedLp.unweighted(r, d)
        pair = itp.NormPair.from_spaces(space.envelope_space(), space)
        params = _theta_params(factor * r / (2.0 - r))
        x = rng.generator().standard_normal(d)

        def check(res):
            g0x, g1x = float(np.abs(x).sum()), space.gauge(x)
            # g0 is a norm below g1, so K(t) >= g0(x) t / sqrt(1 + t^2)
            lo = _theta_reference(params, lambda t: g0x**2 * t**2 / (1.0 + t**2), g0x, g0x**2)
            return _first(
                _at_most(lo, res.value, "theta_norm below the analytic lower bound"),
                _at_most(res.value, _upper_theta(params, g0x, g1x), "theta_norm above min(g0, t g1)"),
            )

        return Op(f"theta_norm.lattice.r{r:.2f}.d{d}", lambda: itp.theta_norm(pair, params, x), check)

    return build


def theta_weighted_l2(d):
    """theta_norm on a weighted-l2 space pair: an exact route exists, but
    theta_norm searches."""

    def build(rng):
        gen = rng.generator()
        w0, w1 = gen.uniform(0.5, 2.0, d), gen.uniform(0.5, 2.0, d)
        pair = itp.NormPair.from_spaces(WeightedLp(2.0, w0), WeightedLp(2.0, w1))
        params = _theta_params(gen.uniform(0.2, 0.8))
        x = gen.standard_normal(d)

        def check(res):
            a, b = np.sqrt(w0), np.sqrt(w1)
            g0x, g1x = float(np.linalg.norm(a * x)), float(np.linalg.norm(b * x))
            exact = _theta_reference(params, _separable_k_sq(a, b, x), g0x, g1x**2)
            return _first(
                _at_most(exact * (1.0 - 1e-9), res.value, "searched theta_norm below the exact quadrature"),
                _at_most(res.value, _upper_theta(params, g0x, g1x), "theta_norm above min(g0, t g1)"),
            )

        return Op(f"theta_norm.weighted_l2.d{d}", lambda: itp.theta_norm(pair, params, x), check)

    return build


def theta_diagonal(d):
    """theta_norm on an exact quadratic NormPair.diagonal pair."""

    def build(rng):
        gen = rng.generator()
        a, b = gen.uniform(0.5, 2.0, d), gen.uniform(0.5, 2.0, d)
        pair = itp.NormPair.diagonal(a, b)
        params = _theta_params(gen.uniform(0.2, 0.8))
        x = gen.standard_normal(d)

        def check(res):
            g0x, g1x = float(np.linalg.norm(a * x)), float(np.linalg.norm(b * x))
            exact = _theta_reference(params, _separable_k_sq(a, b, x), g0x, g1x**2)
            if not _finite(res.value) or abs(res.value - exact) > 1e-8 * exact:
                return f"exact theta_norm {res.value!r} != quadrature of the closed form {exact!r}"
            return None

        return Op(f"theta_norm.diagonal.d{d}", lambda: itp.theta_norm(pair, params, x), check)

    return build


def k_diagonal(d, s):
    """k_functional on a diagonal quadratic pair: exact at s = 2, searched at s = 1."""

    def build(rng):
        gen = rng.generator()
        a, b = gen.uniform(0.5, 2.0, d), gen.uniform(0.5, 2.0, d)
        pair = itp.NormPair.diagonal(a, b)
        t = float(10.0 ** gen.uniform(-1.0, 1.0))
        x = gen.standard_normal(d)

        def check(kv):
            g0x, g1x = float(np.linalg.norm(a * x)), float(np.linalg.norm(b * x))
            k2 = math.sqrt(float(_separable_k_sq(a, b, x)(np.array([t]))[0]))
            return _first(
                _at_most(kv.lower, kv.value, "KValue.lower above value"),
                _at_most(kv.value, min(g0x, t * g1x), "KValue above min(g0(x), t g1(x))"),
                # the s = 1 infimum dominates the s = 2 one, which is exact here
                _at_most(k2, kv.value, "KValue below the exact s = 2 value"),
                None if s == 1.0 or abs(kv.value - k2) <= 1e-9 * k2 else "exact s = 2 KValue off the closed form",
            )

        return Op(f"k_functional.diagonal.s{s:g}.d{d}", lambda: itp.k_functional(pair, s, t, x, budget=K_BUDGET), check)

    return build


def sampled_signs(p, d):
    """Monte-Carlo sign average, checked against exact enumeration."""

    def build(rng):
        space = WeightedLp.unweighted(p, d)
        vecs = rng.split(0).generator().standard_normal((SIGN_N, d))
        mc_rng = rng.split(1)

        def z(res):
            g2 = space.gauge_many(rs.sign_patterns(SIGN_N) @ vecs) ** 2
            mean = float(g2.mean())
            se = float(g2.std()) / math.sqrt(SIGN_SAMPLES) / (2.0 * math.sqrt(mean))
            return (res.value - math.sqrt(mean)) / se

        def check(res):
            if not _finite(res.value, res.stderr) or res.value <= 0 or res.samples != SIGN_SAMPLES:
                return f"bad sampled sign average {res!r}"
            return None

        return Op(
            f"rademacher_average.sampled.p{p:.2f}.d{d}",
            lambda: rs.rademacher_average(space, vecs, 2.0, "sampled", mc_rng, SIGN_SAMPLES),
            check,
            relerr=lambda res: res.stderr / res.value,
            z=z,
        )

    return build


INTERP_SEARCH = (
    [theta_lattice(r, d, f) for r in (0.5, 2.0 / 3.0) for d in (2, 3) for f in (0.7, 0.95, 1.3)]
    + [theta_weighted_l2(d) for d in (2, 3)]
    # few fast ops, so that the median latency falls inside the searched group
    + [theta_diagonal(d) for d in (2, 3)]
    + [k_diagonal(3, 1.0), k_diagonal(2, 2.0)]
    # two draws of each, so that the Monte-Carlo metric is a median of 20+
    + [sampled_signs(p, 3) for p in (0.5, 2.0 / 3.0) for _ in range(2)]
)


# --------------------------------------------------------------------------
# certify


def _space(family, d):
    if family == "euclidean":
        return WeightedLp.euclidean(d)
    return WeightedLp.unweighted({"l1/2": 0.5, "l2/3": 2.0 / 3.0}[family], d)


def _l2_average(space, vectors):
    return rs.rademacher_average(space, vectors, 2.0).value


def _witness_value(name, u, n, w):
    """Re-evaluate a certified constant's witness through public functions."""
    m = np.asarray(u.matrix)
    if name == "type2_lower":
        den = math.sqrt(sum(u.source.gauge(x) ** 2 for x in w))
        return _l2_average(u.target, w @ m.T) / den if den > 1e-18 else 0.0
    if name == "cotype2_lower":
        den = _l2_average(u.source, w)
        num = math.sqrt(sum(u.target.gauge(m @ x) ** 2 for x in w))
        return num / den if den > 1e-18 else 0.0
    if name == "kconvexity_lower":
        pats = rs.sign_patterns(n)
        den = math.sqrt(float(np.mean(u.source.gauge_many(w) ** 2)))
        proj = pats @ ((pats.T @ (w @ m.T)) / pats.shape[0])
        return math.sqrt(float(np.mean(u.target.gauge_many(proj) ** 2))) / den if den > 1e-18 else 0.0
    raise ValueError(name)


def constant(name, family, d, n=CONST_N):
    """A certified sign-average constant of an identity; the witness must
    reproduce the value, and Euclidean constants (exactly 1) bound it."""

    def build(rng):
        space = _space(family, d) if isinstance(family, str) else family(rng.split(0), d)
        u = OperatorSpec.identity(space)
        search_rng = rng.split(1)
        euclidean = family == "euclidean"
        if name == "equal_norms_type":
            p = min(getattr(space, "p", 2.0), 2.0)
            call = lambda: itp.equal_norms_type(space, p, n, CONST_BUDGET, search_rng)  # noqa: E731

            def reeval(w):
                return _l2_average(space, w) / (n ** (1.0 / p) * float(np.max(space.gauge_many(w))))
        else:
            fn = getattr(rs, name)
            call = lambda: fn(u, n, CONST_BUDGET, search_rng)  # noqa: E731

            def reeval(w):
                return _witness_value(name, u, n, w)

        def check(est):
            if est.kind != "certified-lower-bound" or not _finite(est.value):
                return f"bad estimate {est.kind} {est.value!r}"
            return _first(
                _at_most(est.value, reeval(np.asarray(est.witness)), "witness re-evaluates below the value"),
                None if name == "equal_norms_type" else _at_most(1.0, est.value, "constant below 1"),
                _at_most(est.value, 1.0, "Euclidean constant above 1") if euclidean else None,
            )

        label = family if isinstance(family, str) else family.__name__.strip("_")
        return Op(f"{name}.{label}.d{d}", call, check)

    return build


def _ratio_floor(u, xs):
    m = np.asarray(u.matrix)
    return max(u.target.gauge(m @ x) / u.source.gauge(x) for x in xs)


def op_norm_gaussian(p, q, ds, dt):
    """op_norm of a seeded Gaussian operator l_p^ds -> l_q^dt."""

    def build(rng):
        m = rng.split(0).generator().standard_normal((dt, ds))
        u = OperatorSpec(m, WeightedLp.unweighted(p, ds), WeightedLp.unweighted(q, dt))
        search_rng = rng.split(1)

        def check(res):
            if res.kind not in ("exact", "lower-bound") or not _finite(res.value):
                return f"bad op_norm {res!r}"
            eye = np.eye(ds)
            xs = [np.ones(ds), *eye, *-eye]
            if res.kind == "exact":  # an exact norm dominates every ratio
                xs += list(rng.split(2).generator().standard_normal((64, ds)))
            return _at_most(_ratio_floor(u, xs), res.value, f"{res.kind} op_norm below a witnessed ratio")

        return Op(f"op_norm.l{p:g}.l{q:g}", lambda: fz.op_norm(u, budget=OPNORM_BUDGET, rng=search_rng), check)

    return build


def gamma2_gaussian(p, q, ds, dt):
    def build(rng):
        m = rng.split(0).generator().standard_normal((dt, ds))
        u = OperatorSpec(m, WeightedLp.unweighted(p, ds), WeightedLp.unweighted(q, dt))
        search_rng = rng.split(1)

        def check(g):
            w = g.witness
            msg = _first(
                _at_most(g.lower, g.upper, "gamma2 lower above upper"),
                None if np.allclose(w.v @ w.w, m, atol=1e-9 * max(1.0, np.abs(m).max())) else "v @ w does not reproduce the operator",
            )
            if msg is None and g.certified:
                msg = _at_most(abs(w.product - g.upper), 0.0, "certified upper differs from the witness product")
            return msg

        return Op(f"gamma2_upper.l{p:.2f}.l{q:g}", lambda: fz.gamma2_upper(u, budget=GAMMA2_BUDGET, rng=search_rng), check)

    return build


def euclidean_distance_of(make, label):
    def build(rng):
        space = make(rng.split(0))
        search_rng = rng.split(1)

        def check(br):
            return _first(
                _at_most(1.0, br.lower, "distance below 1"),
                _at_most(br.lower, br.upper, "distance bracket inverted") if br.certified else None,
            )

        return Op(f"euclidean_distance.{label}", lambda: fz.euclidean_distance(space, budget=GAMMA2_BUDGET, rng=search_rng), check)

    return build


def _weighted(p, d):
    return lambda rng: WeightedLp(p, rng.generator().uniform(0.5, 2.0, d))


def _polytope(rng, d):
    """Seeded symmetric polytope: +-v for d + 2 Gaussian v, plus +-e_i to span."""
    v = np.vstack([rng.generator().standard_normal((d + 2, d)), np.eye(d)])
    return Polytope(np.vstack([v, -v]))


def _schatten(rng, d):
    """The Schatten 1/2-ball of 2 x d/2 matrices (no seeded parameters)."""
    return Schatten(0.5, 2, d // 2)


def envelope_distance_atoms(d):
    def build(rng):
        # r = 1/2 hull of four Gaussian atoms
        space = RConvexAtoms(rng.split(0).generator().standard_normal((4, d)), 0.5)
        search_rng = rng.split(1)

        def check(est):
            w = np.asarray(est.witness)
            again = space.gauge(w) / space.envelope_gauge(w)
            return _first(
                _at_most(1.0, est.value, "envelope distance below 1"),
                _at_most(est.value, again, "witness re-evaluates below the value"),
            )

        return Op(f"envelope_distance.atoms.d{d}", lambda: fz.envelope_distance(space, budget=2, rng=search_rng), check)

    return build


def sidon_random(k):
    """sidon_constant of a seeded k-element character set on z2^k."""

    def build(rng):
        group = sd.FiniteAbelianGroup((2,) * k)
        codes = rng.generator().choice(np.arange(1, 2**k), size=k, replace=False)
        chars = tuple(sd.Character(tuple((int(c) >> j) & 1 for j in range(k))) for c in codes)

        def check(res):
            re, _ = sd.character_matrix(group, chars)
            mu = np.asarray(res.measure)
            defect = float(np.abs(re.T @ mu - np.asarray(res.pattern)).max())
            return _first(
                None if defect <= 1e-7 else f"measure misses its pattern by {defect:.2e}",
                None if abs(np.abs(mu).sum() - res.value) <= 1e-7 * res.value else "measure mass differs from the value",
                _at_most(1.0, res.value, "interpolation constant below 1"),
            )

        return Op(f"sidon_constant.z2^{k}", lambda: sd.sidon_constant(group, chars), check)

    return build


CERTIFY = (
    # Latin square: every constant sees each space family once, at varying dims.
    [constant("type2_lower", f, d) for f, d in (("euclidean", 2), ("l1/2", 3), ("l2/3", 4))]
    + [constant("cotype2_lower", f, d) for f, d in (("euclidean", 3), ("l1/2", 4), ("l2/3", 2))]
    + [constant("kconvexity_lower", f, d) for f, d in (("euclidean", 4), ("l1/2", 2), ("l2/3", 3))]
    + [constant("equal_norms_type", f, d) for f, d in (("euclidean", 2), ("l1/2", 3), ("l2/3", 4))]
    # the Polytope share: cotype2_lower solves one LP per scalar target gauge,
    # kconvexity_lower evaluates facets in bulk; a Schatten ball takes one
    # SVD per point
    + [constant("cotype2_lower", _polytope, 2, n=1), constant("kconvexity_lower", _polytope, 3)]
    + [constant("kconvexity_lower", _schatten, 4)]
    + [
        op_norm_gaussian(0.5, 2.0, 3, 3),
        op_norm_gaussian(2.0, math.inf, 3, 3),
        op_norm_gaussian(2.0, 2.0, 3, 4),
        op_norm_gaussian(3.0, 1.0, 2, 3),
        op_norm_gaussian(3.0, 2.0, 3, 3),
        op_norm_gaussian(3.0, 0.5, 3, 2),
    ]
    + [
        gamma2_gaussian(0.5, 2.0, 3, 3),
        gamma2_gaussian(2.0 / 3.0, 1.0, 3, 3),
        gamma2_gaussian(3.0, 1.0, 2, 3),
    ]
    # three draws of the slow, steady l_3 -> l_2 route: with the Polytope
    # cotype and the envelope distance they are the five slowest templates,
    # which carry most of the weight of the 90th latency percentile, so that
    # templates whose time varies with their inputs carry little
    + [gamma2_gaussian(3.0, 2.0, 3, 3) for _ in range(3)]
    + [euclidean_distance_of(_weighted(p, 3), f"l{p:.2f}") for p in (0.5, 2.0 / 3.0, 1.0)]
    + [envelope_distance_atoms(2)]
    + [sidon_random(k) for k in (3, 4, 4, 5)]
    + [sampled_signs(p, d) for p, d in ((0.5, 3), (2.0 / 3.0, 3), (1.0, 4)) for _ in range(2)]
)


# --------------------------------------------------------------------------
# geometry-mc


def _mc_op(kind, make_space, samples, reference):
    """Monte-Carlo volume of a seeded ball.

    ``reference(space)`` gives (value, proposal volume, exact?) where exact
    references are checked two-sided and an upper bound one-sided.
    """

    def build(rng):
        space = make_space(rng.split(0))
        mc_rng = rng.split(1)

        def z(res):
            ref, vol_e, exact = reference(space)
            if exact:
                p = ref / vol_e  # binomial stderr at the true hit rate
                return (res.value - ref) / (vol_e * math.sqrt(p * (1.0 - p) / samples))
            return (res.value - ref) / res.stderr if res.stderr > 0 else -math.inf

        def check(res):
            if res.method != "monte-carlo" or res.samples != samples or not _finite(res.value, res.stderr):
                return f"bad Monte-Carlo estimate {res!r}"
            if res.value <= 0 or res.stderr <= 0:
                return f"Monte-Carlo estimate without hits {res!r}"
            return None

        return Op(
            kind,
            lambda: geo.volume(space, "monte-carlo", mc_rng, samples),
            check,
            relerr=lambda res: res.stderr / res.value,
            z=z,
            one_sided=reference is _envelope_bound,
        )

    return build


def _closed_form(space):
    return geo.volume(space, "auto").value, geo.mvee_of_ball(space).volume(), True


def _triangulated(space):
    return geo.volume(space, "triangulation").value, geo.mvee_of_ball(space).volume(), True


def _envelope_bound(space):
    # the r-convex hull lies inside the convex hull of the same atoms
    return geo.volume(space.envelope_space(), "triangulation").value, None, False


def _quotient_of(p, d):
    def make(rng):
        return sp.quotient(WeightedLp.unweighted(p, d), rng.generator().standard_normal((1, d)))

    return make


def mc_lp(p, d, samples=MC_SAMPLES):
    return _mc_op(f"volume.mc.l{p:.2f}.d{d}", _weighted(p, d), samples, _closed_form)


def quotient_op(p, d):
    def build(rng):
        base = WeightedLp.unweighted(p, d)
        kernel = rng.generator().standard_normal((2, d))

        def check(q):
            # the quotient ball is the projection of the ball, so the projected
            # generators lie in it and the outermost ones on its boundary
            if q.dim != d - 2:
                return f"quotient has dim {q.dim}"
            gens = base.envelope_atoms() @ orthonormal_complement(kernel, d).T
            g = q.gauge_many(gens)
            return _first(
                _at_most(float(g.max()), 1.0, "a projected generator lies outside the quotient ball"),
                _at_most(1.0, float(g.max()), "no projected generator on the quotient boundary"),
            )

        return Op(f"quotient.l{p:g}.d{d}", lambda: sp.quotient(base, kernel), check)

    return build


def mvee_polytope(d):
    def build(rng):
        space = _polytope(rng, d)

        def check(ell):
            q = ell.quadratic_form(np.asarray(space.vertices))
            return _first(
                _at_most(float(q.max()), 1.0, "a vertex lies outside the enclosing ellipsoid"),
                _at_most(1.0, float(q.max()), "the enclosing ellipsoid touches no vertex"),
            )

        return Op(f"mvee_of_ball.polytope.d{d}", lambda: geo.mvee_of_ball(space), check)

    return build


def inscribed_polytope(d):
    def build(rng):
        space = _polytope(rng.split(0), d)
        dirs = rng.split(1).generator().standard_normal((256, d))

        def check(res):
            boundary = dirs * res.ellipsoid.boundary_radii(dirs)[:, None]
            worst = float(np.max(np.asarray(space.facet_normals) @ boundary.T))
            return _at_most(worst, 1.0, "inscribed ellipsoid leaves the polytope")

        return Op(f"inscribed_ellipsoid.polytope.d{d}", lambda: geo.inscribed_ellipsoid(space), check)

    return build


def santalo_polytope(d):
    def build(rng):
        space = _polytope(rng, d)
        return Op(
            f"santalo_check.polytope.d{d}",
            lambda: geo.santalo_check(space),
            lambda res: None if res.passed and _finite(res.outer_ratio, res.dual_inner_ratio) else f"santalo failed {res!r}",
        )

    return build


def horn_batch(pairs=6, n=4):
    """A batch of horn_check calls: every k for seeded matrix pairs."""

    def build(rng):
        gen = rng.generator()
        mats = gen.standard_normal((pairs, 2, n, n))
        ps = gen.uniform(0.1, 1.0, pairs)

        def call():
            return [sp.horn_check(a, b, p, k) for (a, b), p in zip(mats, ps) for k in range(1, n + 1)]

        def check(results):
            bad = [r for r in results if not (r.passed and _finite(r.lhs, r.rhs))]
            return f"{len(bad)} Horn checks failed" if bad else None

        return Op("horn_check.batch", call, check)

    return build


def split_volume_batch(beta, d):
    """section_projection_volume_check over every proper coordinate subset."""

    def build(rng):
        space = WeightedLp(1.0 / beta, rng.generator().uniform(0.5, 2.0, d))
        subsets = [[i for i in range(d) if mask >> i & 1] for mask in range(1, 2**d - 1)]

        def call():
            return [geo.section_projection_volume_check(space, s) for s in subsets]

        def check(results):
            bad = [r for r in results if not (r.passed and _finite(r.ratio))]
            return f"{len(bad)} split-volume checks failed" if bad else None

        return Op(f"section_projection_volume_check.batch.b{beta}", call, check)

    return build


GEOMETRY_MC = (
    # two seeded weightings of each small ball
    [mc_lp(p, d) for p in (0.5, 2.0 / 3.0, 1.0) for d in (3, 4) for _ in range(2)]
    # the slow fifth of the ops: million-sample volumes and quotient balls
    + [mc_lp(p, 5, samples=1_000_000) for p in (0.5, 2.0 / 3.0, 1.0)]
    + [
        _mc_op("volume.mc.quotient.l1.d5", _quotient_of(1.0, 5), 500_000, _triangulated),
        _mc_op("volume.mc.quotient.l0.50.d4", _quotient_of(0.5, 4), 25_000, _envelope_bound),
    ]
    + [quotient_op(1.0, 5), quotient_op(0.5, 4)]
    + [mvee_polytope(d) for d in (3, 5)]
    + [inscribed_polytope(3), santalo_polytope(3)]
    + [horn_batch(), split_volume_batch(2, 4)]
)

WORKLOADS = {"interp-search": INTERP_SEARCH, "certify": CERTIFY, "geometry-mc": GEOMETRY_MC}


def build_round(workload: str, seed: int, round_index: int) -> list[Op]:
    """Fresh inputs for one round: the same op kinds for every seed."""
    root = RandomSource(seed)
    return [build(root.split(round_index, j)) for j, build in enumerate(WORKLOADS[workload])]

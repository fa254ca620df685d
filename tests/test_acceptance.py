"""Acceptance gate: ten numbered end-to-end checks, one per criterion.

Each test exercises a full pipeline at its stated tolerance and emits a
single summary line ``criterion NN [PASS|FAIL] <detail>``.  The lines are
collected in SUMMARY_LINES and printed as an "acceptance criteria" section
at the end of the pytest run (see conftest.py); on failure the same line
is the assertion message.

All randomness is seeded through RandomSource, so every check is
deterministic and the gate either always passes or always fails for a
given build.
"""

import itertools
import math
import sys
import time

import numpy as np

from qnlab.factorization import (
    approx_numbers,
    envelope_distance,
    euclidean_distance,
    gamma2_upper,
)
from qnlab.geometry import (
    mvee,
    santalo_check,
    section_projection_volume_check,
    volume,
)
from qnlab.harness import ExperimentConfig, run
from qnlab.interpolation import (
    NormPair,
    ThetaParams,
    interp_operator_bound_check,
    theta_norm,
    theta_norm_constant,
)
from qnlab.numkernel import RandomSource, svd
from qnlab.randsigns import (
    cotype2_lower,
    kconvexity_lower,
    rademacher_average,
    type2_lower,
)
from qnlab.sidon import (
    FiniteAbelianGroup,
    coordinate_characters,
    cp_ratio,
    sidon_constant,
)
from qnlab.spaces import OperatorSpec, Polytope, WeightedLp, horn_check


SUMMARY_LINES: list[str] = []


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}"
    SUMMARY_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_monte_carlo_lp_ball_volumes():
    """Monte-Carlo volume of unweighted Lp balls (p in {1/2, 2/3, 1, 2},
    dim 2-4, 1e6 samples) within 5% of the closed form, each run < 10 s."""
    worst_rel = 0.0
    slowest = 0.0
    runs = 0
    for p in (0.5, 2.0 / 3.0, 1.0, 2.0):
        for dim in (2, 3, 4):
            space = WeightedLp.unweighted(p, dim)
            exact = (2.0 * math.gamma(1.0 + 1.0 / p)) ** dim / math.gamma(
                1.0 + dim / p
            )
            start = time.perf_counter()
            est = volume(
                space,
                method="monte-carlo",
                rng=RandomSource(101, (runs,)),
                samples=1_000_000,
            )
            elapsed = time.perf_counter() - start
            worst_rel = max(worst_rel, abs(est.value - exact) / exact)
            slowest = max(slowest, elapsed)
            runs += 1
    ok = worst_rel <= 0.05 and slowest < 10.0
    _report(
        1,
        ok,
        f"{runs} Monte-Carlo Lp ball volumes at 1e6 samples: worst rel err "
        f"{worst_rel:.2e} (tol 5e-2), slowest run {slowest:.2f}s (limit 10s)",
    )


def test_criterion_02_enclosing_ellipsoids_cross_and_cube():
    """Enclosing ellipsoid of cross-polytope and cube vertex sets, dims 2-4:
    shape within 1e-4 of the closed form, inputs inside within 1+1e-6, and
    two-sided round-body containment on 1000 seeded directions."""
    worst_shape = 0.0
    worst_inside = 0.0
    min_outer = math.inf  # gauge of ellipsoid boundary: ball inside ellipsoid
    max_inner = 0.0  # gauge of boundary/sqrt(dim): shrunk ellipsoid inside ball
    cases = 0
    for dim in (2, 3, 4):
        cross = np.vstack([np.eye(dim), -np.eye(dim)])
        cube = np.array(list(itertools.product((-1.0, 1.0), repeat=dim)))
        for points, target_shape, space in (
            (cross, np.eye(dim), WeightedLp.unweighted(1.0, dim)),
            (cube, np.eye(dim) / dim, WeightedLp.unweighted(math.inf, dim)),
        ):
            ell = mvee(points)
            worst_shape = max(
                worst_shape, float(np.abs(ell.shape - target_shape).max())
            )
            worst_inside = max(
                worst_inside, float(np.sqrt(ell.quadratic_form(points)).max())
            )
            dirs = RandomSource(202, (dim, cases)).generator().standard_normal(
                (1000, dim)
            )
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            boundary = dirs * ell.boundary_radii(dirs)[:, None]
            min_outer = min(min_outer, float(space.gauge_many(boundary).min()))
            max_inner = max(
                max_inner,
                float(space.gauge_many(boundary / math.sqrt(dim)).max()),
            )
            cases += 1
    ok = (
        worst_shape <= 1e-4
        and worst_inside <= 1.0 + 1e-6
        and min_outer >= 1.0 - 1e-9
        and max_inner <= 1.0 + 1e-9
    )
    _report(
        2,
        ok,
        f"{cases} vertex sets: shape err {worst_shape:.2e} (tol 1e-4), inputs "
        f"inside {worst_inside:.9f} (tol 1+1e-6), containment gauges "
        f"[{min_outer:.9f}, {max_inner:.9f}] vs [1-1e-9, 1+1e-9] "
        f"on 1000 directions each",
    )


def test_criterion_03_coordinate_split_volume_bounds():
    """For p = 1/beta (beta in {1,2,3}) and every proper coordinate subset of
    the unweighted ball in dim <= 4: section x projection / full volume stays
    below the binomial bound and reproduces it within 1%."""
    checks = 0
    worst_rel = 0.0
    all_passed = True
    for beta in (1, 2, 3):
        for n in (2, 3, 4):
            space = WeightedLp.unweighted(1.0 / beta, n)
            for size in range(1, n):
                for subset in itertools.combinations(range(n), size):
                    res = section_projection_volume_check(space, subset)
                    all_passed = all_passed and res.passed
                    worst_rel = max(
                        worst_rel, abs(res.ratio - res.bound) / res.bound
                    )
                    checks += 1
    ok = all_passed and worst_rel <= 0.01
    _report(
        3,
        ok,
        f"{checks} coordinate splits across beta in {{1,2,3}}, dims 2-4: all "
        f"below the binomial bound, worst equality gap {worst_rel:.2e} "
        f"(tol 1e-2)",
    )


def test_criterion_04_polar_volume_comparison():
    """Outer round-body ratio of X at least the inner ratio of the dual on
    100 seeded random symmetric polytopes in dims 2-3, exact volume paths."""
    failures = 0
    for i in range(100):
        dim = 2 + (i % 2)
        pairs = dim + 2 + (i % 3)
        gen = RandomSource(404, (i,)).generator()
        vertices = gen.standard_normal((pairs, dim))
        poly = Polytope(np.vstack([vertices, -vertices]))
        if not santalo_check(poly).passed:
            failures += 1
    ok = failures == 0
    _report(
        4,
        ok,
        f"100 seeded symmetric polytopes (dims 2-3, exact volumes): "
        f"{failures} failures of outer >= dual inner",
    )


def test_criterion_05_theta_norm_constant_sandwich_and_operator_bound():
    """(a) 1-dim equal-norm intermediate gauge matches
    sqrt(theta (1-theta) pi / (2 sin pi theta)) |x| within 1e-3;
    (b) equal-gauge ratio sandwich and (c) endpoint product bound hold on
    100 seeded diagonal instances with <= 2% slack."""
    thetas = (0.25, 0.5, 0.75)
    pair_1d = NormPair.diagonal([1.0], [1.0])
    worst_const = 0.0
    for theta in thetas:
        got = theta_norm(pair_1d, ThetaParams(theta), [1.0]).value
        want = theta_norm_constant(theta)
        worst_const = max(worst_const, abs(got - want) / want)

    # r_exponent is 1 for quadratic pairs, so the two-sided comparison of the
    # s=2 split functional against the r-split one sandwiches the ratio
    # (intermediate gauge) / (common gauge) in [2^(1/2-1) / sqrt2, 1/sqrt2].
    lo = 0.5 * (1.0 - 0.02)
    hi = (1.0 / math.sqrt(2.0)) * (1.0 + 0.02)
    sandwich_bad = 0
    product_bad = 0
    for i in range(100):
        gen = RandomSource(505, (i,)).generator()
        dim = 2 + (i % 3)
        theta = thetas[i % 3]
        scales = np.exp(gen.uniform(-1.0, 1.0, size=dim))
        x = gen.standard_normal(dim)
        pair_equal = NormPair.diagonal(scales, scales)
        ratio = (
            theta_norm(pair_equal, ThetaParams(theta), x).value
            / pair_equal.space0.gauge(x)
        )
        if not (lo <= ratio <= hi):
            sandwich_bad += 1
        source = NormPair.diagonal(scales, np.exp(gen.uniform(-1.0, 1.0, dim)))
        target = NormPair.diagonal(
            np.exp(gen.uniform(-1.0, 1.0, dim)),
            np.exp(gen.uniform(-1.0, 1.0, dim)),
        )
        matrix = np.diag(np.exp(gen.uniform(-1.0, 1.0, dim)))
        res = interp_operator_bound_check(
            matrix,
            source,
            target,
            theta,
            rng=RandomSource(506, (i,)),
        )
        if not res.passed:
            product_bad += 1
    ok = worst_const <= 1e-3 and sandwich_bad == 0 and product_bad == 0
    _report(
        5,
        ok,
        f"1-dim constant worst rel err {worst_const:.2e} (tol 1e-3); "
        f"ratio sandwich [{lo:.3f}, {hi:.3f}]: {100 - sandwich_bad}/100; "
        f"endpoint product bound at 2% slack: {100 - product_bad}/100",
    )


def test_criterion_06_singular_value_partial_sums():
    """Partial sums of p-th powers of singular values of a product stay below
    the paired product sums (slack 1e-9) on 1000 seeded 4x4 pairs,
    p in {1/3, 1/2, 1}, every truncation k."""
    checks = 0
    failures = 0
    for i in range(1000):
        gen = RandomSource(606, (i,)).generator()
        a = gen.standard_normal((4, 4))
        b = gen.standard_normal((4, 4))
        for p in (1.0 / 3.0, 0.5, 1.0):
            for k in (1, 2, 3, 4):
                if not horn_check(a, b, p, k).passed:
                    failures += 1
                checks += 1
    ok = failures == 0
    _report(
        6,
        ok,
        f"{checks} partial-sum checks on 1000 seeded 4x4 pairs "
        f"(p in {{1/3, 1/2, 1}}, all k, slack 1e-9): {failures} failures",
    )


def test_criterion_07_factorization_and_distance_brackets():
    """Identity on Euclidean space factors with constant 1 (1e-6); the
    two-sided Euclidean comparison constant of the 2-dim max and sum norms is
    at most sqrt(2) + 0.01; the convex-envelope distance reaches 98% of
    n^(1/p - 1) on small concave-gauge balls."""
    worst_identity = 0.0
    for d in (2, 3, 4, 5, 6):
        res = gamma2_upper(
            OperatorSpec.identity(WeightedLp.euclidean(d)), rng=RandomSource(707, (d,))
        )
        worst_identity = max(worst_identity, abs(res.upper - 1.0))
    limit = math.sqrt(2.0) + 0.01
    worst_distance = 0.0
    for p in (math.inf, 1.0):
        bracket = euclidean_distance(
            WeightedLp.unweighted(p, 2), rng=RandomSource(708, (int(p == 1.0),))
        )
        worst_distance = max(worst_distance, bracket.upper)
    envelope_ok = True
    ratios = []
    for dim, p in ((2, 0.5), (3, 0.5), (2, 2.0 / 3.0)):
        want = dim ** (1.0 / p - 1.0)
        got = envelope_distance(
            WeightedLp.unweighted(p, dim), rng=RandomSource(709, (dim,))
        ).value
        ratios.append(got / want)
        envelope_ok = envelope_ok and got >= 0.98 * want
    ok = worst_identity <= 1e-6 and worst_distance <= limit and envelope_ok
    _report(
        7,
        ok,
        f"identity factorization off by {worst_identity:.2e} (tol 1e-6) for "
        f"dims 2-6; Euclidean distance upper {worst_distance:.6f} "
        f"(limit {limit:.6f}); envelope distance ratios "
        f"{', '.join(f'{r:.4f}' for r in ratios)} (floor 0.98)",
    )


def test_criterion_08_sign_averages_and_approximation_numbers():
    """Exact vs sampled sign averages within 4 standard errors on 100 seeded
    instances; Euclidean two-sided sign-average constants and the projection
    constant equal 1 within 1e-9 up to N = 6; approximation numbers equal
    singular values exactly for Euclidean source and target."""
    sampling_bad = 0
    for i in range(100):
        gen = RandomSource(808, (i,)).generator()
        dim = 2 + (i % 2)
        p = (1.0, 2.0, math.inf, 0.5)[i % 4]
        space = WeightedLp.unweighted(p, dim)
        n = 2 + (i % 3)
        vectors = gen.standard_normal((n, dim))
        q = (1.0, 2.0, 4.0)[i % 3]
        exact = rademacher_average(space, vectors, q).value
        sampled = rademacher_average(
            space,
            vectors,
            q,
            mode="sampled",
            rng=RandomSource(809, (i,)),
            samples=20_000,
        )
        if abs(sampled.value - exact) > 4.0 * sampled.stderr + 1e-12:
            sampling_bad += 1

    ident6 = OperatorSpec.identity(WeightedLp.euclidean(3))
    worst_const = 0.0
    for n in range(1, 7):
        worst_const = max(
            worst_const,
            abs(type2_lower(ident6, n, rng=RandomSource(810, (n,))).value - 1.0),
            abs(cotype2_lower(ident6, n, rng=RandomSource(811, (n,))).value - 1.0),
            abs(
                kconvexity_lower(ident6, n, rng=RandomSource(812, (n,))).value
                - 1.0
            ),
        )

    worst_approx = 0.0
    kinds_exact = True
    for j, shape in enumerate(((4, 4), (3, 4))):
        gen = RandomSource(813, (j,)).generator()
        matrix = gen.standard_normal(shape)
        u = OperatorSpec(
            matrix,
            WeightedLp.euclidean(shape[1]),
            WeightedLp.euclidean(shape[0]),
        )
        singular = svd(matrix)[0]
        for k in range(1, min(shape) + 1):
            res = approx_numbers(u, k)
            kinds_exact = kinds_exact and res.kind == "exact"
            worst_approx = max(worst_approx, abs(res.value - singular[k - 1]))
    ok = (
        sampling_bad == 0
        and worst_const <= 1e-9
        and kinds_exact
        and worst_approx <= 1e-12
    )
    _report(
        8,
        ok,
        f"exact vs sampled sign averages: {100 - sampling_bad}/100 within 4 "
        f"stderr; Euclidean two-sided/projection constants off by "
        f"{worst_const:.2e} (tol 1e-9) up to N=6; approximation numbers vs "
        f"singular values off by {worst_approx:.2e} (exact kind: {kinds_exact})",
    )


def test_criterion_09_character_interpolation_and_moment_ratios():
    """Coordinate characters on sign groups of rank <= 4 interpolate with
    constant 1 (1e-6); the group-moment to sign-moment ratio is exactly 1.0
    across 20 seeded spaces and p in {1/2, 1, 2, inf}."""
    worst_sidon = 0.0
    for n in (1, 2, 3, 4):
        group = FiniteAbelianGroup((2,) * n)
        res = sidon_constant(group, coordinate_characters(group))
        worst_sidon = max(worst_sidon, abs(res.value - 1.0))

    exact_hits = 0
    total = 0
    for i in range(20):
        gen = RandomSource(909, (i,)).generator()
        rank = 2 + (i % 3)
        group = FiniteAbelianGroup((2,) * rank)
        chars = coordinate_characters(group)
        dim = 2 + (i % 3)
        kind = i % 4
        if kind == 0:
            space = WeightedLp(0.5, np.exp(gen.uniform(-1.0, 1.0, dim)))
        elif kind == 1:
            space = WeightedLp(1.0, np.exp(gen.uniform(-1.0, 1.0, dim)))
        elif kind == 2:
            space = WeightedLp(2.0, np.exp(gen.uniform(-1.0, 1.0, dim)))
        else:
            verts = gen.standard_normal((dim + 2, dim))
            space = Polytope(np.vstack([verts, -verts]))
        vectors = gen.standard_normal((len(chars), dim))
        for p in (0.5, 1.0, 2.0, math.inf):
            ratio = cp_ratio(group, chars, space, p, vectors).ratio
            exact_hits += 1 if ratio == 1.0 else 0
            total += 1
    ok = worst_sidon <= 1e-6 and exact_hits == total
    _report(
        9,
        ok,
        f"coordinate-character interpolation constant off by {worst_sidon:.2e} "
        f"(tol 1e-6) for ranks 1-4; moment ratio exactly 1.0 in "
        f"{exact_hits}/{total} space/exponent combinations",
    )


def test_criterion_10_observational_suites():
    """The six observational suites complete deterministically, carry the
    no-threshold statement in their headers, and emit finite monotone trend
    data; they assert no numeric verdicts."""
    names = (
        "suite:theorem6",
        "suite:theorem8",
        "suite:theorem15",
        "suite:lemma1-exponent",
        "suite:lemma5",
        "suite:weak-cotype2",
    )
    problems = []
    for name in names:
        config = ExperimentConfig(experiment=name, seed=0)
        first = run(config)
        second = run(config)
        if first.records != second.records or first.header != second.header:
            problems.append(f"{name}: nondeterministic")
        if first.passed is not None or first.verdicts != ():
            problems.append(f"{name}: emitted a numeric verdict")
        if "observational" not in first.header or (
            "no numeric threshold" not in first.header
        ):
            problems.append(f"{name}: header lacks the no-threshold statement")
        if not first.records:
            problems.append(f"{name}: no records")
        else:
            trend = [rec["trend_max"] for rec in first.records]
            if not all(math.isfinite(v) for v in trend):
                problems.append(f"{name}: non-finite trend data")
            if any(b < a for a, b in zip(trend, trend[1:])):
                problems.append(f"{name}: trend data not monotone")
    ok = not problems
    _report(
        10,
        ok,
        f"6 observational suites ran twice each: deterministic records, "
        f"no numeric verdicts, headers state the no-threshold policy, "
        f"monotone finite trend data"
        + ("" if ok else "; problems: " + "; ".join(problems)),
    )

"""Sign-vector averages and the constants built from them."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnlab import randsigns
from qnlab.numkernel import RandomSource
from qnlab.randsigns import (
    _best_ascent,
    cotype2_lower,
    kconvexity_lower,
    khintchine_ratio,
    rademacher_average,
    sign_patterns,
    type2_lower,
)
from qnlab.factorization import envelope_distance
from qnlab.interpolation import equal_norms_type
from qnlab.sidon import FiniteAbelianGroup, all_characters, character_matrix, imbalance_lower
from qnlab.spaces import OperatorSpec, Polytope, RConvexAtoms, Schatten, WeightedLp

EUCLID2 = WeightedLp.euclidean(2)
EUCLID3 = WeightedLp.euclidean(3)


class TestRademacherAverage:
    def test_orthonormal_vectors_in_euclidean(self):
        res = rademacher_average(EUCLID2, np.eye(2), 2.0)
        assert res.mode == "exact"
        assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-12)
        # every sign pattern has the same norm, so the exponent is irrelevant
        res7 = rademacher_average(EUCLID3, np.eye(3), 7.0)
        assert res7.value == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_linear_sum_and_max_spaces(self):
        assert rademacher_average(WeightedLp.unweighted(1.0, 2), np.eye(2), 2.0).value == pytest.approx(2.0)
        assert rademacher_average(WeightedLp.unweighted(math.inf, 2), np.eye(2), 2.0).value == pytest.approx(1.0)

    def test_max_exponent_mode(self):
        v = np.array([[1.0, 0.0], [0.5, 0.5]])
        res = rademacher_average(EUCLID2, v, math.inf)
        best = max(
            float(np.linalg.norm(e1 * v[0] + e2 * v[1]))
            for e1 in (-1, 1)
            for e2 in (-1, 1)
        )
        assert res.value == pytest.approx(best, rel=1e-12)

    def test_sampled_matches_exact(self):
        v = RandomSource(5).generator().standard_normal((3, 2))
        exact = rademacher_average(EUCLID2, v, 2.0)
        sampled = rademacher_average(
            EUCLID2, v, 2.0, mode="sampled", rng=RandomSource(6), samples=20_000
        )
        assert abs(sampled.value - exact.value) <= 4 * sampled.stderr + 1e-9

    def test_sampled_defaults_rng_and_needs_samples(self):
        default = rademacher_average(EUCLID2, np.eye(2), 2.0, mode="sampled")
        assert default == rademacher_average(EUCLID2, np.eye(2), 2.0, mode="sampled", rng=RandomSource(0))
        with pytest.raises(ValueError):
            rademacher_average(EUCLID2, np.eye(2), 2.0, mode="sampled", rng=RandomSource(1), samples=100)

    @pytest.mark.parametrize("samples", [20_000.5, True, np.float64(10_000.25)])
    def test_sampled_rejects_non_integer_counts(self, samples):
        with pytest.raises(ValueError, match="samples must be an integer"):
            rademacher_average(EUCLID2, np.eye(2), 2.0, mode="sampled", samples=samples)

    def test_sampled_takes_an_integral_float_count(self):
        res = rademacher_average(EUCLID2, np.eye(2), 2.0, mode="sampled", samples=20_000.0)
        assert res == rademacher_average(EUCLID2, np.eye(2), 2.0, mode="sampled", samples=20_000)
        assert type(res.samples) is int

    @given(st.permutations(range(3)))
    @settings(max_examples=10, deadline=None)
    def test_vector_order_invariance(self, perm):
        v = np.array([[1.0, 0.2], [-0.3, 0.8], [0.5, -0.5]])
        base = rademacher_average(EUCLID2, v, 2.0).value
        assert rademacher_average(EUCLID2, v[list(perm)], 2.0).value == pytest.approx(base, rel=1e-12)

    def test_sign_flip_invariance(self):
        v = np.array([[1.0, 0.2], [-0.3, 0.8]])
        flipped = v.copy()
        flipped[0] *= -1
        for q in (1.0, 2.0, 4.0):
            assert rademacher_average(EUCLID2, flipped, q).value == pytest.approx(
                rademacher_average(EUCLID2, v, q).value, rel=1e-12
            )

    @given(st.floats(min_value=0.5, max_value=3.0), st.floats(min_value=0.1, max_value=4.0))
    @settings(max_examples=30, deadline=None)
    def test_exponent_monotonicity(self, q, bump):
        v = np.array([[1.0, 0.2], [-0.3, 0.8]])
        lo = rademacher_average(EUCLID2, v, q).value
        hi = rademacher_average(EUCLID2, v, q + bump).value
        assert lo <= hi * (1 + 1e-12)


class TestKhintchineRatio:
    def test_scalar_two_vector_value(self):
        got = khintchine_ratio(WeightedLp.euclidean(1), [[1.0], [1.0]], 4.0, 2.0)
        assert got == pytest.approx(2.0 ** 0.25, rel=1e-12)

    def test_at_least_one_for_nested_exponents(self):
        gen = RandomSource(7).generator()
        for _ in range(10):
            v = gen.standard_normal((3, 2))
            assert khintchine_ratio(EUCLID2, v, 4.0, 2.0) >= 1 - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            khintchine_ratio(EUCLID2, np.eye(2), 2.0, 4.0)


class TestTypeCotypeConstants:
    def test_flat_sum_space_type_witness(self):
        est = type2_lower(OperatorSpec.identity(WeightedLp.unweighted(1.0, 2)), n=2, rng=RandomSource(3))
        assert est.value == pytest.approx(math.sqrt(2.0), rel=1e-9)
        assert est.kind == "certified-lower-bound"

    def test_max_space_cotype_witness(self):
        est = cotype2_lower(OperatorSpec.identity(WeightedLp.unweighted(math.inf, 2)), n=2, rng=RandomSource(3))
        assert est.value == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_euclidean_constants_are_one(self):
        u = OperatorSpec.identity(EUCLID3)
        assert type2_lower(u, n=4, rng=RandomSource(1)).value == pytest.approx(1.0, abs=1e-9)
        assert cotype2_lower(u, n=4, rng=RandomSource(1)).value == pytest.approx(1.0, abs=1e-9)
        assert kconvexity_lower(u, n=3, rng=RandomSource(1)).value == pytest.approx(1.0, abs=1e-9)

    def test_type_witness_reproduces_value(self):
        u = OperatorSpec.identity(WeightedLp.unweighted(0.5, 2))
        est = type2_lower(u, n=3, budget=4, rng=RandomSource(9))
        vectors = est.witness
        num = rademacher_average(u.target, np.asarray(vectors) @ u.matrix.T, 2.0).value
        den = math.sqrt(sum(u.source.gauge(v) ** 2 for v in vectors))
        assert num / den == pytest.approx(est.value, rel=1e-9)

    def test_cotype_witness_reproduces_value(self):
        u = OperatorSpec.identity(WeightedLp.unweighted(1.0, 3))
        est = cotype2_lower(u, n=3, budget=4, rng=RandomSource(9))
        vectors = est.witness
        num = math.sqrt(sum(u.target.gauge(w) ** 2 for w in np.asarray(vectors) @ u.matrix.T))
        den = rademacher_average(u.source, vectors, 2.0).value
        assert num / den == pytest.approx(est.value, rel=1e-9)

    def test_kconvexity_at_least_one(self):
        for sp in (WeightedLp.unweighted(0.5, 2), WeightedLp.unweighted(1.0, 3)):
            est = kconvexity_lower(OperatorSpec.identity(sp), n=3, budget=3, rng=RandomSource(11))
            assert est.value >= 1 - 1e-9

    def test_search_keeps_first_strict_best(self):
        def objective(xs):
            return 1.0 / (1.0 + np.abs(xs[:, 0] - 1.0))

        starts = [np.array([0.5, 0.0]), np.array([1.0, 7.0]), np.array([1.0, 9.0])]
        # budget 0 only scores each start; ties keep the earlier start
        value, best = _best_ascent(objective, starts, 0)
        assert value == 1.0 and np.array_equal(best, [1.0, 7.0])
        value, best = _best_ascent(objective, starts[:1], [40])
        assert 1.0 / 1.5 < value == objective(best[None])[0]

    def test_size_validation(self):
        u = OperatorSpec.identity(EUCLID2)
        with pytest.raises(ValueError):
            type2_lower(u, n=0)
        with pytest.raises(ValueError):
            type2_lower(u, n=13)
        with pytest.raises(ValueError):
            kconvexity_lower(u, n=9)


def _scalar_ascent(objective, start, budget):
    """Coordinate ascent scoring one candidate per objective call: the loop
    whose iterates each start of the batched ``_best_ascent`` must reproduce."""
    best_v = objective(start)
    best = start.copy()
    step = 0.25
    evals = 0
    while evals < budget and step >= 1e-4:
        improved = False
        scales = np.maximum(np.abs(best).max(axis=-1, keepdims=True), 1e-9)
        for idx in np.ndindex(best.shape):
            for sign in (1.0, -1.0):
                if evals >= budget:
                    break
                cand = best.copy()
                cand[idx] += sign * step * float(np.broadcast_to(scales, best.shape)[idx])
                val = objective(cand)
                evals += 1
                if val > best_v * (1.0 + 1e-12):
                    best_v, best = val, cand
                    improved = True
        if not improved:
            step *= 0.5
    return best_v, best


@st.composite
def _plateau_objective(draw, rows, cols):
    target = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=rows * cols, max_size=rows * cols)))
    # coarse levels give plateaus, the cap a flat top, the L1 distance ties
    levels = draw(st.sampled_from([0, 1, 3, 50]))
    cap = draw(st.sampled_from([math.inf, 0.9, 0.3]))

    def value(x):
        v = min(math.exp(-float(np.abs(x - target.reshape(rows, cols)).sum())), cap)
        return math.floor(v * levels) / levels if levels else v

    return value


@st.composite
def _ascent_cases(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    entries = st.lists(st.floats(-3.0, 3.0), min_size=rows * cols, max_size=rows * cols)
    start = np.array(draw(entries)).reshape(rows, cols)
    value = draw(_plateau_objective(rows, cols))
    # small entry caps narrow the batches below their doubling width
    return start, value, draw(st.integers(0, 200)), draw(st.sampled_from([randsigns._BATCH_ENTRIES, 1, 5]))


@st.composite
def _lockstep_cases(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = st.lists(st.floats(-3.0, 3.0), min_size=rows * cols, max_size=rows * cols)
    starts = []
    for _ in range(draw(st.integers(1, 6))):
        if starts and draw(st.booleans()):  # a repeated start ties with its first copy
            starts.append(starts[draw(st.integers(0, len(starts) - 1))].copy())
        else:
            starts.append(np.array(draw(entries)).reshape(rows, cols))
    value = draw(_plateau_objective(rows, cols))
    budgets = draw(st.lists(st.integers(0, 120) | st.just(0), min_size=len(starts), max_size=len(starts)))
    return starts, value, budgets, draw(st.sampled_from([randsigns._BATCH_ENTRIES, 1, 5]))


class TestCoordinateAscent:
    @given(_ascent_cases())
    @settings(max_examples=150, deadline=None)
    def test_batched_sweeps_keep_the_scalar_iterates(self, case):
        start, value, budget, entry_cap = case
        scalar_seen, batched_seen = [], []

        def scalar(x):
            scalar_seen.append(x.tobytes())
            return value(x)

        def batched(xs):
            batched_seen.extend(x.tobytes() for x in xs)
            return np.array([value(x) for x in xs])

        want_v, want = _scalar_ascent(scalar, start, budget)
        with mock.patch.object(randsigns, "_BATCH_ENTRIES", entry_cap):
            got_v, got = _best_ascent(batched, [start], budget)
        assert got_v == want_v
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # every candidate the scalar loop scores is scored in the same order;
        # the batches only add the uncharged moves past each accepted one
        rest = iter(batched_seen)
        assert all(any(x == y for y in rest) for x in scalar_seen)

    @given(_lockstep_cases())
    @settings(max_examples=150, deadline=None)
    def test_lockstep_starts_keep_each_scalar_ascent(self, case):
        starts, value, budgets, entry_cap = case
        scalar_seen, batched_seen = [[] for _ in starts], []

        def batched(xs):
            batched_seen.extend(x.tobytes() for x in xs)
            return np.array([value(x) for x in xs])

        want_v, want = -math.inf, None
        for seen, start, budget in zip(scalar_seen, starts, budgets):
            v, w = _scalar_ascent(lambda x: seen.append(x.tobytes()) or value(x), start, budget)
            if v > want_v:  # the earlier start wins a tie
                want_v, want = v, w
        with mock.patch.object(randsigns, "_BATCH_ENTRIES", entry_cap):
            got_v, got = _best_ascent(batched, starts, budgets)
        assert got_v == want_v
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # each start's scalar candidates are scored in that start's order
        for seen in scalar_seen:
            rest = iter(batched_seen)
            assert all(any(x == y for y in rest) for x in seen)

    def test_starts_at_budget_zero_are_scored_in_one_call(self):
        stacks = []

        def objective(xs):
            stacks.append(xs.copy())
            return xs[:, 0, 0]

        # start i scores i % 5, so starts 4, 9, 14, ... tie at the top
        starts = [np.array([[i % 5, i, 0.0], [0.0, 0.0, 1.0]]) for i in range(204)]
        for budget in (0, [0] * len(starts)):
            stacks.clear()
            value, best = _best_ascent(objective, starts, budget)
            assert len(stacks) == 1 and np.array_equal(stacks[0], np.stack(starts))
            assert value == 4.0 and np.array_equal(best, starts[4])

    @pytest.mark.parametrize("entry_cap", [1, 3, 5, 12, 40, 1 << 16])
    def test_stacked_calls_keep_the_entry_cap(self, entry_cap):
        sizes = []

        def objective(xs):
            sizes.append((len(xs), xs.size))
            return -np.abs(xs - 0.7).sum(axis=(1, 2))

        gen = RandomSource(3).generator()
        starts = [gen.standard_normal((2, 2)) for _ in range(9)]
        with mock.patch.object(randsigns, "_BATCH_ENTRIES", entry_cap):
            _best_ascent(objective, starts, 30)
        # one start's batch holds at most max(1, entry_cap // 4) rows of 4
        # entries, so only a one-row call may exceed the cap
        assert all(size <= entry_cap or rows == 1 for rows, size in sizes)
        if entry_cap >= 4 * len(starts):
            assert sizes[0] == (len(starts), 4 * len(starts))


_SKEWED_FRAME = np.array([[1.0, 0.2, 0.0], [0.3, 1.0, 0.1], [0.0, 0.4, 1.2]])
_KINDS = [
    WeightedLp(0.7, np.array([1.0, 2.5])),
    Polytope(np.vstack([_SKEWED_FRAME, -_SKEWED_FRAME])),
    Schatten(0.5, 2, 2),
    RConvexAtoms(np.array([[1.0, 0.0], [0.6, 0.8], [-0.2, 1.0]]), 0.5),
]


def _scalar_gauges(space, rows):
    return np.array([space.gauge(x) for x in rows])


@pytest.mark.parametrize("space", _KINDS, ids=lambda sp: type(sp).__name__)
class TestWitnessesReproduceOneTupleAtATime:
    """Each certified constant's witness, re-evaluated through the public
    one-tuple route (``rademacher_average`` and scalar gauges), gives the
    reported value, whatever batches the search scored it in."""

    def test_type_cotype_and_projection(self, space):
        u = OperatorSpec.identity(space)
        m = np.asarray(u.matrix)
        est = type2_lower(u, n=2, budget=1, rng=RandomSource(21))
        W = est.witness
        num = rademacher_average(space, W @ m.T, 2.0).value
        assert num / math.sqrt(sum(_scalar_gauges(space, W) ** 2)) == pytest.approx(est.value, rel=1e-12)
        est = cotype2_lower(u, n=2, budget=1, rng=RandomSource(22))
        W = est.witness
        num = math.sqrt(sum(_scalar_gauges(space, W @ m.T) ** 2))
        assert num / rademacher_average(space, W, 2.0).value == pytest.approx(est.value, rel=1e-12)
        est = kconvexity_lower(u, n=2, budget=1, rng=RandomSource(23))
        F, pats = est.witness, sign_patterns(2)
        proj = pats @ ((pats.T @ (F @ m.T)) / 4)
        num = math.sqrt(float(np.mean(_scalar_gauges(space, proj) ** 2)))
        den = math.sqrt(float(np.mean(_scalar_gauges(space, F) ** 2)))
        assert num / den == pytest.approx(est.value, rel=1e-12)

    def test_equal_norms_type(self, space):
        est = equal_norms_type(space, 1.5, 3, budget=1, rng=RandomSource(24))
        W = est.witness
        den = 3 ** (1 / 1.5) * _scalar_gauges(space, W).max()
        assert rademacher_average(space, W, 2.0).value / den == pytest.approx(est.value, rel=1e-12)

    def test_imbalance_on_complex_characters(self, space):
        group = FiniteAbelianGroup((3,))
        chars = all_characters(group)
        est = imbalance_lower(group, chars, space, 1.5, budget=1, rng=RandomSource(25))
        W = est.witness
        re, im = character_matrix(group, chars)
        sums = np.maximum(_scalar_gauges(space, re @ W), _scalar_gauges(space, im @ W))
        ratio = float(np.mean(sums**1.5)) ** (1 / 1.5) / rademacher_average(space, W, 1.5).value
        assert max(ratio, 1 / ratio) == pytest.approx(est.value, rel=1e-12)

    def test_envelope_distance(self, space):
        est = envelope_distance(space, budget=2, rng=RandomSource(26))
        w = est.witness
        assert space.envelope_gauge(w) == pytest.approx(1.0, rel=1e-12)
        assert space.gauge(w) / space.envelope_gauge(w) == pytest.approx(est.value, rel=1e-12)

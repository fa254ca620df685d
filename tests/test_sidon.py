"""Finite abelian groups, characters, and interpolation-measure constants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from qnlab import sidon
from qnlab.numkernel import RandomSource
from qnlab.sidon import (
    Character,
    FiniteAbelianGroup,
    all_characters,
    character_matrix,
    coordinate_characters,
    cp_ratio,
    imbalance_lower,
    sidon_constant,
)
from qnlab.spaces import Polytope, RConvexAtoms, WeightedLp

Z22 = FiniteAbelianGroup((2, 2))
Z222 = FiniteAbelianGroup((2, 2, 2))
OUT_OF_RANGE = [
    (Character((2, 0)), Character((0, 0))),
    (Character((-1, 0)), Character((1, 0))),
    (Character((3, 1)), Character((1, 1))),
]


def _chars_of_codes(k, codes):
    """Characters of z2^k whose exponent j is bit j of each code."""
    return tuple(Character(tuple((int(c) >> j) & 1 for j in range(k))) for c in codes)


def _brute_force_value(re):
    """Largest least-mass interpolation cost over every sign pattern, one LP each."""
    n_group, n_set = re.shape
    a_eq = np.hstack([re.T, -re.T])
    costs = []
    for bits in itertools.product((1.0, -1.0), repeat=n_set):
        res = linprog(np.ones(2 * n_group), A_eq=a_eq, b_eq=np.array(bits), bounds=(0, None), method="highs")
        assert res.success
        costs.append(res.fun)
    return max(costs)


def _orbit_group_order(re):
    """Order of W = {+-chi(h)}: the distinct sign rows of re and their negatives."""
    return len({tuple(row) for row in np.vstack([re, -re])})


def _spy_on_lps(mp):
    """Route ``sidon.linprog`` through a spy; the list collects each solved pattern."""
    solved, solve = [], sidon.linprog

    def counted(*args, **kwargs):
        solved.append(kwargs["b_eq"])
        return solve(*args, **kwargs)

    mp.setattr(sidon, "linprog", counted)
    return solved


def _check_against_per_pattern_sweep(k, codes):
    """sidon_constant against the per-pattern sweep, with the orbits it solved."""
    group = FiniteAbelianGroup((2,) * k)
    chars = _chars_of_codes(k, codes)
    with pytest.MonkeyPatch.context() as mp:
        solved = _spy_on_lps(mp)
        res = sidon_constant(group, chars)
    re, _ = character_matrix(group, chars)
    # each solved pattern is the first, in sweep order, of its own orbit,
    # and the orbits of the solved patterns cover every pattern once
    orbits = [{tuple(sign * eps * row) for row in re for sign in (1.0, -1.0)} for eps in solved]
    assert all(tuple(eps < 0) == min(tuple(np.array(q) < 0) for q in o) for eps, o in zip(solved, orbits))
    assert sum(map(len, orbits)) == len(set().union(*orbits)) == 2 ** len(codes)
    assert res.value == pytest.approx(_brute_force_value(re), rel=1e-9)
    assert np.abs(re.T @ res.measure - res.pattern).max() < 1e-7
    assert np.abs(res.measure).sum() == pytest.approx(res.value, rel=1e-9)
    # element indices add as bit vectors, so nu(g + h) is measure[g ^ h]
    elements = np.arange(group.order)
    for h in elements:
        moved = res.measure[elements ^ h]
        assert np.abs(re.T @ moved - res.pattern * re[h]).max() < 1e-7
        assert np.abs(moved).sum() == pytest.approx(res.value, rel=1e-12)


class TestGroups:
    def test_order_and_digits(self):
        g = FiniteAbelianGroup((2, 3))
        assert g.order == 6
        table = g.digit_table
        assert table.shape == (6, 2)
        # index i has digits (i mod 2, i // 2 mod 3) with column strides (1, 2)
        assert list(table[3]) == [1, 1]

    def test_sign_group_flag(self):
        assert Z22.is_sign_group
        assert not FiniteAbelianGroup((2, 3)).is_sign_group

    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((1, 2))
        with pytest.raises(ValueError):
            FiniteAbelianGroup((2,) * 13)  # order 8192 over the cap


class TestCharacters:
    def test_counts(self):
        assert len(coordinate_characters(Z222)) == 3
        assert len(all_characters(Z222)) == 8

    def test_sign_group_matrix_is_exact_signs(self):
        re, im = character_matrix(Z22, all_characters(Z22))
        assert np.all(np.abs(re) == 1.0)
        assert np.all(im == 0.0)

    def test_general_group_columns_unit_modulus(self):
        g = FiniteAbelianGroup((3, 2))
        re, im = character_matrix(g, all_characters(g))
        assert np.allclose(re**2 + im**2, 1.0)

    @pytest.mark.parametrize("factors", [(2, 2), (3, 2), (4,), (2, 2, 2)])
    def test_full_dual_is_orthonormal(self, factors):
        g = FiniteAbelianGroup(factors)
        re, im = character_matrix(g, all_characters(g))
        values = re + 1j * im
        gram = values.conj().T @ values / g.order
        assert np.abs(gram - np.eye(g.order)).max() < 1e-12

    def test_character_validation(self):
        with pytest.raises(ValueError):
            character_matrix(Z22, (Character((0, 1, 0)),))
        for chars in OUT_OF_RANGE:
            with pytest.raises(ValueError, match=r"\[0, m_j\)"):
                character_matrix(Z22, chars)


class TestSidonConstant:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_coordinate_characters_give_one(self, n):
        g = FiniteAbelianGroup((2,) * n)
        res = sidon_constant(g, coordinate_characters(g))
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_full_dual_of_four_group(self):
        res = sidon_constant(Z22, all_characters(Z22))
        assert res.value == pytest.approx(2.0, rel=1e-9)
        assert np.array_equal(np.sign(res.pattern), np.array([1.0, 1.0, 1.0, -1.0]))

    def test_witness_measure_interpolates_its_pattern(self):
        chars = all_characters(Z22)
        res = sidon_constant(Z22, chars)
        re, _ = character_matrix(Z22, chars)
        assert np.abs(re.T @ res.measure - res.pattern).max() < 1e-7
        assert np.abs(res.measure).sum() == pytest.approx(res.value, rel=1e-9)

    def test_errors(self):
        with pytest.raises(NotImplementedError):
            sidon_constant(FiniteAbelianGroup((3, 2)), coordinate_characters(FiniteAbelianGroup((3, 2))))
        with pytest.raises(ValueError, match="distinct"):
            sidon_constant(Z22, (Character((1, 0)), Character((1, 0))))
        big = FiniteAbelianGroup((2,) * 11)
        with pytest.raises(ValueError):
            sidon_constant(big, all_characters(big))
        # distinct exponent tuples naming characters outside the dual group
        for chars in OUT_OF_RANGE:
            with pytest.raises(ValueError, match=r"\[0, m_j\)"):
                sidon_constant(Z22, chars)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_orbit_sweep_matches_per_pattern_sweep(self, data):
        k = data.draw(st.integers(1, 5), label="k")
        codes = data.draw(
            st.lists(st.integers(0, 2**k - 1), min_size=1, max_size=min(6, 2**k), unique=True),
            label="codes",
        )
        _check_against_per_pattern_sweep(k, codes)

    # dependent sets whose orbit group is not closed under reversing the
    # character order, so a misread pattern index picks the wrong orbits
    @pytest.mark.parametrize("codes", [[0, 1, 2, 3, 4], [0, 1, 2, 5, 6], [0, 2, 3, 6, 7]])
    def test_orbit_sweep_on_dependent_sets(self, codes):
        _check_against_per_pattern_sweep(3, codes)


class TestSidonOrbitCount:
    """One linear program per orbit of sign patterns under {+-chi(h)}."""

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        return _spy_on_lps(monkeypatch)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_coordinate_characters_take_one_lp(self, lp_calls, k):
        g = FiniteAbelianGroup((2,) * k)
        sidon_constant(g, coordinate_characters(g))
        assert len(lp_calls) == 1

    def test_full_dual_of_four_group_takes_two_lps(self, lp_calls):
        res = sidon_constant(Z22, all_characters(Z22))
        assert len(lp_calls) == 2
        assert np.array_equal(res.pattern, np.array([1.0, 1.0, 1.0, -1.0]))

    def test_full_dual_of_eight_group_takes_sixteen_lps(self, lp_calls):
        sidon_constant(Z222, all_characters(Z222))
        assert len(lp_calls) == 16  # 2^8 patterns over |W| = 16

    def test_ten_characters_on_z2_6(self, lp_calls):
        g = FiniteAbelianGroup((2,) * 6)
        codes = RandomSource(7).generator().choice(np.arange(1, 64), size=10, replace=False)
        chars = _chars_of_codes(6, codes)
        res = sidon_constant(g, chars)
        re, _ = character_matrix(g, chars)
        assert len(lp_calls) == 2**10 // _orbit_group_order(re)
        assert len(lp_calls) < 2**10
        assert res.value >= 1.0 - 1e-9


class TestMomentComparison:
    def test_coordinate_characters_ratio_exactly_one(self):
        V = RandomSource(10).generator().standard_normal((2, 3))
        for p in (0.5, 1.0, 2.0, math.inf):
            res = cp_ratio(Z22, coordinate_characters(Z22), WeightedLp.unweighted(1.0, 3), p, V)
            assert res.ratio == 1.0  # bit-for-bit: same sign rows on both sides

    def test_ratio_one_across_space_kinds(self):
        gen = RandomSource(11).generator()
        spaces = [
            WeightedLp.unweighted(0.5, 2),
            WeightedLp.euclidean(2),
            Polytope(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])),
            RConvexAtoms(np.eye(2), 0.5),
        ]
        for sp in spaces:
            V = gen.standard_normal((3, 2))
            res = cp_ratio(Z222, coordinate_characters(Z222), sp, 1.0, V)
            assert res.ratio == 1.0

    def test_zero_vectors_rejected(self):
        with pytest.raises(ValueError):
            cp_ratio(Z22, coordinate_characters(Z22), WeightedLp.euclidean(2), 1.0, np.zeros((2, 2)))


class TestTranslation:
    def test_translation_preserves_group_side(self):
        V = RandomSource(14).generator().standard_normal((2, 3))
        sp = WeightedLp.unweighted(1.0, 3)
        chars = coordinate_characters(Z22)
        re, _ = character_matrix(Z22, chars)
        base = cp_ratio(Z22, chars, sp, 1.0, V)
        for shift in range(1, 4):
            # translating the argument multiplies each coefficient by its
            # character's value at the shift
            moved = cp_ratio(Z22, chars, sp, 1.0, re[shift][:, None] * V)
            assert moved.group_side == pytest.approx(base.group_side, rel=1e-12)


class TestImbalanceLower:
    def test_certified_witness_reproduces_value(self):
        chars = all_characters(Z22)
        sp = WeightedLp.unweighted(1.0, 2)
        est = imbalance_lower(Z22, chars, sp, 1.0, budget=2, rng=RandomSource(16))
        assert est.kind == "certified-lower-bound"
        assert est.value >= 1 - 1e-12
        again = cp_ratio(Z22, chars, sp, 1.0, est.witness)
        assert max(again.ratio, 1.0 / again.ratio) == est.value

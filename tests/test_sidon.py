"""Finite abelian groups, characters, and interpolation-measure constants."""

import math

import numpy as np
import pytest

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

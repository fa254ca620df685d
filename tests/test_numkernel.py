"""Validators, dense linear algebra helpers, and splittable randomness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnlab.numkernel import (
    DegenerateMatrixError,
    RandomSource,
    as_integer,
    as_matrix,
    as_spd,
    as_vector,
    dedup_rows,
    frozen_array,
    orthonormal_complement,
    require_symmetric_rows,
    singular_values,
    spd_power,
    svd,
)


class TestValidators:
    def test_as_vector_passes_through(self):
        v = as_vector([1.0, 2.0, 3.0])
        assert v.dtype == np.float64
        assert v.shape == (3,)

    def test_as_vector_rejects_matrix(self):
        with pytest.raises(ValueError, match="expected a vector"):
            as_vector(np.eye(2))

    def test_as_vector_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_vector([1.0, np.nan])

    def test_as_vector_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            as_vector([1.0, 2.0], dim=3)

    def test_as_matrix_shape_checks(self):
        m = as_matrix([[1.0, 2.0]], rows=1, cols=2)
        assert m.shape == (1, 2)
        with pytest.raises(ValueError, match="row mismatch"):
            as_matrix([[1.0, 2.0]], rows=2)
        with pytest.raises(ValueError, match="column mismatch"):
            as_matrix([[1.0, 2.0]], cols=3)
        with pytest.raises(ValueError, match="expected a matrix"):
            as_matrix([1.0, 2.0])

    def test_frozen_array_is_read_only(self):
        a = frozen_array([1.0, 2.0])
        with pytest.raises(ValueError):
            a[0] = 5.0


class TestAsInteger:
    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0), "3"])
    def test_integral_values_pass_as_int(self, value):
        n = as_integer("n", value, 1, 3)
        assert n == 3 and type(n) is int

    @pytest.mark.parametrize("value", [True, np.bool_(False), 2.5, np.float64(0.5), math.inf, math.nan])
    def test_non_integers_rejected(self, value):
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            as_integer("n", value, 0, 10)

    @pytest.mark.parametrize(
        "low,high,bad,message",
        [
            (1, None, 0, "n must be a positive integer, got 0"),
            (0, None, -1, "n must be an integer of at least 0, got -1"),
            (10_000, None, 9_999, "n must be an integer of at least 10000, got 9999"),
            (1, 12, 13, r"n must be an integer in \[1, 12\], got 13"),
            (1, 12, 0, r"n must be an integer in \[1, 12\], got 0"),
        ],
    )
    def test_bounds_are_inclusive(self, low, high, bad, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            as_integer("n", bad, low, high)
        for edge in (low, high):
            if edge is not None:
                assert as_integer("n", edge, low, high) == edge

    def test_no_bounds_takes_any_integer(self):
        assert as_integer("n", -7) == -7


class TestLinearAlgebra:
    def test_svd_reconstructs(self):
        m = RandomSource(7).generator().standard_normal((4, 3))
        s, u, vt = svd(m)
        assert np.all(np.diff(s) <= 0)
        assert np.allclose(u @ np.diag(s) @ vt, m, atol=1e-10 * s[0])

    def test_svd_rejects_oversized(self):
        with pytest.raises(ValueError, match="per-side cap"):
            svd(np.zeros((40, 2)))

    def test_singular_values_of_diagonal(self):
        assert np.allclose(singular_values(np.diag([3.0, 2.0, 1.0])), [3.0, 2.0, 1.0])

    def test_solve_spd_rejects_indefinite(self):
        with pytest.raises(DegenerateMatrixError):
            as_spd(np.diag([1.0, -1.0]))

    def test_solve_spd_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            as_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_spd_power_square_root(self):
        gen = RandomSource(13).generator()
        g = gen.standard_normal((3, 3))
        a = g @ g.T + np.eye(3)
        half = spd_power(a, 0.5)
        assert np.allclose(half @ half, a, atol=1e-10)
        assert np.allclose(spd_power(a, -1.0) @ a, np.eye(3), atol=1e-10)

    def test_spd_power_rejects_semidefinite(self):
        with pytest.raises(DegenerateMatrixError):
            spd_power(np.diag([1.0, 0.0]), 0.5)

    def test_orthonormal_complement_of_difference(self):
        comp = orthonormal_complement([[1.0, -1.0]])
        assert comp.shape == (1, 2)
        assert np.allclose(np.abs(comp[0]), [np.sqrt(0.5)] * 2)

    def test_orthonormal_complement_is_orthonormal_and_orthogonal(self):
        kernel = RandomSource(17).generator().standard_normal((2, 5))
        comp = orthonormal_complement(kernel)
        assert comp.shape == (3, 5)
        assert np.allclose(comp @ comp.T, np.eye(3), atol=1e-10)
        assert np.abs(kernel @ comp.T).max() < 1e-10

    def test_orthonormal_complement_empty_kernel(self):
        assert np.array_equal(orthonormal_complement([], dim=3), np.eye(3))

    def test_dedup_rows_keeps_first_seen(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0 + 1e-12, 0.0], [-1.0, 0.0]])
        assert np.array_equal(dedup_rows(rows), rows[[0, 1, 3]])
        assert dedup_rows(np.zeros((0, 2))).shape == (0, 2)

    def test_require_symmetric_rows_is_relative(self):
        rows = np.array([[2.0, 0.0], [-2.0, 1e-10]])
        require_symmetric_rows(rows, 1e-9, "point set")
        with pytest.raises(ValueError, match="vertex set is not symmetric"):
            require_symmetric_rows(rows, 1e-12, "vertex set")

    def test_orthonormal_complement_rejects_dependent_rows(self):
        with pytest.raises(DegenerateMatrixError):
            orthonormal_complement([[1.0, 0.0], [2.0, 0.0]])


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(5).generator().standard_normal(8)
        b = RandomSource(5).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_generator_does_not_mutate_source(self):
        src = RandomSource(5)
        first = src.generator().standard_normal(4)
        second = src.generator().standard_normal(4)
        assert np.array_equal(first, second)

    def test_split_path_equivalence(self):
        via_split = RandomSource(3).split(1).split(2).generator().standard_normal(4)
        direct = RandomSource(3, (1, 2)).generator().standard_normal(4)
        assert np.array_equal(via_split, direct)

    def test_distinct_splits_distinct_streams(self):
        a = RandomSource(3).split(0).generator().standard_normal(4)
        b = RandomSource(3).split(1).generator().standard_normal(4)
        assert not np.array_equal(a, b)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            RandomSource(-1)
        with pytest.raises(ValueError):
            RandomSource(2**64)

    @pytest.mark.parametrize("seed", [True, False, np.bool_(True)])
    def test_boolean_seed_rejected(self, seed):
        # bool is an int subclass: True would read as seed 1
        with pytest.raises(ValueError, match="seed must be"):
            RandomSource(seed)

    @pytest.mark.parametrize("index", [True, np.bool_(False), 2.5, np.float64(0.5)])
    def test_non_integer_split_index_rejected(self, index):
        with pytest.raises(ValueError, match="split index must be an integer"):
            RandomSource(3).split(1, index)
        with pytest.raises(ValueError, match="split index must be an integer"):
            RandomSource(3, (index,))

    def test_integral_split_indices_read_as_ints(self):
        # numpy integers and integral floats name the same split as the int
        ref = RandomSource(3).split(1, 2)
        for other in (RandomSource(3).split(np.int64(1), 2.0), RandomSource(3, (np.uint8(1), np.int32(2)))):
            assert other == ref and all(type(i) is int for i in other.path)
            assert np.array_equal(other.generator().standard_normal(3), ref.generator().standard_normal(3))

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_split_reproducibility_property(self, seed, idx):
        x = RandomSource(seed).split(idx).generator().standard_normal(3)
        y = RandomSource(seed).split(idx).generator().standard_normal(3)
        assert np.array_equal(x, y)

"""Dense linear algebra and deterministic randomness shared by every module.

Vectors are 1-d float64 numpy arrays and matrices are 2-d row-major arrays.
The validators here check shape and finiteness once, so the rest of the
package can assume clean inputs.  Everything is desk scale by contract:
factorable matrices are capped at ``MAX_DENSE_DIM`` per side.

All randomness flows through :class:`RandomSource`, a thin splittable
wrapper over numpy's counter-based Philox generator.  Randomized routines
take a source (``RandomSource(0)`` when the caller leaves it out) and are
pure functions of (seed, split path, parameters), so identical
configurations reproduce identical numbers and parallel sweeps can hand
each trial its own split without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DENSE_DIM = 32


class DegenerateMatrixError(ValueError):
    """A matrix that had to be positive-definite or full-rank is not."""


def as_vector(x, dim=None) -> np.ndarray:
    """Validate ``x`` as a finite 1-d float array and return it."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    return v


def as_matrix(a, rows=None, cols=None) -> np.ndarray:
    """Validate ``a`` as a finite 2-d float array and return it."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if rows is not None and m.shape[0] != rows:
        raise ValueError(f"row mismatch: expected {rows}, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ValueError(f"column mismatch: expected {cols}, got {m.shape[1]}")
    return m


def frozen_array(a) -> np.ndarray:
    """Copy to a float array and make it read-only (for dataclass fields)."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def svd(m):
    """Thin singular value decomposition ``m = u @ diag(s) @ vt``.

    Returns ``(s, u, vt)`` with singular values sorted descending and
    orthonormal factor columns/rows.  Reconstruction is accurate to
    ``1e-10 * s[0]`` (checked by the test suite, not re-verified per call).
    Matrices larger than ``MAX_DENSE_DIM`` per side are rejected.
    """
    a = as_matrix(m)
    if max(a.shape) > MAX_DENSE_DIM:
        raise ValueError(
            f"matrix of shape {a.shape} exceeds the {MAX_DENSE_DIM} per-side cap"
        )
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return s, u, vt


def singular_values(m) -> np.ndarray:
    return svd(m)[0]


def as_spd(a) -> np.ndarray:
    """Validate ``a`` as a symmetric positive-definite matrix.

    Returns the symmetric part.  Asymmetry beyond 1e-10 relative raises
    ``ValueError``; a matrix that is not positive-definite raises
    :class:`DegenerateMatrixError`.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix is not square")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    m = 0.5 * (m + m.T)
    if np.linalg.eigvalsh(m).min() <= 0:
        raise DegenerateMatrixError("matrix is not positive-definite")
    return m


def dedup_rows(rows: np.ndarray) -> np.ndarray:
    """Drop duplicate rows (within 1e-9, scale-aware), keeping first seen."""
    scale = max(1.0, float(np.abs(rows).max()) if rows.size else 1.0)
    keep: list[int] = []
    for i, r in enumerate(rows):
        if not keep or not np.any(np.abs(rows[keep] - r).max(axis=1) <= 1e-9 * scale):
            keep.append(i)
    return rows[keep].reshape(len(keep), rows.shape[1])


def require_symmetric_rows(rows: np.ndarray, rtol: float, what: str) -> None:
    """Raise ``ValueError`` unless the negation of every row is a row, up to
    ``rtol`` times the largest entry."""
    scale = float(np.abs(rows).max())
    for row in rows:
        if not np.any(np.max(np.abs(rows + row), axis=1) <= rtol * scale):
            raise ValueError(f"{what} is not symmetric")


def spd_power(a, exponent: float) -> np.ndarray:
    """Symmetric power ``a**exponent`` of a positive-definite matrix."""
    m = as_matrix(a)
    w, q = np.linalg.eigh(m)
    if w.min() <= 0.0:
        raise DegenerateMatrixError("matrix is not positive-definite")
    return (q * w**exponent) @ q.T


def gram_schmidt(rows, basis=(), skip_dependent: bool = False) -> np.ndarray:
    """Ordered Gram-Schmidt: ``basis`` (orthonormal rows) extended by each
    of ``rows`` in turn.

    A row whose residual is at most 1e-10 of ``max(1, |row|)`` adds no new
    direction; it is skipped when ``skip_dependent`` is set and raises
    :class:`DegenerateMatrixError` otherwise.
    """
    out = list(basis)
    for row in rows:
        r = row.astype(float)
        for b in out:
            r = r - (r @ b) * b
        nrm = np.linalg.norm(r)
        if nrm > 1e-10 * max(1.0, np.linalg.norm(row)):
            out.append(r / nrm)
        elif not skip_dependent:
            raise DegenerateMatrixError("basis rows are linearly dependent")
    return np.array(out).reshape(len(out), -1)


def orthonormal_complement(kernel, dim: int | None = None) -> np.ndarray:
    """Orthonormal basis (rows) of the orthogonal complement of a row span.

    Deterministic: the kernel rows are orthonormalized in the order given,
    then the standard basis vectors are swept in coordinate order and kept
    whenever they contribute a new direction.  Dependent kernel rows raise
    :class:`DegenerateMatrixError`.
    """
    K = np.asarray(kernel, dtype=float)
    if K.size == 0:
        if dim is None:
            raise ValueError("empty kernel needs an explicit dim")
        return np.eye(dim)
    K = as_matrix(K)
    d = K.shape[1]
    if dim is not None and d != dim:
        raise ValueError("kernel dimension mismatch")
    basis = gram_schmidt(K)
    full = gram_schmidt(np.eye(d), basis, skip_dependent=True)
    return full[basis.shape[0]:]


@dataclass(frozen=True)
class RandomSource:
    """Deterministic splittable randomness.

    ``seed`` is a 64-bit unsigned integer, ``path`` the split history.
    Identical (seed, path) pairs always produce identical streams; splits
    with distinct indices never collide.  Sweeps should split once per
    trial rather than share a source, which keeps every trial reproducible
    in isolation and makes parallel evaluation value-identical to serial.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "path", tuple(int(i) for i in self.path))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))

    def split(self, *indices: int) -> "RandomSource":
        return RandomSource(self.seed, self.path + tuple(int(i) for i in indices))

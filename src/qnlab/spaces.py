"""Finite-dimensional quasi-normed spaces and their gauges.

A space is a symmetric star body in R^d given in one of five concrete
representations:

* :class:`WeightedLp`  -- balls of weighted p-gauges, 0 < p <= infinity;
* :class:`Quadratic`   -- ellipsoids ``x' A x <= 1``, A symmetric positive-definite;
* :class:`Schatten`    -- singular-value p-gauges on small matrices, 0 < p <= 2;
* :class:`Polytope`    -- convex hulls of symmetric vertex sets;
* :class:`RConvexAtoms` -- r-convex hulls of small atom sets, 0 < r <= 1.

Every space knows its gauge (Minkowski functional of the unit ball) and
the gauge of its convex envelope; weighted Lp spaces and polytopes also
give their dual space, whose gauge is the support function of the
envelope ball.  Each kind evaluates its gauge in one batched kernel
over rows; the scalar gauge is that kernel on one row, and the envelope
gauge is the gauge of the envelope space, built once per space.  The
facts that exact routes elsewhere rest on are methods of the kind, ``None``
where a kind lacks them: the quadratic form, per-coordinate scales, the
ball's finite generators with their hull exponent, the dual ball's atoms,
the closed-form enclosing and inscribed ellipsoids, and the exact volume
with its route.
Gauges satisfy the r-triangle inequality
``gauge(x + y)**r <= gauge(x)**r + gauge(y)**r`` for the space's
``r_exponent``.  Spaces are immutable values: array fields are copied and
frozen at construction and all methods are pure, so instances can be shared
freely across parallel work.

Exact facts used below and enforced by the test suite:

* a minimizing decomposition of ``x`` over atoms for an r-gauge (r <= 1)
  can be taken with support of size at most ``dim`` (basic solutions of the
  constraint system), so atom gauges are computed by exhaustive enumeration
  of small subsets;
* the convex envelope of a weighted Lp ball with p < 1 is the weighted
  crosspolytope spanned by the per-axis extreme points, so envelope and
  dual spaces of those spaces have closed forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull
from scipy.special import gammaln

from .numkernel import (
    DegenerateMatrixError,
    as_matrix,
    as_spd,
    as_vector,
    dedup_rows,
    frozen_array,
    orthonormal_complement,
    require_symmetric_rows,
    singular_values,
)

MAX_ATOMS = 12
_FEAS_TOL = 1e-9
_HORN_SLACK = 1e-9  # absolute float slack of horn_check


class QuasiNormedSpace:
    """Base interface.  A kind implements one gauge kernel, ``_gauge_rows``,
    on validated rows; the scalar, batched and envelope gauges derive from
    it here.  ``gauge(x)`` equals ``gauge_many(x[None])[0]`` bit for bit;
    a row inside a larger batch can differ from it in the last bits, since
    matrix products sum in an order that depends on the batch size."""

    dim: int

    @property
    def r_exponent(self) -> float:
        raise NotImplementedError

    def _gauge_rows(self, pts: np.ndarray) -> np.ndarray:
        """Gauges of the rows of a validated ``(n, dim)`` array."""
        raise NotImplementedError

    def gauge(self, x) -> float:
        # the kernel, not gauge_many, so one scalar call is one kernel call
        return float(self._gauge_rows(as_vector(x, dim=self.dim)[None])[0])

    def gauge_many(self, points) -> np.ndarray:
        return self._gauge_rows(as_matrix(points, cols=self.dim))

    def envelope_gauge(self, x) -> float:
        return self._envelope.gauge(x)

    @cached_property
    def _envelope(self) -> "QuasiNormedSpace":
        return self.envelope_space()

    def envelope_space(self) -> "QuasiNormedSpace":
        """The same ball convexified, as a space with r_exponent 1; a
        convex ball is its own envelope."""
        if self.r_exponent == 1.0:
            return self
        raise NotImplementedError

    def envelope_atoms(self) -> np.ndarray:
        """Extreme points of the envelope ball (finite symmetric list).

        Raises ``NotImplementedError`` for smooth balls, which have no
        finite atomic description.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no finite atomic description"
        )

    def dual_space(self) -> "QuasiNormedSpace":
        """Space whose gauge is this space's dual gauge, the support
        function of the envelope ball (exact)."""
        raise ValueError(f"{type(self).__name__} has no dual ball representation")

    @property
    def quadratic_form(self) -> np.ndarray | None:
        """Matrix A with gauge(x) = sqrt(x' A x), or None."""
        return None

    @property
    def is_euclidean(self) -> bool:
        a = self.quadratic_form
        return a is not None and bool(np.array_equal(a, np.eye(self.dim)))

    @property
    def is_unconditional(self) -> bool:
        """Whether the gauge is nondecreasing in every |x_i|."""
        return False

    def coordinate_scales(self, s: float) -> np.ndarray | None:
        """Scales a with gauge(x) = (sum_i (a_i |x_i|)^s)^(1/s), or None.

        Every gauge in dimension one has them, at every exponent s.
        """
        if self.dim == 1:
            e = np.ones(1)
            return self.gauge(e) * e
        return None

    def ball_atoms(self) -> tuple[np.ndarray, float] | None:
        """Finite generators G with their hull exponent e: the unit ball is
        the e-convex hull of G and -G."""
        try:
            return self.envelope_atoms(), self.r_exponent
        except NotImplementedError:
            return None

    def dual_atoms(self) -> np.ndarray | None:
        """Finite F with gauge(y) = max over f in F of <f, y>, or None."""
        return None

    def enclosing_form(self) -> np.ndarray | None:
        """Shape of the minimum-volume enclosing ellipsoid, in closed form."""
        return self.quadratic_form

    def inscribed_form(self) -> tuple[np.ndarray, bool] | None:
        """Shape of an inscribed ellipsoid in closed form, and whether it is
        the maximal one."""
        a = self.quadratic_form
        return None if a is None else (a, True)

    def exact_volume(self) -> tuple[float, str] | None:
        """Exact volume of the unit ball with its route, or None."""
        a = self.quadratic_form
        if a is None:
            return None
        logdet = np.linalg.slogdet(a)[1]
        return float(unit_ball_volume(self.dim) * math.exp(-0.5 * logdet)), "closed-form"


def unit_ball_volume(dim: int) -> float:
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return float(math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0))


@dataclass(frozen=True, eq=False)
class WeightedLp(QuasiNormedSpace):
    """Weighted p-gauge: ``(sum_i w_i |x_i|^p)^(1/p)``, or ``max_i w_i |x_i|``
    when p is infinite.  Weights are strictly positive; ``r_exponent`` is
    ``min(p, 1)``."""

    p: float
    weights: np.ndarray

    def __post_init__(self):
        if not (self.p > 0):
            raise ValueError("p must be positive (math.inf allowed)")
        w = as_vector(self.weights)
        if w.size < 1 or np.any(w <= 0):
            raise ValueError("weights must be positive and nonempty")
        object.__setattr__(self, "weights", frozen_array(w))

    @classmethod
    def unweighted(cls, p: float, dim: int) -> "WeightedLp":
        return cls(p, np.ones(dim))

    @classmethod
    def euclidean(cls, dim: int) -> "WeightedLp":
        return cls(2.0, np.ones(dim))

    @classmethod
    def from_scales(cls, p: float, scales) -> "WeightedLp":
        """Space whose unit ball touches axis i at distance ``scales[i]``."""
        s = as_vector(scales)
        if np.any(s <= 0):
            raise ValueError("scales must be positive")
        if math.isinf(p):
            return cls(p, 1.0 / s)
        return cls(p, s ** (-p))

    @property
    def dim(self) -> int:  # type: ignore[override]
        return int(self.weights.shape[0])

    @property
    def r_exponent(self) -> float:
        return min(self.p, 1.0)

    @cached_property
    def scales(self) -> np.ndarray:
        """Distance from the origin to the ball boundary along each axis."""
        if math.isinf(self.p):
            return frozen_array(1.0 / self.weights)
        return frozen_array(self.weights ** (-1.0 / self.p))

    @property
    def quadratic_form(self) -> np.ndarray | None:
        return np.diag(np.asarray(self.weights)) if self.p == 2.0 else None

    @property
    def is_unconditional(self) -> bool:
        return True

    def coordinate_scales(self, s: float) -> np.ndarray | None:
        if not math.isinf(self.p) and self.p == s:
            return np.asarray(self.weights) ** (1.0 / s)
        return super().coordinate_scales(s)

    @property
    def is_unweighted(self) -> bool:
        return bool(np.all(self.weights == self.weights[0]))

    def _gauge_rows(self, pts: np.ndarray) -> np.ndarray:
        if math.isinf(self.p):
            return np.max(np.abs(pts) * self.weights, axis=1)
        if self.p == 1.0:  # the same values without two power passes
            return np.abs(pts) @ self.weights
        return (np.abs(pts) ** self.p @ self.weights) ** (1.0 / self.p)

    def envelope_space(self) -> "WeightedLp":
        if self.p >= 1.0:
            return self
        return WeightedLp(1.0, self.weights ** (1.0 / self.p))

    def dual_space(self) -> "WeightedLp":
        """Space whose gauge is this space's dual gauge (exact)."""
        s = np.asarray(self.scales)
        if self.p <= 1.0:
            return WeightedLp.from_scales(math.inf, 1.0 / s)
        if math.isinf(self.p):
            return WeightedLp.from_scales(1.0, 1.0 / s)
        q = self.p / (self.p - 1.0)
        return WeightedLp.from_scales(q, 1.0 / s)

    def envelope_atoms(self) -> np.ndarray:
        s = np.asarray(self.scales)
        d = self.dim
        if self.p <= 1.0:
            eye = np.diag(s)
            return np.vstack([eye, -eye])
        if math.isinf(self.p):
            if d > MAX_ATOMS:
                raise NotImplementedError("box corner enumeration capped at dim 12")
            corners = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
            return corners * s
        raise NotImplementedError("smooth Lp balls (1 < p < inf) are not atomic")

    def dual_atoms(self) -> np.ndarray | None:
        w = np.asarray(self.weights)
        if math.isinf(self.p):
            eye = np.diag(w)
            return np.vstack([eye, -eye])
        if self.p == 1.0 and self.dim <= MAX_ATOMS:
            signs = np.array(list(itertools.product((-1.0, 1.0), repeat=self.dim)))
            return signs * w
        return None

    def enclosing_form(self) -> np.ndarray | None:
        # for 1 < p <= 2 the ellipsoid through the axis points encloses the
        # ball; for p > 2 a symmetric Lagrange computation stretches it by
        # dim ** ((p - 2) / (2 p)), or sqrt(dim) at p = inf
        if self.p <= 1.0:
            return None
        s = np.asarray(self.scales)
        if self.p <= 2.0:
            return np.diag(1.0 / s**2)
        d = self.dim
        factor = float(d) if math.isinf(self.p) else d ** ((self.p - 2.0) / self.p)
        return np.diag(1.0 / (s**2 * factor))

    def inscribed_form(self) -> tuple[np.ndarray, bool] | None:
        # for p < 1 only the unweighted ball has a form: the largest
        # inscribed ball, which touches the diagonal and is not maximal
        s = np.asarray(self.scales)
        d = self.dim
        if self.p >= 2.0:
            return np.diag(1.0 / s**2), True
        if self.p >= 1.0:
            semi = s * d ** (0.5 - 1.0 / self.p)
            return np.diag(1.0 / semi**2), True
        if not self.is_unweighted:
            return None
        radius = float(s[0]) * d ** (0.5 - 1.0 / self.p)
        return np.eye(d) / radius**2, False

    def exact_volume(self) -> tuple[float, str]:
        s, n, p = np.asarray(self.scales), self.dim, self.p
        if math.isinf(p):
            return float(2.0**n * np.prod(s)), "closed-form"
        log_vol = n * (math.log(2.0) + gammaln(1.0 + 1.0 / p)) - gammaln(1.0 + n / p)
        return float(math.exp(log_vol) * np.prod(s)), "closed-form"


@dataclass(frozen=True, eq=False)
class Quadratic(QuasiNormedSpace):
    """Quadratic gauge ``sqrt(x' A x)`` of a symmetric positive-definite A:
    the unit ball is the ellipsoid ``x' A x <= 1``; r_exponent 1."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", frozen_array(as_spd(self.matrix)))

    @property
    def dim(self) -> int:  # type: ignore[override]
        return int(self.matrix.shape[0])

    @property
    def r_exponent(self) -> float:
        return 1.0

    @property
    def quadratic_form(self) -> np.ndarray:
        return self.matrix

    def _gauge_rows(self, pts: np.ndarray) -> np.ndarray:
        return np.sqrt(np.einsum("ij,jk,ik->i", pts, self.matrix, pts))

    def coordinate_scales(self, s: float) -> np.ndarray | None:
        a = self.matrix
        if s == 2.0 and not np.any(a - np.diag(np.diag(a))):
            return np.sqrt(np.diag(a))
        return super().coordinate_scales(s)


@dataclass(frozen=True, eq=False)
class Schatten(QuasiNormedSpace):
    """Singular-value p-gauge on rows x cols matrices, flattened row-major.

    ``p`` is restricted to (0, 2] and the shape to at most 6 per side.
    """

    p: float
    rows: int
    cols: int

    def __post_init__(self):
        if not (0 < self.p <= 2):
            raise ValueError("Schatten exponent must lie in (0, 2]")
        if not (1 <= self.rows <= 6 and 1 <= self.cols <= 6):
            raise ValueError("Schatten shapes are capped at 6 per side")

    @property
    def dim(self) -> int:  # type: ignore[override]
        return self.rows * self.cols

    @property
    def r_exponent(self) -> float:
        return min(self.p, 1.0)

    def _gauge_rows(self, pts: np.ndarray) -> np.ndarray:
        # the same singular values as one SVD per matrix; compute_uv=False is not
        s = np.linalg.svd(pts.reshape(-1, self.rows, self.cols), full_matrices=False)[1]
        return (s**self.p).sum(axis=1) ** (1.0 / self.p)

    def envelope_space(self) -> "Schatten":
        if self.p >= 1.0:
            return self
        return Schatten(1.0, self.rows, self.cols)


@dataclass(frozen=True, eq=False)
class Polytope(QuasiNormedSpace):
    """Convex hull of a symmetric full-dimensional vertex set; r_exponent 1.

    For dim <= 5 the gauge is the facet form ``max_f <n_f, x>`` over the
    hull's outer normals.  Above that it is the optimal value of the exact
    linear program ``min sum(lam) : vertices.T @ lam = x, lam >= 0``
    (HiGHS, deterministic for fixed input), one solve per row.  The two
    agree to solver precision and the test suite checks that.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = as_matrix(self.vertices)
        if v.shape[0] < 2:
            raise ValueError("need at least one symmetric vertex pair")
        scale = float(np.abs(v).max())
        if scale <= 0:
            raise ValueError("vertices are all zero")
        require_symmetric_rows(v, 1e-12, "vertex set")
        if np.linalg.matrix_rank(v, tol=1e-10 * scale) < v.shape[1]:
            raise DegenerateMatrixError("vertices do not span the space")
        object.__setattr__(self, "vertices", frozen_array(v))

    @property
    def dim(self) -> int:  # type: ignore[override]
        return int(self.vertices.shape[1])

    @property
    def r_exponent(self) -> float:
        return 1.0

    def _gauge_rows(self, pts: np.ndarray) -> np.ndarray:
        if self.dim <= 5:
            return np.max(pts @ self.facet_normals.T, axis=1)
        out = np.zeros(pts.shape[0])
        for i, v in enumerate(pts):
            scale = float(np.max(np.abs(v)))
            if scale == 0.0:
                continue
            # The gauge is positively homogeneous; solving at unit scale keeps
            # tiny vectors from falling inside the LP's absolute feasibility
            # tolerance (which would report gauge 0).
            res = linprog(
                np.ones(len(self.vertices)),
                A_eq=self.vertices.T,
                b_eq=v / scale,
                bounds=(0, None),
                method="highs",
            )
            if res.status != 0:
                raise RuntimeError(f"gauge LP failed with status {res.status}")
            out[i] = float(res.fun) * scale
        return out

    def envelope_atoms(self) -> np.ndarray:
        return np.asarray(self.extreme_vertices)

    def ball_atoms(self) -> tuple[np.ndarray, float]:
        return np.asarray(self.vertices), 1.0

    def dual_atoms(self) -> np.ndarray | None:
        try:
            normals = np.asarray(self.facet_normals)
        except NotImplementedError:
            return None
        return np.vstack([normals, -normals])

    def exact_volume(self) -> tuple[float, str] | None:
        """Fan triangulation from the origin over the hull facets, dim <= 5."""
        v = np.asarray(self.vertices)
        d = self.dim
        if d > 5:
            return None
        if d == 1:
            return 2.0 * float(np.abs(v).max()), "triangulation"
        hull = ConvexHull(v)
        total = 0.0
        fact = math.factorial(d)
        for simplex in hull.simplices:
            total += abs(np.linalg.det(v[simplex])) / fact
        return float(total), "triangulation"

    @cached_property
    def extreme_vertices(self) -> np.ndarray:
        """The subset of vertices that are extreme points of the hull."""
        v = np.asarray(self.vertices)
        if self.dim == 1:
            t = float(np.abs(v).max())
            return frozen_array([[t], [-t]])
        hull = ConvexHull(v)
        return frozen_array(dedup_rows(v[hull.vertices]))

    @cached_property
    def facet_normals(self) -> np.ndarray:
        """Outer normals n_f with the ball equal to {x : <n_f, x> <= 1}."""
        v = np.asarray(self.vertices)
        if self.dim == 1:
            t = float(np.abs(v).max())
            return frozen_array([[1.0 / t], [-1.0 / t]])
        if self.dim > 5:
            raise NotImplementedError("facet enumeration capped at dim 5")
        hull = ConvexHull(v)
        eqs = hull.equations  # rows [a, b] with a @ x + b <= 0 inside
        normals = eqs[:, :-1] / (-eqs[:, -1:])
        return frozen_array(dedup_rows(normals))

    def dual_space(self) -> "Polytope":
        """Polytope whose gauge is this one's dual gauge (polar body)."""
        n = np.asarray(self.facet_normals)
        return Polytope(dedup_rows(np.vstack([n, -n])))


@dataclass(frozen=True, eq=False)
class RConvexAtoms(QuasiNormedSpace):
    """r-convex hull of at most 12 spanning atoms, 0 < r <= 1.

    ``gauge(x) = min (sum |lam_i|^r)^(1/r)`` over decompositions
    ``x = sum lam_i a_i``.  A minimizer is supported on at most ``dim``
    atoms, so the gauge is computed exactly by enumerating index subsets of
    size <= dim and solving each linear system.  The envelope is the
    :class:`Polytope` of the atoms and their negatives, so envelope gauges
    read its facets for dim <= 5 and solve its LP above that.
    """

    atoms: np.ndarray
    r: float

    def __post_init__(self):
        a = as_matrix(self.atoms)
        if not (0 < self.r <= 1):
            raise ValueError("r must lie in (0, 1]")
        if a.shape[0] > MAX_ATOMS:
            raise ValueError(f"more than {MAX_ATOMS} atoms rejected (desk scale)")
        norms = np.linalg.norm(a, axis=1)
        if a.shape[0] < 1 or np.any(norms <= 0):
            raise ValueError("atoms must be nonzero")
        if np.linalg.matrix_rank(a, tol=1e-10 * norms.max()) < a.shape[1]:
            raise DegenerateMatrixError("atoms do not span the space")
        object.__setattr__(self, "atoms", frozen_array(a))

    @property
    def dim(self) -> int:  # type: ignore[override]
        return int(self.atoms.shape[1])

    @property
    def r_exponent(self) -> float:
        return self.r

    @cached_property
    def _subset_solvers(self) -> list[tuple[tuple[int, ...], np.ndarray, np.ndarray]]:
        # (indices, pinv of the (d x |S|) atom block, the block itself)
        a = np.asarray(self.atoms)
        m, d = a.shape
        out = []
        for size in range(1, min(m, d) + 1):
            for idx in itertools.combinations(range(m), size):
                block = a[list(idx)].T  # d x size
                out.append((idx, np.linalg.pinv(block), block))
        return out

    def _gauge_rows(self, pts: np.ndarray) -> np.ndarray:
        n = pts.shape[0]
        scale = np.maximum(1.0, np.abs(pts).max(axis=1))
        best = np.full(n, np.inf)
        for _, pinv, block in self._subset_solvers:
            lam = pts @ pinv.T  # n x |S|
            resid = np.abs(lam @ block.T - pts).max(axis=1)
            vals = (np.abs(lam) ** self.r).sum(axis=1) ** (1.0 / self.r)
            ok = resid <= _FEAS_TOL * scale
            best = np.where(ok & (vals < best), vals, best)
        best = np.where(np.abs(pts).max(axis=1) == 0.0, 0.0, best)
        if np.any(np.isinf(best)):
            raise RuntimeError("no feasible decomposition found (atoms degenerate?)")
        return best

    def envelope_space(self) -> "Polytope":
        return Polytope(self.envelope_atoms())

    def envelope_atoms(self) -> np.ndarray:
        a = np.asarray(self.atoms)
        return dedup_rows(np.vstack([a, -a]))

    def ball_atoms(self) -> tuple[np.ndarray, float]:
        return np.asarray(self.atoms), self.r

    def dual_atoms(self) -> np.ndarray | None:
        return self.envelope_space().dual_atoms() if self.r == 1.0 else None


@dataclass(frozen=True, eq=False)
class OperatorSpec:
    """A linear map between two concrete spaces, as a dense matrix acting on
    coordinates (shape ``target.dim x source.dim``)."""

    matrix: np.ndarray
    source: QuasiNormedSpace
    target: QuasiNormedSpace

    def __post_init__(self):
        m = as_matrix(self.matrix, rows=self.target.dim, cols=self.source.dim)
        object.__setattr__(self, "matrix", frozen_array(m))

    @classmethod
    def identity(cls, space: QuasiNormedSpace) -> "OperatorSpec":
        return cls(np.eye(space.dim), space, space)

    def apply_many(self, points) -> np.ndarray:
        return as_matrix(points, cols=self.source.dim) @ np.asarray(self.matrix).T


@dataclass(frozen=True)
class HornResult:
    lhs: float
    rhs: float
    p: float
    k: int
    passed: bool


def horn_check(a, b, p: float, k: int) -> HornResult:
    """Partial-sum comparison of p-th powers of singular values.

    Checks ``sum_{j<=k} s_j(ab)^p <= sum_{j<=k} s_j(a)^p s_j(b)^p`` for
    0 < p <= 1, the quasi-norm analogue of the classical singular value
    product inequality, within an absolute slack of ``_HORN_SLACK``.
    """
    A = as_matrix(a)
    B = as_matrix(b)
    if A.shape[1] != B.shape[0]:
        raise ValueError("shapes do not compose")
    if not (0 < p <= 1):
        raise ValueError("p must lie in (0, 1]")
    kmax = min(A.shape[0], A.shape[1], B.shape[1])
    if not (1 <= k <= kmax):
        raise ValueError(f"k must lie in [1, {kmax}]")
    s_ab = singular_values(A @ B)[:k]
    s_a = singular_values(A)[:k]
    s_b = singular_values(B)[:k]
    lhs = float((s_ab**p).sum())
    rhs = float(((s_a * s_b) ** p).sum())
    return HornResult(lhs, rhs, p, k, lhs <= rhs + _HORN_SLACK)


def quotient(space: QuasiNormedSpace, kernel_basis) -> QuasiNormedSpace:
    """Quotient of a space by the span of ``kernel_basis``.

    The quotient ball is the orthogonal projection of the unit ball onto the
    kernel's orthogonal complement, expressed in the deterministic
    orthonormal basis produced by :func:`orthonormal_complement`.  Supported
    whenever the kind has finite ball generators (``ball_atoms``): the
    projection of the e-convex hull of G is the e-convex hull of the
    projected G, a :class:`Polytope` of the projected G and -G when e = 1
    and an :class:`RConvexAtoms` of the projected G otherwise.  Balls
    without finite generators (smooth Lp, quadratic, Schatten) raise
    ``ValueError``.
    """
    rows = [as_vector(r, dim=space.dim) for r in kernel_basis]
    if not rows:
        return space
    K = np.array(rows)
    U = orthonormal_complement(K, dim=space.dim)
    if U.shape[0] == 0:
        raise ValueError("kernel spans the whole space; quotient is trivial")
    gens = space.ball_atoms()
    if gens is None:
        raise ValueError(
            f"quotients of {type(space).__name__} balls without finite "
            "generators are not representable here"
        )
    g, e = gens
    out = g @ U.T
    out = dedup_rows(np.vstack([out, -out]) if e == 1.0 else out)
    out = out[np.linalg.norm(out, axis=1) > 1e-12]
    return Polytope(out) if e == 1.0 else RConvexAtoms(out, e)


def coordinate_section(space: WeightedLp, indices) -> WeightedLp:
    """Restriction of a weighted Lp space to a coordinate subset."""
    if not isinstance(space, WeightedLp):
        raise ValueError("coordinate sections are only defined for WeightedLp spaces")
    idx = sorted(set(int(i) for i in indices))
    if not idx or idx[0] < 0 or idx[-1] >= space.dim:
        raise ValueError("index set out of range or empty")
    return WeightedLp(space.p, np.asarray(space.weights)[idx])

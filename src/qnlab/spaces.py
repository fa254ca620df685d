"""Finite-dimensional quasi-normed spaces and their gauges.

A space is a symmetric star body in R^d given in one of five concrete
representations:

* :class:`WeightedLp`  -- balls of weighted p-gauges, 0 < p <= infinity;
* :class:`Quadratic`   -- ellipsoids ``x' A x <= 1``, A symmetric positive-definite;
* :class:`Schatten`    -- singular-value p-gauges on small matrices, 0 < p <= 2;
* :class:`Polytope`    -- convex hulls of symmetric vertex sets;
* :class:`RConvexAtoms` -- r-convex hulls of small atom sets, 0 < r <= 1.

Every space knows its gauge (Minkowski functional of the unit ball) and
the gauge of its convex envelope.  Its dual X* is the space of bounded
functionals, whose gauge is the support function of the envelope ball, so
a non-convex kind's dual is its envelope's; weighted Lp spaces, quadratic
balls and polytopes up to dim 5 state theirs, and Schatten balls have
none.  Each kind
evaluates its gauge in one batched kernel over rows; the scalar gauge is
that kernel on one row, and the envelope gauge is the gauge of the
envelope space, built once per space, as is the dual space.  The facts
that exact routes elsewhere rest on are methods of the kind, ``None``
where a kind lacks them: the quadratic form, the Lp form ``(p, a)`` with
``gauge(x) = ||a x||_p``, the ball's finite generators with their hull
exponent, the dual space, the closed-form enclosing and inscribed
ellipsoids, and the exact volume with its route.  The dual ball's atoms
derive from the dual space, and the coordinate scales and
unconditionality from the Lp form, once, in the base class.
Gauges satisfy the r-triangle inequality
``gauge(x + y)**r <= gauge(x)**r + gauge(y)**r`` for the space's
``r_exponent``.  Spaces are immutable values: array fields are copied and
frozen at construction and all methods are pure, so instances can be shared
freely across parallel work.

Exact facts used below and enforced by the test suite:

* a minimizing decomposition of ``x`` over atoms for an r-gauge (r <= 1)
  can be taken with support of size at most ``dim`` (basic solutions of the
  constraint system) and with no two atoms equal up to sign (r-triangle
  inequality), so atom gauges are computed by exhaustive enumeration of
  small subsets of the atoms taken once up to sign;
* the convex envelope of a weighted Lp ball with p < 1 is the weighted
  crosspolytope spanned by the per-axis extreme points, so envelope and
  dual spaces of those spaces have closed forms.

A kind's ``str`` is its canonical string form, a kind followed by
``key=value`` tokens, and :func:`parse_space` reads it back:

* ``euclidean dim=3``
* ``lp p=0.5 dim=3`` (optional ``weights=1,2,3``; ``p=inf`` allowed)
* ``schatten p=1 rows=2 cols=2``
* ``quadratic matrix=2,0.5;0.5,1`` (symmetric positive-definite)
* ``polytope vertices=1,0;0,1;-1,0;0,-1``
* ``atoms r=0.5 rows=1,0;0,1``
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
    MAX_DENSE_DIM,
    DegenerateMatrixError,
    as_integer,
    as_matrix,
    as_spd,
    as_vector,
    dedup_rows,
    frozen_array,
    orthonormal_complement,
    require_symmetric_rows,
    spd_power,
)

MAX_ATOMS = 12
_FEAS_TOL = 1e-9
_HORN_SLACK = 1e-9  # absolute float slack of horn_check


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _fmt_matrix(mat: np.ndarray) -> str:
    return ";".join(",".join(_fmt_float(v) for v in row) for row in np.asarray(mat))


class QuasiNormedSpace:
    """Base interface.  A kind implements one gauge kernel, ``_gauge_rows``,
    on validated rows; the scalar, batched and envelope gauges derive from
    it here, the dual ball's atoms from the dual space, and the coordinate
    scales and unconditionality from the one Lp form.  A kind's
    ``str`` is its string form (see the module docstring).
    ``gauge(x)`` equals ``gauge_many(x[None])[0]`` bit for bit;
    a row inside a larger batch can differ from it in the last bits, since
    matrix products sum in an order that depends on the batch size.  A
    search scores the batches of all its starts together, so a searched
    constant can differ in those bits from its witness re-evaluated alone,
    and those bits can decide a tie between starts."""

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

    @cached_property
    def _dual(self) -> "QuasiNormedSpace | None":
        return self.dual_space()

    def dual_space(self) -> "QuasiNormedSpace | None":
        """Space whose gauge is this space's dual gauge, the support
        function of the envelope ball (exact), or None.  Here: the
        envelope's dual, and None for a ball that is its own envelope,
        which a convex kind with a dual overrides."""
        env = self._envelope
        return None if env is self else env._dual

    @property
    def quadratic_form(self) -> np.ndarray | None:
        """Matrix A with gauge(x) = sqrt(x' A x), or None."""
        return None

    @property
    def is_euclidean(self) -> bool:
        a = self.quadratic_form
        return a is not None and bool(np.array_equal(a, np.eye(self.dim)))

    def lp_form(self) -> tuple[float, np.ndarray] | None:
        """(p, a) with gauge(x) = ||a x||_p, a the coordinate weights, or
        None: the one statement that the gauge is a weighted power sum."""
        return None

    @property
    def is_unconditional(self) -> bool:
        """Whether the gauge is nondecreasing in every |x_i|, as an Lp form is."""
        return self.lp_form() is not None

    def coordinate_scales(self, s: float) -> np.ndarray | None:
        """Scales a with gauge(x) = (sum_i (a_i |x_i|)^s)^(1/s), or None: the
        Lp form's weights at its finite exponent, and at every s in dim 1."""
        form = self.lp_form()
        if form is not None and form[0] == s and not math.isinf(s):
            return form[1]
        if self.dim == 1:
            e = np.ones(1)
            return self.gauge(e) * e
        return None

    def ball_atoms(self) -> tuple[np.ndarray, float] | None:
        """Finite generators G with their hull exponent e: the unit ball is
        the e-convex hull of G and -G; None for a ball without them."""
        return None

    def dual_atoms(self) -> np.ndarray | None:
        """Finite F with gauge(y) = max over f in F of <f, y>, or None.

        A convex ball is the polar of its dual ball, so F is the dual ball's
        generators when it is their convex hull; every kind that is a dual
        lists its generators with their negatives."""
        dual = self._dual if self.r_exponent == 1.0 else None
        gens = None if dual is None else dual.ball_atoms()
        return gens[0] if gens is not None and gens[1] == 1.0 else None

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
    dim = as_integer("dim", dim, 1)
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
        return cls(p, np.ones(as_integer("dim", dim, 1)))

    @classmethod
    def euclidean(cls, dim: int) -> "WeightedLp":
        return cls(2.0, np.ones(as_integer("dim", dim, 1)))

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

    def lp_form(self) -> tuple[float, np.ndarray]:
        return self.p, (self.weights if math.isinf(self.p) else self.weights ** (1.0 / self.p))

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

    def ball_atoms(self) -> tuple[np.ndarray, float] | None:
        if 1.0 < self.p < math.inf or (math.isinf(self.p) and self.dim > MAX_ATOMS):
            return None
        return self.envelope_atoms(), self.r_exponent

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
        if np.any(self.weights != self.weights[0]):
            return None
        radius = float(s[0]) * d ** (0.5 - 1.0 / self.p)
        return np.eye(d) / radius**2, False

    def exact_volume(self) -> tuple[float, str]:
        s, n, p = np.asarray(self.scales), self.dim, self.p
        if math.isinf(p):
            return float(2.0**n * np.prod(s)), "closed-form"
        log_vol = n * (math.log(2.0) + gammaln(1.0 + 1.0 / p)) - gammaln(1.0 + n / p)
        return float(math.exp(log_vol) * np.prod(s)), "closed-form"

    def __str__(self) -> str:
        p = _fmt_float(self.p)
        if np.all(self.weights == 1.0):
            return f"euclidean dim={self.dim}" if self.p == 2.0 else f"lp p={p} dim={self.dim}"
        return f"lp p={p} weights={_fmt_matrix(self.weights[None, :])}"


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

    def dual_space(self) -> "Quadratic":
        """The polar ellipsoid, of A^-1: its gauge is sqrt(f' A^-1 f)."""
        return Quadratic(spd_power(self.matrix, -1.0))

    def lp_form(self) -> tuple[float, np.ndarray] | None:
        a = self.matrix
        return None if np.any(a - np.diag(np.diag(a))) else (2.0, np.sqrt(np.diag(a)))

    def __str__(self) -> str:
        return f"quadratic matrix={_fmt_matrix(self.matrix)}"


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
        for name in ("rows", "cols"):  # shapes are capped at 6 per side
            object.__setattr__(self, name, as_integer(name, getattr(self, name), 1, 6))

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

    def __str__(self) -> str:
        return f"schatten p={_fmt_float(self.p)} rows={self.rows} cols={self.cols}"


@dataclass(frozen=True, eq=False)
class Polytope(QuasiNormedSpace):
    """Convex hull of a symmetric full-dimensional vertex set; r_exponent 1.

    For dim <= 5 the gauge is the facet form ``max_f <n_f, x>`` over the
    hull's outer normals, taken facet-major: ``normals @ points.T`` and a
    max down each column, so the reduction runs across the short facet
    axis of a long batch.  Above that it is the optimal value of the exact
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
            return (self.facet_normals @ pts.T).max(axis=0)
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

    def ball_atoms(self) -> tuple[np.ndarray, float]:
        return np.asarray(self.vertices), 1.0

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

    def dual_space(self) -> "Polytope | None":
        """Polytope whose gauge is this one's dual gauge (polar body), up
        to dim 5, where the facets are enumerated; None above that."""
        if self.dim > 5:
            return None
        n = np.asarray(self.facet_normals)
        return Polytope(dedup_rows(np.vstack([n, -n])))

    def __str__(self) -> str:
        return f"polytope vertices={_fmt_matrix(self.vertices)}"


@dataclass(frozen=True, eq=False)
class RConvexAtoms(QuasiNormedSpace):
    """r-convex hull of at most 12 spanning atoms, 0 < r <= 1.

    ``gauge(x) = min (sum |lam_i|^r)^(1/r)`` over decompositions
    ``x = sum lam_i a_i`` with signed lam.  A minimizer is supported on at
    most ``dim`` atoms, and it needs no atom twice up to sign: since
    ``|s|^r + |t|^r >= |s + t|^r`` for r <= 1, adding a copy or the negative
    of an atom never lowers the value.  So the gauge is computed exactly by
    enumerating subsets of size <= dim of the atoms taken once up to sign
    (the first of any exact copies or negatives stands for them all) and
    solving each linear system.  The envelope is the :class:`Polytope` of
    the atoms and their negatives, so envelope gauges read its facets for
    dim <= 5 and solve its LP above that.
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
    def _subset_solvers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        # (pinv of the (d x |S|) atom block, the block itself); see the docstring
        a = np.asarray(self.atoms)
        signed = [i for i, v in enumerate(a) if not any(
            np.array_equal(v, a[j]) or np.array_equal(v, -a[j]) for j in range(i))]
        out = []
        for size in range(1, min(len(signed), self.dim) + 1):
            for idx in itertools.combinations(signed, size):
                block = a[list(idx)].T  # d x size
                out.append((np.linalg.pinv(block), block))
        return out

    def _gauge_rows(self, pts: np.ndarray) -> np.ndarray:
        # columns, so each reduction runs across rows of an (|S|, n) array
        P = pts.T
        scale = np.maximum(1.0, np.abs(P).max(axis=0))
        best = np.full(P.shape[1], np.inf)
        for pinv, block in self._subset_solvers:
            lam = pinv @ P  # |S| x n
            resid = np.abs(block @ lam - P).max(axis=0)
            vals = (np.abs(lam) ** self.r).sum(axis=0) ** (1.0 / self.r)
            ok = resid <= _FEAS_TOL * scale
            best = np.where(ok & (vals < best), vals, best)
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

    def __str__(self) -> str:
        return f"atoms r={_fmt_float(self.r)} rows={_fmt_matrix(self.atoms)}"


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


@dataclass(frozen=True)
class HornResult:
    lhs: float
    rhs: float
    p: float
    k: int
    passed: bool


def horn_check_many(a_stack, b_stack, ps, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partial-sum comparisons of p-th powers of singular values on stacks
    ``(n, m, q)`` and ``(n, q, r)`` of pairs, at every k' <= k and every p
    in ``ps``: checks ``sum_{j<=k'} s_j(ab)^p <= sum_{j<=k'} s_j(a)^p s_j(b)^p``
    for 0 < p <= 1, the quasi-norm analogue of Horn's singular value product
    inequality, within an absolute slack of ``_HORN_SLACK``, from one SVD per
    factor.  Returns ``lhs``, ``rhs`` and ``passed``, each ``(len(ps), n, k)``,
    entry ``[t, :, k' - 1]`` for ``ps[t]`` and k'."""
    A, B = np.asarray(a_stack, dtype=float), np.asarray(b_stack, dtype=float)
    if A.ndim != 3 or B.ndim != 3 or len(A) != len(B) or A.shape[2] != B.shape[1]:
        raise ValueError(f"stacks of shapes {A.shape} and {B.shape} do not compose")
    if not (np.isfinite(A).all() and np.isfinite(B).all()) or max(A.shape[1:] + B.shape[2:]) > MAX_DENSE_DIM:
        raise ValueError(f"matrices must be finite and at most {MAX_DENSE_DIM} per side")
    if not (len(ps) >= 1 and all(0 < p <= 1 for p in ps)):
        raise ValueError("need at least one p, each in (0, 1]")
    k = as_integer("k", k, 1, min(A.shape[1], A.shape[2], B.shape[2]))
    # bit for bit as one pair: compute_uv=False, or a cumsum over k', rounds differently
    s_ab, s_a, s_b = (np.linalg.svd(m, full_matrices=False)[1][:, :k] for m in (A @ B, A, B))
    v = np.stack([np.stack([s_ab**p, (s_a * s_b) ** p]) for p in ps], axis=1)
    lhs, rhs = np.stack([v[..., :j].sum(axis=-1) for j in range(1, k + 1)], axis=-1)
    return lhs, rhs, lhs <= rhs + _HORN_SLACK


def horn_check(a, b, p: float, k: int) -> HornResult:
    """:func:`horn_check_many` on one pair, at p and k alone."""
    lhs, rhs, passed = horn_check_many(as_matrix(a)[None], as_matrix(b)[None], (p,), k)
    return HornResult(float(lhs[0, 0, -1]), float(rhs[0, 0, -1]), p, lhs.shape[-1], bool(passed[0, 0, -1]))


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
    idx = sorted({as_integer(f"indices[{j}]", i, 0, space.dim - 1) for j, i in enumerate(indices)})
    if not idx:
        raise ValueError("index set is empty")
    return WeightedLp(space.p, np.asarray(space.weights)[idx])


def _parse_float(text: str) -> float:
    if text.strip().lower() in ("inf", "+inf", "infinity"):
        return math.inf
    return float(text)


def _parse_matrix(text: str) -> np.ndarray:
    rows = [
        [_parse_float(v) for v in row.split(",") if v.strip() != ""]
        for row in text.split(";")
        if row.strip() != ""
    ]
    return np.array(rows, dtype=float)


def parse_space(text: str) -> QuasiNormedSpace:
    """Build a space from its string form (see the module docstring);
    ``parse_space(str(sp))`` equals sp."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty space string")
    kind, pairs = tokens[0].lower(), tokens[1:]
    kv: dict[str, str] = {}
    for tok in pairs:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        key, _, value = tok.partition("=")
        kv[key.lower()] = value

    def need(key: str) -> str:
        if key not in kv:
            raise ValueError(f"space kind {kind!r} needs {key}=...")
        return kv[key]

    allowed = {
        "euclidean": {"dim"},
        "lp": {"p", "dim", "weights"},
        "schatten": {"p", "rows", "cols"},
        "quadratic": {"matrix"},
        "polytope": {"vertices"},
        "atoms": {"r", "rows"},
    }
    if kind in allowed and not set(kv) <= allowed[kind]:
        unknown = sorted(set(kv) - allowed[kind])
        raise ValueError(f"unknown keys for space kind {kind!r}: {unknown}")

    if kind == "euclidean":
        return WeightedLp.euclidean(int(need("dim")))
    if kind == "lp":
        p = _parse_float(need("p"))
        if "weights" in kv:
            w = _parse_matrix(kv["weights"]).ravel()
            if "dim" in kv and int(kv["dim"]) != w.size:
                raise ValueError("dim does not match the weights length")
            return WeightedLp(p, w)
        return WeightedLp.unweighted(p, int(need("dim")))
    if kind == "schatten":
        return Schatten(_parse_float(need("p")), int(need("rows")), int(need("cols")))
    if kind == "quadratic":
        return Quadratic(_parse_matrix(need("matrix")))
    if kind == "polytope":
        return Polytope(_parse_matrix(need("vertices")))
    if kind == "atoms":
        return RConvexAtoms(_parse_matrix(need("rows")), _parse_float(need("r")))
    raise ValueError(f"unknown space kind {kind!r}")

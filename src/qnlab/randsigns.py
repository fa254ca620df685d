"""Averages over sign choices and the constants certified from them.

Sign averages ``(mean over eps of gauge(sum_i eps_i x_i)^q)^(1/q)`` are
enumerated exactly over all 2^N patterns for N <= 12, or sampled with a
standard error.  The constants built on top (quadratic-average domination
in either direction, the degree-one projection ratio) are suprema over
vector tuples; the search reports certified lower bounds with an explicit
witness tuple, refined by coordinate ascent from deterministic and seeded
random starts.  Re-evaluating the witness reproduces the reported value.

Sign pattern convention used everywhere in the package: pattern index j
has ``eps_i = +1`` when bit i of j is 0 and ``-1`` when it is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numkernel import RandomSource, as_matrix
from .spaces import OperatorSpec, QuasiNormedSpace

MAX_EXACT_N = 12
MAX_PROJECTION_N = 8


@lru_cache(maxsize=None)
def sign_patterns(n: int) -> np.ndarray:
    """All 2^n sign rows, in the package's fixed bit order."""
    if not (1 <= n <= MAX_EXACT_N):
        raise ValueError(f"exact enumeration supports 1 <= n <= {MAX_EXACT_N}")
    j = np.arange(2**n)[:, None]
    bits = (j >> np.arange(n)[None, :]) & 1
    out = 1.0 - 2.0 * bits
    out.setflags(write=False)
    return out


def _as_tuple(vectors, dim: int) -> np.ndarray:
    v = as_matrix(np.atleast_2d(np.asarray(vectors, dtype=float)), cols=dim)
    if v.shape[0] < 1:
        raise ValueError("need at least one vector")
    return v


def _power_mean(values: np.ndarray, q: float) -> float:
    if math.isinf(q):
        return float(values.max())
    return float(np.mean(values**q) ** (1.0 / q))


@dataclass(frozen=True)
class RademacherAverage:
    value: float
    stderr: float
    mode: str  # exact | sampled
    samples: int


def rademacher_average(
    space: QuasiNormedSpace,
    vectors,
    q: float,
    mode: str = "exact",
    rng: RandomSource | None = None,
    samples: int = 10_000,
) -> RademacherAverage:
    """q-th power mean of ``gauge(sum_i eps_i x_i)`` over sign patterns.

    ``mode='exact'`` enumerates all 2^N patterns (N <= 12, stderr 0);
    ``mode='sampled'`` draws at least 10_000 patterns and attaches a
    delta-method standard error (q = inf sampled reports stderr 0 on the
    max, which is only a lower estimate).
    """
    V = _as_tuple(vectors, space.dim)
    n = V.shape[0]
    if not (q > 0):
        raise ValueError("q must be positive (math.inf allowed)")
    if mode == "exact":
        if n > MAX_EXACT_N:
            raise ValueError(f"exact enumeration capped at N = {MAX_EXACT_N}")
        pts = sign_patterns(n) @ V
        gauges = space.gauge_many(pts)
        return RademacherAverage(_power_mean(gauges, q), 0.0, "exact", 2**n)
    if mode != "sampled":
        raise ValueError("mode must be 'exact' or 'sampled'")
    if rng is None:
        raise ValueError("sampled mode needs a RandomSource")
    if samples < 10_000:
        raise ValueError("sampled mode needs at least 10_000 patterns")
    signs = 1.0 - 2.0 * rng.generator().integers(0, 2, size=(samples, n))
    gauges = space.gauge_many(signs @ V)
    if math.isinf(q):
        return RademacherAverage(float(gauges.max()), 0.0, "sampled", samples)
    powers = gauges**q
    mean = float(np.mean(powers))
    sd = float(np.std(powers, ddof=1)) / math.sqrt(samples)
    value = mean ** (1.0 / q)
    stderr = sd / (q * mean ** (1.0 - 1.0 / q)) if mean > 0 else 0.0
    return RademacherAverage(value, stderr, "sampled", samples)


def khintchine_ratio(space: QuasiNormedSpace, vectors, q: float, s: float) -> float:
    """Ratio of the exact q-average to the exact s-average of the same sign sums."""
    if not (q > s > 0):
        raise ValueError("need q > s > 0")
    hi = rademacher_average(space, vectors, q)
    lo = rademacher_average(space, vectors, s)
    if lo.value == 0.0:
        raise ValueError("zero vectors give an undefined ratio")
    return hi.value / lo.value


@dataclass(frozen=True)
class ConstantEstimate:
    value: float
    kind: str  # always "certified-lower-bound" for searched constants
    witness: np.ndarray

    def __post_init__(self):
        w = np.array(self.witness, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "witness", w)


def _coordinate_ascent(objective, start: np.ndarray, budget: int) -> tuple[float, np.ndarray]:
    """Greedy per-entry ascent with a shrinking step; deterministic."""
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


def _best_ascent(objective, starts: list[np.ndarray], budget) -> tuple[float, np.ndarray]:
    """Coordinate ascent from each start in order; the strictly best value
    found and its point.  ``budget`` is the per-start evaluation budget, or
    a list of one per start; a start with budget 0 is only scored."""
    budgets = budget if isinstance(budget, list) else [budget] * len(starts)
    best_v, best = -math.inf, starts[0]
    for s, b in zip(starts, budgets):
        v, w = _coordinate_ascent(objective, s, b)
        if v > best_v:
            best_v, best = v, w
    return best_v, best


def _search_tuples(
    objective, n: int, dim: int, budget: int, rng: RandomSource | None
) -> tuple[float, np.ndarray]:
    """Best N-tuple of vectors in R^dim found by ascent from the coordinate
    vectors, the normalized ones vector repeated, the first axis repeated,
    and (given a source) max(2, budget) Gaussian tuples."""
    eye = np.eye(dim)
    starts = [
        np.array([eye[i % dim] for i in range(n)]),
        np.ones((n, dim)) / math.sqrt(dim),
        np.tile(eye[0], (n, 1)),
    ]
    if rng is not None:
        for i in range(max(2, budget)):
            starts.append(rng.split(7, i).generator().standard_normal((n, dim)))
    return _best_ascent(objective, starts, 60 * n * dim)


def type2_lower(
    u: OperatorSpec, n: int, budget: int = 8, rng: RandomSource | None = None
) -> ConstantEstimate:
    """Certified lower bound for the sign-average domination constant
    ``L2 average of gauge_Y(u x_i sum) <= T * (sum gauge_X(x_i)^2)^(1/2)``
    over N-tuples, with the maximizing witness tuple."""
    if not (1 <= n <= MAX_EXACT_N):
        raise ValueError(f"need 1 <= N <= {MAX_EXACT_N}")

    def objective(V):
        denom_sq = sum(u.source.gauge_many(V) ** 2)
        if denom_sq <= 1e-18:
            return 0.0
        avg = rademacher_average(u.target, V @ np.asarray(u.matrix).T, 2.0)
        return avg.value / math.sqrt(denom_sq)

    if not np.any(u.matrix):
        return ConstantEstimate(0.0, "certified-lower-bound", np.zeros((n, u.source.dim)))
    value, witness = _search_tuples(objective, n, u.source.dim, budget, rng)
    return ConstantEstimate(value, "certified-lower-bound", witness)


def cotype2_lower(
    u: OperatorSpec, n: int, budget: int = 8, rng: RandomSource | None = None
) -> ConstantEstimate:
    """Certified lower bound for the reverse domination constant
    ``(sum gauge_Y(u x_i)^2)^(1/2) <= C * L2 average of gauge_X(x_i sum)``."""
    if not (1 <= n <= MAX_EXACT_N):
        raise ValueError(f"need 1 <= N <= {MAX_EXACT_N}")

    def objective(V):
        avg = rademacher_average(u.source, V, 2.0)
        if avg.value <= 1e-18:
            return 0.0
        num_sq = sum(u.target.gauge_many(u.apply_many(V)) ** 2)
        return math.sqrt(num_sq) / avg.value

    if not np.any(u.matrix):
        return ConstantEstimate(0.0, "certified-lower-bound", np.zeros((n, u.source.dim)))
    value, witness = _search_tuples(objective, n, u.source.dim, budget, rng)
    return ConstantEstimate(value, "certified-lower-bound", witness)


def kconvexity_lower(
    u: OperatorSpec, n: int, budget: int = 8, rng: RandomSource | None = None
) -> ConstantEstimate:
    """Certified lower bound for the degree-one projection ratio.

    A function f on the sign cube with values in the source is pushed
    through u, projected onto its degree-one part
    ``(Pf)(eps) = sum_i c_i eps_i`` with ``c_i = mean(eps_i u f(eps))``,
    and the L2 ratio ``|Pf| / |f|`` is maximized over f.  The witness is
    the table of f values, one row per sign pattern.
    """
    if not (1 <= n <= MAX_PROJECTION_N):
        raise ValueError(f"projection search capped at N = {MAX_PROJECTION_N}")
    pats = sign_patterns(n)
    m = 2**n
    dx = u.source.dim

    def objective(F):
        denom = math.sqrt(float(np.mean(u.source.gauge_many(F) ** 2)))
        if denom <= 1e-18:
            return 0.0
        images = F @ np.asarray(u.matrix).T
        coeffs = (pats.T @ images) / m  # n x target_dim
        proj = pats @ coeffs
        num = math.sqrt(float(np.mean(u.target.gauge_many(proj) ** 2)))
        return num / denom

    starts = []
    eye = np.eye(dx)
    for j in range(dx):
        for i in range(n):
            starts.append(np.outer(pats[:, i], eye[j]))
    if not np.any(u.matrix):
        return ConstantEstimate(0.0, "certified-lower-bound", np.zeros((m, dx)))
    # degree-one starts are exact maximizers in the Euclidean case and are
    # only scored; random tables plus entry ascent explore beyond them
    budgets = [0] * len(starts)
    if rng is not None:
        for i in range(max(2, budget)):
            starts.append(rng.split(11, i).generator().standard_normal((m, dx)))
            budgets.append(40 * m)
    value, witness = _best_ascent(objective, starts, budgets)
    return ConstantEstimate(value, "certified-lower-bound", witness)

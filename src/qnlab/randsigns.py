"""Averages over sign choices and the constants certified from them.

Sign averages ``(mean over eps of gauge(sum_i eps_i x_i)^q)^(1/q)`` are
enumerated exactly over all 2^N patterns for N <= 12, or sampled with a
standard error.  The constants built on top (quadratic-average domination
in either direction, the degree-one projection ratio) are suprema over
vector tuples; the search reports certified lower bounds with an explicit
witness tuple, refined by coordinate ascent from deterministic and seeded
random starts.  Re-evaluating the witness reproduces the reported value.

The ascent's objectives are stacked: one call maps a stack of k candidates
to k values.  Each round scores every live start's moves in one call, charged
only up to the accepted move, so each start's iterates are a scalar loop's.

Sign pattern convention used everywhere in the package: pattern index j
has ``eps_i = +1`` when bit i of j is 0 and ``-1`` when it is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numkernel import RandomSource, as_integer, as_matrix
from .spaces import OperatorSpec, QuasiNormedSpace

MAX_EXACT_N = 12
MAX_PROJECTION_N = 8
_BATCH_ENTRIES = 1 << 16  # the most candidate entries one ascent batch holds


@lru_cache(maxsize=None, typed=True)  # typed: True is checked, not served the entry for 1
def sign_patterns(n: int) -> np.ndarray:
    """All 2^n sign rows, in the package's fixed bit order."""
    n = as_integer("n", n, 1, MAX_EXACT_N)
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


def _power_means(values: np.ndarray, q: float) -> np.ndarray:
    """q-th power mean along the last axis (np.mean's arithmetic, less its overhead)."""
    if math.isinf(q):
        return values.max(axis=-1)
    return ((values**q).sum(axis=-1) / values.shape[-1]) ** (1.0 / q)


def _row_gauges(space: QuasiNormedSpace, stack: np.ndarray) -> np.ndarray:
    """Gauges of the vectors along a stack's last axis, in the stack's shape."""
    return space.gauge_many(stack.reshape(-1, stack.shape[-1])).reshape(stack.shape[:-1])


def _sign_averages(space: QuasiNormedSpace, stack: np.ndarray, q: float) -> np.ndarray:
    """Exact q-th sign averages of every tuple in a ``(k, n, dim)`` stack."""
    return _power_means(_row_gauges(space, np.matmul(sign_patterns(stack.shape[1]), stack)), q)


def _guarded_ratio(num, den, ok: np.ndarray) -> np.ndarray:
    """``num / den`` where ``ok``, and 0 elsewhere (a vanishing denominator)."""
    return np.where(ok, num / np.where(ok, den, 1.0), 0.0)


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
    rng: RandomSource = RandomSource(0),
    samples: int = 10_000,
) -> RademacherAverage:
    """q-th power mean of ``gauge(sum_i eps_i x_i)`` over sign patterns.

    ``mode='exact'`` enumerates all 2^N patterns (N <= 12, stderr 0);
    ``mode='sampled'`` draws ``samples`` (an integer of at least 10_000;
    booleans and fractional counts raise ``ValueError``) patterns from
    ``rng`` and attaches a delta-method standard error (q = inf sampled
    reports stderr 0 on the max, which is only a lower estimate).
    """
    V = _as_tuple(vectors, space.dim)
    n = V.shape[0]
    if not (q > 0):
        raise ValueError("q must be positive (math.inf allowed)")
    if mode == "exact":  # sign_patterns rejects n > MAX_EXACT_N
        return RademacherAverage(float(_sign_averages(space, V[None], q)[0]), 0.0, "exact", 2**n)
    if mode != "sampled":
        raise ValueError("mode must be 'exact' or 'sampled'")
    samples = as_integer("samples", samples, 10_000)
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


def _ascent(start: np.ndarray, budget: int):
    """Greedy per-entry ascent from one start, as a generator that yields
    each candidate stack ``(k, *start.shape)``, is sent its k values and
    returns ``(value, point)``.  A sweep fixes its scales at its start and
    moves each entry by +step, then -step, from the current best, taking
    each move that improves by the factor ``1 + 1e-12``; a sweep without
    one halves the step.  Batches of moves (4 wide, then twice the last
    batch's charge, at most ``_BATCH_ENTRIES`` entries) are charged up to
    the accepted move only, so the iterates are those of a scalar loop."""
    best = start.copy()
    best_v = float((yield best[None])[0])
    entries = np.repeat(np.arange(best.size), 2)  # move i changes entry i // 2
    signs = np.tile([1.0, -1.0], best.size)
    step, evals, width = 0.25, 0, 4
    while evals < budget and step >= 1e-4:
        scales = np.maximum(np.abs(best).max(axis=-1), 1e-9)  # one per last-axis row
        moves = signs * step * np.repeat(scales, 2 * best.shape[-1])
        pos, improved = 0, False
        while pos < entries.size and evals < budget:
            take = min(width, entries.size - pos, budget - evals, max(1, _BATCH_ENTRIES // best.size))
            cands = np.repeat(best.reshape(1, -1), take, axis=0)
            cands[np.arange(take), entries[pos : pos + take]] += moves[pos : pos + take]
            vals = yield cands.reshape((take,) + best.shape)
            better = vals > best_v * (1.0 + 1e-12)
            j = int(better.argmax())
            if better[j]:  # the moves past j are discarded uncharged
                best_v, best, improved, take = float(vals[j]), cands[j].reshape(best.shape), True, j + 1
            evals, pos, width = evals + take, pos + take, 2 * take
        if not improved:
            step *= 0.5
    return best_v, best


def _best_ascent(objective, starts: list[np.ndarray], budget) -> tuple[float, np.ndarray]:
    """``_ascent`` from starts of one shape on a stacked objective, in
    lockstep: each round scores every live start's batch, in start order,
    in one call, or in consecutive calls of at most ``_BATCH_ENTRIES``
    entries that split no batch.  ``budget`` is per start, or a list of one
    per start; a start with budget 0 is only scored.  Returns the strictly
    best value and its point, the earlier start winning a tie."""
    runs = list(map(_ascent, starts, budget if isinstance(budget, list) else [budget] * len(starts)))
    results, live = [None] * len(runs), [(i, next(run)) for i, run in enumerate(runs)]
    while live:
        calls, size = [], math.inf
        for i, stack in live:
            if size + stack.size > _BATCH_ENTRIES:
                calls, size = calls + [[]], 0
            calls[-1].append((i, stack))
            size += stack.size
        live = []
        for call in calls:
            vals = objective(np.concatenate([stack for _, stack in call]))
            for i, stack in call:
                try:
                    live.append((i, runs[i].send(vals[: len(stack)])))
                except StopIteration as done:
                    results[i] = done.value
                vals = vals[len(stack) :]
    return max(results, key=lambda r: r[0])  # the first of equal maxima


def _search_tuples(objective, n: int, dim: int, budget: int, rng: RandomSource) -> ConstantEstimate:
    """Certified lower bound over N-tuples in R^dim, with its witness: ascent
    from the coordinate vectors, the normalized ones vector repeated, the
    first axis repeated, and max(2, budget) Gaussian tuples from ``rng``."""
    eye = np.eye(dim)
    starts = [
        np.array([eye[i % dim] for i in range(n)]),
        np.ones((n, dim)) / math.sqrt(dim),
        np.tile(eye[0], (n, 1)),
    ]
    starts += [rng.split(7, i).generator().standard_normal((n, dim)) for i in range(max(2, budget))]
    value, witness = _best_ascent(objective, starts, 60 * n * dim)
    return ConstantEstimate(value, "certified-lower-bound", witness)


def type2_lower(
    u: OperatorSpec, n: int, budget: int = 8, rng: RandomSource = RandomSource(0)
) -> ConstantEstimate:
    """Certified lower bound for the sign-average domination constant
    ``L2 average of gauge_Y(u x_i sum) <= T * (sum gauge_X(x_i)^2)^(1/2)``
    over N-tuples, with the maximizing witness tuple."""
    n, budget = as_integer("n", n, 1, MAX_EXACT_N), as_integer("budget", budget, 0)

    def objective(S):
        sq = _row_gauges(u.source, S) ** 2
        denom_sq = sum(sq[:, i] for i in range(n))  # left to right, as per tuple
        avg = _sign_averages(u.target, S @ np.asarray(u.matrix).T, 2.0)
        return _guarded_ratio(avg, np.sqrt(denom_sq), denom_sq > 1e-18)

    if not np.any(u.matrix):
        return ConstantEstimate(0.0, "certified-lower-bound", np.zeros((n, u.source.dim)))
    return _search_tuples(objective, n, u.source.dim, budget, rng)


def cotype2_lower(
    u: OperatorSpec, n: int, budget: int = 8, rng: RandomSource = RandomSource(0)
) -> ConstantEstimate:
    """Certified lower bound for the reverse domination constant
    ``(sum gauge_Y(u x_i)^2)^(1/2) <= C * L2 average of gauge_X(x_i sum)``."""
    n, budget = as_integer("n", n, 1, MAX_EXACT_N), as_integer("budget", budget, 0)

    def objective(S):
        avg = _sign_averages(u.source, S, 2.0)
        sq = _row_gauges(u.target, S @ np.asarray(u.matrix).T) ** 2
        return _guarded_ratio(np.sqrt(sum(sq[:, i] for i in range(n))), avg, avg > 1e-18)

    if not np.any(u.matrix):
        return ConstantEstimate(0.0, "certified-lower-bound", np.zeros((n, u.source.dim)))
    return _search_tuples(objective, n, u.source.dim, budget, rng)


def kconvexity_lower(
    u: OperatorSpec, n: int, budget: int = 8, rng: RandomSource = RandomSource(0)
) -> ConstantEstimate:
    """Certified lower bound for the degree-one projection ratio.

    A function f on the sign cube with values in the source is pushed
    through u, projected onto its degree-one part
    ``(Pf)(eps) = sum_i c_i eps_i`` with ``c_i = mean(eps_i u f(eps))``,
    and the L2 ratio ``|Pf| / |f|`` is maximized over f.  The witness is
    the table of f values, one row per sign pattern.
    """
    n, budget = as_integer("n", n, 1, MAX_PROJECTION_N), as_integer("budget", budget, 0)
    pats = sign_patterns(n)
    m = 2**n
    dx = u.source.dim

    def objective(F):
        denom = _power_means(_row_gauges(u.source, F), 2.0)
        coeffs = (pats.T @ (F @ np.asarray(u.matrix).T)) / m  # k x n x target_dim
        num = _power_means(_row_gauges(u.target, pats @ coeffs), 2.0)
        return _guarded_ratio(num, denom, denom > 1e-18)

    eye = np.eye(dx)
    starts = [np.outer(pats[:, i], eye[j]) for j in range(dx) for i in range(n)]
    if not np.any(u.matrix):
        return ConstantEstimate(0.0, "certified-lower-bound", np.zeros((m, dx)))
    # degree-one starts are exact maximizers in the Euclidean case and are
    # only scored; random tables plus entry ascent explore beyond them
    budgets = [0] * len(starts) + [40 * m] * max(2, budget)
    starts += [rng.split(11, i).generator().standard_normal((m, dx)) for i in range(max(2, budget))]
    value, witness = _best_ascent(objective, starts, budgets)
    return ConstantEstimate(value, "certified-lower-bound", witness)

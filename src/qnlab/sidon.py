"""Finite abelian groups, their characters, and interpolation-set
computations: the interpolation (Sidon) constant on sign groups via exact
linear programming, the exact comparison of group-side moment averages
against sign-average moments for vector-coefficient character sums, and a
certified lower bound on the worst imbalance of that comparison.

Conventions
-----------
* A group is a product of cyclic factors; element ``i`` has digit ``j``
  equal to ``(i // prod(factors[:j])) % factors[j]``.
* A character is an exponent tuple; its value at an element is
  ``exp(2 pi i * sum_j exp_j d_j / m_j)``.  When every factor is at most
  two the values are computed exactly as ``1 - 2*parity`` (floats +-1.0).
* Measures on the group are weight vectors against counting measure, so
  the total-variation norm is the plain absolute sum.
* The interpolation constant solves one linear program per orbit of sign
  patterns under translation and negation, which keep a measure's mass
  and multiply its transform by +-chi(h): an orbit has a single cost.
* Group-side averages of a gauge use normalized counting measure and the
  same power-mean helper as the sign-average code, so that for the full
  coordinate character set of a sign group both sides evaluate identical
  floating-point arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linprog

from .numkernel import RandomSource, as_integer, frozen_array
from .randsigns import (
    ConstantEstimate,
    _as_tuple,
    _guarded_ratio,
    _power_means,
    _row_gauges,
    _search_tuples,
    _sign_averages,
)
from .spaces import QuasiNormedSpace

MAX_GROUP_ORDER = 4096
MAX_SIDON_SET = 10


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups given by its factor sizes."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(m) for m in self.factors)
        if not factors or any(m < 2 for m in factors):
            raise ValueError("need at least one factor, each of size >= 2")
        object.__setattr__(self, "factors", factors)
        if self.order > MAX_GROUP_ORDER:
            raise ValueError(f"group order capped at {MAX_GROUP_ORDER}")

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def is_sign_group(self) -> bool:
        return all(m == 2 for m in self.factors)

    @cached_property
    def digit_table(self) -> np.ndarray:
        """Integer array (order x k): digit j of element i."""
        idx = np.arange(self.order)[:, None]
        strides = np.cumprod((1,) + self.factors[:-1])
        table = (idx // strides[None, :]) % np.array(self.factors)[None, :]
        table.setflags(write=False)
        return table


@dataclass(frozen=True)
class Character:
    """Character of a product group, given by one exponent per factor."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))


def coordinate_characters(group: FiniteAbelianGroup) -> tuple[Character, ...]:
    k = len(group.factors)
    return tuple(
        Character(tuple(1 if j == i else 0 for j in range(k))) for i in range(k)
    )


def all_characters(group: FiniteAbelianGroup) -> tuple[Character, ...]:
    return tuple(
        Character(exps) for exps in itertools.product(*(range(m) for m in group.factors))
    )


def character_matrix(group: FiniteAbelianGroup, chars) -> tuple[np.ndarray, np.ndarray]:
    """Value table (order x len(chars)) as (real part, imaginary part).

    Sign groups (all factors two) take an exact integer-parity path whose
    entries are the floats +-1.0 with zero imaginary part.
    """
    chars = tuple(chars)
    k = len(group.factors)
    for ch in chars:
        if len(ch.exponents) != k:
            raise ValueError("character exponent count must match the factor count")
        if not all(0 <= e < m for e, m in zip(ch.exponents, group.factors)):
            raise ValueError(f"character exponents must lie in [0, m_j); got {ch.exponents}")
    if not chars:
        raise ValueError("need at least one character")
    exps = np.array([ch.exponents for ch in chars]).T  # k x n
    digits = group.digit_table  # order x k
    if group.is_sign_group:
        parity = (digits @ exps) % 2
        return 1.0 - 2.0 * parity, np.zeros(parity.shape)
    fractions = (digits[:, :, None] * exps[None, :, :]) / np.array(group.factors)[None, :, None]
    angle = 2.0 * math.pi * fractions.sum(axis=1)
    return np.cos(angle), np.sin(angle)


@dataclass(frozen=True)
class SidonResult:
    """Worst-case interpolation cost over sign patterns on the set."""

    value: float
    pattern: np.ndarray  # maximizing signs, one per character
    measure: np.ndarray  # optimal interpolating weights on the group

    def __post_init__(self):
        object.__setattr__(self, "pattern", frozen_array(np.asarray(self.pattern, dtype=float)))
        object.__setattr__(self, "measure", frozen_array(np.asarray(self.measure, dtype=float)))


def sidon_constant(group: FiniteAbelianGroup, chars) -> SidonResult:
    """Exact interpolation constant of a character set on a sign group.

    For each sign pattern on the set, a linear program finds the measure
    of least total variation whose transform matches the pattern there;
    the constant is the largest such cost.  A translate by h or a negative
    of that measure has the same mass and matches the pattern times
    +-chi(h), so only the first pattern of each such orbit (in
    ``itertools.product`` order) is solved.  Restricted to sign groups
    (real character values) with at most ``MAX_SIDON_SET`` characters.
    """
    chars = tuple(chars)
    if not group.is_sign_group:
        raise NotImplementedError("interpolation constant implemented for sign groups only")
    if len(chars) > MAX_SIDON_SET:
        raise ValueError(f"character set capped at {MAX_SIDON_SET}")
    if len(set(ch.exponents for ch in chars)) != len(chars):
        raise ValueError("characters must be distinct")
    re, _ = character_matrix(group, chars)
    n_group, n_set = re.shape
    cost = np.ones(2 * n_group)
    a_eq = np.hstack([re.T, -re.T])  # transform of nu = plus - minus parts
    # pattern t has bit n_set-1-j set when sign j is -1; its orbit is t ^ orbit
    rows = (re < 0).astype(np.int64) @ (1 << np.arange(n_set - 1, -1, -1))
    orbit = np.concatenate([rows, rows ^ (2**n_set - 1)])
    done = np.zeros(2**n_set, dtype=bool)
    best = None
    for t, bits in enumerate(itertools.product((1.0, -1.0), repeat=n_set)):
        if done[t]:
            continue
        done[t ^ orbit] = True
        eps = np.array(bits)
        res = linprog(cost, A_eq=a_eq, b_eq=eps, bounds=(0, None), method="highs")
        if not res.success:
            raise RuntimeError(f"interpolation LP failed: {res.message}")
        if best is None or res.fun > best[0]:
            nu = res.x[:n_group] - res.x[n_group:]
            best = (float(res.fun), eps, nu)
    value, eps, nu = best
    return SidonResult(value, eps, nu)


@dataclass(frozen=True)
class CpRatio:
    group_side: float
    rademacher_side: float
    ratio: float


def _group_moments(space: QuasiNormedSpace, re, im, stack: np.ndarray, p: float) -> np.ndarray:
    """Group-side p-th moments of each tuple in a ``(k, n, dim)`` stack."""
    gauges = _row_gauges(space, np.matmul(re, stack))
    if np.any(im):
        gauges = np.maximum(gauges, _row_gauges(space, np.matmul(im, stack)))
    return _power_means(gauges, p)


def cp_ratio(
    group: FiniteAbelianGroup,
    chars,
    space: QuasiNormedSpace,
    p: float,
    vectors,
) -> CpRatio:
    """p-th moment of the gauge of a character sum over the group, against
    the same moment of the sign average with the same coefficients.

    Complex character values use the convention
    ``gauge(z) = max(gauge(Re z), gauge(Im z))`` per group element.  Both
    sides are exact: the group side sums over every element, and the
    sign-average side enumerates every sign pattern.
    """
    chars = tuple(chars)
    V = _as_tuple(vectors, space.dim)
    if V.shape[0] != len(chars):
        raise ValueError("need exactly one coefficient vector per character")
    if not (p > 0):
        raise ValueError("p must be positive (math.inf allowed)")
    group_side = float(_group_moments(space, *character_matrix(group, chars), V[None], p)[0])
    rad = float(_sign_averages(space, V[None], p)[0])
    if rad <= 0:
        raise ValueError("sign-average side vanished; ratio undefined")
    return CpRatio(group_side, rad, group_side / rad)


def imbalance_lower(
    group: FiniteAbelianGroup,
    chars,
    space: QuasiNormedSpace,
    p: float,
    budget: int = 4,
    rng: RandomSource = RandomSource(0),
) -> ConstantEstimate:
    """Certified lower bound for the worst moment-comparison imbalance
    ``max(ratio, 1/ratio)`` of ``cp_ratio`` over coefficient tuples, one
    vector per character, with the maximizing witness tuple."""
    budget = as_integer("budget", budget)
    if not (p > 0):
        raise ValueError("p must be positive (math.inf allowed)")
    re, im = character_matrix(group, chars)

    def objective(S):
        rad = _sign_averages(space, S, p)
        live = (_row_gauges(space, S).max(axis=-1) > 1e-12) & (rad > 0)
        ratio = _guarded_ratio(_group_moments(space, re, im, S, p), rad, live)
        return np.maximum(ratio, _guarded_ratio(1.0, ratio, ratio > 0))

    return _search_tuples(objective, re.shape[1], space.dim, budget, rng)

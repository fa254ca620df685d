"""Every count at the API boundary goes through ``numkernel.as_integer``.

Each site below names a count parameter, a call that passes a value for
it, and the count's inclusive bounds.  A boolean, a fraction, a value
below the lower bound and one above the upper bound must raise
``ValueError`` naming the parameter; the smallest valid value must run.
"""

import re

import numpy as np
import pytest

from qnlab.factorization import approx_numbers, gamma2_upper, gaussian_mean, op_norm
from qnlab.geometry import section_projection_volume_check, volume
from qnlab.harness import ExperimentConfig
from qnlab.interpolation import NormPair, ThetaParams, equal_norms_type, k_functional, theta_norm
from qnlab.numkernel import RandomSource
from qnlab.randsigns import (
    MAX_EXACT_N,
    MAX_PROJECTION_N,
    cotype2_lower,
    kconvexity_lower,
    rademacher_average,
    sign_patterns,
    type2_lower,
)
from qnlab.sidon import Character, FiniteAbelianGroup, all_characters, character_matrix, imbalance_lower
from qnlab.spaces import (
    OperatorSpec,
    Schatten,
    WeightedLp,
    coordinate_section,
    horn_check_many,
    unit_ball_volume,
)

EUCLID2 = WeightedLp.euclidean(2)
L1_3 = WeightedLp.unweighted(1.0, 3)
MAP = OperatorSpec(np.array([[1.0, 2.0], [0.0, 1.0]]), EUCLID2, WeightedLp.unweighted(1.5, 2))
SEARCHED_MAP = OperatorSpec(np.eye(2), EUCLID2, WeightedLp.unweighted(0.5, 2))
EXACT_PAIR = NormPair.diagonal([1.0, 2.0], [2.0, 1.0])
SEARCHED_PAIR = NormPair.from_spaces(WeightedLp(1.5, [1.0, 2.0]), WeightedLp(0.5, [2.0, 1.0]))
X = np.array([0.8, -0.6])
Z2 = FiniteAbelianGroup((2,))
EYES = np.eye(2)[None]


def _schatten(rows, cols):
    space = Schatten(1.0, rows, cols)
    return space.gauge(np.ones(space.dim))


# (id, parameter name in the error, call with the count, low, high)
SITES = [
    *[
        (f"ExperimentConfig-{f}", f, lambda v, f=f: ExperimentConfig(experiment="suite:horn", **{f: v}), 1, None)
        for f in ("dim", "samples", "trials", "budget")
    ],
    ("op_norm-budget", "budget", lambda v: op_norm(SEARCHED_MAP, budget=v), 1, None),
    ("gamma2_upper-budget", "budget", lambda v: gamma2_upper(SEARCHED_MAP, budget=v), 0, None),
    ("approx_numbers-k", "k", lambda v: approx_numbers(MAP, v), 1, None),
    ("gaussian_mean-samples", "samples", lambda v: gaussian_mean(MAP, samples=v), 1000, None),
    ("volume-samples", "samples", lambda v: volume(L1_3, "monte-carlo", RandomSource(1), v), 10_000, None),
    ("section_projection_volume_check-subset", "subset[0]", lambda v: section_projection_volume_check(L1_3, [v]), 0, 2),
    ("WeightedLp.unweighted-dim", "dim", lambda v: WeightedLp.unweighted(1.5, v), 1, None),
    ("WeightedLp.euclidean-dim", "dim", lambda v: WeightedLp.euclidean(v), 1, None),
    ("unit_ball_volume-dim", "dim", unit_ball_volume, 1, None),
    ("Schatten-rows", "rows", lambda v: _schatten(v, 2), 1, 6),
    ("Schatten-cols", "cols", lambda v: _schatten(2, v), 1, 6),
    ("horn_check_many-k", "k", lambda v: horn_check_many(EYES, EYES, (0.5,), v), 1, 2),
    ("coordinate_section-indices", "indices[0]", lambda v: coordinate_section(L1_3, [v]), 0, 2),
    ("sign_patterns-n", "n", sign_patterns, 1, MAX_EXACT_N),
    (
        "rademacher_average-samples",
        "samples",
        lambda v: rademacher_average(EUCLID2, np.eye(2), 2.0, mode="sampled", samples=v),
        10_000,
        None,
    ),
    ("type2_lower-n", "n", lambda v: type2_lower(MAP, v, budget=0), 1, MAX_EXACT_N),
    ("type2_lower-budget", "budget", lambda v: type2_lower(MAP, 1, budget=v), 0, None),
    ("cotype2_lower-n", "n", lambda v: cotype2_lower(MAP, v, budget=0), 1, MAX_EXACT_N),
    ("cotype2_lower-budget", "budget", lambda v: cotype2_lower(MAP, 1, budget=v), 0, None),
    ("kconvexity_lower-n", "n", lambda v: kconvexity_lower(MAP, v, budget=0), 1, MAX_PROJECTION_N),
    ("kconvexity_lower-budget", "budget", lambda v: kconvexity_lower(MAP, 1, budget=v), 0, None),
    ("ThetaParams-nodes", "nodes", lambda v: theta_norm(EXACT_PAIR, ThetaParams(0.5, nodes=v), X), 50, None),
    (
        "ThetaParams-budget",
        "budget",
        lambda v: theta_norm(EXACT_PAIR, ThetaParams(0.5, nodes=50, budget=v), X),
        1,
        None,
    ),
    ("k_functional-budget", "budget", lambda v: k_functional(SEARCHED_PAIR, 1.0, 1.0, X, budget=v), 1, None),
    ("equal_norms_type-n", "n", lambda v: equal_norms_type(EUCLID2, 1.0, v, budget=0), 1, 12),
    ("equal_norms_type-budget", "budget", lambda v: equal_norms_type(EUCLID2, 1.0, 1, budget=v), 0, None),
    ("FiniteAbelianGroup-factors", "factors[0]", lambda v: FiniteAbelianGroup((v, 2)).order, 2, None),
    ("Character-exponents", "exponents[0]", lambda v: character_matrix(Z2, [Character((v,))]), None, None),
    (
        "imbalance_lower-budget",
        "budget",
        lambda v: imbalance_lower(Z2, all_characters(Z2), EUCLID2, 2.0, budget=v),
        0,
        None,
    ),
]


def _cases():
    for site, name, call, low, high in SITES:
        base = 0 if low is None else low
        bad = {"bool": True, "fraction": base + 0.5}
        if low is not None:
            bad["below"] = low - 1
        if high is not None:
            bad["above"] = high + 1
        for case, value in bad.items():
            yield pytest.param(name, call, value, False, id=f"{site}-{case}")
        yield pytest.param(name, call, base, True, id=f"{site}-smallest")


@pytest.mark.parametrize("name,call,value,valid", list(_cases()))
def test_count_checked_at_the_boundary(name, call, value, valid):
    if valid:
        call(value)
    else:
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be "):
            call(value)

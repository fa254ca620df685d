"""qnlab: a desk-scale numerical laboratory for finite-dimensional
quasi-normed spaces — concrete gauges, ellipsoids and volumes, sign-average
constants, interpolation functionals, Euclidean factorizations, character
sums, and a seeded experiment harness that checks every claim it can at
explicit tolerances.
"""

from .numkernel import DegenerateMatrixError, RandomSource
from .spaces import (
    HornResult,
    OperatorSpec,
    Polytope,
    Quadratic,
    QuasiNormedSpace,
    RConvexAtoms,
    Schatten,
    WeightedLp,
    coordinate_section,
    horn_check,
    horn_check_many,
    parse_space,
    quotient,
)
from .geometry import (
    Ellipsoid,
    InscribedResult,
    RatioEstimate,
    SantaloResult,
    SplitVolumeResult,
    VolumeEstimate,
    inscribed_ellipsoid,
    mvee,
    mvee_of_ball,
    santalo_check,
    section_projection_volume_check,
    unit_ball_volume,
    volume,
    vr_star,
)
from .interpolation import (
    KValue,
    NormPair,
    OperatorInterpolationResult,
    ThetaNormResult,
    ThetaParams,
    diagonal_theta_norm,
    equal_norms_type,
    interp_operator_bound_check,
    k_functional,
    quadratic_theta_norm_exact,
    theta_norm,
    theta_norm_constant,
)
from .randsigns import (
    ConstantEstimate,
    RademacherAverage,
    cotype2_lower,
    kconvexity_lower,
    khintchine_ratio,
    rademacher_average,
    sign_patterns,
    type2_lower,
)
from .factorization import (
    ApproxNumber,
    FactorizationWitness,
    Gamma2Result,
    GaussianMean,
    OpNormResult,
    approx_numbers,
    delta,
    envelope_distance,
    euclidean_distance,
    gamma2_upper,
    gaussian_mean,
    op_norm,
)
from .sidon import (
    Character,
    CpRatio,
    FiniteAbelianGroup,
    SidonResult,
    all_characters,
    character_matrix,
    coordinate_characters,
    cp_ratio,
    imbalance_lower,
    sidon_constant,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    list_experiments,
    parse_group,
    run,
    write_report,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

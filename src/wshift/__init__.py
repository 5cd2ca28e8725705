"""wshift: weighted Wasserstein goodness-of-fit testing for weak distribution shifts.

The package models a weak shift away from a reference law P toward a
signal law Q as movement along the optimal-transport path between them,
and tests for it with the scaled statistic ``n * W2^2(P_n, P)`` under a
configurable weight measure on the quantile axis. Critical values come
from tabulated constants, Monte Carlo simulation of the Brownian-bridge
limit law, or resampling; an experiment harness reproduces the phase
transition in the shift decay rate and the boundary power behavior.
"""

from .distributions import (
    AnalyticDistribution,
    EmpiricalDistribution,
    affine,
    gaussian,
    sample,
    sine_distribution,
    sine_quantile,
    tail_distribution,
    tail_quantile,
    truncate,
    two_point,
    uniform01,
)
from .errors import (
    DataFormatError,
    DomainError,
    EmptySampleError,
    ParameterError,
    SingularDensityError,
    UnboundedSupportError,
    WShiftError,
)
from .experiments import (
    ComparisonConfig,
    PhaseConfig,
    PowerMapConfig,
    ResultTable,
    WeightComparisonConfig,
    run_ks_comparison,
    run_phase_transition,
    run_power_map,
    run_weight_comparison,
)
from .hypotest import (
    LimitLawCritical,
    ResamplingCritical,
    TabulatedCritical,
    TestConfig,
    TestOutcome,
    resampling_critical_value,
    resampling_power,
    run_test,
    wasserstein_statistic,
)
from .limitlaw import (
    BridgeGrid,
    CriticalValue,
    LimitLawSampler,
    case_ii_variance,
    critical_value,
    sample_psi_null,
    theoretical_type2,
)
from .transport import (
    Histogram,
    WeightMeasure,
    displacement_interpolate,
    lebesgue,
    quadratic_weight,
    relative_distance_curve,
    tv_distance,
    w2_weighted,
    w2_weighted_squared,
    wp_distance,
)

__version__ = "0.1.0"

"""Reverse-test fidelity toolkit.

Numerics for the reverse-test minimal quantum fidelity F_min, its
generalized-f family, the Uhlmann fidelity, reverse-test constructions,
SLD/RLD information geometry, geodesic flows, and a variational estimator
for the RLD path-length fidelity F_R.
"""

from .divergences import (
    DeltaMaxBounds,
    OperatorMonotoneSpec,
    classical_fidelity,
    delta_max_bounds,
    delta_max_pure,
    f_f_min,
    f_min,
    f_min_pure,
    f_min_via_geomean,
    generalized_fidelity_classical,
    kl_divergence,
    quasi_entropy_comparison,
    reverse_relative_entropy,
    t_operator,
    trace_distance_classical,
    trace_distance_quantum,
    uhlmann_fidelity,
)
from .errors import (
    DimensionMismatchError,
    DomainError,
    NotPsdError,
    RevfidError,
    SingularStateError,
    ValidationError,
)
from .geometry import (
    Curve,
    ExpansionReport,
    FisherReport,
    GeodesicState,
    TangentPoint,
    arccos_product_bound_holds,
    classical_fisher,
    commutative_geodesic_flow,
    curve_length,
    curve_speeds,
    expansion_check,
    fisher_both,
    fmin_geodesic,
    fr_estimate,
    geodesic_start,
    rld_fisher,
    rld_geodesic_flow,
    sld_fisher,
    tangent_reverse_estimation,
)
from .linalg import (
    HermitianMatrix,
    PsdReport,
    SpectralDecomposition,
    eig_hermitian,
    geometric_mean,
    matrix_sqrt,
    trace_norm,
)
from .reverse_tests import (
    ReverseTest,
    VerificationReport,
    general_reverse_test,
    hidden_pair,
    hidden_pair_fidelity,
    minimal_reverse_test,
    mixture_reverse_test,
    pure_target_reverse_test,
    sample_contraction,
    verify_reverse_test,
)
from .states import (
    Channel,
    DensityMatrix,
    ProbDist,
    PureState,
    SignedVector,
    apply_channel,
    basis_measurement,
    embed_classical,
    make_density,
    measure,
    preparation_channel,
    random_channel,
    random_density,
    random_pure,
    random_tangent,
    rng_for,
    state_distance,
    tensor,
)

__version__ = "0.1.0"

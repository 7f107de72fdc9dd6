"""Cone-ordered fixed-point experiments in finite-dimensional lp spaces.

The package provides lp space geometry (norms, modulus of convexity),
cone-induced partial orders, declarative monotone self-maps with sampled
property verifiers, Picard/Mann orbit generation, asymptotic-center
minimization, and campaign-style verification suites with a CLI front end.
"""

from orderfp.space import (
    SpaceSpec,
    ConvexityProfile,
    as_vector,
    norm,
    modulus_of_convexity,
    convexity_profile,
    check_convexity_inequality,
)
from orderfp.order import (
    ConeSpec,
    contains,
    leq,
    sup_pair,
    inf_pair,
    project_to_cone,
    normality_constant_estimate,
    is_norm_monotonic,
)
from orderfp.report import PropertyReport, Violation
from orderfp.mapping import (
    Domain,
    MappingSpec,
    AffineMap,
    TruncationMap,
    TranslationMap,
    BoxProjectionMap,
    CompositionMap,
    GridMap,
    SamplerConfig,
    apply_map,
    is_monotone,
    is_monotone_nonexpansive,
    is_alpha_nonexpansive,
    is_quasi_nonexpansive,
    check_displacement_bound,
    classify_hilbert_classes,
    fixed_point_oracle,
    GridSearchConfig,
    mapping_to_dict,
    mapping_from_dict,
)
from orderfp.iterate import (
    IterationConfig,
    OrbitRecord,
    picard_orbit,
    mann_orbit,
    check_orbit_monotone,
    monotone_limit,
)
from orderfp.asymcenter import (
    AsymCenterProblem,
    AsymCenterResult,
    asymptotic_radius,
    solve_asym_center,
    verify_center_is_fixed,
)

__version__ = "0.1.0"

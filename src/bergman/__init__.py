"""Bergman kernel coefficient engine.

Computes the coefficient expansion of Bergman kernels attached to a real
analytic Kahler potential given as a truncated power series, by two
independent routes (a divergence-form recursion and a transport equation
chain), evaluates the truncated off-diagonal kernel, and verifies closed
forms, growth bounds and decay rates against exact model-space oracles.
"""

from .chsc import (
    ChscModel,
    chsc_coefficients,
    delta0_taylor_coeffs,
    polynomial_identity_check,
)
from .coefficients import (
    CoefficientTable,
    NormTable,
    amplitude_from_b,
    bergman_coefficients,
    derivative_norm_table,
)
from .growth import (
    GrowthFit,
    exp_factorial_bound_check,
    fit_growth,
    truncation_minimizer,
    worst_case_norm_table,
)
from .kernel import (
    DecayFit,
    KernelReport,
    choose_truncation_order,
    eval_KN,
    eval_KN_chsc_closed,
    log_asymptotic_fit,
    scaling_fit,
)
from .potential import (
    DegreeBudgetError,
    GeometryPack,
    PotentialSpec,
    SpecValidationError,
    build_geometry,
    check_good_contour,
    diastasis,
    make_preset,
    polarize,
    preset_chsc,
    preset_flat,
    preset_quartic,
)
from .series import TruncatedSeries, mul_trunc
from .transport import (
    TransportChain,
    first_amplitude,
    next_amplitude,
    reconstruct_coefficients,
    transport_chain,
)

__version__ = "0.1.0"

__all__ = [
    "ChscModel",
    "CoefficientTable",
    "DecayFit",
    "DegreeBudgetError",
    "GeometryPack",
    "GrowthFit",
    "KernelReport",
    "NormTable",
    "PotentialSpec",
    "SpecValidationError",
    "TransportChain",
    "TruncatedSeries",
    "amplitude_from_b",
    "bergman_coefficients",
    "build_geometry",
    "check_good_contour",
    "choose_truncation_order",
    "chsc_coefficients",
    "delta0_taylor_coeffs",
    "derivative_norm_table",
    "diastasis",
    "eval_KN",
    "eval_KN_chsc_closed",
    "exp_factorial_bound_check",
    "fit_growth",
    "log_asymptotic_fit",
    "make_preset",
    "mul_trunc",
    "polarize",
    "polynomial_identity_check",
    "preset_chsc",
    "preset_flat",
    "preset_quartic",
    "first_amplitude",
    "next_amplitude",
    "reconstruct_coefficients",
    "scaling_fit",
    "transport_chain",
    "truncation_minimizer",
    "worst_case_norm_table",
    "__version__",
]

"""Numerical verification of a weighted fractional-integral identity and the
Hadamard/Ostrowski/Simpson-type bounds it generates for functions whose
|f'|^q is harmonically quasi-convex.

Closed-form kernel constants (via the Gauss hypergeometric function) are
cross-checked against independent adaptive quadrature throughout; `hqfi
verify` sweeps the whole construction over parameter grids.
"""
from .bounds import (
    BoundReport,
    ParamPoint,
    Theorem,
    Variant,
    bound,
    evaluate_bound,
    identity_lhs,
    identity_rhs,
    ostrowski_bound,
    specialize,
)
from .fracint import rl_left, rl_right
from .harmonic import (
    ConvexityVerdict,
    IntervalDomain,
    ScalarFunction,
    abs_derivative_power,
    check_harmonically_convex,
    check_harmonically_quasiconvex,
    corpus,
    validate_corpus,
)
from .harness import TOOL_VERSION, CampaignReport, SweepConfig, run_checkfn, run_constants, run_verify
from .kernels import c1, c2, c3, kernel_oracle
from .quad import QuadratureError, integrate, integrate_singular
from .specialfn import beta, gamma, hyp2f1, hyp2f1_integral, hyp2f1_series

__version__ = TOOL_VERSION

__all__ = [
    "__version__",
    "TOOL_VERSION",
    # quadrature
    "QuadratureError",
    "integrate",
    "integrate_singular",
    # special functions
    "gamma",
    "beta",
    "hyp2f1",
    "hyp2f1_series",
    "hyp2f1_integral",
    # fractional operators
    "rl_left",
    "rl_right",
    # convexity machinery
    "IntervalDomain",
    "ScalarFunction",
    "ConvexityVerdict",
    "check_harmonically_convex",
    "check_harmonically_quasiconvex",
    "abs_derivative_power",
    "corpus",
    "validate_corpus",
    # kernel moments
    "c1",
    "c2",
    "c3",
    "kernel_oracle",
    # identity and bounds
    "ParamPoint",
    "Theorem",
    "Variant",
    "BoundReport",
    "identity_lhs",
    "identity_rhs",
    "bound",
    "evaluate_bound",
    "specialize",
    "ostrowski_bound",
    # campaigns
    "SweepConfig",
    "CampaignReport",
    "run_verify",
    "run_constants",
    "run_checkfn",
]

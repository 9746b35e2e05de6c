"""Weighted deviation functionals, kernel-norm error bounds, and CDF
applications, with an expression mini-language and a report CLI."""

from .bounds import (
    BoundSet,
    BranchTriple,
    audit_paper_vs_exact,
    bound_set,
    bounds_cerone,
    bounds_dragomir,
    bounds_exact,
    bounds_paper,
    bounds_split,
    corollary_bounds,
    sharpness_search,
)
from .cdf import (
    CdfReport,
    DensityModel,
    cdf_bound_general,
    cdf_bound_left,
    cdf_value,
    expectation_identity_check,
    normalized_density,
    reliability,
)
from .expr import as_fn1d, differentiate, evaluate, parse, to_str
from .functionals import deviation_S, sigma_w, tau, tau_combination, tau_decomposed
from .kernel import (
    TauParams,
    identity_residual,
    kernel_l1,
    kernel_lq,
    kernel_sup,
    peano_kernel,
)
from .norms import NormTriple, conjugate, norm_inf, norm_p, norm_triple
from .quadrature import (
    DegenerateIntervalError,
    Fn1D,
    QuadConfig,
    QuadratureError,
    integrate,
    weighted_mean,
)
from .weights import DomainError, Weight, builtin_weight

__version__ = "0.1.0"

"""Weighted deviation functionals, kernel-norm error bounds, and CDF
applications, with an expression mini-language and a report CLI."""

from .bounds import (
    BoundSet,
    audit_paper_vs_exact,
    bound_set,
    bounds_cerone,
    bounds_dragomir,
    bounds_exact,
    bounds_paper,
    corollary_bounds,
    kernel_norms,
    sharpness_search,
)
from .cdf import (
    CdfReport,
    DensityModel,
    cdf_bound_general,
    cdf_bound_left,
    expectation_identity_check,
)
from .expr import as_fn1d, compile_expr, parse
from .functionals import deviation_S, sigma_w, tau, tau_combination, tau_decomposed
from .kernel import (
    TauParams,
    kernel_integral,
    kernel_l1,
    kernel_lq,
    kernel_sup,
    peano_kernel,
)
from .norms import Triple, conjugate, norm_inf, norm_p, norm_triple
from .quadrature import (
    DegenerateIntervalError,
    Fn1D,
    QuadConfig,
    QuadratureError,
    integrate,
    weighted_mean,
)
from .weights import DomainError, Weight, builtin_weight, tabulated_weight

__version__ = "0.1.0"

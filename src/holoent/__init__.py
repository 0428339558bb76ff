"""Entanglement entropy of product-section states on the sphere.

States live in the tensor product of two copies of the space of degree-k
holomorphic sections; the package computes their Schmidt data and
entropy, the kernel of restriction to the antidiagonal circle together
with its distinguished extremal states, Toeplitz compressions of
rational-monomial symbols, and Monte-Carlo sphere averages of entropy.
"""

from .errors import (
    DegenerateSpectrum,
    DomainError,
    HoloentError,
    IndexOutOfRange,
    NotNormalized,
    NotOrthonormal,
    SingularFit,
    ZeroState,
)
from .optimize import OptProblem, OptResult, critical_residual, entropy_and_gradient, maximize
from .restriction import (
    LambdaRestriction,
    bell_vector,
    diagonal_kernel_basis,
    kernel_basis,
    max_entropy_vector,
    near_product_entropy,
    near_product_vector,
    restrict,
)
from .sampling import (
    MCEstimate,
    asymptotic_mean_entropy,
    fit_tail,
    mc_mean_entropy,
    page_mean,
    sample_uniform_state,
)
from .sections import (
    basis_norm_const,
    basis_values,
    evaluate_section,
    monomial_integral,
    section_inner_product,
)
from .states import (
    ReducedDensity,
    SchmidtData,
    StateTensor,
    entanglement_entropy,
    frobenius_norm,
    partial_trace_first,
    schmidt,
    schmidt_rank,
)
from .toeplitz import (
    SymbolExpr,
    SymbolTerm,
    ToeplitzMatrix,
    evaluate_symbol,
    kernel_projection_symbol,
    projection_matrix,
    toeplitz_matrix,
)

__version__ = "0.1.0"

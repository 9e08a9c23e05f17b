"""Verification laboratory for a subadditive operator family on l^p(N, alpha).

The base object is the heavy-tailed law alpha_j = C_j/2^(2j+1) (C_j Catalan)
and the barycenter operator A = sum_j alpha_j T^j built from the translation
T on the weighted sequence space.  The package computes convolution powers
exactly or in certified float rows, brackets the infinite sums in certified
enclosures, and runs the desk-scale experiments showing ||A^n||_p/n -> 0
while sup_n ||A^n||_p = infinity, together with a Monte Carlo cross-check.
"""

from .errors import (
    EmptyGridError,
    HeavyTailUnreliableError,
    NotInLpError,
    NotSummableError,
    ResourceLimitError,
    SubaddLabError,
)
from .lpspace import (
    Enclosure,
    EventuallyConstant,
    FiniteTable,
    IndicatorGE,
    IndicatorWindow,
    PowerGrowth,
    apply_A_pow,
    barycenter_residual,
    cesaro_A,
    cesaro_T,
    contraction_bound_check,
    image_p_norm,
    p_norm,
)
from .weights import alpha_exact, alpha_pow_exact, alpha_pow_log, tail_exact

__version__ = "0.1.0"

__all__ = [
    "Enclosure",
    "EmptyGridError",
    "EventuallyConstant",
    "FiniteTable",
    "HeavyTailUnreliableError",
    "IndicatorGE",
    "IndicatorWindow",
    "NotInLpError",
    "NotSummableError",
    "PowerGrowth",
    "ResourceLimitError",
    "SubaddLabError",
    "alpha_exact",
    "alpha_pow_exact",
    "alpha_pow_log",
    "apply_A_pow",
    "barycenter_residual",
    "cesaro_A",
    "cesaro_T",
    "contraction_bound_check",
    "image_p_norm",
    "p_norm",
    "tail_exact",
    "__version__",
]

"""Exact tensor-power multiplicities for type-A Lie (super)algebras.

Multiplicities are computed by applying the signed expansion of a
(generalized) Weyl denominator as a shift operator to restricted occupancy
counts, and every route is cross-validated against independent symmetric
function oracles.  All arithmetic is exact integer arithmetic.
"""

from .diffformula import apply_shift, even_branching_multiplicity, multiplicities, table
from .errors import (
    ArityMismatch,
    InvalidTruncation,
    NonStandardWeight,
    NonTerminating,
    NotClosed,
    SizeMismatch,
    TensormultError,
    TooManyRows,
)
from .occupancy import (
    occupancy_coefficient,
    occupancy_table,
    standard_m_vectors,
    super_occupancy_coefficient,
    super_occupancy_table,
)
from .oracle import (
    hook_length_dimension,
    hook_schur_expansion,
    kostka,
    matrix_count,
    pieri_expansion,
    schur_expansion,
    schur_expansion_pieri,
    weyl_dimension,
)
from .partitions import (
    conjugate,
    hook_from_super_m,
    hook_lengths,
    lambda_from_m,
    m_from_lambda,
    partition,
    super_m_from_hook,
)
from .sympoly import SparsePoly, hook_schur, vandermonde
from .weyl import (
    SignedExpansion,
    SuperRootSubset,
    close_root_subset,
    weyl_denominator_ar,
    weyl_denominator_subalgebra,
    weyl_denominator_super,
    weyl_denominator_super_subalgebra,
)

__version__ = "0.1.0"

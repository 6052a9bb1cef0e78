"""Exact arithmetic for varieties of complexes.

The package computes with the space of all differentials on a fixed
graded vector space: its stratification by rank vectors, the tangent and
homotopy linear algebra at a stratum point, local chart maps, and the
limit of a one-parameter family of complexes as t -> 0, realized as a
reduced spectral sequence with a boundary stratum label.  All arithmetic
is exact (rationals, small prime fields, and rational functions regular
at t = 0); every basis-producing operation is deterministic, so results
are canonical and equality is decidable.
"""

from .complexes import (CohomologyData, Complex, GradedMap, NotAComplexError,
                        TangentData, assemble_D_delta,
                        canonical_representative, cohomology, morphism_space,
                        nullhomotopic_space, rank_vector, split_canonical,
                        tangent_data, validate)
from .degeneration import (Block, DVRDecomposition, InvariantError,
                           LimitResult, PolyComplex, dvr_decompose,
                           exponent_rank_table, filtered_oracle,
                           limit_complete_complex, local_at_zero,
                           page_table_from_multiplicities, validate_family)
from .linalg import Matrix, inverse, kernel_basis, rank
from .rings import GF, INF, LOCAL, QQ, GFElement, QPoly, RatFun, valuation
from .spectral import (CompleteComplex, SpectralSequence, StratumLabel,
                       canonical_ss_from_chain, normalize,
                       stratum_label, validate_reduced)
from .strata import (Chain, GradedDims, RankVector, covering_relations,
                     enumerate_R, enumerate_chains, hasse_dot, is_maximal,
                     maximal_elements, stratum_dim)

__version__ = "0.1.0"

__all__ = [
    "GF", "INF", "LOCAL", "QQ", "GFElement", "QPoly", "RatFun", "valuation",
    "Matrix", "rank", "kernel_basis", "inverse",
    "GradedDims", "RankVector", "Chain", "enumerate_R", "is_maximal",
    "maximal_elements", "covering_relations", "stratum_dim",
    "enumerate_chains", "hasse_dot",
    "Complex", "GradedMap", "CohomologyData", "NotAComplexError", "validate",
    "rank_vector", "cohomology", "split_canonical", "morphism_space",
    "nullhomotopic_space", "TangentData", "tangent_data", "assemble_D_delta",
    "canonical_representative",
    "SpectralSequence", "CompleteComplex", "StratumLabel", "validate_reduced",
    "stratum_label", "canonical_ss_from_chain", "normalize",
    "PolyComplex", "Block", "DVRDecomposition", "LimitResult",
    "InvariantError", "validate_family", "local_at_zero",
    "dvr_decompose", "limit_complete_complex", "exponent_rank_table",
    "page_table_from_multiplicities", "filtered_oracle",
]

"""Metrics on affinity-weighted graphs.

A symmetric nonnegative kernel induces nested threshold level sets; the
level index of a pair gives a dyadic quasi-metric, chaining tightens it
into a pseudo-metric, and the normalized spectral generator gives
diffusion distances.  Balls and annuli in any of these can be exported
as JSON or colored DOT graphs.
"""

from .balls import (
    PALETTE,
    AnnulusBands,
    BallResult,
    affinity_bands,
    annuli,
    bands_to_dot,
    bands_to_json,
    delta_ball,
    distance_ball,
    euclidean_distances,
)
from .diffusion import (
    SpectralDecomposition,
    diffusion_distance_matrix,
    eig_symmetric,
    graph_laplacian,
    spectral_decomposition,
)
from .errors import (
    DegenerateVertexError,
    DomainError,
    GraphMetrizeError,
    InvalidParameterError,
    MatrixFormatError,
    NonMetrizableError,
    NumericError,
    SymmetryError,
)
from .kernels import (
    AffinityMatrix,
    ValidationReport,
    affinity_matrix,
    load_affinity,
    newtonian_kernel,
    read_matrix_csv,
    save_affinity,
    validate_kernel,
    write_matrix_csv,
)
from .metrize import (
    EquivalenceReport,
    LambdaSequence,
    PseudoMetricMatrix,
    QuasiMetricMatrix,
    SandwichReport,
    chain_metric,
    compute_lambda_sequence,
    delta_matrix,
    lambda_from_json,
    lambda_to_json,
    level_nesting,
    level_relations,
    quasi_triangle_constant,
    verify_equivalence,
    verify_metrization,
    verify_sandwich,
)
from .relations import is_subset, power3

__version__ = "0.1.0"

__all__ = [
    "AffinityMatrix",
    "AnnulusBands",
    "BallResult",
    "DegenerateVertexError",
    "DomainError",
    "EquivalenceReport",
    "GraphMetrizeError",
    "InvalidParameterError",
    "LambdaSequence",
    "MatrixFormatError",
    "NonMetrizableError",
    "NumericError",
    "PALETTE",
    "PseudoMetricMatrix",
    "QuasiMetricMatrix",
    "SandwichReport",
    "SpectralDecomposition",
    "SymmetryError",
    "ValidationReport",
    "affinity_bands",
    "affinity_matrix",
    "annuli",
    "bands_to_dot",
    "bands_to_json",
    "chain_metric",
    "compute_lambda_sequence",
    "delta_ball",
    "delta_matrix",
    "diffusion_distance_matrix",
    "distance_ball",
    "eig_symmetric",
    "euclidean_distances",
    "graph_laplacian",
    "is_subset",
    "lambda_from_json",
    "lambda_to_json",
    "level_nesting",
    "level_relations",
    "load_affinity",
    "newtonian_kernel",
    "power3",
    "quasi_triangle_constant",
    "read_matrix_csv",
    "save_affinity",
    "spectral_decomposition",
    "validate_kernel",
    "verify_equivalence",
    "verify_metrization",
    "verify_sandwich",
    "write_matrix_csv",
]

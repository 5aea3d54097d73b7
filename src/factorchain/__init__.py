"""Sparse factor chains for SDDM matrix powers and Gaussian sampling."""

from .chain import (
    ChainOperator,
    EdgeOperator,
    FactorChain,
    RefinedOperator,
    RefinementInfo,
    build_chain,
    chain_length_bound,
    chain_operator,
    refine_inverse_factor,
    solve,
)
from .errors import (
    ChainDivergedError,
    DimensionMismatchError,
    FactorChainError,
    InvalidParamsError,
    NoConvergenceError,
    NonFiniteError,
    NonSymmetricError,
    NotPositiveDefiniteError,
    NotSddError,
    NotSddmError,
    NumericalError,
    SerializationError,
    SpectrumEstimateFailedError,
    SquareTooLargeError,
    TooLargeForDenseCheckError,
    WrongExponentError,
)
from .generators import grid2d, path_graph, random_regular, random_sddm, sdd_mixed
from .maclaurin import (
    ChebyshevPoly,
    MaclaurinPoly,
    abs_residue_bound,
    apply_operator_poly,
    bernstein_degree,
    coeffs,
    degree_for,
    eval_scalar,
    eval_series,
    inverse_sqrt,
    make,
    power,
    sandwich_criterion,
)
from .mmio import read_matrix, read_matrix_string, write_matrix, write_matrix_string
from .oracle import (
    LoewnerResult,
    dense_power,
    fact_suite,
    jacobi_eigh,
    loewner_check,
    spectral_radius,
)
from .rng import stream, substream_seed
from .sampler import (
    CovarianceCheck,
    GaussianField,
    PreparedSampler,
    SampleBatch,
    covariance_check,
    make_field,
    prepare,
    sample,
    sample_edge_based,
    write_batch_bin,
    write_batch_csv,
)
from .serialize import (
    load_operator,
    operator_bytes,
    operator_from_bytes,
    save_operator,
)
from .sparse import (
    EdgeFactor,
    SddmBounds,
    SddmCertificate,
    SparseSymMatrix,
    Splitting,
    edge_factor,
    gremban_embed,
    gremban_lift,
    gremban_project,
    kappa_estimate,
    normalize,
    sdd_slack,
    spectrum_bounds,
    validate_sddm,
)
from .sparsify import (
    SparsifyParams,
    SparsifyReport,
    average_and_sparsify,
    sparsify_square_step,
)

__version__ = "0.1.0"

"""Discrepancy, spectral certificates, and pseudo-randomness checks for
symmetric matrices and graphs."""

from .errors import (
    BadEpsilonError,
    BadTError,
    CertificateLinkViolatedError,
    EmptyCliqueError,
    EmptyGraphError,
    FamilyTooSmallError,
    FormatError,
    ImproperPartitionError,
    MatdiscError,
    NoConvergenceError,
    NonSymmetricError,
    NotBinaryError,
    NotNormalizedError,
    NotPrimeError,
    NotRegularError,
    TooLargeError,
    ZeroDegreeError,
    ZeroVectorError,
)
from .linalg import (
    Spectrum,
    SymmetricMatrix,
    all_ones,
    complement,
    eig_symmetric,
    rayleigh_quotient,
    read_matrix,
    rho_prime,
    singular_values,
    write_matrix,
)
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    e_xy,
    from_adjacency,
    gnp_random_graph,
    read_graph,
    star_graph,
    vol,
    write_graph,
)
from .discrepancy import (
    DiscResult,
    disc1_graph,
    disc1_value_at,
    disc2_gap_bound,
    disc2_graph,
    disc2_value_at,
    disc_exact,
    disc_heuristic,
    disc_value_at,
    evaluate_pair,
)
from .quantization import (
    CertificateLink,
    Partition,
    QuantizedVector,
    Sigma2Certificate,
    certificate_m_ceiling,
    certify_sigma2,
    closed_form_bound,
    complex_value_ceiling,
    level_partition,
    nonneg_value_ceiling,
    quantize,
    quotient_compress,
)
from .constructions import (
    BlockPlan,
    DegreeCatalog,
    block_graph,
    block_matrix,
    block_plan,
    block_rayleigh_closed_form,
    block_step_vector,
    degree_catalog,
    harmonic_number,
    is_prime,
    qpt_graph,
    sparse_union,
    tightness_disc_structured,
    tightness_matrix,
    tightness_proof_vector,
)
from .spectral import (
    BoundReport,
    LaplacianSpectrum,
    chung_alpha_check,
    family_properties,
    lambda_bar_from_adjacency,
    laplacian_spectrum,
    thomason_hypotheses,
    thomason_report,
    thomason_small_graph_sweep,
)
from .suite import run_suite

__version__ = "0.1.0"

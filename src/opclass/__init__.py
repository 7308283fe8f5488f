"""opclass: operator-class membership, decompositions, and theorem suites
for dense complex matrices.

The package decides membership in the classes between normal and normaloid
(including the k-paranormal, absolute-k-paranormal, and k-quasi-paranormal
families) via two independent oracles, computes the associated structural
decompositions, generates certified class members and counterexamples, and
runs every implication as a randomized property suite.
"""

from .errors import (
    DecompositionError,
    DimensionMismatch,
    EmptySubspace,
    HypothesisViolated,
    InvalidIndex,
    InvalidPencil,
    InvalidRRForm,
    InvalidSpec,
    NonCommutingProjection,
    NonCoprime,
    NotHermitian,
    NotNilpotentIndex2,
    NotPSD,
    OpclassError,
    OracleDisagreement,
    ParseError,
    UnknownTheorem,
    UsageError,
    ZeroOperator,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    HermitianEigen,
    Subspace,
    TolerancePolicy,
    adjoint,
    compress,
    hermitian_eigen,
    kernel,
    matrix_power,
    operator_norm,
    preimage_in,
    psd_defect,
    psd_power,
    spectral_radius,
    subspace_intersect,
)
from .membership import (
    MembershipVerdict,
    OperatorClass,
    PencilSpec,
    Status,
    Witness,
    chain_violations,
    classify_all,
    is_absolute_k_paranormal,
    is_class_a,
    is_hyponormal,
    is_k_paranormal,
    is_k_quasi_paranormal,
    is_normal,
    is_normaloid,
    is_p_hyponormal,
    is_quasinormal,
    pencil_check,
    quasinormal_embry,
    sphere_check,
)
from .decomposition import (
    BlockLabel,
    Decomposition,
    RRForm,
    nilpotent2_canonical,
    normal_pure_split,
    root_decompose,
    rr_assemble,
    rr_check,
)
from .generators import (
    GenSpec,
    jordan_nilpotent,
    k_quasi_member,
    normaloid_counterexample,
    random_ginibre,
    random_normal,
    random_unitary,
    root_of_scalar_instance,
    rr_instance,
)
from .harness import (
    SuiteConfig,
    TheoremReport,
    run_suite,
    search_q2,
    verify_ando,
    verify_coprime,
    verify_embry,
    verify_fuglede_putnam,
    verify_k_paranormal_root,
    verify_k_quasi_decomposition,
    verify_normaloid_criterion,
    verify_quasinormal_root,
    verify_stampfli,
)

__version__ = "0.1.0"

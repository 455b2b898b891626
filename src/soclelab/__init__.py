"""soclelab: spectral rank, trace, and projection laboratory.

Numerical workbench for block-diagonal complex matrix algebras: rank
and trace computed purely from spectra, Riesz projections by contour
quadrature, constructive commutator certificates, and trace
characterizations of linear functionals — everything certified against
classical linear-algebra oracles.
"""

from .algebra import (
    CLUSTER_TOL,
    IDEMPOTENCY_TOL,
    RANK_TOL,
    AlgebraSpec,
    Element,
    SpectrumReport,
    classical_rank,
    classical_trace,
    eigenvalues,
    identity,
    matrix_unit,
    operator_norm,
    resolvent,
    spectrum,
    zero,
)
from .classify import (
    IdealReport,
    VerificationReport,
    generated_ideal,
    is_socle_minimal_ideal,
    orthogonal_decomposition,
    pAp_block_check,
    verify_theorems,
)
from .commutators import (
    CommutatorCertificate,
    RankOnePair,
    commutator_decompose,
    rank_one_commutator,
    verify_certificate,
)
from .functionals import (
    CharacterizationReport,
    ConstancyVerdict,
    Functional,
    SpectralBoundResult,
    VanishingVerdict,
    blockwise_scalar_functional,
    characterize,
    counterexample_functional,
    evaluate,
    random_functional,
    trace_functional,
)
from .rank import DEFAULT_PROBES, RankReport, is_maximal_finite_rank, spectral_rank
from .riesz import (
    DEFAULT_NODES,
    CompressionReport,
    Diagonalization,
    RieszReport,
    diagonalize_maximal,
    multiplicity,
    pAp_consistency,
    riesz_projection,
    spectral_trace,
)
from . import errors, jsonio, sampling

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"

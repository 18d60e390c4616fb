"""Uncertainty functionals and uncertainty-relation checks for finite-dimensional quantum states."""

from .errors import (
    AlphaOutOfRange,
    BadSpec,
    DimensionMismatch,
    MalformedDocument,
    NegativeSpectrum,
    NoConvergence,
    NotHermitian,
    SkewrelError,
    TraceNotOne,
    ValidationError,
)
from .linalg import (
    SpectralDecomposition,
    hermitian_eig,
    hermitian_eig_stack,
    matrix_power,
)
from .quantities import (
    DensityMatrix,
    Observable,
    SpectralSums,
    StateStack,
    UncertaintyReport,
    full_report,
    full_report_stack,
    matrix_elements,
    spectral_sums,
    wyd_skew_information,
)
from .relations import (
    InequalityVerdict,
    ProofChainTrace,
    proof_chain,
    verdict_from_report,
    verdicts_from_report,
)
from .ensembles import (
    EnsembleSpec,
    random_density,
    random_density_stack,
    random_observable,
    random_observable_stack,
)
from .search import SearchTask, Witness, refine_witness, refine_witnesses, run_search

__version__ = "0.1.0"

__all__ = [
    "AlphaOutOfRange",
    "BadSpec",
    "DensityMatrix",
    "DimensionMismatch",
    "EnsembleSpec",
    "InequalityVerdict",
    "MalformedDocument",
    "NegativeSpectrum",
    "NoConvergence",
    "NotHermitian",
    "Observable",
    "ProofChainTrace",
    "SearchTask",
    "SkewrelError",
    "SpectralDecomposition",
    "SpectralSums",
    "StateStack",
    "TraceNotOne",
    "UncertaintyReport",
    "ValidationError",
    "Witness",
    "full_report",
    "full_report_stack",
    "hermitian_eig",
    "hermitian_eig_stack",
    "matrix_elements",
    "matrix_power",
    "proof_chain",
    "random_density",
    "random_density_stack",
    "random_observable",
    "random_observable_stack",
    "refine_witness",
    "refine_witnesses",
    "run_search",
    "spectral_sums",
    "verdict_from_report",
    "verdicts_from_report",
    "wyd_skew_information",
]

"""slspec: direct and inverse spectral problems for Sturm-Liouville operators
whose potential is the distributional derivative of an L2 primitive sigma.

The direct solver turns a grid-sampled sigma into spectral data (square-root
eigenvalues and norming constants); the inverse pipeline reconstructs sigma,
up to an additive constant, from spectral data through a triangular-kernel
integral equation. Analysis helpers cover round trips, isospectral families,
stability probing, and Riesz-basis conditioning.
"""

from .analysis import (
    RoundTripReport,
    StabilityRow,
    isospectral_member,
    riesz_condition,
    roundtrip_report,
    stability_probe,
)
from .direct import (
    CharParams,
    ShootResult,
    characteristic,
    direct_spectral_data,
    eigenvalues,
    norming_constants,
    shoot,
)
from .errors import NumericalError, SpectralValidationError, StructuralError
from .glm import (
    KernelF,
    PhiTable,
    ReconstructionResult,
    TriangularKernel,
    assemble_phi,
    factorization_residual,
    positivity_margin,
    reconstruct,
    recover_h,
    recover_sigma,
    solve_glm,
)
from .grid import (
    GridFunction,
    gauge_removed_distance,
    read_sigma_csv,
    write_sigma_csv,
)
from .spectra import (
    BoundaryKind,
    SpectralData,
    ValidationReport,
    read_data_json,
    remainders,
    shift_spectrum,
    synthesize_data,
    validate_spectral_data,
    write_data_json,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryKind",
    "CharParams",
    "GridFunction",
    "KernelF",
    "NumericalError",
    "PhiTable",
    "ReconstructionResult",
    "RoundTripReport",
    "ShootResult",
    "SpectralData",
    "SpectralValidationError",
    "StabilityRow",
    "StructuralError",
    "TriangularKernel",
    "ValidationReport",
    "assemble_phi",
    "characteristic",
    "direct_spectral_data",
    "eigenvalues",
    "factorization_residual",
    "gauge_removed_distance",
    "isospectral_member",
    "norming_constants",
    "positivity_margin",
    "read_data_json",
    "read_sigma_csv",
    "reconstruct",
    "recover_h",
    "recover_sigma",
    "remainders",
    "riesz_condition",
    "roundtrip_report",
    "shift_spectrum",
    "shoot",
    "solve_glm",
    "stability_probe",
    "synthesize_data",
    "validate_spectral_data",
    "write_data_json",
    "write_sigma_csv",
]

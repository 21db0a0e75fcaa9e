"""Finite-frequency fluctuation-response toolkit for monitored Markovian
open quantum systems.

Computes homodyne output spectra, lock-in response matrices, and
signal-activity matrices for Lindblad models, and certifies the
detector-facing bound J(omega) <= A kron I_2 on built-in and user-supplied
models. See the README for the CLI and the acceptance suite.
"""
from __future__ import annotations

from .bounds import (
    BoundReport,
    activity_matrix,
    certify_bound,
    classical_reduction_check,
    coherent_ceiling_check,
    pure_dissipative_residuals,
    rayleigh_identity,
    response_to_noise,
    rf_positivity_residual,
)
from .errors import (
    ActivityDegenerate,
    ConfigError,
    ConvergenceFailure,
    DimMismatch,
    DuplicateChannel,
    IoqfrError,
    NotIrreducible,
    NotMixing,
    NotPSD,
    NumericalError,
    PureDissipativeViolated,
    SingularMatrix,
    SourceNotTraceless,
)
from .lindblad import (
    LindbladModel,
    Resolvent,
    SignalSpec,
    StationaryState,
    System,
    as_system,
    kinetic_signal,
    liouvillian,
    model_fingerprint,
    prepare,
    project_traceless,
    steady_state,
    tangent_signal,
)
from .models import (
    CavityParams,
    KerrCatParams,
    REGISTRY,
    RfParams,
    cavity_scalar_ratio,
    cavity_scattering,
    classical_jump_model,
    classical_stationary,
    kerr_cat_model,
    rf_closed_forms,
    rf_model,
)
from .numkit import DEFAULT_TOL, ToleranceSet
from .response import ResponseMatrix, complex_response, direct_response, response_matrix
from .spectra import NoiseMatrix, homodyne_spectrum, matrix_spectrum

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ToleranceSet",
    "DEFAULT_TOL",
    "LindbladModel",
    "SignalSpec",
    "kinetic_signal",
    "tangent_signal",
    "System",
    "prepare",
    "as_system",
    "liouvillian",
    "steady_state",
    "StationaryState",
    "project_traceless",
    "Resolvent",
    "model_fingerprint",
    "homodyne_spectrum",
    "matrix_spectrum",
    "NoiseMatrix",
    "complex_response",
    "direct_response",
    "response_matrix",
    "ResponseMatrix",
    "activity_matrix",
    "pure_dissipative_residuals",
    "response_to_noise",
    "certify_bound",
    "BoundReport",
    "rayleigh_identity",
    "rf_positivity_residual",
    "coherent_ceiling_check",
    "classical_reduction_check",
    "REGISTRY",
    "CavityParams",
    "RfParams",
    "KerrCatParams",
    "cavity_scattering",
    "cavity_scalar_ratio",
    "rf_closed_forms",
    "rf_model",
    "kerr_cat_model",
    "classical_stationary",
    "classical_jump_model",
    "IoqfrError",
    "ConfigError",
    "DimMismatch",
    "NumericalError",
    "SingularMatrix",
    "ConvergenceFailure",
    "NotPSD",
    "NotMixing",
    "SourceNotTraceless",
    "DuplicateChannel",
    "ActivityDegenerate",
    "PureDissipativeViolated",
    "NotIrreducible",
]

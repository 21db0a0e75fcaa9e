"""Finite-frequency fluctuation-response toolkit for monitored Markovian
open quantum systems.

Computes homodyne output spectra, lock-in response matrices, and
signal-activity matrices for Lindblad models, and certifies the
detector-facing bound J(omega) = R^H pinv(S) R <= A on built-in and
user-supplied models. See the README for the CLI and the acceptance suite.
"""
from __future__ import annotations


def _pin_blas_threads() -> None:
    """Run the OpenBLAS libraries bundled with the numpy and scipy wheels on
    one thread each, for the whole process.

    The models this package certifies have superoperators of order a few
    hundred at most, where a second BLAS thread costs more in start-up and
    synchronization than it gains. OpenBLAS's own ``OPENBLAS_NUM_THREADS``
    and ``OMP_NUM_THREADS`` take precedence: when either is set, the count
    is left alone. A build without these libraries or symbols (another BLAS,
    another platform) is left as it is.
    """
    import ctypes
    import os
    from pathlib import Path

    import numpy
    import scipy

    if os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS"):
        return
    for package, pattern, setter in (
            (numpy, "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
            (scipy, "libscipy_openblas-*.so", "scipy_openblas_set_num_threads")):
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        for path in libs.glob(pattern):
            try:
                getattr(ctypes.CDLL(str(path)), setter)(1)
            except (OSError, AttributeError):
                pass


_pin_blas_threads()

from .bounds import (
    BoundReport,
    activity_matrix,
    applicable_activity,
    certify_bound,
    classical_reduction_check,
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
    cavity_model,
    cavity_scattering,
    classical_jump_model,
    classical_stationary,
    kerr_cat_model,
    rf_closed_forms,
    rf_model,
)
from .numkit import DEFAULT_TOL, ToleranceSet
from .response import LockInMatrix, response_matrix
from .spectra import matrix_spectrum

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
    "liouvillian",
    "steady_state",
    "StationaryState",
    "project_traceless",
    "Resolvent",
    "model_fingerprint",
    "matrix_spectrum",
    "response_matrix",
    "LockInMatrix",
    "activity_matrix",
    "applicable_activity",
    "pure_dissipative_residuals",
    "response_to_noise",
    "certify_bound",
    "BoundReport",
    "rayleigh_identity",
    "rf_positivity_residual",
    "classical_reduction_check",
    "REGISTRY",
    "CavityParams",
    "RfParams",
    "KerrCatParams",
    "cavity_scattering",
    "cavity_model",
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

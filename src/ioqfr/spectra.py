"""Finite-frequency output noise spectra of monitored homodyne currents.

Each monitored pair (channel mu, phase theta) defines a current with
measured quadrature X = exp(-i theta) L + exp(i theta) L^dag and unit shot
noise. Two-time current correlations follow from quantum regression with
the insertion map

    B_theta rho = exp(-i theta) L rho + exp(i theta) rho L^dag,

giving the symmetrized spectrum matrix

    S_ab(omega) = delta_ab
                + Tr[ X_a (-i omega - L)^(-1) Q(B_b rho_ss) ]
                + Tr[ X_b (+i omega - L)^(-1) Q(B_a rho_ss) ].

L preserves hermiticity and every X_a and Q(B_b rho_ss) is Hermitian, so the
second trace is the complex conjugate of the first with a and b swapped:
S = I + K + K^H with K = C (-i omega - L)^(-1) Y_ins, the insertion columns
of the system's transfer matrix (:meth:`~ioqfr.lindblad.System.transfer`).
S is Hermitian by construction and positive semidefinite up to solver
noise. Its blockwise real embedding is the covariance matrix of the unit-RMS
lock-in quadrature pairs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateChannel, NumericalError
from .lindblad import System
from .numkit import ToleranceSet
from .response import real_embedding

__all__ = [
    "homodyne_spectrum",
    "NoiseMatrix",
    "matrix_spectrum",
    "spectrum_from_transfer",
]


@dataclass(frozen=True)
class NoiseMatrix:
    """Hermitian (m, m) spectrum matrix at one frequency; ``real_matrix``
    builds its real (2m, 2m) lock-in covariance embedding on each read."""

    omega: float
    complex_matrix: np.ndarray

    @property
    def real_matrix(self) -> np.ndarray:
        return real_embedding(self.complex_matrix)


def matrix_spectrum(system: System, omega: float) -> NoiseMatrix:
    """Spectrum matrix over all monitored currents at one frequency, its PSD
    check held to ``system.tol``."""
    return spectrum_from_transfer(system, system.transfer(omega), omega, system.tol)


def spectrum_from_transfer(system: System, transfer: np.ndarray, omega: float,
                           tol: ToleranceSet) -> NoiseMatrix:
    """S = I + K + K^H from the first m columns K of ``system.transfer(omega)``."""
    channels = system.model.monitored_channels
    if len(set(channels)) != len(channels):
        raise DuplicateChannel(
            f"monitored currents reuse a channel: {channels}; shot-noise "
            "cross terms for shared vacuum inputs are not modeled")
    m = len(channels)
    k = transfer[:, :m]
    cmat = np.eye(m) + k + k.conj().T
    eigs = np.linalg.eigvalsh(cmat)
    if eigs[0] < -tol.spectrum_psd:
        raise NumericalError(
            f"spectrum matrix at omega={omega!r} has negative eigenvalue {eigs[0]:.3e}")
    cmat.setflags(write=False)
    return NoiseMatrix(omega=float(omega), complex_matrix=cmat)


def homodyne_spectrum(system: System, channel: int, theta: float,
                      omega: float) -> float:
    """Output spectrum of one homodyne current, shot noise normalized to 1:
    the (0, 0) entry of :func:`matrix_spectrum` with only that current
    monitored. The channel must be one the model already monitors."""
    if channel not in system.model.monitored_channels:
        raise ValueError(f"channel {channel} is not monitored")
    single = system.with_monitored([(channel, theta)])
    return float(matrix_spectrum(single, omega).complex_matrix[0, 0].real)

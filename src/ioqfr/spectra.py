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

:func:`matrix_spectrum` is the one constructor of S. The spectrum of a
single current (mu, theta) is the (0, 0) entry of S on the view
``system.with_monitored([(mu, theta)])``; a caller that already holds the
transfer matrix at omega passes it, so S and R share one solve.
"""
from __future__ import annotations

import numpy as np

from .errors import DuplicateChannel, NumericalError
from .lindblad import System
from .response import LockInMatrix

__all__ = ["matrix_spectrum"]


def matrix_spectrum(system: System, omega: float,
                    transfer: np.ndarray | None = None) -> LockInMatrix:
    """S = I + K + K^H over all monitored currents at one frequency, K the
    first m columns of ``transfer`` (``system.transfer(omega)`` when None);
    its PSD check is held to ``system.tol.spectrum_psd``."""
    if transfer is None:
        transfer = system.transfer(omega)
    channels = system.model.monitored_channels
    if len(set(channels)) != len(channels):
        raise DuplicateChannel(
            f"monitored currents reuse a channel: {channels}; shot-noise "
            "cross terms for shared vacuum inputs are not modeled")
    m = len(channels)
    k = transfer[:, :m]
    cmat = np.eye(m) + k + k.conj().T
    eigs = np.linalg.eigvalsh(cmat)
    if eigs[0] < -system.tol.spectrum_psd:
        raise NumericalError(
            f"spectrum matrix at omega={omega!r} has negative eigenvalue {eigs[0]:.3e}")
    cmat.setflags(write=False)
    return LockInMatrix(omega=float(omega), complex_matrix=cmat)

"""Finite-frequency output noise spectra of monitored homodyne currents.

Each monitored pair (channel mu, phase theta) defines a current with
measured quadrature X = exp(-i theta) L + exp(i theta) L^dag and unit shot
noise. Two-time current correlations follow from quantum regression with
the insertion map

    B_theta rho = exp(-i theta) L rho + exp(i theta) rho L^dag,

giving the symmetrized spectrum matrix

    S_ab(omega) = delta_ab
                + Tr[ X_a (-i omega - L)^(-1) Q(B_b rho_ss) ]
                + Tr[ X_b (+i omega - L)^(-1) Q(B_a rho_ss) ],

Hermitian and positive semidefinite up to solver noise. Its blockwise real
embedding is the covariance matrix of the unit-RMS lock-in quadrature pairs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateChannel, NumericalError
from .hilbert import quadrature
from .lindblad import (
    LindbladModel,
    Resolvent,
    System,
    as_system,
    project_traceless,
)
from .numkit import ToleranceSet, hermitize
from .response import real_embedding

__all__ = [
    "insertion_state",
    "homodyne_spectrum",
    "NoiseMatrix",
    "matrix_spectrum",
]


def insertion_state(coupling: np.ndarray, theta: float, rho: np.ndarray) -> np.ndarray:
    """B_theta rho evaluated directly; Hermitian for Hermitian rho."""
    coupling = np.asarray(coupling, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    phase = np.exp(-1j * theta)
    return phase * (coupling @ rho) + np.conj(phase) * (rho @ coupling.conj().T)


@dataclass(frozen=True)
class NoiseMatrix:
    """Hermitian (m, m) spectrum matrix and its real (2m, 2m) lock-in
    covariance embedding at one frequency."""

    omega: float
    complex_matrix: np.ndarray
    real_matrix: np.ndarray


def matrix_spectrum(model_or_system: LindbladModel | System, omega: float,
                    tol: ToleranceSet | None = None,
                    resolvents: tuple[Resolvent, Resolvent] | None = None
                    ) -> NoiseMatrix:
    """Spectrum matrix over all monitored currents at one frequency."""
    system = as_system(model_or_system, tol)
    tolerances = tol if tol is not None else system.tol
    model = system.model
    if not model.monitored:
        raise ValueError("model has no monitored currents")
    channels = model.monitored_channels
    if len(set(channels)) != len(channels):
        raise DuplicateChannel(
            f"monitored currents reuse a channel: {channels}; shot-noise "
            "cross terms for shared vacuum inputs are not modeled")
    m = len(model.monitored)
    xs = [quadrature(model.channels[mu], th) for mu, th in model.monitored]
    sources = [
        project_traceless(insertion_state(model.channels[mu], th, system.rho),
                          system.rho)
        for mu, th in model.monitored
    ]
    res_plus, res_minus = resolvents if resolvents is not None \
        else (system.resolvent(omega), system.resolvent(-omega))
    fwd = res_plus.apply_many(sources)
    bwd = res_minus.apply_many(sources)
    raw = np.empty((m, m), dtype=complex)
    for a in range(m):
        for b in range(m):
            raw[a, b] = (1.0 if a == b else 0.0) \
                + np.trace(xs[a] @ fwd[b]) + np.trace(xs[b] @ bwd[a])
    defect = np.linalg.norm(raw - raw.conj().T)
    if defect > tolerances.imag_residue * max(1.0, np.linalg.norm(raw)):
        raise NumericalError(
            f"spectrum matrix at omega={omega!r} has hermiticity defect {defect:.3e}")
    cmat = hermitize(raw)
    eigs = np.linalg.eigvalsh(cmat)
    if eigs[0] < -tolerances.spectrum_psd:
        raise NumericalError(
            f"spectrum matrix at omega={omega!r} has negative eigenvalue {eigs[0]:.3e}")
    cmat.setflags(write=False)
    rmat = real_embedding(cmat)
    rmat.setflags(write=False)
    return NoiseMatrix(omega=float(omega), complex_matrix=cmat, real_matrix=rmat)


def homodyne_spectrum(model_or_system: LindbladModel | System, channel: int,
                      theta: float, omega: float,
                      tol: ToleranceSet | None = None) -> float:
    """Output spectrum of one homodyne current, shot noise normalized to 1:
    the (0, 0) entry of :func:`matrix_spectrum` with only that current
    monitored. The channel must be one the model already monitors."""
    system = as_system(model_or_system, tol)
    if channel not in system.model.monitored_channels:
        raise ValueError(f"channel {channel} is not monitored")
    single = system.with_monitored([(channel, theta)])
    return float(matrix_spectrum(single, omega, tol).complex_matrix[0, 0].real)

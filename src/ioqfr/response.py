"""Finite-frequency response of monitored homodyne currents to signals.

A signal eps_q(t) modulates the jump operators (kinetic exponents or
explicit tangents). Driving with unit-RMS lock-in envelopes
eps_q(t) = sqrt(2) (eta_c cos(omega t) + eta_s sin(omega t)) shifts the
windowed quadrature pair of each current by sqrt(T) real_R eta, where
real_R is the blockwise real embedding of the complex response

    R_{a,q}(omega) = Tr[ X_a (-i omega - L)^(-1) V_q rho_ss ] + D_{a,q}.

The direct term D is the signal's instantaneous shift of the measured
quadrature itself, Tr[(exp(-i theta) M + exp(i theta) M^dag) rho_ss] for the
monitored channel's own tangent M, and zero otherwise. So R = H[:, m:] + D,
the perturbation columns of the system's transfer matrix
H = C (-i omega - L)^(-1) Y (:meth:`~ioqfr.lindblad.System.transfer`) plus
the direct terms of its realization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lindblad import LindbladModel, System

__all__ = [
    "real_embedding",
    "perturbation_superop",
    "complex_response",
    "ResponseMatrix",
    "response_matrix",
    "response_from_transfer",
]


def real_embedding(cmat: np.ndarray) -> np.ndarray:
    """Real (2r, 2c) lock-in image of a complex (r, c) matrix: each entry z
    becomes the 2x2 block [[Re z, -Im z], [Im z, Re z]]."""
    cmat = np.atleast_2d(np.asarray(cmat, dtype=complex))
    r, c = cmat.shape
    out = np.empty((2 * r, 2 * c))
    out[0::2, 0::2] = cmat.real
    out[0::2, 1::2] = -cmat.imag
    out[1::2, 0::2] = cmat.imag
    out[1::2, 1::2] = cmat.real
    return out


def perturbation_superop(model: LindbladModel, q: int) -> np.ndarray:
    """Generator derivative d L / d eps_q as a dense (d^2, d^2) matrix."""
    d = model.dim
    eye = np.eye(d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for coupling, row in zip(model.channels, model.tangents):
        m = row[q]
        if m is None:
            continue
        cross = m.conj().T @ coupling + coupling.conj().T @ m
        out += (np.kron(coupling.conj(), m)
                + np.kron(m.conj(), coupling)
                - 0.5 * np.kron(eye, cross)
                - 0.5 * np.kron(cross.T, eye))
    return out


@dataclass(frozen=True)
class ResponseMatrix:
    """Complex (m, n_params) response at one frequency; ``real_matrix``
    builds its real (2m, 2 n_params) lock-in embedding on each read."""

    omega: float
    complex_matrix: np.ndarray

    @property
    def real_matrix(self) -> np.ndarray:
        return real_embedding(self.complex_matrix)


def response_matrix(system: System, omega: float) -> ResponseMatrix:
    """Response of every monitored current to every signal at one frequency."""
    return response_from_transfer(system, system.transfer(omega), omega)


def response_from_transfer(system: System, transfer: np.ndarray,
                           omega: float) -> ResponseMatrix:
    """R = H[:, m:] + D from ``transfer = system.transfer(omega)``; the model
    must have a signal."""
    system.model.tangents  # raises ValueError when the model has no signal
    cmat = transfer[:, len(system.model.monitored):] + system.direct
    cmat.setflags(write=False)
    return ResponseMatrix(omega=float(omega), complex_matrix=cmat)


def complex_response(system: System, current: int, q: int, omega: float) -> complex:
    """Complex response of monitored current ``current`` to signal ``q``:
    one entry of :func:`response_matrix`."""
    return complex(response_matrix(system, omega).complex_matrix[current, q])

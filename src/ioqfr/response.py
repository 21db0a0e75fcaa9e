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

:func:`response_matrix` is the one constructor of R; one response value is
an entry of its ``complex_matrix``. It returns a :class:`LockInMatrix`, the
record that :func:`~ioqfr.spectra.matrix_spectrum` returns for S too.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lindblad import LindbladModel, System

__all__ = [
    "real_embedding",
    "perturbation_superop",
    "LockInMatrix",
    "response_matrix",
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
    for coupling, m in zip(model.channels, model.tangents[:, q]):
        cross = m.conj().T @ coupling + coupling.conj().T @ m
        out += (np.kron(coupling.conj(), m)
                + np.kron(m.conj(), coupling)
                - 0.5 * np.kron(eye, cross)
                - 0.5 * np.kron(cross.T, eye))
    return out


@dataclass(frozen=True)
class LockInMatrix:
    """Complex matrix of the lock-in quadratures at one frequency, the
    spectrum S or the response R; ``real_matrix`` builds its real blockwise
    embedding on each read."""

    omega: float
    complex_matrix: np.ndarray

    @property
    def real_matrix(self) -> np.ndarray:
        return real_embedding(self.complex_matrix)


def response_matrix(system: System, omega: float,
                    transfer: np.ndarray | None = None) -> LockInMatrix:
    """R = H[:, m:] + D, the response of every monitored current to every
    signal at one frequency; ``transfer`` is ``system.transfer(omega)`` when
    the caller already holds it. The model must have a signal."""
    if transfer is None:
        transfer = system.transfer(omega)
    system.model.tangents  # raises ValueError when the model has no signal
    cmat = transfer[:, len(system.model.monitored):] + system.direct
    cmat.setflags(write=False)
    return LockInMatrix(omega=float(omega), complex_matrix=cmat)

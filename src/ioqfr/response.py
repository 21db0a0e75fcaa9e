"""Finite-frequency response of monitored homodyne currents to signals.

A signal eps_q(t) modulates the jump operators (kinetic exponents or
explicit tangents). Driving with unit-RMS lock-in envelopes
eps_q(t) = sqrt(2) (eta_c cos(omega t) + eta_s sin(omega t)) shifts the
windowed quadrature pair of each current by sqrt(T) real_R eta, where
real_R is the blockwise real embedding of the complex response

    R_{a,q}(omega) = Tr[ X_a (-i omega - L)^(-1) V_q rho_ss ] + direct term.

The direct term is the signal's instantaneous shift of the measured
quadrature itself, Tr[(exp(-i theta) M + exp(i theta) M^dag) rho_ss] for the
monitored channel's own tangent M, and zero otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch
from .hilbert import quadrature
from .lindblad import (
    KINETIC,
    LindbladModel,
    Resolvent,
    System,
    as_system,
    dissipator,
)
from .numkit import ToleranceSet

__all__ = [
    "real_block",
    "real_embedding",
    "perturbation_superop",
    "perturbation_state",
    "direct_response",
    "complex_response",
    "ResponseMatrix",
    "response_matrix",
]


def real_block(z: complex) -> np.ndarray:
    """Real 2x2 image of a complex number: [[Re, -Im], [Im, Re]]."""
    z = complex(z)
    return np.array([[z.real, -z.imag], [z.imag, z.real]])


def real_embedding(cmat: np.ndarray) -> np.ndarray:
    """Blockwise :func:`real_block` image of a complex (r, c) matrix,
    giving the real (2r, 2c) lock-in matrix."""
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
    signal = _require_signal(model)
    d = model.dim
    eye = np.eye(d)
    out = np.zeros((d * d, d * d), dtype=complex)
    if signal.mode == KINETIC:
        for mu, coupling in enumerate(model.channels):
            b = signal.coefficients[mu, q]
            if b != 0.0:
                out += b * dissipator(coupling)
        return out
    for mu, coupling in enumerate(model.channels):
        m = signal.tangents[mu][q]
        if m is None:
            continue
        cross = m.conj().T @ coupling + coupling.conj().T @ m
        out += (np.kron(coupling.conj(), m)
                + np.kron(m.conj(), coupling)
                - 0.5 * np.kron(eye, cross)
                - 0.5 * np.kron(cross.T, eye))
    return out


def perturbation_state(model: LindbladModel, q: int, rho: np.ndarray) -> np.ndarray:
    """(d L / d eps_q) rho evaluated directly on a state; traceless."""
    signal = _require_signal(model)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (model.dim, model.dim):
        raise DimMismatch(f"state shape {rho.shape} does not match dim {model.dim}")
    out = np.zeros_like(rho)
    for mu, coupling in enumerate(model.channels):
        m = model.tangent_operator(mu, q)
        if m is None:
            continue
        cross = m.conj().T @ coupling + coupling.conj().T @ m
        out += (m @ rho @ coupling.conj().T
                + coupling @ rho @ m.conj().T
                - 0.5 * (cross @ rho + rho @ cross))
    return out


def _require_signal(model: LindbladModel):
    if model.signal is None:
        raise ValueError("model has no signal parametrization")
    return model.signal


def direct_response(model_or_system: LindbladModel | System, current: int, q: int,
                    tol: ToleranceSet | None = None) -> float:
    """Instantaneous quadrature shift of a monitored current along signal q."""
    system = as_system(model_or_system, tol)
    model = system.model
    mu, theta = model.monitored[current]
    m = model.tangent_operator(mu, q)
    if m is None:
        return 0.0
    xdot = quadrature(m, theta)
    return float(np.trace(xdot @ system.rho).real)


@dataclass(frozen=True)
class ResponseMatrix:
    """Complex (m, n_params) response and its real (2m, 2 n_params)
    lock-in embedding at one frequency."""

    omega: float
    complex_matrix: np.ndarray
    real_matrix: np.ndarray


def response_matrix(model_or_system: LindbladModel | System, omega: float,
                    tol: ToleranceSet | None = None,
                    resolvent: Resolvent | None = None) -> ResponseMatrix:
    """Response of every monitored current to every signal at one frequency."""
    system = as_system(model_or_system, tol)
    model = system.model
    signal = _require_signal(model)
    if not model.monitored:
        raise ValueError("model has no monitored currents")
    n_cur = len(model.monitored)
    n_par = signal.n_params
    res = resolvent if resolvent is not None else system.resolvent(omega)
    sources = [perturbation_state(model, q, system.rho) for q in range(n_par)]
    shifted = res.apply_many(sources)
    cmat = np.empty((n_cur, n_par), dtype=complex)
    for a, (mu, theta) in enumerate(model.monitored):
        x = quadrature(model.channels[mu], theta)
        for q in range(n_par):
            cmat[a, q] = np.trace(x @ shifted[q]) + direct_response(system, a, q)
    cmat.setflags(write=False)
    rmat = real_embedding(cmat)
    rmat.setflags(write=False)
    return ResponseMatrix(omega=float(omega), complex_matrix=cmat, real_matrix=rmat)


def complex_response(model_or_system: LindbladModel | System, current: int, q: int,
                     omega: float, tol: ToleranceSet | None = None) -> complex:
    """Complex response of monitored current ``current`` to signal ``q``:
    one entry of :func:`response_matrix`."""
    return complex(response_matrix(model_or_system, omega, tol)
                   .complex_matrix[current, q])

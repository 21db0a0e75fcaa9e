"""Finite-dimensional operator constructors and small algebra helpers.

Conventions fixed here and relied on everywhere else:

* qubit basis ordered (excited, ground), so ``sigma_z = diag(1, -1)`` and
  ``sigma_minus = |g><e|`` has its single entry below the diagonal;
* bosonic Fock basis ascending ``|0>, ..., |n_cut - 1>`` with
  ``a[n-1, n] = sqrt(n)``; truncation artifacts (the commutator corner) are
  asserted in tests, never papered over.

Operators are plain complex ndarrays; add/scale/multiply are numpy natives.
"""
from __future__ import annotations

import numpy as np

from .errors import DimMismatch

__all__ = [
    "pauli",
    "annihilation",
    "transition",
    "dagger",
    "quadrature",
]

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "plus": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    "minus": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
}


def pauli(which: str) -> np.ndarray:
    """Pauli / ladder operator in the (excited, ground) basis."""
    try:
        return _PAULI[which].copy()
    except KeyError:
        raise ValueError(f"unknown pauli label {which!r}; use x|y|z|plus|minus") from None


def annihilation(n_cut: int) -> np.ndarray:
    """Truncated bosonic annihilation operator on n_cut Fock states."""
    if n_cut < 1:
        raise ValueError("n_cut must be at least 1")
    a = np.zeros((n_cut, n_cut), dtype=complex)
    ns = np.arange(1, n_cut)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def transition(dim: int, i: int, j: int) -> np.ndarray:
    """Matrix unit |i><j| on a dim-dimensional space."""
    if not (0 <= i < dim and 0 <= j < dim):
        raise DimMismatch(f"indices ({i}, {j}) out of range for dim {dim}")
    out = np.zeros((dim, dim), dtype=complex)
    out[i, j] = 1.0
    return out


def dagger(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=complex).conj().T


def quadrature(coupling: np.ndarray, theta: float) -> np.ndarray:
    """Measured quadrature exp(-i theta) L + exp(i theta) L^dag; Hermitian."""
    coupling = np.asarray(coupling, dtype=complex)
    if coupling.ndim != 2 or coupling.shape[0] != coupling.shape[1]:
        raise DimMismatch(f"coupling must be square, got shape {coupling.shape}")
    phase = np.exp(-1j * theta)
    return phase * coupling + np.conj(phase) * coupling.conj().T

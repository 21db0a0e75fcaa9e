"""Built-in models: Lindblad builders and their closed forms.

Four physical settings, in increasing dimension:

* ``cavity``: coherently driven single-sided cavity with a modulated decay
  rate, Fock-truncated. Its stationary state is coherent, and at the
  optimal homodyne phase ``cavity_optimal_phase`` the bound is attained,
  J = A, at every frequency.
* ``rf``: resonantly driven two-level emitter (resonance fluorescence) with
  closed forms for the activity, the out-of-phase quadrature response, and
  both quadrature spectra, plus the matching Lindblad builder.
* ``kerr_cat``: Kerr parametric oscillator with two-photon pumping, a
  linear bias drive, and monitored external plus unmonitored internal loss;
  the two loss rates are the modulated signals.
* ``classical_jump``: classical jump process embedded as a dephasing-free
  Lindblad model, one jump operator per directed transition.

``REGISTRY`` is the one table of model names the CLI and JSON configs
accept; adding a model means adding one entry there.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import numkit
from .errors import DimMismatch, NotIrreducible
from .hilbert import annihilation, dagger, pauli, transition
from .lindblad import LindbladModel, kinetic_signal
from .numkit import DEFAULT_TOL, ToleranceSet

__all__ = [
    "ModelEntry",
    "REGISTRY",
    "CavityParams",
    "cavity_scattering",
    "cavity_optimal_phase",
    "cavity_model",
    "RfParams",
    "RfClosedForms",
    "rf_closed_forms",
    "rf_model",
    "KerrCatParams",
    "kerr_cat_model",
    "classical_stationary",
    "classical_jump_model",
]

# ---------------------------------------------------------------------------
# driven cavity

# For a coherent state lambda_max(theta, omega) = cos^2(theta -
# theta*(omega)) does not depend on the drive amplitude F, which only scales
# the activity A = kappa |alpha|^2. So F is no parameter: it is set by a
# fixed stationary photon number |alpha|^2, whose Poisson tail past
# CAVITY_N_CUT levels is below 1e-18.
CAVITY_PHOTONS = 0.3
CAVITY_N_CUT = 14


@dataclass(frozen=True)
class CavityParams:
    kappa: float = 1.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.kappa <= 0.0:
            raise ValueError("cavity linewidth kappa must be positive")


def _cavity_drive(params: CavityParams) -> tuple[float, complex]:
    """Drive F > 0 and stationary amplitude alpha = -i F / (kappa/2 + i delta),
    with |alpha|^2 = CAVITY_PHOTONS."""
    z = complex(0.5 * params.kappa, params.delta)
    drive = float(np.sqrt(CAVITY_PHOTONS) * abs(z))
    return drive, -1j * drive / z


def cavity_scattering(params: CavityParams, omega: float) -> complex:
    """Reflection amplitude s(omega); unit modulus at every frequency."""
    z = 0.5 * params.kappa + 1j * (params.delta - omega)
    return complex((-0.5 * params.kappa + 1j * (params.delta - omega)) / z)


def cavity_optimal_phase(params: CavityParams, omega: float) -> float:
    """Homodyne phase theta*(omega) in [0, pi) at which the decay-rate
    response saturates the bound: arg alpha + (arg s(omega) + arg s(-omega))
    / 2 mod pi. At any phase theta, lambda_max = cos^2(theta - theta*)."""
    _, alpha = _cavity_drive(params)
    phase = np.angle(alpha) + 0.5 * (np.angle(cavity_scattering(params, omega))
                                     + np.angle(cavity_scattering(params, -omega)))
    return float(np.mod(phase, np.pi))


def cavity_model(params: CavityParams, theta: float = 0.0) -> LindbladModel:
    """H = delta a^dag a + F (a + a^dag) on CAVITY_N_CUT Fock levels, one
    channel sqrt(kappa) a monitored at phase theta, kinetic modulation of
    kappa."""
    drive, _ = _cavity_drive(params)
    a = annihilation(CAVITY_N_CUT)
    ad = dagger(a)
    return LindbladModel(
        hamiltonian=params.delta * (ad @ a) + drive * (a + ad),
        channels=(np.sqrt(params.kappa) * a,),
        monitored=((0, theta),),
        signal=kinetic_signal(np.array([[1.0]])),
    )


# ---------------------------------------------------------------------------
# resonance fluorescence (driven two-level emitter, zero detuning)

@dataclass(frozen=True)
class RfParams:
    kappa: float = 1.0
    rabi: float = 1.0

    def __post_init__(self) -> None:
        if self.kappa <= 0.0:
            raise ValueError("decay rate kappa must be positive")


@dataclass(frozen=True)
class RfClosedForms:
    """Closed-form record at one frequency.

    saturation = kappa^2 + 2 rabi^2 normalizes the steady populations;
    denom is the cubic-root denominator shared by the response and the
    out-of-phase spectrum.
    """

    saturation: float
    excited_population: float
    activity: float
    denom: complex
    response_y: complex
    spectrum_x: float
    spectrum_y: float


def rf_closed_forms(params: RfParams, omega: float) -> RfClosedForms:
    kappa, rabi = params.kappa, params.rabi
    sat = kappa ** 2 + 2.0 * rabi ** 2
    p_e = rabi ** 2 / sat
    activity = kappa * p_e
    denom = (0.5 * kappa - 1j * omega) * (kappa - 1j * omega) + rabi ** 2
    response_y = (np.sqrt(kappa) * rabi * kappa / sat) \
        * (3.0 * rabi ** 2 - 0.5 * kappa ** 2 - omega ** 2 - 0.5j * kappa * omega) \
        / denom
    spectrum_x = 1.0 + 2.0 * kappa ** 2 * rabi ** 2 \
        / (sat * (0.25 * kappa ** 2 + omega ** 2))
    spectrum_y = 1.0 - (4.0 * kappa * rabi ** 2 / sat ** 2) * np.real(
        (kappa * (kappa ** 2 - 4.0 * rabi ** 2)
         - 1j * omega * (kappa ** 2 - 2.0 * rabi ** 2)) / denom)
    return RfClosedForms(
        saturation=float(sat),
        excited_population=float(p_e),
        activity=float(activity),
        denom=complex(denom),
        response_y=complex(response_y),
        spectrum_x=float(spectrum_x),
        spectrum_y=float(spectrum_y),
    )


def rf_model(params: RfParams, theta: float = np.pi / 2) -> LindbladModel:
    """Driven emitter: H = (rabi/2) sigma_x, one decay channel sqrt(kappa)
    sigma_minus, monitored at phase theta, kinetic rate modulation."""
    h = 0.5 * params.rabi * pauli("x")
    coupling = np.sqrt(params.kappa) * pauli("minus")
    return LindbladModel(
        hamiltonian=h,
        channels=(coupling,),
        monitored=((0, theta),),
        signal=kinetic_signal(np.array([[1.0]])),
    )


# ---------------------------------------------------------------------------
# Kerr parametric oscillator with bias drive

# Largest dense (d^2, d^2) complex superoperator a Kerr truncation may ask
# for: 16 n_cut^4 bytes, so n_cut <= 107.
MAX_SUPEROPERATOR_BYTES = 2 * 1024 ** 3

@dataclass(frozen=True)
class KerrCatParams:
    """Defaults reproduce the certified operating point used in the
    acceptance suite."""

    n_cut: int = 12
    kerr: float = 1.0
    detuning: float = 0.2
    two_photon: float = 2.0
    bias: float = 0.15
    kappa_ex: float = 0.2
    kappa_in: float = 0.05

    def __post_init__(self) -> None:
        if self.n_cut < 4:
            raise ValueError("n_cut must be at least 4")
        size = 16 * self.n_cut ** 4
        if size > MAX_SUPEROPERATOR_BYTES:
            raise ValueError(
                f"n_cut={self.n_cut} needs a {size / 1024 ** 3:.3g} GiB superoperator, "
                f"over the {MAX_SUPEROPERATOR_BYTES / 1024 ** 3:g} GiB limit")
        if self.kappa_ex < 0.0 or self.kappa_in < 0.0:
            raise ValueError("loss rates must be nonnegative")
        if self.kappa_ex == 0.0 and self.kappa_in == 0.0:
            raise ValueError("at least one loss rate must be positive")


def kerr_cat_model(params: KerrCatParams, theta: float = 0.0) -> LindbladModel:
    """Two loss channels sqrt(kappa_ex) a (monitored at phase theta) and
    sqrt(kappa_in) a (unmonitored); the signals are independent kinetic
    modulations of the two rates."""
    a = annihilation(params.n_cut)
    ad = dagger(a)
    h = (-params.detuning * (ad @ a)
         - params.kerr * (ad @ ad @ a @ a)
         + 0.5 * params.two_photon * (ad @ ad + a @ a)
         + params.bias * (a + ad))
    channels = (np.sqrt(params.kappa_ex) * a, np.sqrt(params.kappa_in) * a)
    return LindbladModel(
        hamiltonian=h,
        channels=channels,
        monitored=((0, theta),),
        signal=kinetic_signal(np.eye(2)),
    )


# ---------------------------------------------------------------------------
# classical jump process embedding

def _rate_matrix(rates: np.ndarray) -> np.ndarray:
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
        raise DimMismatch(f"rate matrix must be square, got {rates.shape}")
    off = rates.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0.0):
        raise ValueError("off-diagonal rates must be nonnegative")
    # strong connectivity: squaring the reflexive adjacency ceil(log2 n)
    # times gives reachability along every path of up to n - 1 edges, and
    # the strongly connected components are the distinct rows of
    # reach & reach^T (two nodes share one iff each reaches the other)
    n = off.shape[0]
    reach = (off > 0.0) | np.eye(n, dtype=bool)
    for _ in range(max(n - 1, 1).bit_length()):
        reach = reach @ reach
    n_comp = len(np.unique(reach & reach.T, axis=0))
    if n_comp != 1:
        raise NotIrreducible(
            f"rate graph has {n_comp} strongly connected components")
    return off


def classical_stationary(rates: np.ndarray,
                         tol: ToleranceSet = DEFAULT_TOL) -> np.ndarray:
    """Stationary distribution of the classical master equation, solved
    directly (generator column convention: rates[a, b] is the b -> a rate)."""
    off = _rate_matrix(rates)
    n = off.shape[0]
    w = off.copy()
    w[np.diag_indices(n)] = -off.sum(axis=0)
    m = w.astype(float)
    m[0, :] = 1.0
    rhs = np.zeros(n)
    rhs[0] = 1.0
    p = numkit.LUFactor(m, tol).solve(rhs)
    if np.min(p) < -tol.psd:
        raise ValueError(f"stationary distribution has negative weight {np.min(p):.3e}")
    return p / p.sum()


def classical_jump_model(rates: np.ndarray, weights: np.ndarray) -> LindbladModel:
    """Embed a classical jump process: one jump operator
    sqrt(rates[a, b]) |a><b| per directed transition b -> a, with kinetic
    coefficients weights[q, a, b] per signal q. No monitored current."""
    off = _rate_matrix(rates)
    n = off.shape[0]
    weights = np.asarray(weights, dtype=float)
    if weights.ndim == 2:
        weights = weights[np.newaxis, :, :]
    if weights.ndim != 3 or weights.shape[1:] != (n, n):
        raise DimMismatch(
            f"weights must have shape (n_params, {n}, {n}), got {weights.shape}")
    channels = []
    coefficients = []
    for a in range(n):
        for b in range(n):
            if a != b and off[a, b] > 0.0:
                channels.append(np.sqrt(off[a, b]) * transition(n, a, b))
                coefficients.append(weights[:, a, b])
    return LindbladModel(
        hamiltonian=np.zeros((n, n)),
        channels=tuple(channels),
        monitored=(),
        signal=kinetic_signal(np.array(coefficients)),
    )


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class ModelEntry:
    """One model family: its parameter dataclass, the short parameter
    aliases the CLI accepts, its Lindblad builder (whose optional second
    argument is the monitored phase) and the extra entries ``ioqfr steady``
    reports for a stationary state. Families defined by a JSON config alone
    leave every field empty."""

    params: type | None = None
    aliases: dict[str, str] = field(default_factory=dict)
    build: Callable[..., LindbladModel] | None = None
    report: Callable[[np.ndarray], dict[str, float]] = lambda rho: {}


def _photon_number(rho: np.ndarray) -> dict[str, float]:
    a = annihilation(rho.shape[0])
    return {"photon_number": float(np.trace(dagger(a) @ a @ rho).real)}


# model names accepted by the CLI and the JSON config schema, in help order
REGISTRY: dict[str, ModelEntry] = {
    "cavity": ModelEntry(CavityParams, {"Delta": "delta"}, cavity_model,
                         _photon_number),
    "rf": ModelEntry(
        RfParams, {"Omega": "rabi"}, rf_model,
        lambda rho: {"excited_population": float(np.real(rho[0, 0]))}),
    "kerr_cat": ModelEntry(
        KerrCatParams,
        {"K": "kerr", "Delta": "detuning", "p": "two_photon", "F": "bias"},
        kerr_cat_model, _photon_number),
    "classical_jump": ModelEntry(),
    "custom": ModelEntry(),
}

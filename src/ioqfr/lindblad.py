"""Markovian generators on the vectorized density-matrix space.

Vectorization is column-stacking: ``vec(A X B) = (B.T kron A) vec(X)``, so a
superoperator acting on a d-dimensional system is a dense (d^2, d^2) complex
matrix applied to ``vec(rho)``. The generator is

    L rho = -i [H, rho] + sum_mu ( L_mu rho L_mu^dag
                                   - (1/2) {L_mu^dag L_mu, rho} ),

assumed exponentially mixing: a simple zero eigenvalue and every other
eigenvalue with real part at most -gap. Violations raise
:class:`~ioqfr.errors.NotMixing`; they are never downgraded to warnings.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numkit
from .errors import (
    DimMismatch,
    NotMixing,
    NumericalError,
    SingularMatrix,
    SourceNotTraceless,
)
from .numkit import DEFAULT_TOL, ToleranceSet

__all__ = [
    "vec",
    "unvec",
    "left_mult",
    "right_mult",
    "trace_vector",
    "dissipator",
    "SignalSpec",
    "kinetic_signal",
    "tangent_signal",
    "LindbladModel",
    "model_fingerprint",
    "liouvillian",
    "StationaryState",
    "steady_state",
    "project_traceless",
    "Resolvent",
    "System",
    "prepare",
    "as_system",
]

KINETIC = "kinetic"
TANGENT = "tangent"


# ---------------------------------------------------------------------------
# vectorization helpers

def vec(a: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(a, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`; requires a perfect-square length."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise DimMismatch(f"vector of length {v.size} is not a stacked square matrix")
    return v.reshape((d, d), order="F")


def left_mult(a: np.ndarray) -> np.ndarray:
    """Superoperator for rho -> a rho."""
    a = np.asarray(a, dtype=complex)
    return np.kron(np.eye(a.shape[0]), a)


def right_mult(b: np.ndarray) -> np.ndarray:
    """Superoperator for rho -> rho b."""
    b = np.asarray(b, dtype=complex)
    return np.kron(b.T, np.eye(b.shape[0]))


def trace_vector(dim: int) -> np.ndarray:
    """Row vector t with t @ vec(X) = Tr X."""
    return vec(np.eye(dim)).conj()


def dissipator(coupling: np.ndarray) -> np.ndarray:
    """Superoperator matrix of D[L] rho = L rho L^dag - (1/2){L^dag L, rho}."""
    coupling = np.asarray(coupling, dtype=complex)
    d = coupling.shape[0]
    ldl = coupling.conj().T @ coupling
    eye = np.eye(d)
    return (np.kron(coupling.conj(), coupling)
            - 0.5 * np.kron(eye, ldl)
            - 0.5 * np.kron(ldl.T, eye))


# ---------------------------------------------------------------------------
# signal parametrization

def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SignalSpec:
    """How each signal parameter enters the jump operators.

    kinetic mode: L_mu -> exp(b[mu, q] eps_q / 2) L_mu, described by a real
    (n_channels, n_params) coefficient matrix; the tangent of channel mu
    along parameter q is then (b[mu, q] / 2) L_mu.

    tangent mode: L_mu -> L_mu + eps_q M[mu][q], described by an explicit
    grid of tangent operators (None for channels a parameter does not touch).
    """

    mode: str
    coefficients: np.ndarray | None = None
    tangents: tuple[tuple[np.ndarray | None, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.mode not in (KINETIC, TANGENT):
            raise ValueError(f"unknown signal mode {self.mode!r}")
        if (self.mode == KINETIC) != (self.coefficients is not None):
            raise ValueError("kinetic mode requires a coefficient matrix")
        if (self.mode == TANGENT) != (self.tangents is not None):
            raise ValueError("tangent mode requires a tangent grid")
        if self.coefficients is not None:
            coeff = np.array(self.coefficients, dtype=float, copy=True)
            if coeff.ndim != 2:
                raise DimMismatch("kinetic coefficients must be 2-D (channels x params)")
            coeff.setflags(write=False)
            object.__setattr__(self, "coefficients", coeff)
        if self.tangents is not None:
            rows = []
            width = None
            for row in self.tangents:
                entries = tuple(None if m is None else _readonly(m) for m in row)
                if width is None:
                    width = len(entries)
                elif len(entries) != width:
                    raise DimMismatch("tangent grid rows have unequal lengths")
                rows.append(entries)
            if width in (None, 0):
                raise DimMismatch("tangent grid must have at least one parameter")
            object.__setattr__(self, "tangents", tuple(rows))

    @property
    def n_channels(self) -> int:
        if self.coefficients is not None:
            return self.coefficients.shape[0]
        return len(self.tangents)

    @property
    def n_params(self) -> int:
        if self.coefficients is not None:
            return self.coefficients.shape[1]
        return len(self.tangents[0])

    def tangent_operator(self, mu: int, q: int,
                         channels: Sequence[np.ndarray]) -> np.ndarray | None:
        """dL_mu / d eps_q, or None when the parameter does not touch mu."""
        if self.mode == KINETIC:
            b = self.coefficients[mu, q]
            if b == 0.0:
                return None
            return 0.5 * b * np.asarray(channels[mu], dtype=complex)
        return self.tangents[mu][q]


def kinetic_signal(coefficients: np.ndarray) -> SignalSpec:
    return SignalSpec(mode=KINETIC, coefficients=np.asarray(coefficients, dtype=float))


def tangent_signal(tangents: Sequence[Sequence[np.ndarray | None]]) -> SignalSpec:
    return SignalSpec(mode=TANGENT, tangents=tuple(tuple(row) for row in tangents))


# ---------------------------------------------------------------------------
# model

@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Hamiltonian, jump operators, monitored homodyne currents, and the
    signal parametrization. Immutable; arrays are stored read-only.

    ``monitored`` lists (channel index, homodyne phase) pairs; each pair
    defines one measured current with quadrature
    ``exp(-i theta) L + exp(i theta) L^dag`` and unit shot noise.
    """

    hamiltonian: np.ndarray
    channels: tuple[np.ndarray, ...] = ()
    monitored: tuple[tuple[int, float], ...] = ()
    signal: SignalSpec | None = None

    def __post_init__(self) -> None:
        h = _readonly(self.hamiltonian)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimMismatch(f"hamiltonian must be square, got {h.shape}")
        scale = max(1.0, float(np.linalg.norm(h)))
        if np.linalg.norm(h - h.conj().T) > DEFAULT_TOL.herm * scale:
            raise ValueError("hamiltonian is not Hermitian within tolerance")
        if not np.all(np.isfinite(h)):
            raise ValueError("hamiltonian has non-finite entries")
        object.__setattr__(self, "hamiltonian", h)

        chans = tuple(_readonly(c) for c in self.channels)
        for c in chans:
            if c.shape != h.shape:
                raise DimMismatch(
                    f"channel shape {c.shape} does not match system dim {h.shape[0]}")
            if not np.all(np.isfinite(c)):
                raise ValueError("channel operator has non-finite entries")
        object.__setattr__(self, "channels", chans)

        mon = tuple((int(mu), float(theta)) for mu, theta in self.monitored)
        for mu, _ in mon:
            if not 0 <= mu < len(chans):
                raise DimMismatch(f"monitored channel index {mu} out of range")
        object.__setattr__(self, "monitored", mon)

        if self.signal is not None:
            if self.signal.n_channels != len(chans):
                raise DimMismatch(
                    f"signal covers {self.signal.n_channels} channels, "
                    f"model has {len(chans)}")
            if self.signal.mode == TANGENT:
                for row in self.signal.tangents:
                    for m in row:
                        if m is not None and m.shape != h.shape:
                            raise DimMismatch("tangent operator dimension mismatch")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def n_params(self) -> int:
        return 0 if self.signal is None else self.signal.n_params

    @property
    def monitored_channels(self) -> tuple[int, ...]:
        return tuple(mu for mu, _ in self.monitored)

    def tangent_operator(self, mu: int, q: int) -> np.ndarray | None:
        if self.signal is None:
            raise ValueError("model has no signal parametrization")
        return self.signal.tangent_operator(mu, q, self.channels)


def model_fingerprint(model: LindbladModel) -> str:
    """Deterministic sha256 over the model content, for report metadata."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(model.hamiltonian).tobytes())
    for c in model.channels:
        digest.update(np.ascontiguousarray(c).tobytes())
    digest.update(repr(model.monitored).encode())
    if model.signal is not None:
        digest.update(model.signal.mode.encode())
        if model.signal.coefficients is not None:
            digest.update(np.ascontiguousarray(model.signal.coefficients).tobytes())
        else:
            for row in model.signal.tangents:
                for m in row:
                    digest.update(b"-" if m is None else np.ascontiguousarray(m).tobytes())
    return digest.hexdigest()


def liouvillian(model: LindbladModel) -> np.ndarray:
    """Dense (d^2, d^2) generator matrix in the column-stacking convention."""
    h = model.hamiltonian
    gen = -1j * (left_mult(h) - right_mult(h))
    for coupling in model.channels:
        gen = gen + dissipator(coupling)
    return gen


# ---------------------------------------------------------------------------
# stationary state

@dataclass(frozen=True)
class StationaryState:
    """Unique stationary density matrix, spectral gap, and solve residual."""

    rho: np.ndarray
    gap: float
    residual: float


def steady_state(generator: np.ndarray,
                 tol: ToleranceSet = DEFAULT_TOL) -> StationaryState:
    """Stationary state of a mixing generator.

    The full spectrum is computed to verify mixing (exactly one eigenvalue
    within gap_tol of zero, every other real part below -gap_tol, where
    gap_tol = gap_rel * max |eigenvalue|). The state itself comes from
    replacing one redundant row of the generator with the trace functional
    and solving, then cross-checking against the eigensolver's zero mode.
    """
    generator = np.asarray(generator, dtype=complex)
    d2 = generator.shape[0]
    d = math.isqrt(d2)
    if generator.ndim != 2 or generator.shape != (d2, d2) or d * d != d2:
        raise DimMismatch(f"generator shape {generator.shape} is not (d^2, d^2)")

    eigres = numkit.eig(generator)
    values = eigres.values
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    gap_tol = tol.gap_rel * scale
    if scale == 0.0:
        raise NotMixing("generator is identically zero")

    zero_idx = int(np.argmin(np.abs(values)))
    near_zero = np.flatnonzero(np.abs(values) <= gap_tol)
    if near_zero.size == 0:
        raise NotMixing(
            f"no eigenvalue within {gap_tol:.3e} of zero; closest is "
            f"{values[zero_idx]:.6e}")
    if near_zero.size != 1 or near_zero[0] != zero_idx:
        offenders = values[near_zero]
        raise NotMixing(
            "stationary direction is not unique; eigenvalues near zero: "
            + ", ".join(f"{z:.6e}" for z in offenders))
    rest = np.delete(values, zero_idx)
    gap = float(-np.max(rest.real))
    if gap <= gap_tol:
        worst = rest[np.argmax(rest.real)]
        raise NotMixing(
            f"spectral gap {gap:.3e} is below threshold {gap_tol:.3e} "
            f"(slowest nonzero eigenvalue {worst:.6e})")

    # trace-row replacement; row 0 carries part of the trace redundancy
    t = trace_vector(d)
    m = generator.copy()
    m[0, :] = t
    rhs = np.zeros(d2, dtype=complex)
    rhs[0] = 1.0
    factor = numkit.LUFactor(m, tol)
    x = factor.solve(rhs)
    x = x + factor.solve(rhs - m @ x)  # one refinement step
    rho = numkit.hermitize(unvec(x))
    tr = np.trace(rho).real
    if abs(tr - 1.0) > tol.trace * max(1.0, abs(tr)):
        raise NumericalError(f"stationary trace {tr!r} is not 1 within tolerance")
    rho = rho / tr

    eigs = np.linalg.eigvalsh(rho)
    if eigs[0] < -tol.psd:
        raise NumericalError(
            f"stationary state has negative eigenvalue {eigs[0]:.3e}")

    residual = float(np.linalg.norm(generator @ vec(rho)))
    if residual > tol.trace:
        raise NumericalError(f"stationary residual {residual:.3e} exceeds {tol.trace:.1e}")

    v0 = eigres.vectors[:, zero_idx]
    overlap = t @ v0
    if abs(overlap) < 1e-12:
        raise NotMixing("zero mode is traceless; no stationary density matrix")
    rho_eig = unvec(v0 / overlap)
    defect = np.linalg.norm(rho_eig - rho)
    if defect > 1e-9 * max(1.0, float(np.linalg.norm(rho))):
        raise NumericalError(
            f"trace-row solve and eigensolver zero mode disagree by {defect:.3e}")

    rho.setflags(write=False)
    return StationaryState(rho=rho, gap=gap, residual=residual)


def project_traceless(operator: np.ndarray, rho_ss: np.ndarray) -> np.ndarray:
    """Remove the stationary direction: Y -> Y - rho_ss Tr Y."""
    operator = np.asarray(operator, dtype=complex)
    rho_ss = np.asarray(rho_ss, dtype=complex)
    if operator.shape != rho_ss.shape:
        raise DimMismatch(
            f"operator shape {operator.shape} does not match state {rho_ss.shape}")
    return operator - rho_ss * np.trace(operator)


# ---------------------------------------------------------------------------
# resolvent

class Resolvent:
    """Factorized (-i omega - L), restricted to traceless sources.

    At omega = 0 the generator is singular; the stationary direction is
    deflated with the rank-one shift -L + vec(rho_ss) t and the solution
    re-projected onto the traceless subspace, so zero frequency can sit on
    sweep grids without special casing by the caller.
    """

    def __init__(self, generator: np.ndarray, omega: float,
                 rho_ss: np.ndarray | None = None,
                 tol: ToleranceSet = DEFAULT_TOL):
        generator = np.asarray(generator, dtype=complex)
        d2 = generator.shape[0]
        d = math.isqrt(d2)
        if generator.shape != (d2, d2) or d * d != d2:
            raise DimMismatch(f"generator shape {generator.shape} is not (d^2, d^2)")
        self.omega = float(omega)
        self._tol = tol
        self._dim = d
        self._trace_vec = trace_vector(d)
        self._rho_vec = None if rho_ss is None else vec(rho_ss)
        if self.omega == 0.0:
            if self._rho_vec is None:
                raise ValueError("omega=0 resolvent needs the stationary state to deflate")
            m = -generator + np.outer(self._rho_vec, self._trace_vec)
        else:
            m = -1j * self.omega * np.eye(d2) - generator
        try:
            self._factor = numkit.LUFactor(m, tol)
        except SingularMatrix as err:
            raise SingularMatrix(f"resolvent at omega={self.omega!r}: {err}") from err

    def apply(self, source: np.ndarray) -> np.ndarray:
        """(-i omega - L)^(-1) source for a traceless source operator."""
        return self.apply_many([source])[0]

    def apply_many(self, sources: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Apply to several traceless sources sharing the factorization."""
        cols = []
        for source in sources:
            source = np.asarray(source, dtype=complex)
            if source.shape != (self._dim, self._dim):
                raise DimMismatch(
                    f"source shape {source.shape} does not match dim {self._dim}")
            norm = np.linalg.norm(source)
            tr = np.trace(source)
            if norm > 0.0 and abs(tr) > self._tol.trace * norm:
                raise SourceNotTraceless(
                    f"source trace {tr:.3e} exceeds {self._tol.trace:.1e} * norm {norm:.3e}")
            cols.append(vec(source))
        stacked = np.stack(cols, axis=1)
        solved = self._factor.solve(stacked)
        if self.omega == 0.0:
            solved = solved - np.outer(self._rho_vec, self._trace_vec @ solved)
        return [unvec(solved[:, k]) for k in range(solved.shape[1])]


# ---------------------------------------------------------------------------
# prepared system

@dataclass(frozen=True)
class System:
    """Model plus its generator matrix and stationary state, computed once."""

    model: LindbladModel
    generator: np.ndarray
    steady: StationaryState
    tol: ToleranceSet

    @property
    def rho(self) -> np.ndarray:
        return self.steady.rho

    def with_monitored(self, monitored: Sequence[tuple[int, float]]) -> "System":
        """Same dynamics, different monitored currents; reuses the heavy parts."""
        model = LindbladModel(
            hamiltonian=self.model.hamiltonian,
            channels=self.model.channels,
            monitored=tuple(monitored),
            signal=self.model.signal,
        )
        return System(model=model, generator=self.generator,
                      steady=self.steady, tol=self.tol)

    def resolvent(self, omega: float) -> Resolvent:
        return Resolvent(self.generator, omega, rho_ss=self.rho, tol=self.tol)


def prepare(model: LindbladModel, tol: ToleranceSet = DEFAULT_TOL) -> System:
    """Build the generator and stationary state for repeated evaluation."""
    gen = liouvillian(model)
    steady = steady_state(gen, tol=tol)
    gen.setflags(write=False)
    return System(model=model, generator=gen, steady=steady, tol=tol)


def as_system(model_or_system: LindbladModel | System,
              tol: ToleranceSet | None = None) -> System:
    if isinstance(model_or_system, System):
        return model_or_system
    return prepare(model_or_system, tol=tol if tol is not None else DEFAULT_TOL)

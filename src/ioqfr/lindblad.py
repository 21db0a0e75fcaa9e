"""Markovian generators on the vectorized density-matrix space.

Vectorization is column-stacking: ``vec(A X B) = (B.T kron A) vec(X)``, so a
superoperator acting on a d-dimensional system is a dense (d^2, d^2) complex
matrix applied to ``vec(rho)``. The generator is

    L rho = -i [H, rho] + sum_mu ( L_mu rho L_mu^dag
                                   - (1/2) {L_mu^dag L_mu, rho} ),

assumed exponentially mixing: a simple zero eigenvalue and every other
eigenvalue with real part at most -gap. Violations raise
:class:`~ioqfr.errors.NotMixing`; they are never downgraded to warnings.

Numerical work happens in the coherence-vector form: in the orthonormal
generalized Gell-Mann basis U = {I/sqrt(d), traceless Hermitian B_k}, a
hermiticity- and trace-preserving L is the real matrix [[0, 0], [b, L']],
with L' its generator on the traceless subspace, nonsingular iff L is
mixing. :func:`steady_state` factors L' = Z T Z^H once (real Schur, then
complex triangular); the mixing verdict and gap come from diag(T), and every
resolvent applied afterwards, at any frequency, is one triangular solve with
-i omega - T.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
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
from .hilbert import quadrature
from .numkit import DEFAULT_TOL, ToleranceSet

__all__ = [
    "vec",
    "unvec",
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
    "insertion_state",
    "perturbation_state",
    "Resolvent",
    "System",
    "prepare",
]

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

    Exactly one of the two descriptions is given; it sets :attr:`mode`.
    """

    coefficients: np.ndarray | None = None
    tangents: tuple[tuple[np.ndarray | None, ...], ...] | None = None

    def __post_init__(self) -> None:
        if (self.coefficients is None) == (self.tangents is None):
            raise ValueError("a signal needs exactly one of a coefficient matrix "
                             "and a tangent grid")
        if self.coefficients is not None:
            coeff = np.array(self.coefficients, dtype=float, copy=True)
            if coeff.ndim != 2:
                raise DimMismatch("kinetic coefficients must be 2-D (channels x params)")
            if coeff.shape[1] == 0:
                raise DimMismatch("kinetic coefficients must have at least one parameter")
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
    def mode(self) -> str:
        return "kinetic" if self.coefficients is not None else "tangent"

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


def kinetic_signal(coefficients: np.ndarray) -> SignalSpec:
    return SignalSpec(coefficients=np.asarray(coefficients, dtype=float))


def tangent_signal(tangents: Sequence[Sequence[np.ndarray | None]]) -> SignalSpec:
    return SignalSpec(tangents=tuple(tuple(row) for row in tangents))


# ---------------------------------------------------------------------------
# model

@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Hamiltonian, jump operators, monitored homodyne currents, and the
    signal parametrization. Immutable; arrays are stored read-only.

    ``monitored`` lists (channel index, homodyne phase) pairs; each pair
    defines one measured current with quadrature
    ``exp(-i theta) L + exp(i theta) L^dag`` and unit shot noise.

    The signal is resolved once into the tangent grid :attr:`tangents`, the
    only form of it that consumers read: a kinetic coefficient b gives
    (b / 2) L_mu, or None where b = 0; explicit tangents are kept as given.
    """

    hamiltonian: np.ndarray
    channels: tuple[np.ndarray, ...] = ()
    monitored: tuple[tuple[int, float], ...] = ()
    signal: SignalSpec | None = None
    _tangents: tuple[tuple[np.ndarray | None, ...], ...] | None = field(
        init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        h = _readonly(self.hamiltonian)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimMismatch(f"hamiltonian must be square, got {h.shape}")
        if np.linalg.norm(h - h.conj().T) > DEFAULT_TOL.herm * np.linalg.norm(h):
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
        for (mu, _), (given, _) in zip(mon, self.monitored):
            if mu != given or not 0 <= mu < len(chans):
                raise DimMismatch(f"monitored channel index {given!r} is not an "
                                  f"integer in [0, {len(chans)})")
        object.__setattr__(self, "monitored", mon)

        if self.signal is not None:
            if self.signal.n_channels != len(chans):
                raise DimMismatch(
                    f"signal covers {self.signal.n_channels} channels, "
                    f"model has {len(chans)}")
            if self.signal.coefficients is not None:
                b = self.signal.coefficients
                scaled = 0.5 * b[:, :, None, None] * np.array(chans)[:, None]
                scaled.setflags(write=False)
                grid = tuple(tuple(None if b_q == 0.0 else m for b_q, m in zip(row, ms))
                             for row, ms in zip(b.tolist(), scaled))
            else:
                grid = self.signal.tangents
                for row in grid:
                    for m in row:
                        if m is not None and m.shape != h.shape:
                            raise DimMismatch("tangent operator dimension mismatch")
            object.__setattr__(self, "_tangents", grid)

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

    @property
    def tangents(self) -> tuple[tuple[np.ndarray | None, ...], ...]:
        """The read-only tangent grid M[mu][q]; None where parameter q does
        not touch channel mu. Raises ValueError when the model has no signal."""
        if self._tangents is None:
            raise ValueError("model has no signal parametrization")
        return self._tangents

    def tangent_operator(self, mu: int, q: int) -> np.ndarray | None:
        """dL_mu / d eps_q, or None when the parameter does not touch mu."""
        return self.tangents[mu][q]


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
    """Dense (d^2, d^2) generator matrix in the column-stacking convention.

    L rho = K rho + rho K^dag + sum_mu L_mu rho L_mu^dag with
    K = -i H - (1/2) sum_mu L_mu^dag L_mu, i.e. I kron K + conj(K) kron I
    + sum_mu conj(L_mu) kron L_mu. The two K terms are added blockwise in
    place, so assembly holds at most one Kronecker product besides the
    result."""
    h = model.hamiltonian
    d = h.shape[0]
    k = -1j * h
    gen = np.zeros((d * d, d * d), dtype=complex)
    for coupling in model.channels:
        k -= 0.5 * (coupling.conj().T @ coupling)
        gen += np.kron(coupling.conj(), coupling)
    blocks = gen.reshape(d, d, d, d)  # blocks[i, a, j, b] = gen[i d + a, j d + b]
    for i in range(d):
        blocks[i, :, i, :] += k
        blocks[:, i, :, i] += k.conj()
    return gen


# ---------------------------------------------------------------------------
# Gell-Mann coordinates

def _gell_mann_diagonal(d: int) -> np.ndarray:
    """Orthogonal (d, d) matrix whose columns are the diagonals of I/sqrt(d)
    and of the traceless diag(1, ..., 1, -l, 0, ..., 0) / sqrt(l (l + 1)),
    l = 1 .. d - 1."""
    out = np.zeros((d, d))
    out[:, 0] = 1.0 / math.sqrt(d)
    for level in range(1, d):
        norm = math.sqrt(level * (level + 1))
        out[:level, level] = 1.0 / norm
        out[level, level] = -level / norm
    return out


def _basis_indices(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """vec indices of the diagonal entries, and of (j, k) and (k, j), j < k."""
    j, k = np.triu_indices(d, 1)
    return np.arange(d) * (d + 1), j + k * d, k + j * d


_PAIR_CHUNK = 64  # off-diagonal pairs per pass of _to_coherence


def _to_coherence(x: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """U^H x (sign +1) or U^T x (sign -1) along axis 0 of vectorized
    operators, for the orthonormal Hermitian basis U: I/sqrt(d), the d - 1
    traceless diagonal Gell-Mann matrices, then (E_jk + E_kj)/sqrt(2) and
    -i (E_jk - E_kj)/sqrt(2) for every j < k. Coordinate 0 is Tr X/sqrt(d),
    and a Hermitian X has real coordinates. U acts as a d x d orthogonal
    block on the diagonal indices and a 2 x 2 block on each (j, k)/(k, j)
    pair; it is never formed densely."""
    d = math.isqrt(x.shape[0])
    diag, upper, lower = _basis_indices(d)
    p = upper.size
    out = np.empty(x.shape, dtype=complex)
    out[:d] = _gell_mann_diagonal(d).T @ x[diag]
    for start in range(0, p, _PAIR_CHUNK):  # chunks keep the temporaries small
        pairs = slice(start, start + _PAIR_CHUNK)
        high, low = x[upper[pairs]], x[lower[pairs]]
        out[d:d + p][pairs] = math.sqrt(0.5) * (high + low)
        out[d + p:][pairs] = sign * 1j * math.sqrt(0.5) * (high - low)
    return out


def _from_coherence(c: np.ndarray) -> np.ndarray:
    """U c along axis 0: the vectorized operator with Gell-Mann coordinates c."""
    d = math.isqrt(c.shape[0])
    diag, upper, lower = _basis_indices(d)
    p = upper.size
    sym, anti = math.sqrt(0.5) * c[d:d + p], 1j * math.sqrt(0.5) * c[d + p:]
    out = np.empty(c.shape, dtype=complex)
    out[diag] = _gell_mann_diagonal(d) @ c[:d]
    out[upper] = sym - anti
    out[lower] = sym + anti
    return out


def _coherence_generator(generator: np.ndarray, tol: ToleranceSet) -> np.ndarray:
    """U^H L U, which is real and of the form [[0, 0], [b, L']] because L
    preserves hermiticity and trace; L' is the generator on the traceless
    subspace. An imaginary part above ``tol.herm * ||L||_F`` or a first row
    above ``tol.trace * ||L||_F`` raises :class:`NumericalError`."""
    scale = float(np.linalg.norm(generator))
    full = _to_coherence(_to_coherence(generator).T, sign=-1.0).T
    imag = float(np.linalg.norm(full.imag))
    if imag > tol.herm * scale:
        raise NumericalError(
            f"generator does not preserve hermiticity: imaginary part {imag:.3e} "
            f"in Gell-Mann coordinates exceeds {tol.herm:.1e} * {scale:.3e}")
    top = float(np.linalg.norm(full[0].real))
    if top > tol.trace * scale:
        raise NumericalError(
            f"generator does not preserve the trace: trace row {top:.3e} "
            f"exceeds {tol.trace:.1e} * {scale:.3e}")
    return full.real


# ---------------------------------------------------------------------------
# stationary state

@dataclass(frozen=True)
class StationaryState:
    """Unique stationary density matrix, spectral gap and solve residual,
    with the Schur factorization of the traceless block L' that certified
    them; every resolvent of the generator reuses ``factor``."""

    rho: np.ndarray
    gap: float
    residual: float
    factor: numkit.SchurFactor = field(repr=False, compare=False)


def steady_state(generator: np.ndarray,
                 tol: ToleranceSet = DEFAULT_TOL) -> StationaryState:
    """Stationary state of a mixing generator.

    In Gell-Mann coordinates (:func:`_coherence_generator`) the generator is
    the real [[0, 0], [b, L']], so its spectrum is {0} u spec(L'), and L' is
    factored once, L' = Z T Z^H (:class:`~ioqfr.numkit.SchurFactor`). Mixing
    is read from diag(T): with gap_tol = gap_rel * max |T_kk|, an entry
    within gap_tol of zero means the stationary direction is not unique, and
    the gap -max Re T_kk must exceed gap_tol; either failure raises
    :class:`NotMixing`. The state is rho = I/d + sum_k x_k B_k with
    L' x = -b/sqrt(d), solved through the factor and cross-checked against
    one dense LU of L'. Its residual ||L vec(rho)|| must stay below
    trace * ||L||_F, so no check depends on the rate unit.
    """
    generator = np.asarray(generator, dtype=complex)
    d2 = generator.shape[0]
    d = math.isqrt(d2)
    if generator.ndim != 2 or generator.shape != (d2, d2) or d * d != d2:
        raise DimMismatch(f"generator shape {generator.shape} is not (d^2, d^2)")
    if not np.any(generator):
        raise NotMixing("generator is identically zero")

    full = _coherence_generator(generator, tol)
    drift = full[1:, 0] / math.sqrt(d)
    block = full[1:, 1:].copy()
    del full
    factor = numkit.SchurFactor(block, tol)

    values = factor.eigenvalues
    gap_tol = tol.gap_rel * float(np.max(np.abs(values)))
    near_zero = np.flatnonzero(np.abs(values) <= gap_tol)
    if near_zero.size:
        raise NotMixing(
            "stationary direction is not unique; eigenvalues near zero: 0, "
            + ", ".join(f"{z:.6e}" for z in values[near_zero]))
    slowest = values[np.argmax(values.real)]
    gap = float(-slowest.real)
    if gap <= gap_tol:
        raise NotMixing(
            f"spectral gap {gap:.3e} is below threshold {gap_tol:.3e} "
            f"(slowest nonzero eigenvalue {slowest:.6e})")

    check = numkit.LUFactor(block, tol)
    reference, cond = check.solve(-drift), 1.0 / check.rcond
    del check, block
    x = factor.solve(0.0, drift[:, None])[:, 0]
    defect = float(np.linalg.norm(x - reference))
    limit = tol.solve_residual * cond * float(np.linalg.norm(x))
    if defect > limit:
        raise NumericalError(
            f"Schur and LU stationary solves disagree by {defect:.3e} (limit {limit:.3e})")
    rho = numkit.hermitize(unvec(_from_coherence(np.concatenate([[1.0 / math.sqrt(d)], x]))))

    eigs = np.linalg.eigvalsh(rho)
    if eigs[0] < -tol.psd:
        raise NumericalError(
            f"stationary state has negative eigenvalue {eigs[0]:.3e}")

    residual = float(np.linalg.norm(generator @ vec(rho)))
    limit = tol.trace * float(np.linalg.norm(generator))
    if residual > limit:
        raise NumericalError(f"stationary residual {residual:.3e} exceeds {limit:.3e}")

    rho.setflags(write=False)
    return StationaryState(rho=rho, gap=gap, residual=residual, factor=factor)


def project_traceless(operator: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Remove the stationary direction: Y -> Y - rho Tr Y."""
    operator = np.asarray(operator, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if operator.shape != rho.shape:
        raise DimMismatch(
            f"operator shape {operator.shape} does not match state {rho.shape}")
    return operator - rho * np.trace(operator)


def insertion_state(coupling: np.ndarray, theta: float, rho: np.ndarray) -> np.ndarray:
    """B_theta rho evaluated directly; Hermitian for Hermitian rho."""
    coupling = np.asarray(coupling, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    phase = np.exp(-1j * theta)
    return phase * (coupling @ rho) + np.conj(phase) * (rho @ coupling.conj().T)


def perturbation_state(model: LindbladModel, q: int, rho: np.ndarray) -> np.ndarray:
    """(d L / d eps_q) rho evaluated directly on a state; traceless."""
    tangents = model.tangents
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (model.dim, model.dim):
        raise DimMismatch(f"state shape {rho.shape} does not match dim {model.dim}")
    out = np.zeros_like(rho)
    for coupling, row in zip(model.channels, tangents):
        m = row[q]
        if m is None:
            continue
        cross = m.conj().T @ coupling + coupling.conj().T @ m
        out += (m @ rho @ coupling.conj().T
                + coupling @ rho @ m.conj().T
                - 0.5 * (cross @ rho + rho @ cross))
    return out


# ---------------------------------------------------------------------------
# resolvent

def _traceless_coordinates(sources: np.ndarray, tol: ToleranceSet) -> np.ndarray:
    """Gell-Mann coordinates 1..n-1 of an (n, k) block of vectorized
    sources; a source whose trace exceeds ``tol.trace`` times its norm raises
    :class:`SourceNotTraceless`."""
    coords = _to_coherence(sources)
    d = math.isqrt(sources.shape[0])
    norms = np.linalg.norm(sources, axis=0)
    traces = math.sqrt(d) * np.abs(coords[0])
    leaks = np.flatnonzero(traces > tol.trace * norms)
    if leaks.size:
        k = leaks[0]
        raise SourceNotTraceless(
            f"source {k} trace {traces[k]:.3e} exceeds "
            f"{tol.trace:.1e} * norm {norms[k]:.3e}")
    return coords[1:]


class Resolvent:
    """(-i omega - L)^(-1) on traceless sources, from the one Schur
    factorization L' = Z T Z^H of the generator's traceless block.

    A traceless source has no I/sqrt(d) coordinate, and on the traceless
    subspace -i omega - L is -i omega - L' = Z (-i omega - T) Z^H, so every
    application is one triangular solve; for a mixing generator spec(L')
    lies in Re < 0 and -i omega - T is nonsingular at every real omega.
    Building a Resolvent costs nothing; each application is gated on the
    condition of -i omega - T (:class:`~ioqfr.numkit.SchurFactor`).
    """

    def __init__(self, factor: numkit.SchurFactor, omega: float):
        self.omega = float(omega)
        self._factor = factor

    def apply(self, block: np.ndarray) -> np.ndarray:
        """(-i omega - T)^(-1) on an (n - 1, k) block given in Schur
        coordinates Z^H c, with c the traceless Gell-Mann coordinates."""
        try:
            return self._factor.solve_triangular(-1j * self.omega, block)
        except SingularMatrix as err:
            raise SingularMatrix(f"resolvent at omega={self.omega!r}: {err}") from err


# ---------------------------------------------------------------------------
# prepared system

def _realization(model: LindbladModel, rho: np.ndarray) -> tuple:
    """Fixed realization (Y, C, D) of the monitored currents; three Nones
    when nothing is monitored.

    For m currents (mu_a, theta_a) with quadratures X_a and p signals:
    Y = [vec Q(B_a rho) ... | vec V_q rho ...] is (n, m + p), the traceless
    insertion and perturbation sources; C is (m, n) with rows vec(X_a^T), so
    that C vec(Z) = Tr[X_a Z]; D is (m, p), the direct terms
    Tr[(exp(-i theta_a) M + exp(i theta_a) M^dag) rho] of each current's own
    channel tangent M = dL_mu_a / d eps_q.
    """
    if not model.monitored:
        return None, None, None
    n_par = model.n_params
    columns = [vec(project_traceless(insertion_state(model.channels[mu], th, rho), rho))
               for mu, th in model.monitored]
    columns += [vec(perturbation_state(model, q, rho)) for q in range(n_par)]
    sources = np.stack(columns, axis=1)
    observables = np.stack([vec(quadrature(model.channels[mu], th).T)
                            for mu, th in model.monitored])
    direct = np.zeros((len(model.monitored), n_par))
    for a, (mu, th) in enumerate(model.monitored):
        for q in range(n_par):
            m = model.tangent_operator(mu, q)
            if m is not None:
                direct[a, q] = np.trace(quadrature(m, th) @ rho).real
    direct.setflags(write=False)
    return sources, observables, direct


@dataclass(frozen=True)
class System:
    """Model plus its stationary state and the realization of its monitored
    currents (see :func:`_realization`), all computed once. The realization
    is kept in the Schur coordinates of the steady state's factor, without
    the identity coordinate: the rows (C U) Z, the columns Z^H (U^H Y), whose
    sources are checked traceless here, and the direct terms D. So a
    frequency costs one triangular solve. The three arrays are None when
    nothing is monitored. The dense generator is not kept; :func:`liouvillian`
    rebuilds it from the model."""

    model: LindbladModel
    steady: StationaryState
    tol: ToleranceSet
    direct: np.ndarray | None = field(init=False, repr=False)
    _schur_rows: np.ndarray | None = field(init=False, repr=False)
    _schur_sources: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sources, observables, direct = _realization(self.model, self.rho)
        rows = None
        if sources is not None:
            factor = self.steady.factor
            sources = factor.to_schur(_traceless_coordinates(sources, self.tol))
            # (C U)[:, 1:] Z = (Z^H (U^H C^H)[1:])^H
            rows = factor.to_schur(_to_coherence(observables.conj().T)[1:]).conj().T
            for block in (rows, sources):
                block.setflags(write=False)
        object.__setattr__(self, "direct", direct)
        object.__setattr__(self, "_schur_rows", rows)
        object.__setattr__(self, "_schur_sources", sources)

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
        return System(model=model, steady=self.steady, tol=self.tol)

    def transfer(self, omega: float) -> np.ndarray:
        """H(omega) = C (-i omega - L)^(-1) Y, the (m, m + p) transfer matrix
        of the monitored currents, from one triangular solve. Every
        frequency-domain quantity enters here, so a non-finite ``omega``
        raises ValueError before any solve."""
        if not math.isfinite(omega):
            raise ValueError(f"frequency {float(omega)} is not finite")
        if self._schur_sources is None:
            raise ValueError("model has no monitored currents")
        return self._schur_rows @ Resolvent(self.steady.factor, omega).apply(
            self._schur_sources)


def prepare(model: LindbladModel, tol: ToleranceSet = DEFAULT_TOL) -> System:
    """Build the stationary state and its factor for repeated evaluation."""
    return System(model=model, steady=steady_state(liouvillian(model), tol=tol), tol=tol)

"""Dense complex linear algebra with explicit tolerance contracts.

Everything operates on plain numpy arrays (complex128 unless noted) and
raises typed exceptions instead of returning status flags. Thresholds are
carried by an immutable :class:`ToleranceSet` that call sites thread
explicitly; nothing in this module reads ambient global state.
"""
from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import ConvergenceFailure, NotPSD, NumericalError, SingularMatrix

__all__ = [
    "ToleranceSet",
    "DEFAULT_TOL",
    "EigenResult",
    "LUFactor",
    "eig",
    "pinv",
    "psd_inv_sqrt",
    "hermitize",
]


@dataclass(frozen=True)
class ToleranceSet:
    """Numerical thresholds used across the package.

    All entries are dimensionless or relative except ``activity_floor``,
    which carries rate units. Instances are immutable; use
    :meth:`replacing` to derive a variant.
    """

    solve_residual: float = 1e-10   # relative residual allowed for linear solves
    cond_max: float = 1e14          # condition ceiling before SingularMatrix
    pinv_rel: float = 1e-12         # relative singular-value cutoff for pseudo-inverses
    herm: float = 1e-12             # hermiticity validation threshold
    trace: float = 1e-10            # tracelessness / trace-preservation threshold
    psd: float = 1e-10              # eigenvalue floor for density matrices
    gap_rel: float = 1e-8           # mixing-gap threshold relative to generator scale
    imag_residue: float = 1e-10     # allowed imaginary residue on nominally real values
    spectrum_psd: float = 1e-8      # eigenvalue floor for output noise matrices
    bound_margin: float = 1e-8      # slack when certifying matrix inequalities
    activity_floor: float = 1e-12   # smallest usable activity diagonal (rate units)

    def replacing(self, **overrides: float) -> "ToleranceSet":
        return dataclasses.replace(self, **overrides)


DEFAULT_TOL = ToleranceSet()


def _as_square_complex(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NumericalError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix has non-finite entries")
    return a


class LUFactor:
    """LU factorization of a square complex matrix, gated on conditioning.

    The reciprocal condition number is estimated from the factors (LAPACK
    gecon); factorization fails with :class:`SingularMatrix` when the
    estimate exceeds ``tol.cond_max``. Solutions are residual-checked.
    """

    def __init__(self, a: np.ndarray, tol: ToleranceSet = DEFAULT_TOL):
        a = _as_square_complex(a)
        self._a = a
        self._tol = tol
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            self._lu, self._piv = scipy.linalg.lu_factor(a)
        anorm = np.linalg.norm(a, 1)
        if anorm == 0.0:
            rcond = 0.0
        else:
            rcond, info = lapack.zgecon(self._lu, anorm, norm="1")
            if info != 0:
                raise SingularMatrix(f"condition estimate failed (info={info})")
        self.rcond = float(rcond)
        if not np.isfinite(self.rcond) or self.rcond <= 1.0 / tol.cond_max:
            cond = np.inf if self.rcond == 0 else 1.0 / self.rcond
            raise SingularMatrix(
                f"estimated condition number {cond:.3e} exceeds {tol.cond_max:.1e}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=complex)
        x = scipy.linalg.lu_solve((self._lu, self._piv), b)
        residual = np.linalg.norm(self._a @ x - b)
        scale = np.linalg.norm(self._a) * np.linalg.norm(x) + np.linalg.norm(b)
        if residual > self._tol.solve_residual * max(scale, np.finfo(float).tiny):
            raise NumericalError(
                f"solve residual {residual:.3e} exceeds "
                f"{self._tol.solve_residual:.1e} * {scale:.3e}"
            )
        return x


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues (sorted by descending real part, then imaginary part)
    and the matching right eigenvectors as columns."""

    values: np.ndarray
    vectors: np.ndarray


def eig(a: np.ndarray) -> EigenResult:
    """Dense nonsymmetric eigendecomposition with deterministic ordering."""
    a = _as_square_complex(a)
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as err:
        raise ConvergenceFailure(f"eigensolver did not converge: {err}") from err
    order = np.lexsort((-values.imag, -values.real))
    return EigenResult(values=values[order], vectors=vectors[:, order])


def pinv(a: np.ndarray, rel_tol: float = DEFAULT_TOL.pinv_rel) -> np.ndarray:
    """Moore-Penrose pseudo-inverse; singular values below rel_tol * sigma_max
    are truncated. The zero matrix maps to the zero matrix."""
    a = np.asarray(a, dtype=float if np.isrealobj(a) else complex)
    if a.ndim != 2:
        raise NumericalError(f"expected a matrix, got shape {a.shape}")
    return np.linalg.pinv(a, rcond=rel_tol)


def hermitize(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    return 0.5 * (a + a.conj().T)


def psd_inv_sqrt(a: np.ndarray, rel_tol: float = DEFAULT_TOL.pinv_rel) -> np.ndarray:
    """Inverse square root of a real symmetric PSD matrix on its support.

    Eigenvalues in (-rel_tol * lambda_max, rel_tol * lambda_max] are treated
    as zero; a negative eigenvalue beyond that band raises :class:`NotPSD`.
    The result N satisfies N a N = projector onto the support of a.
    """
    a = np.asarray(a)
    if np.iscomplexobj(a):
        if np.max(np.abs(a.imag)) > 1e-12 * max(1.0, np.linalg.norm(a)):
            raise NotPSD("matrix has a non-negligible imaginary part")
        a = a.real
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NumericalError(f"expected a square matrix, got shape {a.shape}")
    sym_defect = np.linalg.norm(a - a.T)
    if sym_defect > 1e-12 * max(1.0, np.linalg.norm(a)):
        raise NotPSD(f"matrix not symmetric (defect {sym_defect:.3e})")
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    lam_max = max(float(w[-1]), 0.0)
    floor = -rel_tol * (lam_max if lam_max > 0.0 else 1.0)
    if w[0] < floor:
        raise NotPSD(f"negative eigenvalue {w[0]:.3e} (lambda_max {lam_max:.3e})")
    cutoff = rel_tol * lam_max
    inv_sqrt = np.where(w > cutoff, 1.0 / np.sqrt(np.where(w > cutoff, w, 1.0)), 0.0)
    result = (v * inv_sqrt) @ v.T
    return 0.5 * (result + result.T)

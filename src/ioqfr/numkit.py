"""Dense complex linear algebra with explicit tolerance contracts.

Everything operates on plain numpy arrays (complex128 unless noted) and
raises typed exceptions instead of returning status flags. Thresholds are
carried by an immutable :class:`ToleranceSet` that call sites thread
explicitly; nothing in this module reads ambient global state.
"""
from __future__ import annotations

import dataclasses
import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from .errors import ConvergenceFailure, NotPSD, NumericalError, SingularMatrix

__all__ = [
    "ToleranceSet",
    "DEFAULT_TOL",
    "EigenResult",
    "LUFactor",
    "SchurFactor",
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
    herm: float = 1e-12             # relative hermiticity validation threshold
    trace: float = 1e-10            # relative tracelessness / stationarity threshold
    psd: float = 1e-10              # eigenvalue floor for states; relative for activities
    gap_rel: float = 1e-8           # mixing-gap threshold relative to generator scale
    spectrum_psd: float = 1e-8      # eigenvalue floor for output noise matrices
    bound_margin: float = 1e-8      # certificate slack, relative to the largest activity eigenvalue
    activity_floor: float = 1e-12   # smallest usable activity diagonal (rate units)

    def replacing(self, **overrides: float) -> "ToleranceSet":
        return dataclasses.replace(self, **overrides)


DEFAULT_TOL = ToleranceSet()


def _as_square(a: np.ndarray, dtype: type | np.dtype = complex) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NumericalError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix has non-finite entries")
    return a


class LUFactor:
    """LU factorization of a square real or complex matrix, gated on
    conditioning. A real matrix stays real, so its LU takes half the memory
    and time of a complex one.

    The reciprocal condition number is estimated from the factors (LAPACK
    gecon); factorization fails with :class:`SingularMatrix` when the
    estimate exceeds ``tol.cond_max``. Solutions are residual-checked.
    """

    def __init__(self, a: np.ndarray, tol: ToleranceSet = DEFAULT_TOL):
        a = np.asarray(a)
        a = _as_square(a, np.result_type(a, float))
        self._a = a
        self._a_fro = np.linalg.norm(a)
        self._tol = tol
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            self._lu, self._piv = scipy.linalg.lu_factor(a)
        anorm = np.linalg.norm(a, 1)
        if anorm == 0.0:
            rcond = 0.0
        else:
            gecon, = lapack.get_lapack_funcs(("gecon",), (self._lu,))
            rcond, info = gecon(self._lu, anorm, norm="1")
            if info != 0:
                raise SingularMatrix(f"condition estimate failed (info={info})")
        self.rcond = float(rcond)
        _check_rcond(self.rcond, tol)

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b)
        b = b.astype(np.result_type(b, self._lu), copy=False)
        x = scipy.linalg.lu_solve((self._lu, self._piv), b)
        _check_residual(self._a @ x - b, self._a_fro, x, b, self._tol)
        return x


def _check_rcond(rcond: float, tol: ToleranceSet) -> None:
    if not np.isfinite(rcond) or rcond <= 1.0 / tol.cond_max:
        cond = np.inf if rcond == 0 else 1.0 / rcond
        raise SingularMatrix(
            f"estimated condition number {cond:.3e} exceeds {tol.cond_max:.1e}")


def _check_residual(defect: np.ndarray, a_fro: float, x: np.ndarray, b: np.ndarray,
                    tol: ToleranceSet) -> None:
    """Backward-error test of a solve of a x = b: ||a x - b|| must stay below
    solve_residual * (||a||_F ||x|| + ||b||); a NaN residual fails it."""
    residual = np.linalg.norm(defect)
    scale = a_fro * np.linalg.norm(x) + np.linalg.norm(b)
    if not residual <= tol.solve_residual * max(scale, np.finfo(float).tiny):
        raise NumericalError(
            f"solve residual {residual:.3e} exceeds "
            f"{tol.solve_residual:.1e} * {scale:.3e}")


class SchurFactor:
    """Schur form a = Z T Z^H of a real square matrix, for solves with
    (shift - a) at many complex shifts.

    The real Schur form a = Q R Q^T (LAPACK gees) is factored once; its
    backward error ||a Q - Q R||_F must stay below ``tol.solve_residual``
    times ||a||_F. :func:`_complex_schur` then makes it complex upper
    triangular: the T and Z of ``scipy.linalg.rsf2csf``, bit for bit, with
    every Givens rotation built in one batched pass. Z is kept read-only,
    :attr:`eigenvalues` is diag(T), and -T is kept once, as the upper half
    of an order x order array in Fortran order, the layout LAPACK reads in
    place; the strict lower half of the same array holds -|T|^T.

    Every shifted solve is one triangular solve, gated on its 1-norm
    condition number against ``tol.cond_max`` and residual-checked like
    :class:`LUFactor`. The gate has three tiers, each run only where the
    one before it does not pass the shift:

    1. The set-up bound B0 = :func:`_tri_inverse_bound` with |Re T_kk| on
       the diagonal: one lower-triangular solve on the stored array, whose
       lower half is then the transposed comparison matrix M0 (every other
       LAPACK call here reads only the upper half). A shift with
       |shift - T_kk| >= |Re T_kk| for every k, which every shift on the
       imaginary axis meets, has a comparison matrix that differs from M0
       only by a larger diagonal, so ||(shift - T)^-1||_1 <= B0. The
       premise is checked on the moduli that ||shift - T||_1 needs anyway:
       O(order) per shift, no solve.
    2. The same bound with |shift - T_kk| on the diagonal, one lower solve
       per shift.
    3. The estimate LAPACK ztrcon returns, a lower bound on the same
       norm, where the bound of tier 2 reaches ``cond_max``. A shift the
       bounds pass, the estimate passes too, so every verdict is the
       estimate's.

    ||shift - T||_1 comes from the strict-upper column sums of |T|, kept
    from the set-up. A solve writes into the stored diagonal, so it holds
    the factor's lock until its last LAPACK call: solves on one factor run
    one at a time.
    """

    def __init__(self, a: np.ndarray, tol: ToleranceSet = DEFAULT_TOL):
        if np.iscomplexobj(a):
            raise NumericalError("expected a real matrix")
        a = _as_square(a, float)
        if not a.size:
            raise NumericalError("expected a matrix of order at least 1, got 0 x 0")
        self._tol = tol
        try:
            r, q = scipy.linalg.schur(a, output="real")
        except np.linalg.LinAlgError as err:
            raise ConvergenceFailure(f"Schur factorization did not converge: {err}") from err
        backward = float(np.linalg.norm(a @ q - q @ r))
        a_fro = float(np.linalg.norm(a))
        if backward > tol.solve_residual * a_fro:
            raise NumericalError(
                f"Schur backward error {backward:.3e} exceeds "
                f"{tol.solve_residual:.1e} * {a_fro:.3e}")
        t, self._z = _complex_schur(r, q)
        del r, q
        self.eigenvalues = np.diagonal(t).copy()
        self._strict_fro2 = max(float(np.linalg.norm(t) ** 2
                                      - np.linalg.norm(self.eigenvalues) ** 2), 0.0)
        # -T goes into a fresh array made after the set-up temporaries are
        # freed. Left in the conversion's array, allocated among them, it
        # read a peak RSS of 155.3 MB on perfbench's sweep_d900 against
        # 149.1 MB for the copy (2 cores): heap placement, not its size
        self._triangle = triangle = np.array(np.negative(t, out=t), order="F")
        del t
        # column sums of the strict upper |T|, and -|T|^T written into the
        # strict lower half, 128 columns at a time so that no temporary of
        # order x order is made
        order = len(triangle)
        self._strict_colsum = np.empty(order)
        for j in range(0, order, 128):
            block = np.triu(np.abs(triangle[:j + 128, j:j + 128]), 1 - j)
            self._strict_colsum[j:j + 128] = block.sum(axis=0)
            np.copyto(triangle[j:j + 128, :j + 128], -block.T,
                      where=np.tri(*block.T.shape, j - 1, dtype=bool))
        # B0 of the gate's first tier: ||(s - T)^-1||_1 <= B0 at every shift
        # s with |s - T_kk| >= |Re T_kk| for all k
        self._moduli_floor = np.abs(self.eigenvalues.real)
        self._floor_bound = _tri_inverse_bound(triangle, self._moduli_floor)
        self._lock = threading.Lock()
        for array in (self.eigenvalues, self._strict_colsum, self._moduli_floor, self._z):
            array.setflags(write=False)

    def to_schur(self, b: np.ndarray) -> np.ndarray:
        """Z^H b = (b^H Z)^H for an (order, k) block, without a copy of Z^H."""
        return (np.asarray(b).conj().T @ self._z).conj().T

    def from_schur(self, w: np.ndarray) -> np.ndarray:
        """Z w for an (order, k) block."""
        return self._z @ w

    def _shifted(self, shift: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """shift - T: the stored array with shift - T_kk written into its
        diagonal, that diagonal, its moduli and the 1-norm of the upper
        triangle, the largest column sum of |shift - T|. The array holds
        this shift until the next call, so a solve calls it under the
        factor's lock."""
        diagonal = shift - self.eigenvalues
        np.fill_diagonal(self._triangle, diagonal)
        moduli = np.abs(diagonal)
        anorm = float(np.max(self._strict_colsum + moduli, initial=0.0))
        return self._triangle, diagonal, moduli, anorm

    def solve_triangular(self, shift: complex, rhs: np.ndarray) -> np.ndarray:
        """(shift - T)^(-1) rhs for an (order, k) block in Schur coordinates."""
        rhs = np.asarray(rhs, dtype=complex)
        cond_max = self._tol.cond_max
        with self._lock:
            shifted, diagonal, moduli, anorm = self._shifted(shift)
            if not (anorm * self._floor_bound < cond_max
                    and np.all(moduli >= self._moduli_floor)):
                if not anorm * _tri_inverse_bound(shifted, moduli) < cond_max:
                    rcond, info = lapack.ztrcon(shifted, norm="1")
                    if info != 0:
                        raise SingularMatrix(f"condition estimate failed (info={info})")
                    _check_rcond(rcond, self._tol)
            x, info = lapack.ztrtrs(shifted, rhs)
            if info != 0:
                raise SingularMatrix(f"triangular solve failed (info={info})")
            product = blas.ztrmm(1.0, shifted, x)
        a_fro = np.sqrt(self._strict_fro2 + np.linalg.norm(diagonal) ** 2)
        _check_residual(product - rhs, a_fro, x, rhs, self._tol)
        return x

    def solve(self, shift: complex, b: np.ndarray) -> np.ndarray:
        """(shift - a)^(-1) b = Z (shift - T)^(-1) Z^H b."""
        return self.from_schur(self.solve_triangular(shift, self.to_schur(b)))


_EPS = np.finfo(float).eps


def _complex_schur(r: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form (T, Z) of a real Schur form a = q r q^T: the arrays
    ``scipy.linalg.rsf2csf(r, q)`` returns, bit for bit.

    rsf2csf walks the 2 x 2 blocks of r from the bottom up. It builds each
    block's Givens rotation from the block's eigenvalue and applies it to
    two rows and two columns of T and to two columns of Z. A rotation reads
    only its own block, which no rotation below it touches as long as no
    two nonzero subdiagonal entries are adjacent, as in every real Schur
    form (checked). So all rotations are built here at once: the blocks by
    rsf2csf's ``eps`` test, their eigenvalues from one stacked LAPACK call,
    and the radii by ``numpy.linalg.norm``'s formula, with its two sums of
    squares through the same BLAS dot at the same strides: that dot fuses
    its second product into the sum, so an elementwise a*a + b*b rounds
    differently on about one random pair in ten. Only the three BLAS
    products per block stay in the loop, in rsf2csf's order.
    """
    t, z = r.astype(complex), q.astype(complex)
    sub = np.diagonal(r, -1)
    if np.any((sub[1:] != 0.0) & (sub[:-1] != 0.0)):
        raise NumericalError("not a real Schur form: adjacent nonzero subdiagonal entries")
    moduli = np.abs(np.diagonal(r))
    rows = np.flatnonzero(np.abs(sub) > _EPS * (moduli[:-1] + moduli[1:]))[::-1] + 1
    pair = rows[:, None] + np.array([-1, 0])
    mu = np.linalg.eigvals(t[pair[:, :, None], pair[:, None, :]])[:, 0] - t[rows, rows]
    x = np.stack((mu, t[rows, rows - 1]), axis=1)
    squares = x.real[:, None] @ x.real[:, :, None] + x.imag[:, None] @ x.imag[:, :, None]
    radius = np.sqrt(squares[:, 0, 0])
    c, s = mu / radius, x[:, 1] / radius
    g = np.stack((np.stack((c.conj(), s), axis=1), np.stack((-s, c), axis=1)), axis=1)
    for m, rot, adjoint in zip(rows.tolist(), g, g.conj().transpose(0, 2, 1)):
        t[m - 1:m + 1, m - 1:] = rot.dot(t[m - 1:m + 1, m - 1:])
        t[:m + 1, m - 1:m + 1] = t[:m + 1, m - 1:m + 1].dot(adjoint)
        z[:, m - 1:m + 1] = z[:, m - 1:m + 1].dot(adjoint)
    below = np.arange(len(t) - 1)
    t[below + 1, below] = 0.0
    return t, z


def _tri_inverse_bound(tri: np.ndarray, moduli: np.ndarray) -> float:
    """Upper bound on ||U^-1||_1 for every upper triangle U with the strict
    upper half of ``tri`` and |u_kk| >= moduli_k, where the strict lower
    half of ``tri`` holds -|U|^T.

    With ``moduli`` written into the diagonal, the lower half of ``tri`` is
    M^T, M the comparison matrix with that diagonal. M(U) differs from M
    only by a diagonal at least as large, so, both being triangular
    M-matrices, |U^-1| <= M(U)^-1 <= M^-1 entrywise and ||U^-1||_1 <=
    ||M^-T e||_inf: one ztrtrs solve, after which the diagonal is written
    back. The solve adds only nonnegative terms, so its componentwise
    relative error is of order n^2 u (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, sections 8.2-8.3); the result is
    inflated by 4 (n + 1)^2 eps, several times that, to stay an upper bound
    after rounding. It also covers a computed |u_kk| that reaches moduli_k
    while the exact one lies up to one unit in the last place below it,
    which moves M^-1 by a relative n eps at most. An empty or singular triangle gives inf, and a solve
    that overflows inf or nan, so that no finite limit compares above
    either.
    """
    n = len(tri)
    if n == 0:
        return math.inf
    diagonal = np.diagonal(tri).copy()
    np.fill_diagonal(tri, moduli)
    y, info = lapack.ztrtrs(tri, np.ones(n, dtype=complex), lower=1)
    np.fill_diagonal(tri, diagonal)
    if info != 0:
        return math.inf
    return float(y.real.max()) * (1.0 + 4.0 * (n + 1) ** 2 * _EPS)


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues (sorted by descending real part, then imaginary part)
    and the matching right eigenvectors as columns."""

    values: np.ndarray
    vectors: np.ndarray


def eig(a: np.ndarray) -> EigenResult:
    """Dense nonsymmetric eigendecomposition with deterministic ordering."""
    a = _as_square(a)
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


def psd_inv_sqrt(a: np.ndarray, rel_tol: float = DEFAULT_TOL.pinv_rel, *,
                 herm: float = DEFAULT_TOL.herm) -> np.ndarray:
    """Inverse square root of a real symmetric PSD matrix on its support.

    An imaginary part or asymmetry above ``herm`` times the Frobenius norm
    raises :class:`NotPSD`, whatever the units of ``a``. Eigenvalues in
    (-rel_tol * lambda_max, rel_tol * lambda_max] are treated as zero; a
    negative eigenvalue beyond that band raises :class:`NotPSD`.
    The result N satisfies N a N = projector onto the support of a.
    """
    a = np.asarray(a)
    if np.iscomplexobj(a):
        if np.max(np.abs(a.imag)) > herm * np.linalg.norm(a):
            raise NotPSD("matrix has a non-negligible imaginary part")
        a = a.real
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NumericalError(f"expected a square matrix, got shape {a.shape}")
    sym_defect = np.linalg.norm(a - a.T)
    if sym_defect > herm * np.linalg.norm(a):
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

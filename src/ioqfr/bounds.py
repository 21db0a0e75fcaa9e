"""Fluctuation-response certification for monitored-signal estimation.

The central object is the measured response-to-noise matrix of the
lock-in quadratures, real_R^T pinv(real_S) real_R, which the
signal-activity matrix bounds from above for purely dissipative signal
couplings:

    real_R^T pinv(real_S) real_R <= A kron I_2   (as real symmetric matrices).

The real embedding is a *-homomorphism, so the left side is the embedding
of the complex (p, p) Hermitian matrix

    J(omega) = R(omega)^H pinv(S(omega)) R(omega),

each of its eigenvalues counted twice, and the certificate is the complex
inequality J <= A. Both sides read only the model's tangent array M[mu, q].
Every certificate starts at ``applicable_activity``, the one gate that
decides whether the bound applies at all.

``certify_bound`` evaluates both sides over a frequency grid and reports
the normalized top eigenvalue lambda_max of N J N with N = A^(-1/2) on the
support of A and the worst eigenvalue margin_min of A - J; violations
beyond solver noise fail, smaller ones pass with a note. Support leakage of
J outside the activity support is a failure in its own right, never
silently projected away.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import numkit
from .errors import (
    ActivityDegenerate,
    NumericalError,
    PureDissipativeViolated,
)
from .lindblad import LindbladModel, System, model_fingerprint, prepare
from .models import (
    RfParams,
    classical_jump_model,
    classical_stationary,
    rf_closed_forms,
)
from .numkit import DEFAULT_TOL, ToleranceSet, hermitize
from .response import LockInMatrix, real_embedding, response_matrix
from .spectra import matrix_spectrum

__all__ = [
    "activity_matrix",
    "PureDissipativeCheck",
    "pure_dissipative_residuals",
    "applicable_activity",
    "response_to_noise",
    "BoundPoint",
    "evaluate_point",
    "BoundReport",
    "certify_bound",
    "rf_positivity_residual",
    "RayleighResult",
    "rayleigh_identity",
    "ClassicalReductionReport",
    "classical_reduction_check",
]


def activity_matrix(system: System, tol: ToleranceSet | None = None) -> np.ndarray:
    """Signal-activity matrix A_qr = 4 Re sum_mu Tr[M_mu_q^dag M_mu_r rho_ss].

    For kinetic tangents (b_mu_q / 2) L_mu this reduces to
    sum_mu b_mu_q b_mu_r Tr[L^dag L rho_ss], the weighted stationary jump
    fluxes. Symmetric PSD by construction; validated before return against
    ``tol.psd`` (``system.tol`` when ``tol`` is None) times its largest
    eigenvalue, so the check has no units.
    """
    tolerances = tol if tol is not None else system.tol
    tangents = system.model.tangents
    act = 4.0 * np.einsum("mqab,mrab->qr", tangents.conj(), tangents @ system.rho).real
    act = 0.5 * (act + act.T)
    eigs = np.linalg.eigvalsh(act)
    if eigs[0] < -tolerances.psd * max(eigs[-1], 0.0):
        raise NumericalError(
            f"activity matrix has negative eigenvalue {eigs[0]:.3e} "
            f"(largest {eigs[-1]:.3e})")
    return act


@dataclass(frozen=True)
class PureDissipativeCheck:
    """Per-signal Frobenius norms of K_q - K_q^dag, K_q = sum_mu L_mu^dag M_mu_q.

    The tangents are purely dissipative when every K_q is Hermitian. A
    residual above its threshold herm * sum_mu 2 ||L_mu||_F ||M_mu_q||_F, the
    scale of the terms it sums, means the modulation is not purely
    dissipative and the activity bound does not apply."""

    residuals: np.ndarray
    thresholds: np.ndarray
    ok: bool


def pure_dissipative_residuals(model: LindbladModel,
                               tol: ToleranceSet = DEFAULT_TOL) -> PureDissipativeCheck:
    tangents = model.tangents
    channels = np.array(model.channels, dtype=complex).reshape(
        model.n_channels, model.dim, model.dim)
    k = np.einsum("mba,mqbc->qac", channels.conj(), tangents)
    residuals = np.linalg.norm(k - k.conj().transpose(0, 2, 1), axis=(1, 2))
    thresholds = 2.0 * tol.herm * (np.linalg.norm(channels, axis=(1, 2))
                                   @ np.linalg.norm(tangents, axis=(2, 3)))
    return PureDissipativeCheck(residuals=residuals, thresholds=thresholds,
                                ok=bool(np.all(residuals <= thresholds)))


def applicable_activity(system: System, tol: ToleranceSet | None = None) -> np.ndarray:
    """The activity matrix, once the bound is known to apply.

    Raises :class:`ActivityDegenerate` when a signal has activity at or below
    ``tol.activity_floor`` (``system.tol`` when ``tol`` is None) and
    :class:`PureDissipativeViolated` when the tangents fail
    :func:`pure_dissipative_residuals`; either makes the bound meaningless
    rather than merely violated.
    """
    tol = tol if tol is not None else system.tol
    activity = activity_matrix(system, tol)
    diag = np.diag(activity)
    if np.min(diag) <= tol.activity_floor:
        worst = int(np.argmin(diag))
        raise ActivityDegenerate(
            f"signal {worst} has activity {diag[worst]:.3e} at or below "
            f"{tol.activity_floor:.1e}; its bound carries no information")
    check = pure_dissipative_residuals(system.model, tol)
    if not check.ok:
        raise PureDissipativeViolated(
            "signal tangents are not purely dissipative; residuals "
            + np.array2string(check.residuals, precision=3))
    return activity


def response_to_noise(response: LockInMatrix, noise: LockInMatrix,
                      rel_tol: float = DEFAULT_TOL.pinv_rel) -> np.ndarray:
    """J = R^H pinv(S) R, hermitized: the complex (p, p) matrix whose real
    embedding is real_R^T pinv(real_S) real_R."""
    r = response.complex_matrix
    return hermitize(r.conj().T @ numkit.pinv(noise.complex_matrix, rel_tol) @ r)


@dataclass(frozen=True)
class BoundPoint:
    """Everything certified at one frequency."""

    omega: float
    noise: LockInMatrix
    response: LockInMatrix
    j_matrix: np.ndarray
    lambda_max: float
    margin_min: float
    support_leak: float
    scalar_ratios: np.ndarray | None
    passed: bool
    note: str


def evaluate_point(system: System, activity: np.ndarray, normalizer: np.ndarray,
                   omega: float, tol: ToleranceSet) -> BoundPoint:
    """Evaluate noise, response, J, and the bound margins at one frequency.

    ``normalizer`` is (A kron I_2)^(-1/2) on the support of A, the real
    embedding of A^(-1/2); the (p, p) certificate reads A^(-1/2) as
    ``normalizer[::2, ::2]``. margin_min and support_leak carry rate units,
    so both are held to ``tol.bound_margin`` times the largest eigenvalue of
    A, and the verdict does not depend on the time unit.
    """
    transfer = system.transfer(omega)
    noise = matrix_spectrum(system, omega, transfer)
    response = response_matrix(system, omega, transfer)
    j = response_to_noise(response, noise, tol.pinv_rel)
    norm = normalizer[::2, ::2]
    margin_min = float(np.linalg.eigvalsh(activity - j)[0])
    lambda_max = float(np.linalg.eigvalsh(hermitize(norm @ j @ norm))[-1])
    perp = np.eye(len(activity)) - norm @ activity @ norm
    support_leak = float(np.linalg.norm(perp @ j @ perp, 2))
    slack = tol.bound_margin * float(np.linalg.eigvalsh(activity)[-1])
    support_ok = support_leak <= slack
    passed = bool(margin_min >= -slack and support_ok)
    if not support_ok:
        note = f"support mismatch: J leaks {support_leak:.3e} outside the activity support"
    elif margin_min < 0.0:
        note = f"margin {margin_min:.3e} within numerical noise"
    else:
        note = ""
    scalar_ratios = None
    if len(system.model.monitored) == 1:
        s_scalar = float(noise.complex_matrix[0, 0].real)
        diag = np.diag(activity)
        with np.errstate(divide="ignore", invalid="ignore"):
            scalar_ratios = np.abs(response.complex_matrix[0, :]) ** 2 \
                / (s_scalar * diag)
    return BoundPoint(
        omega=float(omega), noise=noise, response=response, j_matrix=j,
        lambda_max=lambda_max, margin_min=margin_min, support_leak=support_leak,
        scalar_ratios=scalar_ratios, passed=passed, note=note,
    )


@dataclass(frozen=True)
class BoundReport:
    """Certification record over a frequency grid.

    ``lambda_max[i]`` is the top eigenvalue of A^(-1/2) J A^(-1/2),
    ``margin_min[i]`` the smallest eigenvalue of A - J and
    ``support_leak[i]`` the spectral norm of J outside the support of A, all
    of the complex (p, p) J at ``omegas[i]``. ``passed[i]`` is True iff
    margin_min[i] >= -bound_margin * lambda_max(A) and support_leak[i] stays
    within the same slack. ``points[i]`` is the :class:`BoundPoint` these
    entries are read from, with the noise and response matrices.
    """

    omegas: np.ndarray
    activity: np.ndarray
    lambda_max: np.ndarray
    margin_min: np.ndarray
    support_leak: np.ndarray
    scalar_ratios: np.ndarray | None
    passed: np.ndarray
    notes: tuple[str, ...]
    points: tuple[BoundPoint, ...]
    metadata: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return bool(np.all(self.passed))


def certify_bound(system: System, omegas: Sequence[float],
                  tol: ToleranceSet | None = None) -> BoundReport:
    """Certify J(omega) <= A over a frequency grid, with the tolerances
    ``tol`` (``system.tol`` when None); the PSD check of S always reads
    ``system.tol``, as :func:`~ioqfr.spectra.matrix_spectrum` does.

    The activity comes from :func:`applicable_activity`, which raises
    :class:`ActivityDegenerate` or :class:`PureDissipativeViolated` when the
    bound does not apply.
    """
    tol = tol if tol is not None else system.tol
    activity = applicable_activity(system, tol)
    normalizer = real_embedding(numkit.psd_inv_sqrt(activity, tol.pinv_rel,
                                                    herm=tol.herm))
    omegas = np.asarray(list(omegas), dtype=float)
    points = tuple(evaluate_point(system, activity, normalizer, w, tol) for w in omegas)

    scalar = None
    if points and points[0].scalar_ratios is not None:
        scalar = np.vstack([pt.scalar_ratios for pt in points])

    return BoundReport(
        omegas=omegas,
        activity=activity,
        lambda_max=np.array([pt.lambda_max for pt in points]),
        margin_min=np.array([pt.margin_min for pt in points]),
        support_leak=np.array([pt.support_leak for pt in points]),
        scalar_ratios=scalar,
        passed=np.array([pt.passed for pt in points], dtype=bool),
        notes=tuple(pt.note for pt in points),
        points=points,
        metadata={
            "model_hash": model_fingerprint(system.model),
            "tolerances": {
                "bound_margin": tol.bound_margin,
                "pinv_rel": tol.pinv_rel,
                "activity_floor": tol.activity_floor,
            },
        },
    )


# ---------------------------------------------------------------------------
# closed-form identity for the driven emitter

def rf_positivity_residual(rabi: float, kappa: float, omega: float) -> float:
    """A S_y(omega) - |R_y(omega)|^2 for resonance fluorescence.

    Evaluated two ways: from the closed-form activity, spectrum, and
    response, and from the manifestly nonnegative rational form
    kappa rabi^4 [4 (omega^2 - rabi^2)^2 + kappa^2 (4 rabi^2 + 9 omega^2
    + 5 kappa^2)] / (2 sat^2 |denom|^2). Both must agree to 1e-10 relative
    and be nonnegative; the assembled value is returned.
    """
    rel_tol = 1e-10
    forms = rf_closed_forms(RfParams(kappa=kappa, rabi=rabi), omega)
    assembled = forms.activity * forms.spectrum_y - abs(forms.response_y) ** 2
    sat = forms.saturation
    positive = kappa * rabi ** 4 * (
        4.0 * (omega ** 2 - rabi ** 2) ** 2
        + kappa ** 2 * (4.0 * rabi ** 2 + 9.0 * omega ** 2 + 5.0 * kappa ** 2)
    ) / (2.0 * sat ** 2 * abs(forms.denom) ** 2)
    scale = max(abs(positive), abs(assembled), 1e-300)
    if abs(assembled - positive) > rel_tol * scale:
        raise NumericalError(
            f"positivity identity mismatch at omega={omega!r}: "
            f"{assembled!r} vs {positive!r}")
    if positive < 0.0 or assembled < -rel_tol * scale:
        raise NumericalError(
            f"positivity identity negative at omega={omega!r}: {assembled!r}")
    return float(assembled)


# ---------------------------------------------------------------------------
# generalized Rayleigh identity

@dataclass(frozen=True)
class RayleighResult:
    """Comparison of the scalar projection of J with the best achievable
    single-quadrature ratio |u^T real_R theta|^2 / (u^T real_S u)."""

    quadratic_form: float
    exact_max: float
    random_max: float
    optimal_ratio: float
    trials: int


def rayleigh_identity(response_real: np.ndarray, noise_real: np.ndarray,
                      direction: np.ndarray, trials: int = 1000,
                      seed: int | None = None,
                      rel_tol: float = DEFAULT_TOL.pinv_rel) -> RayleighResult:
    """Evaluate theta^T R^T S^+ R theta against the exact Rayleigh maximum
    on the support of S and against random projections."""
    r = np.asarray(response_real, dtype=float)
    s = np.asarray(noise_real, dtype=float)
    theta = np.asarray(direction, dtype=float)
    v = r @ theta
    s_pinv = numkit.pinv(s, rel_tol)
    quad = float(theta @ (r.T @ s_pinv @ r) @ theta)
    n = numkit.psd_inv_sqrt(s, rel_tol)
    exact = float(np.linalg.norm(n @ v) ** 2)
    u_opt = s_pinv @ v
    denom_opt = float(u_opt @ s @ u_opt)
    optimal = float((u_opt @ v) ** 2 / denom_opt) if denom_opt > 0.0 else 0.0
    rng = np.random.default_rng(seed)
    random_max = 0.0
    floor = rel_tol * max(float(np.linalg.norm(s, 2)), 1e-300)
    for _ in range(trials):
        u = rng.standard_normal(s.shape[0])
        denom = float(u @ s @ u)
        if denom <= floor * float(u @ u):
            continue
        random_max = max(random_max, float((u @ v) ** 2 / denom))
    return RayleighResult(
        quadratic_form=quad, exact_max=exact, random_max=random_max,
        optimal_ratio=optimal, trials=trials,
    )


# ---------------------------------------------------------------------------
# classical reduction

@dataclass(frozen=True)
class ClassicalReductionReport:
    stationary_classical: np.ndarray
    stationary_embedded: np.ndarray
    steady_error: float
    offdiag_error: float
    activity_embedded: np.ndarray
    activity_classical: np.ndarray
    activity_error: float
    passed: bool


def classical_reduction_check(rates: np.ndarray, weights: np.ndarray,
                              tol: ToleranceSet = DEFAULT_TOL
                              ) -> ClassicalReductionReport:
    """Check that the Lindblad embedding of a classical jump process
    reproduces the classical stationary law (populations and vanishing
    coherences to 1e-10) and escape-flux activity (to 1e-12)."""
    model = classical_jump_model(rates, weights)
    system = prepare(model, tol)
    p_classical = classical_stationary(rates, tol)
    rho = system.rho
    p_embedded = np.real(np.diag(rho))
    offdiag = rho - np.diag(np.diag(rho))
    steady_error = float(np.max(np.abs(p_embedded - p_classical)))
    offdiag_error = float(np.max(np.abs(offdiag))) if offdiag.size else 0.0

    act_embedded = activity_matrix(system)
    weights = np.asarray(weights, dtype=float)
    if weights.ndim == 2:
        weights = weights[np.newaxis, :, :]
    off = np.asarray(rates, dtype=float).copy()
    np.fill_diagonal(off, 0.0)
    flux = off * p_classical[np.newaxis, :]          # flux[a, b] = rate(b->a) p_b
    act_classical = np.einsum("qab,rab,ab->qr", weights, weights, flux)
    act_classical = 0.5 * (act_classical + act_classical.T)
    activity_error = float(np.max(np.abs(act_embedded - act_classical)))

    passed = bool(steady_error <= 1e-10
                  and offdiag_error <= 1e-10
                  and activity_error <= 1e-12)
    return ClassicalReductionReport(
        stationary_classical=p_classical,
        stationary_embedded=p_embedded,
        steady_error=steady_error,
        offdiag_error=offdiag_error,
        activity_embedded=act_embedded,
        activity_classical=act_classical,
        activity_error=activity_error,
        passed=passed,
    )

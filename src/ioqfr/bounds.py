"""Fluctuation-response certification for monitored-signal estimation.

The central object is the measured response-to-noise matrix

    J(omega) = real_R(omega)^T pinv(real_S(omega)) real_R(omega),

which the signal-activity matrix bounds from above for purely dissipative
signal couplings:

    J(omega) <= A kron I_2        (as real symmetric matrices).

``certify_bound`` evaluates both sides over a frequency grid, reports the
normalized top eigenvalue lambda_max of N J N with N = (A kron I_2)^(-1/2)
on the support of A, the worst eigenvalue of the margin A kron I_2 - J, and
directional margins; violations beyond solver noise fail, smaller ones pass
with a note. Support leakage of J outside the activity support is a
failure in its own right, never silently projected away.
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
from .lindblad import (
    KINETIC,
    LindbladModel,
    System,
    as_system,
    model_fingerprint,
)
from .models import (
    CavityParams,
    RfParams,
    cavity_optimal_phase,
    cavity_scalar_ratio,
    cavity_scattering,
    classical_jump_model,
    classical_stationary,
    rf_closed_forms,
)
from .numkit import DEFAULT_TOL, ToleranceSet, hermitize
from .response import ResponseMatrix, response_matrix
from .spectra import NoiseMatrix, matrix_spectrum

__all__ = [
    "activity_matrix",
    "PureDissipativeCheck",
    "pure_dissipative_residuals",
    "response_to_noise",
    "BoundPoint",
    "evaluate_point",
    "BoundReport",
    "certify_bound",
    "rf_positivity_residual",
    "RayleighResult",
    "rayleigh_identity",
    "CavityCeilingReport",
    "coherent_ceiling_check",
    "ClassicalReductionReport",
    "classical_reduction_check",
]


def activity_matrix(model_or_system: LindbladModel | System,
                    tol: ToleranceSet | None = None) -> np.ndarray:
    """Signal-activity matrix A_qr = 4 Re sum_mu Tr[M_mu_q^dag M_mu_r rho_ss].

    In kinetic mode this reduces to sum_mu b_mu_q b_mu_r Tr[L^dag L rho_ss],
    the weighted stationary jump fluxes. Symmetric PSD by construction;
    validated before return.
    """
    system = as_system(model_or_system, tol)
    tolerances = tol if tol is not None else system.tol
    model = system.model
    if model.signal is None:
        raise ValueError("model has no signal parametrization")
    signal = model.signal
    n_par = signal.n_params
    rho = system.rho
    if signal.mode == KINETIC:
        fluxes = np.array([
            float(np.trace(c.conj().T @ c @ rho).real) for c in model.channels
        ])
        act = signal.coefficients.T @ (fluxes[:, None] * signal.coefficients)
    else:
        act = np.zeros((n_par, n_par))
        for mu in range(model.n_channels):
            ms = [model.tangent_operator(mu, q) for q in range(n_par)]
            for q in range(n_par):
                if ms[q] is None:
                    continue
                for r in range(n_par):
                    if ms[r] is None:
                        continue
                    act[q, r] += 4.0 * float(
                        np.trace(ms[q].conj().T @ ms[r] @ rho).real)
    act = 0.5 * (act + act.T)
    eigs = np.linalg.eigvalsh(act)
    if eigs[0] < -tolerances.psd:
        raise NumericalError(
            f"activity matrix has negative eigenvalue {eigs[0]:.3e}")
    return act


@dataclass(frozen=True)
class PureDissipativeCheck:
    """Frobenius norms of sum_mu (L_mu^dag M_mu_q - M_mu_q^dag L_mu) per
    signal; nonzero residuals mean the modulation is not purely dissipative
    and the activity bound does not apply."""

    residuals: np.ndarray
    threshold: float
    ok: bool


def pure_dissipative_residuals(model: LindbladModel,
                               threshold: float = 1e-10) -> PureDissipativeCheck:
    if model.signal is None:
        raise ValueError("model has no signal parametrization")
    n_par = model.signal.n_params
    residuals = np.zeros(n_par)
    for q in range(n_par):
        acc = np.zeros((model.dim, model.dim), dtype=complex)
        for mu, coupling in enumerate(model.channels):
            m = model.tangent_operator(mu, q)
            if m is None:
                continue
            acc += coupling.conj().T @ m - m.conj().T @ coupling
        residuals[q] = np.linalg.norm(acc)
    ok = bool(np.all(residuals <= threshold))
    return PureDissipativeCheck(residuals=residuals, threshold=threshold, ok=ok)


def response_to_noise(response: ResponseMatrix, noise: NoiseMatrix,
                      rel_tol: float = DEFAULT_TOL.pinv_rel) -> np.ndarray:
    """J = real_R^T pinv(real_S) real_R, symmetrized."""
    r = response.real_matrix
    s = noise.real_matrix
    j = r.T @ numkit.pinv(s, rel_tol) @ r
    return 0.5 * (j + j.T)


@dataclass(frozen=True)
class BoundPoint:
    """Everything certified at one frequency."""

    omega: float
    noise: NoiseMatrix
    response: ResponseMatrix
    j_matrix: np.ndarray
    lambda_max: float
    margin_min: float
    support_leak: float
    scalar_ratios: np.ndarray | None
    passed: bool
    note: str


def evaluate_point(system: System, activity: np.ndarray, normalizer: np.ndarray,
                   omega: float, tol: ToleranceSet) -> BoundPoint:
    """Evaluate noise, response, J, and the bound margins at one frequency."""
    res_plus = system.resolvent(omega)
    res_minus = system.resolvent(-omega)
    noise = matrix_spectrum(system, omega, tol=tol, resolvents=(res_plus, res_minus))
    response = response_matrix(system, omega, tol=tol, resolvent=res_plus)
    j = response_to_noise(response, noise, tol.pinv_rel)
    a_real = np.kron(activity, np.eye(2))
    margin_min = float(np.linalg.eigvalsh(a_real - j)[0])
    lambda_max = float(np.linalg.eigvalsh(hermitize(normalizer @ j @ normalizer))[-1])
    support = normalizer @ a_real @ normalizer
    perp = np.eye(a_real.shape[0]) - support
    support_leak = float(np.linalg.norm(perp @ j @ perp, 2))
    support_ok = support_leak <= tol.bound_margin
    passed = bool(margin_min >= -tol.bound_margin and support_ok)
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

    ``passed[i]`` is True iff margin_min[i] >= -bound_margin and J stays on
    the activity support; ``directional_min`` is the worst normalized
    directional margin over seeded random and worst-eigenvector
    directions (matrix and directional verdicts agree by construction).
    """

    omegas: np.ndarray
    activity: np.ndarray
    lambda_max: np.ndarray
    margin_min: np.ndarray
    directional_min: np.ndarray
    support_leak: np.ndarray
    scalar_ratios: np.ndarray | None
    passed: np.ndarray
    notes: tuple[str, ...]
    j_matrices: tuple[np.ndarray, ...]
    metadata: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return bool(np.all(self.passed))


_N_RANDOM_DIRECTIONS = 8


def certify_bound(model_or_system: LindbladModel | System,
                  omegas: Sequence[float],
                  tol: ToleranceSet = DEFAULT_TOL,
                  seed: int = 20260814) -> BoundReport:
    """Certify J(omega) <= A kron I_2 over a frequency grid.

    Raises :class:`ActivityDegenerate` when a signal has vanishing activity
    and :class:`PureDissipativeViolated` when explicit tangents fail the
    dissipative compatibility check; both make the bound meaningless rather
    than merely violated.
    """
    system = as_system(model_or_system, tol)
    model = system.model
    activity = activity_matrix(system, tol)
    diag = np.diag(activity)
    if np.min(diag) <= tol.activity_floor:
        worst = int(np.argmin(diag))
        raise ActivityDegenerate(
            f"signal {worst} has activity {diag[worst]:.3e} at or below "
            f"{tol.activity_floor:.1e}; its bound carries no information")
    check = pure_dissipative_residuals(model)
    if not check.ok:
        raise PureDissipativeViolated(
            "signal tangents are not purely dissipative; residuals "
            + np.array2string(check.residuals, precision=3))
    a_real = np.kron(activity, np.eye(2))
    normalizer = numkit.psd_inv_sqrt(a_real, tol.pinv_rel)
    dim = a_real.shape[0]
    rng = np.random.default_rng(seed)
    random_dirs = [rng.standard_normal(dim) for _ in range(_N_RANDOM_DIRECTIONS)]

    omegas = np.asarray(list(omegas), dtype=float)
    points = [evaluate_point(system, activity, normalizer, w, tol) for w in omegas]

    directional_min = np.empty(len(points))
    for i, pt in enumerate(points):
        margin = a_real - pt.j_matrix
        eigvals, eigvecs = np.linalg.eigh(margin)
        dirs = random_dirs + [eigvecs[:, 0]]
        directional_min[i] = min(
            float(v @ margin @ v) / float(v @ v) for v in dirs)

    scalar = None
    if points and points[0].scalar_ratios is not None:
        scalar = np.vstack([pt.scalar_ratios for pt in points])

    return BoundReport(
        omegas=omegas,
        activity=activity,
        lambda_max=np.array([pt.lambda_max for pt in points]),
        margin_min=np.array([pt.margin_min for pt in points]),
        directional_min=directional_min,
        support_leak=np.array([pt.support_leak for pt in points]),
        scalar_ratios=scalar,
        passed=np.array([pt.passed for pt in points], dtype=bool),
        notes=tuple(pt.note for pt in points),
        j_matrices=tuple(pt.j_matrix for pt in points),
        metadata={
            "model_hash": model_fingerprint(model),
            "n_random_directions": _N_RANDOM_DIRECTIONS,
            "seed": seed,
            "tolerances": {
                "bound_margin": tol.bound_margin,
                "pinv_rel": tol.pinv_rel,
                "activity_floor": tol.activity_floor,
            },
        },
    )


# ---------------------------------------------------------------------------
# closed-form identity for the driven emitter

def rf_positivity_residual(rabi: float, kappa: float, omega: float,
                           rel_tol: float = 1e-10) -> float:
    """A S_y(omega) - |R_y(omega)|^2 for resonance fluorescence.

    Evaluated two ways: from the closed-form activity, spectrum, and
    response, and from the manifestly nonnegative rational form
    kappa rabi^4 [4 (omega^2 - rabi^2)^2 + kappa^2 (4 rabi^2 + 9 omega^2
    + 5 kappa^2)] / (2 sat^2 |denom|^2). Both must agree to ``rel_tol``
    relative and be nonnegative; the assembled value is returned.
    """
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
# coherent ceiling (driven cavity)

@dataclass(frozen=True)
class CavityCeilingReport:
    omegas: np.ndarray
    ratios: np.ndarray
    scattering: np.ndarray
    optimal_phases: np.ndarray
    max_error: float
    passed: bool


def coherent_ceiling_check(params: CavityParams, omegas: Sequence[float],
                           rel_tol: float = 1e-12) -> CavityCeilingReport:
    """Verify the coherent-drive ceiling |R|^2 / S = 4 and |s(omega)| = 1
    across a grid."""
    omegas = np.asarray(list(omegas), dtype=float)
    ratios = np.array([cavity_scalar_ratio(params, w) for w in omegas])
    scattering = np.array([cavity_scattering(params, w) for w in omegas])
    phases = np.array([cavity_optimal_phase(params, w) for w in omegas])
    err_ratio = float(np.max(np.abs(ratios - 4.0))) if omegas.size else 0.0
    err_mod = float(np.max(np.abs(np.abs(scattering) - 1.0))) if omegas.size else 0.0
    max_error = max(err_ratio, err_mod)
    return CavityCeilingReport(
        omegas=omegas, ratios=ratios, scattering=scattering,
        optimal_phases=phases, max_error=max_error,
        passed=bool(max_error <= rel_tol),
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
                              tol: ToleranceSet = DEFAULT_TOL,
                              steady_tol: float = 1e-10,
                              activity_tol: float = 1e-12
                              ) -> ClassicalReductionReport:
    """Check that the Lindblad embedding of a classical jump process
    reproduces the classical stationary law and escape-flux activity."""
    model = classical_jump_model(rates, weights)
    system = as_system(model, tol)
    p_classical = classical_stationary(rates, tol)
    rho = system.rho
    p_embedded = np.real(np.diag(rho))
    offdiag = rho - np.diag(np.diag(rho))
    steady_error = float(np.max(np.abs(p_embedded - p_classical)))
    offdiag_error = float(np.max(np.abs(offdiag))) if offdiag.size else 0.0

    act_embedded = activity_matrix(system, tol)
    weights = np.asarray(weights, dtype=float)
    if weights.ndim == 2:
        weights = weights[np.newaxis, :, :]
    off = np.asarray(rates, dtype=float).copy()
    np.fill_diagonal(off, 0.0)
    flux = off * p_classical[np.newaxis, :]          # flux[a, b] = rate(b->a) p_b
    act_classical = np.einsum("qab,rab,ab->qr", weights, weights, flux)
    act_classical = 0.5 * (act_classical + act_classical.T)
    activity_error = float(np.max(np.abs(act_embedded - act_classical)))

    passed = bool(steady_error <= steady_tol
                  and offdiag_error <= steady_tol
                  and activity_error <= activity_tol)
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

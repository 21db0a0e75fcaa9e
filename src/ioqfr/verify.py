"""Acceptance suites: every release gate as a callable check.

Each suite compares pipeline output against an independent oracle (closed
forms, time-domain integration, brute-force classical solves, random
projections) at a fixed tolerance and returns a :class:`SuiteResult`.
``run_suites`` never lets a package error escape: with deliberately
impossible tolerances the suites report failures instead of crashing.

The same suites back ``ioqfr verify`` and the pytest acceptance gate.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import (
    activity_matrix,
    certify_bound,
    classical_reduction_check,
    rayleigh_identity,
    rf_positivity_residual,
)
from .hilbert import quadrature
from .lindblad import System, liouvillian, prepare, unvec, vec
from .models import (
    REGISTRY,
    CavityParams,
    KerrCatParams,
    RfParams,
    cavity_model,
    cavity_optimal_phase,
    kerr_cat_model,
    rf_closed_forms,
    rf_model,
    classical_jump_model,
)
from .numkit import DEFAULT_TOL, ToleranceSet, pinv
from .response import perturbation_superop, response_matrix
from .spectra import matrix_spectrum

__all__ = [
    "SuiteResult",
    "SUITES",
    "run_suites",
    "finite_difference_lockin",
]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    duration: float
    limit: float
    detail: str

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


# ---------------------------------------------------------------------------
# time-domain lock-in oracle

def _expectations(op: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Re Tr[op rho_k] for every column vec(rho_k) of ``states``, as
    Tr[op rho] = vec(op^T) . vec(rho)."""
    return (vec(op.T) @ states).real


def finite_difference_lockin(system: System, current: int, q: int, omega: float,
                             envelope: str = "cos") -> complex:
    """Lock-in coefficients from direct integration of the driven master
    equation with eps(t) = amplitude * sqrt(2) * cos(omega t) (or sin).

    Returns re + i im where (re, im) are the sqrt(T)-normalized cosine and
    sine lock-in integrals of the current shift. With the cosine envelope
    this estimates the first column (Re R, Im R) of the real response block;
    with the sine envelope, the second column (-Im R, Re R).
    """
    from scipy.integrate import simpson, solve_ivp  # slow import, only here

    if omega <= 0.0:
        raise ValueError("lock-in extraction needs a positive drive frequency")
    model = system.model
    mu, theta = model.monitored[current]
    x = quadrature(model.channels[mu], theta)
    xdot = quadrature(model.tangent_operator(mu, q), theta)
    vsup = perturbation_superop(model, q)
    gen = liouvillian(model)
    rho = system.rho
    i_ss = float(np.trace(x @ rho).real)

    if envelope == "cos":
        phi = lambda t: np.sqrt(2.0) * np.cos(omega * t)
    elif envelope == "sin":
        phi = lambda t: np.sqrt(2.0) * np.sin(omega * t)
    else:
        raise ValueError(f"unknown envelope {envelope!r}")

    # a drive small enough to stay linear, switched on ten relaxation times
    # 1/gap before a window of 30 periods sampled 256 times each
    amplitude, periods, samples = 1e-4, 30, 256
    burn = 10.0 / system.steady.gap
    window = periods * 2.0 * np.pi / omega
    ts = burn + np.linspace(0.0, window, periods * samples + 1)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return gen @ y + (amplitude * phi(t)) * (vsup @ y)

    sol = solve_ivp(rhs, (0.0, burn + window), vec(rho), method="DOP853",
                    t_eval=ts, rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"time integration failed: {sol.message}")
    values = _expectations(x, sol.y) + amplitude * phi(ts) * _expectations(xdot, sol.y)
    delta = values - i_ss
    norm = np.sqrt(2.0) / (window * amplitude)
    re = norm * simpson(np.cos(omega * ts) * delta, x=ts)
    im = norm * simpson(np.sin(omega * ts) * delta, x=ts)
    return complex(re, im)


# ---------------------------------------------------------------------------
# suites

def _suite_cavity_saturation(tol: ToleranceSet) -> tuple[bool, str]:
    """lambda_max = cos^2(theta - theta*(omega)) on the truncated cavity: 1
    at the closed-form optimal phase, and at a random phase."""
    rng = np.random.default_rng(42)
    worst = 0.0
    passed = True
    for _ in range(10):
        kappa = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        params = CavityParams(kappa=kappa, delta=float(rng.uniform(-5.0, 5.0)))
        system = prepare(cavity_model(params), tol)
        for omega in rng.uniform(-10.0, 10.0, size=5):
            optimal = cavity_optimal_phase(params, omega)
            for theta in (optimal, float(rng.uniform(0.0, np.pi))):
                report = certify_bound(system.with_monitored([(0, theta)]), [omega])
                want = np.cos(theta - optimal) ** 2
                worst = max(worst, abs(float(report.lambda_max[0]) - want))
                passed = passed and report.all_passed
    return passed and worst <= 1e-10, (
        f"max |lambda_max - cos^2(theta - theta*)| = {worst:.2e} over "
        "10 cavities x 5 frequencies, at theta* and a random theta")


def _suite_rf_closed_forms(tol: ToleranceSet) -> tuple[bool, str]:
    omegas = np.linspace(0.0, 5.0, 201)
    worst = 0.0
    for rabi in (0.5, 1.0, 2.5):
        params = RfParams(kappa=1.0, rabi=rabi)
        system = prepare(rf_model(params, theta=np.pi / 2), tol)  # monitors y
        x_view = system.with_monitored([(0, 0.0)])
        for w in omegas:
            forms = rf_closed_forms(params, w)
            transfer = system.transfer(w)
            r_pipe = -response_matrix(system, w, transfer).complex_matrix[0, 0]
            s_y = matrix_spectrum(system, w, transfer).complex_matrix[0, 0].real
            s_x = matrix_spectrum(x_view, w).complex_matrix[0, 0].real
            worst = max(
                worst,
                abs(r_pipe - forms.response_y) / abs(forms.response_y),
                abs(s_x - forms.spectrum_x) / abs(forms.spectrum_x),
                abs(s_y - forms.spectrum_y) / abs(forms.spectrum_y),
            )
    return worst <= 1e-8, f"max relative deviation {worst:.2e} (3 drives x 201 points)"


def _suite_rf_positivity(tol: ToleranceSet) -> tuple[bool, str]:
    omegas = np.linspace(0.0, 5.0, 201)
    smallest = np.inf
    for rabi in (0.5, 1.0, 2.5):
        for w in omegas:
            value = rf_positivity_residual(rabi, 1.0, w)
            smallest = min(smallest, value)
    spot = rf_positivity_residual(1.0, 1.0, 0.0)
    spot_err = abs(spot - 26.0 / 81.0)
    ok = smallest >= 0.0 and spot_err <= 1e-12
    return ok, (f"identity residual >= 0 (min {smallest:.3e}); "
                f"spot |value - 26/81| = {spot_err:.2e}")


def _suite_rf_phase_bound(tol: ToleranceSet) -> tuple[bool, str]:
    params = RfParams(kappa=1.0, rabi=2.5)
    base = prepare(rf_model(params, theta=np.pi / 2), tol)
    activity = activity_matrix(base)[0, 0]
    omegas = np.linspace(0.0, 5.0, 201)
    worst = np.inf
    for theta in (np.pi / 4, np.pi / 2):
        system = base.with_monitored([(0, theta)])
        for w in omegas:
            transfer = system.transfer(w)
            s_theta = matrix_spectrum(system, w, transfer).complex_matrix[0, 0].real
            r_theta = response_matrix(system, w, transfer).complex_matrix[0, 0]
            worst = min(worst, s_theta * activity - abs(r_theta) ** 2)
    return worst >= -1e-10, f"min (S_theta A - |R_theta|^2) = {worst:.3e}"


def _suite_kerr_cat_certificate(tol: ToleranceSet) -> tuple[bool, str]:
    report = certify_bound(prepare(kerr_cat_model(KerrCatParams()), tol),
                           np.linspace(-5.0, 5.0, 201))
    lam = float(report.lambda_max.max())
    r_ex = float(report.scalar_ratios[:, 0].max())
    r_in = float(report.scalar_ratios[:, 1].max())
    margin = float(report.margin_min.min())
    ok = (report.all_passed and lam < 1.0 and r_ex < 1.0 and r_in < 1.0
          and margin >= -1e-8)
    return ok, (f"max lambda_max {lam:.6f}, max r_ex {r_ex:.6f}, "
                f"max r_in {r_in:.6f}, min margin {margin:.3e}")


def _suite_kerr_cat_truncation(tol: ToleranceSet) -> tuple[bool, str]:
    def photon_number(n_cut: int) -> float:
        system = prepare(kerr_cat_model(KerrCatParams(n_cut=n_cut)), tol)
        return REGISTRY["kerr_cat"].report(system.rho)["photon_number"]

    n12 = photon_number(12)
    n16 = photon_number(16)
    rel = abs(n16 - n12) / abs(n16)
    return rel < 1e-6, f"photon number {n12:.9f} -> {n16:.9f}, rel change {rel:.2e}"


def _suite_classical_reduction(tol: ToleranceSet) -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst_steady = worst_activity = 0.0
    passed = True
    for _ in range(20):
        n = int(rng.integers(3, 6))
        n_par = int(rng.integers(1, 4))
        rates = rng.uniform(0.2, 2.0, size=(n, n))
        np.fill_diagonal(rates, 0.0)
        weights = rng.uniform(-1.5, 1.5, size=(n_par, n, n))
        report = classical_reduction_check(rates, weights, tol)
        worst_steady = max(worst_steady, report.steady_error, report.offdiag_error)
        worst_activity = max(worst_activity, report.activity_error)
        passed = passed and report.passed
    return passed, (f"20 instances: worst steady error {worst_steady:.2e}, "
                    f"worst activity error {worst_activity:.2e}")


def _suite_lockin_normalization(tol: ToleranceSet) -> tuple[bool, str]:
    system = prepare(rf_model(RfParams(kappa=1.0, rabi=1.0), theta=np.pi / 2), tol)
    worst = 0.0
    for w in (0.4, 0.9, 1.7, 2.6, 3.5):
        ref = response_matrix(system, w).complex_matrix[0, 0]
        fd = finite_difference_lockin(system, 0, 0, w)
        worst = max(worst, abs(fd - ref) / abs(ref))
    # sine envelope pins the second lock-in column including its sign
    w = 1.7
    ref = response_matrix(system, w).complex_matrix[0, 0]
    fd = finite_difference_lockin(system, 0, 0, w, envelope="sin")
    expected = complex(-ref.imag, ref.real)
    worst = max(worst, abs(fd - expected) / abs(expected))
    return worst <= 1e-3, f"max relative lock-in deviation {worst:.2e} at 5 frequencies"


def _suite_rayleigh_identity(tol: ToleranceSet) -> tuple[bool, str]:
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        m2 = 2 * int(rng.integers(1, 4))
        n2 = 2 * int(rng.integers(1, 4))
        rank = int(rng.integers(1, m2 + 1))
        g = rng.standard_normal((m2, rank))
        s = g @ g.T
        r = s @ rng.standard_normal((m2, n2))  # response confined to the support
        theta = rng.standard_normal(n2)
        res = rayleigh_identity(r, s, theta, trials=200,
                                seed=int(rng.integers(2 ** 31)))
        scale = max(res.quadratic_form, 1e-30)
        worst = max(worst,
                    abs(res.exact_max - res.quadratic_form) / scale,
                    abs(res.optimal_ratio - res.quadratic_form) / scale)
        if res.random_max > res.quadratic_form * (1.0 + 1e-9) + 1e-12:
            return False, (f"random projection exceeded the quadratic form: "
                           f"{res.random_max!r} > {res.quadratic_form!r}")
    return worst <= 1e-9, f"100 rank-deficient instances, worst rel error {worst:.2e}"


def _builtin_systems(tol: ToleranceSet) -> list[tuple[str, System]]:
    ring = np.zeros((3, 3))
    for i in range(3):
        ring[i, (i + 1) % 3] = 0.7
        ring[(i + 1) % 3, i] = 0.7
    two_state = np.array([[0.0, 2.0], [1.0, 0.0]])
    return [
        ("rf kappa=1 rabi=1", prepare(rf_model(RfParams(1.0, 1.0), np.pi / 2), tol)),
        ("rf kappa=1 rabi=2.5", prepare(rf_model(RfParams(1.0, 2.5), np.pi / 4), tol)),
        ("kerr_cat reference point", prepare(kerr_cat_model(KerrCatParams()), tol)),
        ("classical 2-state", prepare(classical_jump_model(
            two_state, np.ones((1, 2, 2))), tol)),
        ("classical 3-ring", prepare(classical_jump_model(
            ring, np.ones((1, 3, 3))), tol)),
    ]


def _suite_structural_invariants(tol: ToleranceSet) -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    failures: list[str] = []
    for name, system in _builtin_systems(tol):
        gen = liouvillian(system.model)
        d = system.model.dim
        scale = max(1.0, float(np.linalg.norm(gen)))
        trace_row = vec(np.eye(d)).conj() @ gen
        if np.max(np.abs(trace_row)) > 1e-10 * scale:
            failures.append(f"{name}: trace not preserved")
        probe = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        probe = probe + probe.conj().T
        image = unvec(gen @ vec(probe))
        if np.linalg.norm(image - image.conj().T) > 1e-10 * scale * np.linalg.norm(probe):
            failures.append(f"{name}: hermiticity not preserved")
        eigvals = np.linalg.eigvals(gen)
        if float(eigvals.real.max()) > 1e-10:
            failures.append(f"{name}: eigenvalue in the right half-plane "
                            f"({eigvals.real.max():.3e})")
        if system.model.monitored:
            for w in (0.0, 0.7, 3.1):
                noise = matrix_spectrum(system, w)
                smin = float(np.linalg.eigvalsh(noise.real_matrix)[0])
                if smin < -1e-8:
                    failures.append(f"{name}: noise eigenvalue {smin:.3e} at omega={w}")
                x = noise.real_matrix
                y = pinv(x, tol.pinv_rel)
                ref = max(1.0, float(np.linalg.norm(x)))
                penrose = max(
                    np.linalg.norm(x @ y @ x - x),
                    np.linalg.norm(y @ x @ y - y) * ref,
                    np.linalg.norm((x @ y).T - x @ y) * ref,
                    np.linalg.norm((y @ x).T - y @ x) * ref,
                )
                if penrose > 1e-8 * ref:
                    failures.append(f"{name}: Penrose defect {penrose:.3e} at omega={w}")
    detail = "; ".join(failures) if failures else \
        "trace, hermiticity, contraction, noise PSD, Penrose checks on 5 built-ins"
    return not failures, detail


SUITES: dict[str, tuple[float, Callable[[ToleranceSet], tuple[bool, str]]]] = {
    "cavity_saturation": (1.0, _suite_cavity_saturation),
    "rf_closed_forms": (5.0, _suite_rf_closed_forms),
    "rf_positivity": (5.0, _suite_rf_positivity),
    "rf_phase_bound": (5.0, _suite_rf_phase_bound),
    "kerr_cat_certificate": (60.0, _suite_kerr_cat_certificate),
    "kerr_cat_truncation": (60.0, _suite_kerr_cat_truncation),
    "classical_reduction": (5.0, _suite_classical_reduction),
    "lockin_normalization": (30.0, _suite_lockin_normalization),
    "rayleigh_identity": (5.0, _suite_rayleigh_identity),
    "structural_invariants": (10.0, _suite_structural_invariants),
}


def run_suites(names: Sequence[str] | None = None,
               tol: ToleranceSet = DEFAULT_TOL) -> list[SuiteResult]:
    """Run the named suites (all by default) and collect results.

    Suite errors of any kind become FAIL rows; exceptions never escape.
    """
    selected = list(SUITES) if names is None else list(names)
    unknown = [n for n in selected if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suite names: {', '.join(unknown)}")
    results = []
    for name in selected:
        limit, fn = SUITES[name]
        start = time.perf_counter()
        try:
            passed, detail = fn(tol)
        except Exception as err:  # tightened tolerances must report, not raise
            passed, detail = False, f"{type(err).__name__}: {err}"
        duration = time.perf_counter() - start
        results.append(SuiteResult(name=name, passed=bool(passed), duration=duration,
                                   limit=limit, detail=detail))
    return results

import math

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from ioqfr import bounds
from ioqfr.bounds import (
    activity_matrix,
    applicable_activity,
    certify_bound,
    classical_reduction_check,
    coherent_ceiling_check,
    evaluate_point,
    pure_dissipative_residuals,
    rayleigh_identity,
    response_to_noise,
    rf_positivity_residual,
)
from ioqfr.errors import ActivityDegenerate, PureDissipativeViolated
from ioqfr.lindblad import LindbladModel, kinetic_signal, prepare, tangent_signal
from ioqfr.models import (
    CavityParams,
    KerrCatParams,
    RfParams,
    kerr_cat_model,
    rf_model,
)
from ioqfr.numkit import DEFAULT_TOL, hermitize, psd_inv_sqrt
from ioqfr.response import real_embedding, response_matrix
from ioqfr.spectra import NoiseMatrix, matrix_spectrum


def test_activity_driven_emitter(rf_unit):
    act = activity_matrix(rf_unit)
    np.testing.assert_allclose(act, [[1.0 / 3.0]], atol=1e-12)


def test_activity_scaling():
    base = rf_model(RfParams(kappa=1.0, rabi=1.0))
    scaled = LindbladModel(
        hamiltonian=base.hamiltonian, channels=base.channels,
        monitored=base.monitored, signal=kinetic_signal(np.array([[2.5]])))
    np.testing.assert_allclose(activity_matrix(prepare(scaled)),
                               2.5 ** 2 * activity_matrix(prepare(base)),
                               atol=1e-12)


def test_activity_gate_is_scale_free():
    # a valid rank-1 activity: its zero eigenvalue is rounding in rate units,
    # so only its size relative to the largest eigenvalue may be judged
    unit = None
    for c in (1.0, 1e3, 1e6, 1e9, 1e12):
        base = rf_model(RfParams(kappa=c, rabi=c))
        model = LindbladModel(
            hamiltonian=base.hamiltonian, channels=base.channels,
            monitored=base.monitored,
            signal=kinetic_signal(np.array([[0.1, 0.37]])))
        act = activity_matrix(prepare(model)) / c
        unit = act if unit is None else unit
        np.testing.assert_allclose(act, unit, rtol=1e-9, atol=0)
    np.testing.assert_allclose(np.linalg.eigvalsh(unit),
                               [0.0, (0.1 ** 2 + 0.37 ** 2) / 3.0], atol=1e-15)


def test_activity_tangent_equals_kinetic(rf_unit):
    base = rf_unit.model
    twin = LindbladModel(
        hamiltonian=base.hamiltonian, channels=base.channels,
        monitored=base.monitored,
        signal=tangent_signal([[0.5 * base.channels[0]]]))
    np.testing.assert_allclose(activity_matrix(prepare(twin)),
                               activity_matrix(rf_unit), atol=1e-12)


def test_pure_dissipative_residual_hamiltonian_tangent(rf_unit):
    base = rf_unit.model
    coupling = base.channels[0]
    twisted = LindbladModel(
        hamiltonian=base.hamiltonian, channels=base.channels,
        monitored=base.monitored,
        signal=tangent_signal([[0.5j * coupling]]))
    check = pure_dissipative_residuals(twisted)
    assert not check.ok
    # || L^dag (i L / 2) - (-i L^dag / 2) L || = || i L^dag L || = kappa here
    np.testing.assert_allclose(check.residuals, [1.0], atol=1e-12)
    with pytest.raises(PureDissipativeViolated):
        certify_bound(prepare(twisted), [0.0])


def test_pure_dissipative_residuals_without_channels():
    # no channel, no tangent term: every K_q is zero
    model = LindbladModel(hamiltonian=np.diag([0.0, 1.0]), channels=(),
                          signal=kinetic_signal(np.zeros((0, 1))))
    check = pure_dissipative_residuals(model)
    np.testing.assert_array_equal(check.residuals, [0.0])
    np.testing.assert_array_equal(check.thresholds, [0.0])
    assert check.ok


def _random_dynamics(rng, d, n_ch):
    """Random Hermitian H and n_ch dense jump operators, generically mixing."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / (2.0 * math.sqrt(d))
    channels = [(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
                / math.sqrt(2.0 * d) for _ in range(n_ch)]
    return h, channels


@settings(derandomize=True, max_examples=50, deadline=None)
@given(d=st.integers(2, 5), n_ch=st.integers(1, 3), n_par=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kinetic_activity_is_flux_form(d, n_ch, n_par, seed):
    # the paper's reduction: kinetic tangents (b/2) L give the weighted
    # stationary jump fluxes, and are purely dissipative
    rng = np.random.default_rng(seed)
    h, channels = _random_dynamics(rng, d, n_ch)
    b = rng.standard_normal((n_ch, n_par))
    b[rng.random(b.shape) < 0.25] = 0.0
    model = LindbladModel(hamiltonian=h, channels=tuple(channels),
                          signal=kinetic_signal(b))
    system = prepare(model)
    fluxes = [np.trace(c.conj().T @ c @ system.rho).real for c in channels]
    flux_form = b.T @ np.diag(fluxes) @ b
    np.testing.assert_allclose(activity_matrix(system), flux_form, rtol=0,
                               atol=1e-12 * max(np.max(np.abs(flux_form)), 1e-300))
    check = pure_dissipative_residuals(model)
    # fl(b/2 * L) makes L^dag M Hermitian only up to rounding, far below the gate
    assert check.ok
    assert np.all(check.residuals <= 1e-2 * check.thresholds)


def test_certificate_covariant_under_rate_scale():
    # H -> cH, L -> sqrt(c) L, M -> sqrt(c) M, omega -> c omega is a change of
    # time unit: no verdict and no normalized ratio may move
    rng = np.random.default_rng(11)
    h, channels = _random_dynamics(rng, 4, 3)
    us = [rng.standard_normal((3, 3)) for _ in range(2)]
    us = [0.5 * (u + u.T) for u in us]
    omegas = np.array([0.0, 0.37, -1.3, 4.1])
    reports = []
    for c in (1e-3, 1.0, 1e3, 1e6):
        chans = [math.sqrt(c) * op for op in channels]
        grid = [[sum(u[mu, nu] * chans[nu] for nu in range(3)) for u in us]
                for mu in range(3)]
        model = LindbladModel(hamiltonian=c * h, channels=tuple(chans),
                              monitored=((0, 0.4), (2, 1.9)),
                              signal=tangent_signal(grid))
        reports.append(certify_bound(prepare(model), c * omegas))
    assert reports[1].all_passed
    for report in reports:
        np.testing.assert_array_equal(report.passed, reports[1].passed)
        np.testing.assert_allclose(report.lambda_max, reports[1].lambda_max,
                                   rtol=1e-9, atol=0)


def test_verdict_is_scale_free(monkeypatch):
    # rank-one activity (two kinetic signals on one channel): the support
    # leak is rounding in rate units, so it must be judged against lambda_max(A)
    omegas = np.array([0.0, 0.7, 2.0])
    honest = bounds.response_to_noise
    for scale in (1.0, 1e3, 1e6, 1e9, 1e12):
        base = rf_model(RfParams(kappa=scale, rabi=scale), theta=np.pi / 2)
        system = prepare(LindbladModel(
            hamiltonian=base.hamiltonian, channels=base.channels,
            monitored=base.monitored, signal=kinetic_signal(np.array([[0.1, 0.37]]))))
        report = certify_bound(system, scale * omegas)
        assert report.all_passed, (scale, report.notes)
        # J pushed 1 % above the bound at every frequency must fail
        top = dict(zip(scale * omegas, report.lambda_max))
        monkeypatch.setattr(bounds, "response_to_noise",
                            lambda r, s, rel: 1.01 / top[r.omega] * honest(r, s, rel))
        inflated = certify_bound(system, scale * omegas)
        monkeypatch.undo()
        assert not inflated.passed.any(), scale


def test_certificate_reads_the_systems_tolerances(monkeypatch):
    # a System prepared with its own ToleranceSet is certified with that set
    tol = DEFAULT_TOL.replacing(bound_margin=1e-3)
    system = prepare(rf_model(RfParams(1.0, 1.0), np.pi / 2), tol)
    assert certify_bound(system, [0.5]).metadata["tolerances"]["bound_margin"] == 1e-3
    # J 1e-5 above A is within a margin of 1e-3 and beyond one of 1e-8
    over = (1.0 + 1e-5) * activity_matrix(system)
    monkeypatch.setattr(bounds, "response_to_noise", lambda r, s, rel: over)
    assert certify_bound(system, [0.5]).all_passed
    assert not certify_bound(system, [0.5], DEFAULT_TOL).all_passed
    monkeypatch.undo()
    # the activity 1/3 is at or below a floor of 1
    floored = prepare(system.model, tol.replacing(activity_floor=1.0))
    with pytest.raises(ActivityDegenerate):
        applicable_activity(floored)


def test_activity_degenerate():
    base = rf_model(RfParams(kappa=1.0, rabi=1.0))
    dead = LindbladModel(
        hamiltonian=base.hamiltonian, channels=base.channels,
        monitored=base.monitored, signal=kinetic_signal(np.array([[0.0]])))
    with pytest.raises(ActivityDegenerate):
        certify_bound(prepare(dead), [0.0])


def test_response_to_noise_symmetry(rf_unit):
    noise = matrix_spectrum(rf_unit, 0.8)
    response = response_matrix(rf_unit, 0.8)
    j = response_to_noise(response, noise)
    np.testing.assert_allclose(j, j.conj().T, atol=1e-14)
    assert np.linalg.eigvalsh(j)[0] >= -1e-12


def test_complex_certificate_embeds_real_formula():
    # real_embedding is a *-homomorphism, so the (p, p) J = R^H S^+ R carries
    # the old (2p, 2p) real_R^T pinv(real_S) real_R, written out here
    rng = np.random.default_rng(23)
    h, channels = _random_dynamics(rng, 3, 3)
    model = LindbladModel(hamiltonian=h, channels=tuple(channels),
                          monitored=((0, 0.3), (2, 1.7)),
                          signal=kinetic_signal(rng.standard_normal((3, 2))))
    system = prepare(model)
    for omega in (0.0, 0.9, -2.4):
        noise = matrix_spectrum(system, omega)
        response = response_matrix(system, omega)
        if omega == 0.9:
            # drop the smallest eigenvalue of S: both pseudo-inverses truncate
            w, v = np.linalg.eigh(noise.complex_matrix)
            s = hermitize((v[:, 1:] * w[1:]) @ v[:, 1:].conj().T)
            noise = NoiseMatrix(omega=omega, complex_matrix=s)
            assert np.linalg.matrix_rank(noise.real_matrix, tol=1e-10) == 2
        r_real = response.real_matrix
        want = r_real.T @ np.linalg.pinv(noise.real_matrix,
                                         rcond=DEFAULT_TOL.pinv_rel) @ r_real
        j = response_to_noise(response, noise)
        assert j.shape == (2, 2)
        np.testing.assert_allclose(real_embedding(j), want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))


def test_certify_driven_emitter(rf_unit):
    report = certify_bound(rf_unit, np.linspace(0.0, 5.0, 21))
    assert report.all_passed
    assert report.lambda_max.max() < 1.0
    assert report.margin_min.min() >= -DEFAULT_TOL.bound_margin
    assert report.scalar_ratios is not None
    np.testing.assert_allclose(report.lambda_max,
                               report.scalar_ratios[:, 0], atol=1e-10)
    assert report.metadata["model_hash"]


def test_report_points_match_arrays():
    # sweep writes its rows from report.points; they must be the very points
    # the report's arrays summarize
    report = certify_bound(prepare(kerr_cat_model(KerrCatParams(n_cut=6))),
                           np.linspace(-3.0, 3.0, 7))
    assert len(report.points) == len(report.omegas)
    for i, point in enumerate(report.points):
        assert point.omega == report.omegas[i]
        assert point.lambda_max == report.lambda_max[i]
        assert point.margin_min == report.margin_min[i]
        assert point.support_leak == report.support_leak[i]
        assert point.passed == report.passed[i]
        assert point.note == report.notes[i]


def test_certify_invariant_under_signal_scale():
    omegas = [0.0, 0.9, 2.7]
    reports = []
    for scale in (1.0, 3.7):
        base = rf_model(RfParams(kappa=1.0, rabi=1.0))
        model = LindbladModel(
            hamiltonian=base.hamiltonian, channels=base.channels,
            monitored=base.monitored,
            signal=kinetic_signal(np.array([[scale]])))
        reports.append(certify_bound(prepare(model), omegas))
    np.testing.assert_allclose(reports[0].lambda_max, reports[1].lambda_max,
                               atol=1e-10)


def test_orthogonal_quadrature_has_zero_response():
    # monitoring theta = 0 makes the rate response vanish identically, so
    # the normalized bound ratio is exactly zero yet the certificate passes
    system = prepare(rf_model(RfParams(kappa=1.0, rabi=1.0), theta=0.0))
    report = certify_bound(system, [0.0, 1.0])
    assert report.all_passed
    np.testing.assert_allclose(report.lambda_max, 0.0, atol=1e-10)


def test_phase_scan_peaks_at_conjugate_quadrature():
    # at omega = 0 the bound ratio grows monotonically toward theta = pi/2
    base = prepare(rf_model(RfParams(kappa=1.0, rabi=1.0), theta=np.pi / 2))
    activity = activity_matrix(base)
    normalizer = psd_inv_sqrt(np.kron(activity, np.eye(2)))
    thetas = np.linspace(0.0, np.pi / 2, 7)
    ratios = []
    for theta in thetas:
        system = base.with_monitored([(0, theta)])
        pt = evaluate_point(system, activity, normalizer, 0.0, DEFAULT_TOL)
        ratios.append(pt.scalar_ratios[0])
    assert np.argmax(ratios) == len(thetas) - 1
    assert all(np.diff(ratios) >= -1e-12)


def test_rf_positivity_spot_value():
    np.testing.assert_allclose(rf_positivity_residual(1.0, 1.0, 0.0),
                               26.0 / 81.0, atol=1e-13)


def test_rayleigh_identity_full_rank():
    rng = np.random.default_rng(0)
    s = np.diag([2.0, 0.5, 1.0, 3.0])
    r = rng.standard_normal((4, 4))
    theta = np.array([1.0, -0.5, 0.25, 2.0])
    res = rayleigh_identity(r, s, theta, trials=500, seed=1)
    np.testing.assert_allclose(res.exact_max, res.quadratic_form, rtol=1e-12)
    np.testing.assert_allclose(res.optimal_ratio, res.quadratic_form, rtol=1e-12)
    assert res.random_max <= res.quadratic_form * (1.0 + 1e-12)


def test_cavity_ceiling_report():
    report = coherent_ceiling_check(CavityParams(kappa=2.0, delta=0.7),
                                    np.linspace(-4.0, 4.0, 33))
    assert report.passed
    assert report.max_error <= 1e-12
    np.testing.assert_allclose(report.ratios, 4.0, atol=1e-12)


def test_classical_reduction_two_state():
    rates = np.array([[0.0, 2.0], [1.0, 0.0]])
    weights = np.ones((1, 2, 2))
    report = classical_reduction_check(rates, weights)
    assert report.passed
    np.testing.assert_allclose(report.stationary_classical, [2.0 / 3.0, 1.0 / 3.0],
                               atol=1e-12)
    np.testing.assert_allclose(report.activity_classical, [[4.0 / 3.0]],
                               atol=1e-12)


def test_classical_reduction_ring():
    # symmetric 3-cycle: uniform stationary law, activity = total flux = 2 r
    r = 0.7
    rates = np.zeros((3, 3))
    for i in range(3):
        rates[i, (i + 1) % 3] = r
        rates[(i + 1) % 3, i] = r
    report = classical_reduction_check(rates, np.ones((1, 3, 3)))
    assert report.passed
    np.testing.assert_allclose(report.stationary_classical, np.full(3, 1 / 3),
                               atol=1e-12)
    np.testing.assert_allclose(report.activity_classical, [[2.0 * r]],
                               atol=1e-12)


def test_certify_bound_does_not_call_ztrcon(monkeypatch):
    # ztrcon is the condition gate's fallback, and a kerr_cat certificate
    # never reaches it: the set-up bound passes every frequency on the axis
    model = kerr_cat_model(KerrCatParams(n_cut=8))
    omegas = [0.0, 0.83, -3.1]
    want = certify_bound(prepare(model), omegas).lambda_max

    def ztrcon(*args, **kwargs):
        raise AssertionError("lapack.ztrcon called")

    monkeypatch.setattr(scipy.linalg.lapack, "ztrcon", ztrcon)
    np.testing.assert_array_equal(certify_bound(prepare(model), omegas).lambda_max, want)

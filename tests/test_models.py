import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ioqfr import models
from ioqfr.bounds import certify_bound
from ioqfr.errors import NotIrreducible
from ioqfr.hilbert import annihilation, dagger
from ioqfr.lindblad import prepare
from ioqfr.models import (
    CavityParams,
    KerrCatParams,
    RfParams,
    cavity_model,
    cavity_optimal_phase,
    cavity_scattering,
    classical_jump_model,
    classical_stationary,
    kerr_cat_model,
    rf_closed_forms,
    rf_model,
)


def test_cavity_scattering_unimodular():
    params = CavityParams(kappa=1.3, delta=-0.4)
    for omega in (-2.0, 0.0, 0.4, 3.1):
        s = cavity_scattering(params, omega)
        assert abs(abs(s) - 1.0) <= 1e-14
    with pytest.raises(ValueError):
        CavityParams(kappa=0.0)


def test_cavity_optimal_phase_maximizes_lambda():
    # lambda_max = cos^2(theta - theta*) has its maximum 1 at theta*, which
    # a bounded search over one period of the monitored phase finds
    params = CavityParams(kappa=1.3, delta=-0.4)
    system = prepare(cavity_model(params))

    def lambda_max(theta, omega):
        return certify_bound(system.with_monitored([(0, theta)]), [omega]).lambda_max[0]

    for omega in (-2.0, 0.0, 0.4, 3.1):
        optimal = cavity_optimal_phase(params, omega)
        assert 0.0 <= optimal < np.pi
        start = optimal + 0.7  # keep the maximum away from the search's ends
        found = minimize_scalar(lambda th: -lambda_max(th, omega),
                                bounds=(start - np.pi / 2, start + np.pi / 2),
                                method="bounded", options={"xatol": 1e-10})
        assert abs(np.remainder(found.x - optimal + np.pi / 2, np.pi) - np.pi / 2) <= 1e-6
        assert abs(lambda_max(optimal, omega) - 1.0) <= 1e-10


def test_rf_closed_form_values():
    forms = rf_closed_forms(RfParams(kappa=1.0, rabi=1.0), 0.0)
    assert abs(forms.excited_population - 1.0 / 3.0) <= 1e-14
    assert abs(forms.activity - 1.0 / 3.0) <= 1e-14
    assert abs(forms.spectrum_x - 11.0 / 3.0) <= 1e-14
    assert abs(forms.spectrum_y - 17.0 / 9.0) <= 1e-14
    assert abs(forms.response_y - 5.0 / 9.0) <= 1e-14


def test_rf_model_structure():
    model = rf_model(RfParams(kappa=2.0, rabi=0.7), theta=0.3)
    assert model.dim == 2
    assert model.monitored == ((0, 0.3),)
    np.testing.assert_allclose(model.hamiltonian,
                               0.35 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(model.channels[0],
                               np.sqrt(2.0) * np.array([[0.0, 0.0], [1.0, 0.0]]))
    np.testing.assert_allclose(model.signal.coefficients, [[1.0]])


def test_rf_steady_population():
    system = prepare(rf_model(RfParams(kappa=1.0, rabi=1.0)))
    assert abs(float(system.rho[0, 0].real) - 1.0 / 3.0) <= 1e-12
    assert abs(system.steady.gap - 0.5) <= 1e-12


def test_kerr_cat_structure():
    params = KerrCatParams()
    model = kerr_cat_model(params, theta=0.1)
    assert model.dim == 12
    assert model.n_channels == 2
    assert model.monitored == ((0, 0.1),)
    np.testing.assert_allclose(model.signal.coefficients, np.eye(2))
    a = annihilation(12)
    np.testing.assert_allclose(model.channels[0], np.sqrt(0.2) * a)
    np.testing.assert_allclose(model.channels[1], np.sqrt(0.05) * a)
    h = model.hamiltonian
    np.testing.assert_allclose(h, h.conj().T, atol=1e-14)


def test_kerr_cat_regression():
    # frozen working-point observables; truncation stability is covered by
    # the acceptance suite
    system = prepare(kerr_cat_model(KerrCatParams()))
    a = annihilation(12)
    nbar = float(np.trace(dagger(a) @ a @ system.rho).real)
    assert abs(nbar - 0.9342429617795038) <= 1e-9
    assert abs(system.steady.gap - 0.03134980456457866) <= 1e-9


def test_kerr_cat_validation():
    with pytest.raises(ValueError):
        KerrCatParams(n_cut=3)
    with pytest.raises(ValueError):
        KerrCatParams(kappa_ex=0.0, kappa_in=0.0)
    # the 16 n_cut^4-byte superoperator must fit in 2 GiB: n_cut 107, not 108
    assert KerrCatParams(n_cut=40).n_cut == 40
    assert KerrCatParams(n_cut=107).n_cut == 107
    with pytest.raises(ValueError, match="GiB"):
        KerrCatParams(n_cut=108)


def test_classical_stationary_two_state():
    rates = np.array([[0.0, 2.0], [1.0, 0.0]])
    np.testing.assert_allclose(classical_stationary(rates),
                               [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_classical_jump_model_channels():
    rates = np.array([[0.0, 2.0], [1.0, 0.0]])
    weights = np.array([[[0.0, 1.0], [2.0, 0.0]]])
    model = classical_jump_model(rates, weights)
    assert model.n_channels == 2
    assert model.monitored == ()
    np.testing.assert_allclose(model.hamiltonian, 0.0)
    # one channel per directed rate: sqrt(rate) |dest><src|
    norms = sorted(float(np.linalg.norm(c)) for c in model.channels)
    np.testing.assert_allclose(norms, [1.0, np.sqrt(2.0)], atol=1e-14)
    coeff = model.signal.coefficients
    assert coeff.shape == (2, 1)
    np.testing.assert_allclose(sorted(coeff[:, 0]), [1.0, 2.0])


def test_classical_rejects_disconnected():
    rates = np.zeros((4, 4))
    rates[0, 1] = rates[1, 0] = 1.0
    rates[2, 3] = rates[3, 2] = 1.0
    with pytest.raises(NotIrreducible):
        classical_stationary(rates)
    with pytest.raises(NotIrreducible):
        classical_jump_model(rates, np.ones((1, 4, 4)))


def test_strong_components_match_scipy_csgraph():
    rng = np.random.default_rng(8)
    for _ in range(200):
        d = int(rng.integers(1, 10))
        rates = rng.uniform(0.1, 1.0, (d, d)) * (rng.random((d, d)) < rng.uniform(0.05, 0.6))
        np.fill_diagonal(rates, 0.0)
        n_comp, _ = connected_components(csr_matrix(rates > 0.0), connection="strong")
        if n_comp == 1:
            models._rate_matrix(rates)
        else:
            with pytest.raises(NotIrreducible, match=f"has {n_comp} strongly connected"):
                models._rate_matrix(rates)


def test_classical_rejects_negative_rates():
    rates = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        classical_stationary(rates)

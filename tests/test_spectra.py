import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import expm

from ioqfr.errors import DuplicateChannel, NumericalError
from ioqfr.hilbert import pauli, quadrature
from ioqfr.lindblad import (
    LindbladModel,
    System,
    insertion_state,
    kinetic_signal,
    liouvillian,
    perturbation_state,
    prepare,
    project_traceless,
    unvec,
    vec,
)
from ioqfr.models import RfParams, rf_closed_forms
from ioqfr.numkit import DEFAULT_TOL
from ioqfr.response import response_matrix
from ioqfr.spectra import matrix_spectrum


def test_undriven_emitter_is_shot_noise_limited():
    model = LindbladModel(
        hamiltonian=np.zeros((2, 2)),
        channels=(pauli("minus"),),
        monitored=((0, 0.3),),
        signal=kinetic_signal(np.array([[1.0]])),
    )
    system = prepare(model)
    for omega in (0.0, 0.5, 2.0):
        np.testing.assert_allclose(matrix_spectrum(system, omega).complex_matrix,
                                   [[1.0]], atol=1e-12)


def test_closed_form_values(rf_unit):
    x_view = rf_unit.with_monitored([(0, 0.0)])
    assert abs(matrix_spectrum(x_view, 0.0).complex_matrix[0, 0].real
               - 11.0 / 3.0) <= 1e-12
    assert abs(matrix_spectrum(rf_unit, 0.0).complex_matrix[0, 0].real
               - 17.0 / 9.0) <= 1e-12
    for omega in (0.6, 1.7):
        forms = rf_closed_forms(RfParams(kappa=1.0, rabi=1.0), omega)
        assert abs(matrix_spectrum(x_view, omega).complex_matrix[0, 0].real
                   - forms.spectrum_x) <= 1e-12
        assert abs(matrix_spectrum(rf_unit, omega).complex_matrix[0, 0].real
                   - forms.spectrum_y) <= 1e-12


def test_matrix_reduces_to_scalar(rf_unit):
    y_view = rf_unit.with_monitored([(0, np.pi / 2)])
    for omega in (0.0, 0.9, 3.3):
        noise = matrix_spectrum(rf_unit, omega)
        scalar = matrix_spectrum(y_view, omega).complex_matrix[0, 0].real
        assert noise.complex_matrix.shape == (1, 1)
        np.testing.assert_allclose(noise.complex_matrix[0, 0], scalar,
                                   atol=1e-12)
        np.testing.assert_allclose(noise.real_matrix, scalar * np.eye(2),
                                   atol=1e-12)


def test_spectrum_psd_gate_reads_system_tol(rf_unit, monkeypatch):
    # a transfer matrix whose S = 1 + 2 K is -1e-9: within the default
    # spectrum_psd of 1e-8, beyond the 1e-10 of a System prepared with it
    transfer = np.array([[-0.5 * (1.0 + 1e-9), 0.0]])
    strict = prepare(rf_unit.model, DEFAULT_TOL.replacing(spectrum_psd=1e-10))
    monkeypatch.setattr(System, "transfer", lambda self, omega: transfer)
    noise = matrix_spectrum(rf_unit, 0.5)
    np.testing.assert_allclose(noise.complex_matrix, [[-1e-9]], rtol=1e-6)
    with pytest.raises(NumericalError, match=r"spectrum matrix at omega=0\.5 has "
                                             r"negative eigenvalue -1\.000e-09"):
        matrix_spectrum(strict, 0.5)


def test_duplicate_channel_rejected(rf_unit):
    doubled = rf_unit.with_monitored([(0, 0.0), (0, np.pi / 2)])
    with pytest.raises(DuplicateChannel):
        matrix_spectrum(doubled, 0.5)


def test_decoupled_port_gives_identity():
    # second channel acts on nothing the first channel sees: a pure dephasing
    # port on the ground state has zero output correlation with the decay port
    model = LindbladModel(
        hamiltonian=np.zeros((2, 2)),
        channels=(pauli("minus"), np.zeros((2, 2))),
        monitored=((0, 0.0), (1, 0.0)),
        signal=None,
    )
    system = prepare(model)
    noise = matrix_spectrum(system, 0.7)
    np.testing.assert_allclose(noise.complex_matrix, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(noise.real_matrix, np.eye(4), atol=1e-12)


def test_two_port_matrix_properties(kerr_ref):
    both = kerr_ref.with_monitored([(0, 0.0), (1, 0.4)])
    for omega in (0.0, 1.1):
        noise = matrix_spectrum(both, omega)
        cmat = noise.complex_matrix
        np.testing.assert_allclose(cmat, cmat.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(cmat)[0] >= -1e-8
        # negative frequency transposes the hermitian matrix
        swapped = matrix_spectrum(both, -omega).complex_matrix
        np.testing.assert_allclose(swapped, cmat.T, atol=1e-10)


def test_one_solve_matches_two_sided_definition(kerr_ref):
    # S and R from one solve against the definitions with both (-i w - L)
    # and (+i w - L), written out with dense numpy solves
    gen, rho = liouvillian(kerr_ref.model), kerr_ref.rho
    d = rho.shape[0]
    eye = np.eye(d * d)
    model = kerr_ref.model
    for thetas in ((0.0, 0.3), (1.1, 2.5)):
        both = kerr_ref.with_monitored(list(enumerate(thetas)))
        xs = [quadrature(c, th) for c, th in zip(model.channels, thetas)]
        ys = [vec(project_traceless(insertion_state(c, th, rho), rho))
              for c, th in zip(model.channels, thetas)]
        vs = [vec(perturbation_state(model, q, rho)) for q in range(2)]
        for omega in (0.37, -2.1, 4.9):
            fwd = np.linalg.solve(-1j * omega * eye - gen, np.stack(ys + vs, axis=1))
            bwd = np.linalg.solve(1j * omega * eye - gen, np.stack(ys, axis=1))
            k_fwd = np.array([[np.trace(x @ unvec(col)) for col in fwd.T] for x in xs])
            k_bwd = np.array([[np.trace(x @ unvec(col)) for col in bwd.T] for x in xs])
            s_def = np.eye(2) + k_fwd[:, :2] + k_bwd.T
            np.testing.assert_allclose(matrix_spectrum(both, omega).complex_matrix,
                                       s_def, rtol=0, atol=1e-12 * np.abs(s_def).max())
            # kinetic signal q scales channel q: tangent (1/2) L_q
            r_def = k_fwd[:, 2:] + np.diag([0.5 * np.trace(x @ rho).real for x in xs])
            np.testing.assert_allclose(response_matrix(both, omega).complex_matrix,
                                       r_def, rtol=0, atol=1e-12 * np.abs(r_def).max())


def test_spectrum_even_in_frequency(rf_unit):
    for omega in (0.4, 2.2):
        plus = matrix_spectrum(rf_unit, omega).complex_matrix
        minus = matrix_spectrum(rf_unit, -omega).complex_matrix
        np.testing.assert_allclose(plus, minus, atol=1e-12)


def test_time_domain_oracle(rf_unit):
    # independent route: integrate the stationary two-time correlation of the
    # monitored quadrature with a matrix exponential propagator
    model = rf_unit.model
    coupling = model.channels[0]
    theta = np.pi / 2
    x = quadrature(coupling, theta)
    rho = rf_unit.rho
    src = project_traceless(insertion_state(coupling, theta, rho), rho)
    dt, horizon = 0.02, 40.0
    steps = int(horizon / dt)
    step = expm(liouvillian(model) * dt)
    taus = np.arange(steps + 1) * dt
    corr = np.empty(steps + 1, dtype=complex)
    state = vec(src)
    for k in range(steps + 1):
        corr[k] = np.trace(x @ state.reshape(2, 2, order="F"))
        state = step @ state
    for omega in (0.0, 0.7, 1.3):
        integral = simpson(np.real(np.exp(1j * omega * taus) * corr
                                   + np.exp(-1j * omega * taus) * corr), x=taus)
        direct = 1.0 + integral
        assert abs(direct - matrix_spectrum(rf_unit, omega).complex_matrix[0, 0].real) <= 1e-4

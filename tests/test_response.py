import numpy as np
import pytest

from ioqfr.hilbert import pauli
from ioqfr.lindblad import (
    LindbladModel,
    dissipator,
    perturbation_state,
    prepare,
    tangent_signal,
    unvec,
    vec,
)
from ioqfr.models import RfParams, rf_closed_forms, rf_model
from ioqfr.response import perturbation_superop, real_embedding, response_matrix


def _tangent_twin(kappa=1.0, rabi=1.0, theta=np.pi / 2):
    """Same emitter with the rate signal written as explicit tangents."""
    kinetic = rf_model(RfParams(kappa=kappa, rabi=rabi), theta)
    coupling = kinetic.channels[0]
    tangents = [[0.5 * coupling]]
    return LindbladModel(
        hamiltonian=kinetic.hamiltonian,
        channels=kinetic.channels,
        monitored=kinetic.monitored,
        signal=tangent_signal(tangents),
    )


def test_kinetic_superop_is_weighted_dissipator(rf_unit):
    model = rf_unit.model
    v = perturbation_superop(model, 0)
    np.testing.assert_allclose(v, dissipator(model.channels[0]), atol=1e-13)


def test_tangent_matches_kinetic(rf_unit):
    twin = prepare(_tangent_twin())
    v_kin = perturbation_superop(rf_unit.model, 0)
    v_tan = perturbation_superop(twin.model, 0)
    np.testing.assert_allclose(v_tan, v_kin, atol=1e-13)
    for omega in (0.0, 0.7, 2.1):
        np.testing.assert_allclose(
            response_matrix(twin, omega).complex_matrix,
            response_matrix(rf_unit, omega).complex_matrix, atol=1e-12)


def test_perturbation_state_matches_superop(rf_unit):
    model = rf_unit.model
    v = perturbation_superop(model, 0)
    np.testing.assert_allclose(
        perturbation_state(model, 0, rf_unit.rho),
        unvec(v @ vec(rf_unit.rho)), atol=1e-13)


def test_perturbation_state_traceless(rf_unit):
    src = perturbation_state(rf_unit.model, 0, rf_unit.rho)
    assert abs(np.trace(src)) <= 1e-13


def test_zero_frequency_response_value(rf_unit):
    # closed form: the pi/2-quadrature response at omega = 0 equals -5/9
    # in this package's sign convention (monitored quadrature vs drive)
    value = response_matrix(rf_unit, 0.0).complex_matrix[0, 0]
    np.testing.assert_allclose(value, -5.0 / 9.0, atol=1e-12)
    forms = rf_closed_forms(RfParams(kappa=1.0, rabi=1.0), 0.0)
    np.testing.assert_allclose(-value, forms.response_y, atol=1e-12)


def test_response_against_closed_form(rf_unit):
    params = RfParams(kappa=1.0, rabi=1.0)
    for omega in (0.3, 1.3, 4.2):
        forms = rf_closed_forms(params, omega)
        value = -response_matrix(rf_unit, omega).complex_matrix[0, 0]
        np.testing.assert_allclose(value, forms.response_y, atol=1e-12)


def test_response_reality_symmetry(rf_unit):
    for omega in (0.4, 1.9):
        plus = response_matrix(rf_unit, omega).complex_matrix
        minus = response_matrix(rf_unit, -omega).complex_matrix
        np.testing.assert_allclose(minus, np.conj(plus), atol=1e-12)


def test_direct_term_only_for_monitored_overlap():
    # monitoring theta = 0 while driving through the same channel still
    # yields the instantaneous term; an unmodulated channel yields none
    model = rf_model(RfParams(kappa=1.0, rabi=1.0), theta=0.0)
    system = prepare(model)
    x = model.channels[0] + model.channels[0].conj().T
    expected = 0.5 * float(np.trace(x @ system.rho).real)
    np.testing.assert_allclose(system.direct, [[expected]], atol=1e-13)
    # the resolvent part decays as 1/omega, leaving the direct term
    far = response_matrix(system, 1e9).complex_matrix
    np.testing.assert_allclose(far, [[expected]], atol=1e-8)


def test_real_embedding_homomorphism():
    rng = np.random.default_rng(0)
    for _ in range(10):
        z, w = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(2))
        np.testing.assert_allclose(real_embedding(z @ w),
                                   real_embedding(z) @ real_embedding(w), atol=1e-13)
        np.testing.assert_allclose(real_embedding(z) + real_embedding(w),
                                   real_embedding(z + w), atol=1e-13)
        np.testing.assert_allclose(real_embedding(z.conj().T), real_embedding(z).T)


def test_real_embedding_blocks():
    cmat = np.array([[1.0 + 2.0j, -0.5j], [3.0, 4.0 - 1.0j]])
    out = real_embedding(cmat)
    assert out.shape == (4, 4)
    for a in range(2):
        for b in range(2):
            z = cmat[a, b]
            np.testing.assert_allclose(out[2 * a:2 * a + 2, 2 * b:2 * b + 2],
                                       [[z.real, -z.imag], [z.imag, z.real]])


def test_response_matrix_shapes(kerr_ref):
    rm = response_matrix(kerr_ref, 0.8)
    assert rm.complex_matrix.shape == (1, 2)
    assert rm.real_matrix.shape == (2, 4)
    np.testing.assert_allclose(rm.real_matrix, real_embedding(rm.complex_matrix))
    # the caller's transfer matrix gives the same R without another solve
    np.testing.assert_array_equal(
        response_matrix(kerr_ref, 0.8, kerr_ref.transfer(0.8)).complex_matrix,
        rm.complex_matrix)
    assert not rm.complex_matrix.flags.writeable


def test_signal_required():
    model = LindbladModel(hamiltonian=np.zeros((2, 2)),
                          channels=(pauli("minus"),),
                          monitored=((0, 0.0),), signal=None)
    system = prepare(model)
    with pytest.raises(ValueError):
        response_matrix(system, 1.0)

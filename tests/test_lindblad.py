import numpy as np
import pytest

from ioqfr import lindblad, numkit
from ioqfr.errors import NotMixing, SourceNotTraceless
from ioqfr.hilbert import pauli
from ioqfr.lindblad import (
    LindbladModel,
    as_system,
    dissipator,
    kinetic_signal,
    liouvillian,
    model_fingerprint,
    prepare,
    project_traceless,
    steady_state,
    unvec,
    vec,
)
from ioqfr.models import KerrCatParams, kerr_cat_model
from ioqfr.numkit import DEFAULT_TOL


def _decay_model(theta=np.pi / 2, kappa=1.0):
    return LindbladModel(
        hamiltonian=np.zeros((2, 2), dtype=complex),
        channels=(np.sqrt(kappa) * pauli("minus"),),
        monitored=((0, theta),),
        signal=kinetic_signal(np.array([[1.0]])),
    )


def test_vec_column_stacking():
    rng = np.random.default_rng(0)
    a, x, b = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
               for _ in range(3))
    lhs = vec(a @ x @ b)
    rhs = np.kron(b.T, a) @ vec(x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)
    np.testing.assert_allclose(unvec(vec(x)), x)


def test_left_right_mult():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_allclose(unvec(lindblad.left_mult(a) @ vec(x)), a @ x,
                               atol=1e-13)
    np.testing.assert_allclose(unvec(lindblad.right_mult(a) @ vec(x)), x @ a,
                               atol=1e-13)


def test_dissipator_action():
    rng = np.random.default_rng(2)
    c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    direct = c @ x @ c.conj().T - 0.5 * (c.conj().T @ c @ x + x @ c.conj().T @ c)
    np.testing.assert_allclose(unvec(dissipator(c) @ vec(x)), direct, atol=1e-12)
    # trace annihilation: columns of the dissipator are traceless images
    t = lindblad.trace_vector(3)
    assert np.max(np.abs(t @ dissipator(c))) <= 1e-12 * np.linalg.norm(c) ** 2


def test_undriven_qubit_spectrum():
    gen = liouvillian(_decay_model(kappa=1.0))
    eigs = np.sort_complex(np.linalg.eigvals(gen))
    np.testing.assert_allclose(sorted(eigs.real), [-1.0, -0.5, -0.5, 0.0],
                               atol=1e-12)
    np.testing.assert_allclose(eigs.imag, 0.0, atol=1e-12)


def test_undriven_steady_state():
    system = prepare(_decay_model())
    np.testing.assert_allclose(system.rho, np.diag([0.0, 1.0]), atol=1e-12)
    assert abs(system.steady.gap - 0.5) <= 1e-12
    assert system.steady.residual <= DEFAULT_TOL.trace
    assert not system.rho.flags.writeable


def test_not_mixing_zero_generator():
    with pytest.raises(NotMixing):
        steady_state(np.zeros((4, 4), dtype=complex))


def test_not_mixing_unitary_only():
    model = LindbladModel(hamiltonian=pauli("z").astype(complex), channels=(),
                          monitored=(), signal=None)
    with pytest.raises(NotMixing):
        prepare(model)


def test_scalar_resolvent_identity():
    # one-dimensional check of (-i omega - L)^{-1} on the LU path:
    # generator -1 at omega = 1 sends a source s to s / (1 - i)
    m = np.array([[-1j * 1.0 - (-1.0)]], dtype=complex)
    x = numkit.LUFactor(m).solve(np.array([1.0 + 0.0j]))
    np.testing.assert_allclose(x, [1.0 / (1.0 - 1.0j)], atol=1e-14)


def test_resolvent_requires_traceless():
    system = prepare(_decay_model())
    res = system.resolvent(1.0)
    with pytest.raises(SourceNotTraceless):
        res.apply(np.eye(2, dtype=complex))


def test_resolvent_inverts_generator():
    system = prepare(_decay_model())
    rng = np.random.default_rng(3)
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    src = project_traceless(y, system.rho)
    for omega in (0.0, 0.9, -2.3):
        out = system.resolvent(omega).apply(src)
        back = -1j * omega * out - unvec(system.generator @ vec(out))
        np.testing.assert_allclose(back, src, atol=1e-10)
        assert abs(np.trace(out)) <= 1e-10


def test_zero_frequency_deflation_continuity():
    system = prepare(_decay_model())
    rng = np.random.default_rng(4)
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    src = project_traceless(y, system.rho)
    at_zero = system.resolvent(0.0).apply(src)
    near_zero = system.resolvent(1e-9).apply(src)
    np.testing.assert_allclose(at_zero, near_zero, atol=1e-7)


def test_project_traceless():
    system = prepare(_decay_model())
    y = np.array([[2.0, 1.0], [0.5, 1.0]], dtype=complex)
    out = project_traceless(y, system.rho)
    assert abs(np.trace(out)) <= 1e-14


def test_with_monitored_reuses_dynamics(rf_unit):
    rotated = rf_unit.with_monitored([(0, 0.3)])
    assert rotated.generator is rf_unit.generator
    assert rotated.steady is rf_unit.steady
    assert rotated.model.monitored == ((0, 0.3),)


def test_model_validation():
    bad_h = np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex)  # not hermitian
    with pytest.raises(ValueError):
        LindbladModel(hamiltonian=bad_h, channels=(), monitored=(), signal=None)
    with pytest.raises(ValueError):
        LindbladModel(hamiltonian=np.zeros((2, 2)), channels=(pauli("minus"),),
                      monitored=((1, 0.0),), signal=None)  # bad channel index
    with pytest.raises(ValueError):
        LindbladModel(hamiltonian=np.zeros((2, 2)), channels=(pauli("minus"),),
                      monitored=(), signal=kinetic_signal(np.ones((2, 1))))


def test_model_fingerprint_sensitivity():
    base = _decay_model()
    same = _decay_model()
    other = _decay_model(theta=0.1)
    assert model_fingerprint(base) == model_fingerprint(same)
    assert model_fingerprint(base) != model_fingerprint(other)


def test_kerr_unbiased_gap_degrades():
    # removing the bias and detuning at pump 2 leaves a slow but still
    # mixing generator; the near-degeneracy is visible in the gap
    biased = as_system(kerr_cat_model(KerrCatParams()))
    bare = as_system(kerr_cat_model(
        KerrCatParams(bias=0.0, detuning=0.0)))
    assert bare.steady.gap < 0.5 * biased.steady.gap


def test_kerr_strong_pump_not_mixing():
    # at pump 8 the two steady lobes decouple beyond the mixing threshold
    with pytest.raises(NotMixing):
        as_system(kerr_cat_model(
            KerrCatParams(n_cut=24, bias=0.0, detuning=0.0, two_photon=8.0)))

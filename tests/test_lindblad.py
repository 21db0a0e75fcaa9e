import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from ioqfr import cli, lindblad, numkit
from ioqfr.bounds import activity_matrix, certify_bound, evaluate_point
from ioqfr.errors import DimMismatch, NotMixing, NumericalError, SourceNotTraceless
from ioqfr.hilbert import pauli
from ioqfr.lindblad import (
    LindbladModel,
    dissipator,
    kinetic_signal,
    liouvillian,
    model_fingerprint,
    prepare,
    project_traceless,
    steady_state,
    tangent_signal,
    unvec,
    vec,
)
from ioqfr.models import KerrCatParams, classical_jump_model, kerr_cat_model
from ioqfr.numkit import DEFAULT_TOL, psd_inv_sqrt
from ioqfr.response import real_embedding, response_matrix
from ioqfr.spectra import matrix_spectrum


def _decay_model(theta=np.pi / 2, kappa=1.0, pump=0.0):
    """Qubit decay at rate kappa, monitored and modulated; a pump > 0 adds
    incoherent excitation, which mixes the steady state so that the monitored
    current has nonzero insertion and perturbation sources."""
    channels = (np.sqrt(kappa) * pauli("minus"),)
    coefficients = [[1.0]]
    if pump:
        channels += (np.sqrt(pump) * pauli("plus"),)
        coefficients.append([0.0])
    return LindbladModel(
        hamiltonian=np.zeros((2, 2), dtype=complex),
        channels=channels,
        monitored=((0, theta),),
        signal=kinetic_signal(np.array(coefficients)),
    )


def test_vec_column_stacking():
    rng = np.random.default_rng(0)
    a, x, b = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
               for _ in range(3))
    lhs = vec(a @ x @ b)
    rhs = np.kron(b.T, a) @ vec(x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)
    np.testing.assert_allclose(unvec(vec(x)), x)


def test_dissipator_action():
    rng = np.random.default_rng(2)
    c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    direct = c @ x @ c.conj().T - 0.5 * (c.conj().T @ c @ x + x @ c.conj().T @ c)
    np.testing.assert_allclose(unvec(dissipator(c) @ vec(x)), direct, atol=1e-12)
    # trace annihilation: columns of the dissipator are traceless images
    t = vec(np.eye(3)).conj()
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


def test_steady_state_rejects_disagreeing_solves(rf_unit, monkeypatch):
    generator = liouvillian(rf_unit.model)
    solve = numkit.LUFactor.solve
    monkeypatch.setattr(numkit.LUFactor, "solve",
                        lambda self, b: (1.0 + 1e-6) * solve(self, b))
    with pytest.raises(NumericalError,
                       match=r"Schur and LU stationary solves disagree by 5\.270e-07"):
        steady_state(generator)


def test_steady_state_rejects_a_stationary_residual(rf_unit, monkeypatch):
    generator = liouvillian(rf_unit.model)
    hermitize = numkit.hermitize

    def perturbed(a):
        rho = hermitize(a)
        rho[0, 1] += 1e-6
        rho[1, 0] += 1e-6
        return rho

    monkeypatch.setattr(numkit, "hermitize", perturbed)
    with pytest.raises(NumericalError,
                       match=r"stationary residual 7\.071e-07 exceeds 2\.121e-10"):
        steady_state(generator)


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
    traceless = vec(project_traceless(np.eye(2) + pauli("x"), system.rho))
    with pytest.raises(SourceNotTraceless, match="source 1 trace"):
        lindblad._traceless_coordinates(
            np.stack([traceless, vec(np.eye(2))], axis=1), DEFAULT_TOL)


def test_zero_frequency_deflation_continuity():
    system = prepare(_decay_model(pump=0.3))
    at_zero = system.transfer(0.0)
    assert np.max(np.abs(at_zero)) > 0.1
    np.testing.assert_allclose(at_zero, system.transfer(1e-9), atol=1e-7)

    # kerr_cat (gap 3.1e-2): S is even in omega, so it matches S(0); R moves
    # at first order, by omega R'(0) with R'(0) = i C G(0)^2 Y_pert, taken
    # in the Schur coordinates of the realization
    system = prepare(kerr_cat_model(KerrCatParams()))
    m = len(system.model.monitored)
    g0 = lindblad.Resolvent(system.steady.factor, 0.0)
    slope = 1j * system._schur_rows @ g0.apply(g0.apply(system._schur_sources))
    s0 = matrix_spectrum(system, 0.0).complex_matrix
    r0 = response_matrix(system, 0.0).complex_matrix
    for omega in (1e-15, -1e-15, 1e-13, 1e-11, 1e-9):
        s = matrix_spectrum(system, omega).complex_matrix
        r = response_matrix(system, omega).complex_matrix
        assert np.max(np.abs(s - s0)) <= 1e-12 * np.max(np.abs(s0)), omega
        assert np.max(np.abs(r - r0 - omega * slope[:, m:])) \
            <= 1e-12 * np.max(np.abs(r0)), omega


def test_project_traceless():
    system = prepare(_decay_model())
    y = np.array([[2.0, 1.0], [0.5, 1.0]], dtype=complex)
    out = project_traceless(y, system.rho)
    assert abs(np.trace(out)) <= 1e-14


def test_with_monitored_reuses_dynamics(rf_unit, monkeypatch):
    def rebuilt(*args, **kwargs):
        raise AssertionError("with_monitored rebuilt the dynamics")

    monkeypatch.setattr(lindblad, "liouvillian", rebuilt)
    monkeypatch.setattr(lindblad, "steady_state", rebuilt)
    rotated = rf_unit.with_monitored([(0, 0.3)])
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


def _qubit_signal(signal):
    return lambda: LindbladModel(hamiltonian=np.zeros((2, 2)),
                                 channels=(pauli("minus"), pauli("plus")), signal=signal)


@pytest.mark.parametrize("build, error, message", [
    (_qubit_signal(kinetic_signal([[1.0]])), DimMismatch,
     "signal covers 1 channels, model has 2"),
    (_qubit_signal(tangent_signal([[np.eye(3)], [None]])), DimMismatch,
     "tangent operator dimension mismatch"),
    (lambda: tangent_signal([[pauli("minus"), None], [None]]), DimMismatch,
     "unequal lengths"),
    (lambda: lindblad.SignalSpec(), ValueError, "exactly one"),
    (lambda: lindblad.SignalSpec(coefficients=np.ones((2, 1)),
                                 tangents=((None,), (None,))), ValueError, "exactly one"),
], ids=["kinetic_rows", "tangent_shape", "ragged", "neither", "both"])
def test_signal_validation(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_tangents_are_one_read_only_array():
    n_cut = 6
    model = kerr_cat_model(KerrCatParams(n_cut=n_cut))
    tangents = model.tangents
    assert isinstance(tangents, np.ndarray) and not tangents.flags.writeable
    assert tangents.shape == (2, 2, n_cut, n_cut)
    assert not np.any(tangents[0, 1]) and not np.any(tangents[1, 0])
    np.testing.assert_array_equal(tangents[0, 0], 0.5 * model.channels[0])
    np.testing.assert_array_equal(model.tangent_operator(1, 0), np.zeros((n_cut, n_cut)))


def test_null_tangent_cell_resolves_to_zeros(tmp_path):
    config = {
        "model": "custom", "dim": 2,
        "hamiltonian": [{"row": 0, "col": 1, "re": 0.5}, {"row": 1, "col": 0, "re": 0.5}],
        "channels": [[{"row": 1, "col": 0, "re": 1.0}], [{"row": 0, "col": 1, "re": 0.5}]],
        "monitored": [[0, 0.0]],
        "signal": {"mode": "tangent",
                   "tangents": [[[{"row": 1, "col": 0, "re": 0.5}], None],
                                [None, [{"row": 0, "col": 1, "re": 0.25}]]]},
    }
    path = tmp_path / "tangent.json"
    path.write_text(json.dumps(config))
    spec = cli._resolve_model(argparse.Namespace(model=str(path), param=None, theta=None))
    model = spec.model("sweep")
    assert model.tangents.shape == (2, 2, 2, 2)
    np.testing.assert_array_equal(model.tangents[0, 1], np.zeros((2, 2)))
    np.testing.assert_array_equal(model.tangent_operator(1, 0), np.zeros((2, 2)))
    np.testing.assert_array_equal(model.tangents[1, 1], 0.5 * model.channels[1])


def test_monitored_channel_index_must_be_integral():
    # int(0.7) would monitor channel 0; an integral float names its channel
    channels = (pauli("minus"), pauli("plus"))
    with pytest.raises(DimMismatch, match=r"index 0.7 is not an integer in \[0, 2\)"):
        LindbladModel(hamiltonian=np.zeros((2, 2)), channels=channels,
                      monitored=((0.7, 0.0),))
    model = LindbladModel(hamiltonian=np.zeros((2, 2)), channels=channels,
                          monitored=((1.0, 0.0),))
    assert model.monitored == ((1, 0.0),)


def test_hamiltonian_check_is_scale_free():
    # an anti-Hermitian part of 1e-4 relative to ||H|| is rejected at every
    # scale, and an exactly Hermitian H is accepted at every scale
    rng = np.random.default_rng(6)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    herm, anti = g + g.conj().T, g - g.conj().T
    skewed = herm / np.linalg.norm(herm) + 1e-4 * anti / np.linalg.norm(anti)
    for scale in (1e-9, 1.0, 1e9):
        with pytest.raises(ValueError, match="not Hermitian"):
            LindbladModel(hamiltonian=scale * skewed)
    h = kerr_cat_model(KerrCatParams()).hamiltonian
    for exponent in range(-12, 13, 3):
        LindbladModel(hamiltonian=10.0 ** exponent * h)


def test_model_fingerprint_sensitivity():
    base = _decay_model()
    same = _decay_model()
    other = _decay_model(theta=0.1)
    assert model_fingerprint(base) == model_fingerprint(same)
    assert model_fingerprint(base) != model_fingerprint(other)


def test_kerr_unbiased_gap_degrades():
    # removing the bias and detuning at pump 2 leaves a slow but still
    # mixing generator; the near-degeneracy is visible in the gap
    biased = prepare(kerr_cat_model(KerrCatParams()))
    bare = prepare(kerr_cat_model(
        KerrCatParams(bias=0.0, detuning=0.0)))
    assert bare.steady.gap < 0.5 * biased.steady.gap


def test_kerr_strong_pump_not_mixing():
    # at pump 8 the two steady lobes decouple beyond the mixing threshold
    with pytest.raises(NotMixing):
        prepare(kerr_cat_model(
            KerrCatParams(n_cut=24, bias=0.0, detuning=0.0, two_photon=8.0)))


def test_not_mixing_weakly_coupled_blocks():
    # two fast two-state blocks joined by rates 1e-10: the slow eigenvalue
    # (about -2e-10) sits within gap_rel * max|T_kk| of zero in diag(T)
    rates = np.zeros((4, 4))
    rates[0, 1] = rates[1, 0] = rates[2, 3] = rates[3, 2] = 1.0
    rates[1, 2] = rates[2, 1] = 1e-10
    with pytest.raises(NotMixing, match="not unique"):
        prepare(classical_jump_model(rates, np.zeros((4, 4))))


def test_generator_must_preserve_trace_and_hermiticity():
    with pytest.raises(NumericalError, match="trace"):
        steady_state(-np.eye(4, dtype=complex))
    with pytest.raises(NumericalError, match="hermiticity"):
        steady_state(1j * np.eye(4))


def test_gell_mann_coordinates():
    rng = np.random.default_rng(5)
    d = 4
    x = rng.standard_normal((d * d, 3)) + 1j * rng.standard_normal((d * d, 3))
    coords = lindblad._to_coherence(x)
    np.testing.assert_allclose(np.linalg.norm(coords, axis=0), np.linalg.norm(x, axis=0))
    np.testing.assert_allclose(lindblad._from_coherence(coords), x, atol=1e-14)
    np.testing.assert_allclose(coords[0], vec(np.eye(d)).conj() @ x / math.sqrt(d))
    np.testing.assert_allclose(lindblad._to_coherence(x, sign=-1.0),
                               lindblad._to_coherence(x.conj()).conj(), atol=1e-14)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert np.max(np.abs(lindblad._to_coherence(vec(g + g.conj().T)[:, None]).imag)) \
        <= 1e-14


def _two_currents():
    path = Path(__file__).resolve().parent / "golden" / "custom_two_currents.json"
    spec = cli._resolve_model(argparse.Namespace(model=str(path), param=None, theta=None))
    return prepare(spec.model("sweep"))


def _dense_transfer(system, omega):
    """C (-i omega - L)^(-1) Y from one dense numpy solve. The trace row and
    vec(I) column border the matrix, which keeps it nonsingular at omega = 0
    and pins the solution traceless; at omega != 0 the border is inert."""
    gen = liouvillian(system.model)
    n = gen.shape[0]
    unit = vec(np.eye(math.isqrt(n)))
    bordered = np.zeros((n + 1, n + 1), dtype=complex)
    bordered[:n, :n] = -1j * omega * np.eye(n) - gen
    bordered[:n, n] = unit
    bordered[n, :n] = unit.conj()
    sources, observables, _ = lindblad._realization(system.model, system.rho)
    rhs = np.vstack([sources, np.zeros((1, sources.shape[1]))])
    return observables @ np.linalg.solve(bordered, rhs)[:n]


@pytest.mark.parametrize("build", [
    lambda: None,
    lambda: prepare(_decay_model(pump=0.3)),
    lambda: prepare(kerr_cat_model(KerrCatParams(n_cut=6))),
    _two_currents,
], ids=["rf", "decay", "kerr_cat_6", "custom_two_currents"])
def test_transfer_matches_dense_solve(build, rf_unit):
    system = build() or rf_unit
    for omega in (0.0, 1e-12, 0.83, -0.83, 40.0):
        got = system.transfer(omega)
        want = _dense_transfer(system, omega)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), omega
    for omega in (0.0, 0.83, 40.0):
        s = matrix_spectrum(system, omega).complex_matrix
        s_neg = matrix_spectrum(system, -omega).complex_matrix
        np.testing.assert_allclose(s_neg, s.T, rtol=0, atol=1e-12 * np.max(np.abs(s)))


@pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_frequency_is_input_error(rf_unit, omega):
    entries = (matrix_spectrum, response_matrix, lambda s, w: certify_bound(s, [w]))
    for entry in entries:
        with pytest.raises(ValueError, match=f"^frequency {omega} is not finite$") as err:
            entry(rf_unit, omega)
        assert err.type is ValueError


def test_evaluate_point_thread_safe():
    # library callers may evaluate points of one System from several threads;
    # each solve shifts the stored triangle under the factor's lock, so
    # results are bit-identical
    system = prepare(kerr_cat_model(KerrCatParams(n_cut=8)))
    activity = activity_matrix(system)
    normalizer = real_embedding(psd_inv_sqrt(activity))
    omegas = np.linspace(-4.0, 4.0, 64)
    serial = [evaluate_point(system, activity, normalizer, w, DEFAULT_TOL) for w in omegas]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(evaluate_point, system, activity, normalizer, w,
                                   DEFAULT_TOL) for w in omegas]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for one, other in zip(serial, threaded):
        for name in ("lambda_max", "margin_min", "support_leak"):
            assert getattr(one, name) == getattr(other, name)
        for a, b in ((one.noise.complex_matrix, other.noise.complex_matrix),
                     (one.response.complex_matrix, other.response.complex_matrix),
                     (one.j_matrix, other.j_matrix)):
            assert np.array_equal(a, b)

import numpy as np
import pytest

from ioqfr import hilbert
from ioqfr.errors import DimMismatch


def test_pauli_algebra():
    sx, sy, sz = hilbert.pauli("x"), hilbert.pauli("y"), hilbert.pauli("z")
    np.testing.assert_allclose(sx @ sy - sy @ sx, 2j * sz)
    np.testing.assert_allclose(sx @ sx, np.eye(2))
    plus, minus = hilbert.pauli("plus"), hilbert.pauli("minus")
    np.testing.assert_allclose(plus, minus.conj().T)
    np.testing.assert_allclose(sx, plus + minus)
    with pytest.raises(ValueError):
        hilbert.pauli("w")


def test_lowering_convention():
    # minus maps the excited basis state (index 0) to the ground state
    minus = hilbert.pauli("minus")
    np.testing.assert_allclose(minus @ np.array([1.0, 0.0]), [0.0, 1.0])


def test_annihilation_ladder():
    a = hilbert.annihilation(5)
    for n in range(1, 5):
        e = np.zeros(5)
        e[n] = 1.0
        np.testing.assert_allclose(a @ e, np.sqrt(n) * np.eye(5)[:, n - 1])
    assert np.linalg.norm(a @ np.eye(5)[:, 0]) == 0.0


def test_truncated_commutator_corner():
    # [a, a^dag] = I everywhere except the last diagonal entry
    n_cut = 12
    a = hilbert.annihilation(n_cut)
    ad = hilbert.dagger(a)
    comm = a @ ad - ad @ a
    expected = np.eye(n_cut)
    expected[n_cut - 1, n_cut - 1] = -(n_cut - 1)
    np.testing.assert_allclose(comm, expected)


def test_transition():
    t = hilbert.transition(3, 0, 2)
    assert t[0, 2] == 1.0 and np.count_nonzero(t) == 1
    with pytest.raises(ValueError):
        hilbert.transition(3, 3, 0)


def test_quadrature_hermitian():
    rng = np.random.default_rng(0)
    coupling = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for theta in (0.0, 0.7, np.pi / 2):
        x = hilbert.quadrature(coupling, theta)
        np.testing.assert_allclose(x, x.conj().T, atol=1e-14)
    np.testing.assert_allclose(hilbert.quadrature(coupling, 0.0),
                               coupling + coupling.conj().T)


def test_shape_mismatch():
    with pytest.raises(DimMismatch):
        hilbert.quadrature(np.ones((2, 3)), 0.0)

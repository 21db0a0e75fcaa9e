import dataclasses

import numpy as np
import pytest

from ioqfr import numkit
from ioqfr.errors import NotPSD, SingularMatrix
from ioqfr.numkit import DEFAULT_TOL, ToleranceSet


def test_tolerance_set_replacing():
    tight = DEFAULT_TOL.replacing(solve_residual=1e-14)
    assert tight.solve_residual == 1e-14
    assert DEFAULT_TOL.solve_residual == 1e-10
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_TOL.solve_residual = 0.0
    with pytest.raises(TypeError):
        DEFAULT_TOL.replacing(not_a_field=1.0)


def test_lu_solve_random_systems():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 30))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x_true = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = numkit.LUFactor(a).solve(a @ x_true)
        np.testing.assert_allclose(x, x_true, rtol=1e-9, atol=1e-12)


def test_lu_solve_matrix_rhs():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    x = numkit.LUFactor(a).solve(b)
    np.testing.assert_allclose(a @ x, b, atol=1e-12)


def test_singular_matrix_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SingularMatrix):
        numkit.LUFactor(a)


def test_condition_gate():
    # condition number ~1e16 trips the rcond gate even though LU succeeds
    a = np.diag([1.0, 1e-16]).astype(complex)
    with pytest.raises(SingularMatrix):
        numkit.LUFactor(a)
    loose = DEFAULT_TOL.replacing(cond_max=1e18)
    x = numkit.LUFactor(a, loose).solve(np.array([1.0, 1e-16], dtype=complex))
    np.testing.assert_allclose(x, [1.0, 1.0])


def test_eig_ordering():
    a = np.diag([1.0 + 2.0j, 1.0 - 2.0j, 3.0, -1.0])
    res = numkit.eig(a)
    np.testing.assert_allclose(res.values, [3.0, 1.0 + 2.0j, 1.0 - 2.0j, -1.0])
    np.testing.assert_allclose(np.abs(res.vectors[[2, 0, 1, 3], :]), np.eye(4))


def test_eig_reconstructs():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    res = numkit.eig(a)
    np.testing.assert_allclose(a @ res.vectors, res.vectors * res.values,
                               atol=1e-10)


def test_pinv_penrose():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((6, 3))
    s = g @ g.T  # rank 3 PSD
    x = numkit.pinv(s, 1e-12)
    scale = np.linalg.norm(s)
    assert np.linalg.norm(s @ x @ s - s) <= 1e-10 * scale
    assert np.linalg.norm(x @ s @ x - x) <= 1e-10 * np.linalg.norm(x)
    np.testing.assert_allclose(s @ x, (s @ x).T, atol=1e-10)
    np.testing.assert_allclose(x @ s, (x @ s).T, atol=1e-10)


def test_hermitize():
    a = np.array([[1.0, 2.0 + 1j], [2.0 - 0.5j, 3.0]])
    h = numkit.hermitize(a)
    np.testing.assert_allclose(h, h.conj().T)
    np.testing.assert_allclose(h[0, 1], 2.0 + 0.75j)


def test_psd_inv_sqrt_full_rank():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((5, 5))
    s = g @ g.T + 5.0 * np.eye(5)
    n = numkit.psd_inv_sqrt(s)
    np.testing.assert_allclose(n @ s @ n, np.eye(5), atol=1e-12)


def test_psd_inv_sqrt_support_projection():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((6, 2))
    s = g @ g.T  # rank 2
    n = numkit.psd_inv_sqrt(s)
    p = n @ s @ n  # orthogonal projector onto the support
    np.testing.assert_allclose(p @ p, p, atol=1e-10)
    assert abs(np.trace(p) - 2.0) <= 1e-10


def test_psd_inv_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        numkit.psd_inv_sqrt(np.diag([1.0, -1.0]))


def test_psd_inv_sqrt_zero_matrix():
    n = numkit.psd_inv_sqrt(np.zeros((3, 3)))
    np.testing.assert_allclose(n, 0.0)

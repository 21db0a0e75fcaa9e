import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

from ioqfr import numkit
from ioqfr.errors import NotPSD, NumericalError, SingularMatrix
from ioqfr.lindblad import prepare
from ioqfr.models import KerrCatParams, kerr_cat_model
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


def test_psd_inv_sqrt_asymmetry_is_relative():
    # an asymmetry of 1e-6 of the norm is not rounding, whatever the units
    a = 1e-9 * np.array([[1.0, 1e-6], [0.0, 1.0]])
    with pytest.raises(NotPSD):
        numkit.psd_inv_sqrt(a)
    with pytest.raises(NotPSD):
        numkit.psd_inv_sqrt(1e-9 * np.eye(2) + 1e-15j * np.eye(2))


def test_psd_inv_sqrt_asymmetry_threshold_is_herm():
    a = 3.0 * np.eye(2)
    a[0, 1] += 1e-9 * np.linalg.norm(a)
    with pytest.raises(NotPSD):
        numkit.psd_inv_sqrt(a)
    n = numkit.psd_inv_sqrt(a, herm=1e-6)
    np.testing.assert_allclose(n, np.eye(2) / np.sqrt(3.0), atol=1e-8)


def test_psd_inv_sqrt_zero_matrix():
    n = numkit.psd_inv_sqrt(np.zeros((3, 3)))
    np.testing.assert_allclose(n, 0.0)


def test_schur_factor_matches_rsf2csf():
    # a real matrix with complex pairs and real eigenvalues
    rng = np.random.default_rng(6)
    a = rng.standard_normal((12, 12))
    factor = numkit.SchurFactor(a)
    eye = np.eye(12)
    z = factor.from_schur(eye)
    np.testing.assert_allclose(factor.to_schur(eye), z.conj().T, atol=1e-14)
    np.testing.assert_allclose(z.conj().T @ z, eye, atol=1e-13)
    t = factor.to_schur(a @ z)
    np.testing.assert_allclose(np.tril(t, -1), 0.0, atol=1e-12)
    np.testing.assert_allclose(np.diagonal(t), factor.eigenvalues, atol=1e-12)
    reference, _ = scipy.linalg.rsf2csf(*scipy.linalg.schur(a, output="real"))
    gaps = np.abs(factor.eigenvalues[:, None] - np.diagonal(reference)[None, :])
    assert gaps.min(axis=0).max() <= 1e-12 and gaps.min(axis=1).max() <= 1e-12


def test_schur_factor_shifted_solve():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((9, 9))
    b = rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))
    factor = numkit.SchurFactor(a)
    for shift in (0.0, 0.4 - 2.0j, 30.0j):
        want = np.linalg.solve(shift * np.eye(9) - a, b)
        np.testing.assert_allclose(factor.solve(shift, b), want, rtol=1e-10, atol=1e-12)


def test_schur_factor_gates():
    a = np.diag([-1.0, 0.0, -2.0])
    with pytest.raises(SingularMatrix, match="condition number"):
        numkit.SchurFactor(a).solve(0.0, np.ones((3, 1)))
    with pytest.raises(NumericalError, match="backward error"):
        numkit.SchurFactor(np.random.default_rng(8).standard_normal((6, 6)),
                           DEFAULT_TOL.replacing(solve_residual=1e-30))
    with pytest.raises(NumericalError, match="real"):
        numkit.SchurFactor(np.eye(2, dtype=complex))


def test_schur_factor_solves_after_a_gate_raise():
    # the gate raises with shift - T_kk already written into the stored
    # diagonal; the strict upper triangle is untouched, and the next solve
    # writes its own diagonal
    rng = np.random.default_rng(11)
    core = np.triu(rng.standard_normal((8, 8)), 1) + np.diag(-1.0 - rng.random(8))
    core[:2, :2] = [[-1e-9, 1.0], [-1.0, -1e-9]]
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    a = q @ core @ q.T
    b = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    factor = numkit.SchurFactor(a, DEFAULT_TOL.replacing(cond_max=1e6))
    strict = np.triu(factor._shifted(0.0)[0], 1).copy()
    with pytest.raises(SingularMatrix, match="condition number"):
        factor.solve(1.0j, b)
    np.testing.assert_array_equal(np.triu(factor._shifted(0.0)[0], 1), strict)
    shift = 0.5 + 3.0j
    want = np.linalg.solve(shift * np.eye(8) - a, b)
    np.testing.assert_allclose(factor.solve(shift, b), want, rtol=1e-10)


def test_schur_solve_allocates_no_triangle():
    # a solve reads the stored triangle in place: it allocates no order x
    # order array, neither a shifted copy nor the copy f2py makes of a
    # triangle that is not in Fortran order
    n = 300
    rng = np.random.default_rng(12)
    factor = numkit.SchurFactor(rng.standard_normal((n, n)))
    rhs = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    factor.solve_triangular(40.0j, rhs)
    tracemalloc.start()
    try:
        factor.solve_triangular(40.0j, rhs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * np.dtype(complex).itemsize / 4


def _assert_is_ztrcon_estimate(tri, anorm):
    # the estimate is LAPACK's, and its est = 1 / (anorm rcond) is Hager's
    # lower bound on ||tri^-1||_1
    got = numkit._tri_rcond(tri, anorm)
    want, info = lapack.ztrcon(tri, norm="1")
    assert info == 0
    assert abs(got - want) <= 1e-12 * want
    assert 1.0 / (anorm * got) <= np.linalg.norm(np.linalg.inv(tri), 1) * (1.0 + 1e-12)


def test_tri_rcond_is_ztrcon_on_kerr_cat():
    factor = prepare(kerr_cat_model(KerrCatParams(n_cut=12))).steady.factor
    for omega in (0.0, 1e-6, 0.83, -0.83, 100.0):
        shifted, _, anorm = factor._shifted(-1j * omega)
        assert abs(anorm - np.linalg.norm(shifted, 1)) <= 1e-14 * anorm
        _assert_is_ztrcon_estimate(shifted, anorm)


def _kahan(rng, n):
    # Kahan's triangle with random phases; for some draws (n = 3 and 34 of
    # seed 1) zlacn2 takes more than one unit-vector iteration
    c = rng.uniform(0.1, 0.6)
    s = np.sqrt(1.0 - c * c)
    k = np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
    return k * np.exp(2j * np.pi * rng.random((n, n)))


def test_tri_rcond_is_ztrcon_on_random_triangles():
    rng, kahan_rng = np.random.default_rng(9), np.random.default_rng(1)
    for n in range(1, 41):
        for spread in (0.0, 3.0):
            tri = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            tri[np.diag_indices(n)] *= 10.0 ** rng.uniform(-spread, 0.0, n)
            tri = np.asfortranarray(tri)
            _assert_is_ztrcon_estimate(tri, np.linalg.norm(tri, 1))
        tri = np.asfortranarray(_kahan(kahan_rng, n))
        _assert_is_ztrcon_estimate(tri, np.linalg.norm(tri, 1))


def test_tri_rcond_edge_cases():
    # order 1: est = |1/t| after the first solve, as zlacn2 stops there
    t = np.array([[3.0 - 4.0j]], order="F")
    assert numkit._tri_rcond(t, 5.0) == pytest.approx(1.0, rel=1e-15)
    assert numkit._tri_rcond(t, 5.0) == pytest.approx(lapack.ztrcon(t, norm="1")[0],
                                                      rel=1e-15)
    # an exact zero on the diagonal is singular, as in ztrcon
    tri = np.asfortranarray(np.array([[1.0, 2.0], [0.0, 0.0]], dtype=complex))
    assert numkit._tri_rcond(tri, 2.0) == 0.0 == lapack.ztrcon(tri, norm="1")[0]
    # a solve that overflows raises, with no numpy warning on the way
    tri = np.asfortranarray(np.array([[1e-200, 1e200], [0.0, 1e-200]], dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrix, match="overflow"):
            numkit._tri_rcond(tri, 1e200)

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

from ioqfr import numkit
from ioqfr.errors import NotPSD, NumericalError, SingularMatrix
from ioqfr.lindblad import _coherence_generator, liouvillian, prepare
from ioqfr.models import KerrCatParams, kerr_cat_model
from ioqfr.numkit import DEFAULT_TOL


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


def test_lu_keeps_real_input_real():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 8))
    factor = numkit.LUFactor(a)
    assert factor._lu.dtype == np.float64
    x = factor.solve(a @ np.arange(8.0))
    assert x.dtype == np.float64
    np.testing.assert_allclose(x, np.arange(8.0), atol=1e-12)
    z = factor.solve(a @ (1j * np.arange(8.0)))  # a complex right-hand side stays complex
    np.testing.assert_allclose(z, 1j * np.arange(8.0), atol=1e-12)


def test_lu_factor_memory_on_real_input():
    # a real matrix takes one real copy for its LU; a complex copy and a
    # complex LU of it would take 4 x 8 n^2 bytes
    n = 300
    a = np.random.default_rng(4).standard_normal((n, n)) + n * np.eye(n)
    tracemalloc.start()
    try:
        factor = numkit.LUFactor(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert factor.rcond > 0.0
    assert peak < 3 * 8 * n * n


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
    # the stored array is -T above the diagonal and -|T|^T below it
    stored = factor._triangle
    np.testing.assert_array_equal(np.tril(stored, -1), -np.abs(np.triu(stored, 1)).T)
    # T and Z are rsf2csf's, bit for bit, on random matrices, on one with
    # real eigenvalues only (no 2 x 2 block), on 2 x 2 rotations (only
    # blocks) and on kerr_cat's traceless generator block
    symmetric = rng.standard_normal((9, 9))
    rotations = scipy.linalg.block_diag(*(
        radius * np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        for radius, phi in zip(rng.uniform(0.5, 2.0, 5), rng.uniform(0.1, 3.0, 5))))
    kerr_cat = _coherence_generator(liouvillian(kerr_cat_model(KerrCatParams(n_cut=4))),
                                    DEFAULT_TOL)[1:, 1:]
    cases = [rng.standard_normal((n, n)) for n in range(1, 41)]
    cases += [symmetric + symmetric.T, rotations, kerr_cat]
    blocks = []
    for a in cases:
        r, q = scipy.linalg.schur(a, output="real")
        blocks.append(np.count_nonzero(np.diagonal(r, -1)))
        t_ref, z_ref = scipy.linalg.rsf2csf(r, q)
        t, z = numkit._complex_schur(r, q)
        assert np.array_equal(t, t_ref) and np.array_equal(z, z_ref)
        factor = numkit.SchurFactor(a)
        assert np.array_equal(np.triu(factor._triangle), -np.triu(t_ref))
        assert np.array_equal(factor._z, z_ref)
        assert np.array_equal(factor.eigenvalues, np.diagonal(t_ref))
    assert blocks[-3:-1] == [0, 5] and blocks[-1] > 0


def test_complex_schur_needs_a_real_schur_form():
    r = np.triu(np.ones((4, 4)))
    r[1, 0] = r[2, 1] = 0.5
    with pytest.raises(NumericalError, match="not a real Schur form"):
        numkit._complex_schur(r, np.eye(4))


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


def test_schur_solve_rejects_a_nan_source():
    # a NaN residual fails the backward-error test instead of passing it
    factor = numkit.SchurFactor(np.array([[-1.0, 0.3], [0.0, -2.0]]))
    with pytest.raises(NumericalError, match="solve residual nan"):
        factor.solve(0.5j, np.array([[np.nan], [1.0]]))


def test_schur_factor_rejects_order_zero(capfd):
    # rejected at construction, before any LAPACK call can print to stderr
    with pytest.raises(NumericalError, match="order at least 1"):
        numkit.SchurFactor(np.zeros((0, 0)))
    assert capfd.readouterr().err == ""


def _near_singular_at_1j(rng):
    # a real matrix of order 8 with the eigenvalue pair -1e-9 +- 1j
    core = np.triu(rng.standard_normal((8, 8)), 1) + np.diag(-1.0 - rng.random(8))
    core[:2, :2] = [[-1e-9, 1.0], [-1.0, -1e-9]]
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    return q @ core @ q.T


def test_schur_factor_solves_after_a_gate_raise():
    # the gate raises with shift - T_kk already written into the stored
    # diagonal; the strict upper and lower halves are untouched, and the
    # next solve writes its own diagonal
    rng = np.random.default_rng(11)
    a = _near_singular_at_1j(rng)
    b = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    factor = numkit.SchurFactor(a, DEFAULT_TOL.replacing(cond_max=1e6))
    strict = np.triu(factor._shifted(0.0)[0], 1).copy()
    lower = np.tril(factor._shifted(0.0)[0], -1).copy()
    with pytest.raises(SingularMatrix, match="condition number"):
        factor.solve(1.0j, b)
    np.testing.assert_array_equal(np.triu(factor._shifted(0.0)[0], 1), strict)
    np.testing.assert_array_equal(np.tril(factor._shifted(0.0)[0], -1), lower)
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


_KERR_CAT_OMEGAS = (0.0, 1e-6, 0.83, -0.83, 100.0)


def _counting(monkeypatch, module, name):
    # replace module.<name> by a wrapper that records every call
    calls, original = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls, original


def test_schur_solve_skips_the_estimate_on_kerr_cat(monkeypatch):
    # at DEFAULT_TOL the set-up bound alone passes every shift on the
    # imaginary axis: neither the per-shift bound nor the estimate runs
    factor = prepare(kerr_cat_model(KerrCatParams(n_cut=12))).steady.factor
    bounds, _ = _counting(monkeypatch, numkit, "_tri_inverse_bound")
    estimates, _ = _counting(monkeypatch, lapack, "ztrcon")
    rhs = np.ones((len(factor.eigenvalues), 2), dtype=complex)
    for omega in _KERR_CAT_OMEGAS:
        factor.solve_triangular(-1j * omega, rhs)
    assert bounds == [] and estimates == []
    # a shift off the axis at half the real part of the most damped
    # eigenvalue breaks the premise |shift - T_kk| >= |Re T_kk|, so the
    # per-shift bound decides it
    k = np.argmax(np.abs(factor.eigenvalues.real))
    shift = factor.eigenvalues[k] - 0.5 * factor.eigenvalues[k].real
    factor.solve_triangular(shift, rhs)
    assert len(bounds) == 1 and estimates == []


def test_schur_gate_falls_back_to_the_estimate(monkeypatch):
    # with cond_max = 1e6 the shifts closest to 1j reach the bound; the
    # estimate then decides, and a raise carries the message the estimate's
    # gate alone gives at that shift. Re T_kk = -1e-9 puts the set-up bound
    # above cond_max, so the per-shift bound runs at every shift
    rng = np.random.default_rng(11)
    a = _near_singular_at_1j(rng)
    b = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    tol = DEFAULT_TOL.replacing(cond_max=1e6)
    factor = numkit.SchurFactor(a, tol)
    assert not factor._floor_bound < tol.cond_max
    bounds, tri_inverse_bound = _counting(monkeypatch, numkit, "_tri_inverse_bound")
    calls, ztrcon = _counting(monkeypatch, lapack, "ztrcon")
    offsets = np.logspace(-9.0, 0.0, 10)
    outcomes = set()
    for shift in 1j * (1.0 + np.concatenate([-offsets, offsets])):
        shifted, _, moduli, anorm = factor._shifted(shift)
        fallback = not anorm * tri_inverse_bound(shifted, moduli) < tol.cond_max
        try:
            numkit._check_rcond(ztrcon(shifted, norm="1")[0], tol)
            want = None
        except SingularMatrix as err:
            want = str(err)
        before, bounds_before = len(calls), len(bounds)
        if want is None:
            np.testing.assert_allclose(factor.solve(shift, b),
                                       np.linalg.solve(shift * np.eye(8) - a, b),
                                       rtol=1e-6)
        else:
            with pytest.raises(SingularMatrix) as raised:
                factor.solve(shift, b)
            assert str(raised.value) == want
        assert len(calls) - before == int(fallback)
        assert len(bounds) - bounds_before == 1
        outcomes.add((fallback, want is None))
    assert outcomes == {(False, True), (True, True), (True, False)}


def _with_comparison_half(upper):
    # the layout SchurFactor stores: an upper triangle, and below its
    # diagonal the negated moduli of the entries above, transposed
    upper = np.triu(upper)
    return np.asfortranarray(upper - np.abs(np.triu(upper, 1)).T)


def _inverse_norm_bounds(tri):
    # the exact ||U^-1||_1 and Hager's lower estimate of it, for the upper
    # triangle U of tri
    rcond, info = lapack.ztrcon(tri, norm="1")
    assert info == 0
    return (np.linalg.norm(np.linalg.inv(np.triu(tri)), 1),
            1.0 / (np.linalg.norm(np.triu(tri), 1) * rcond))


def test_tri_inverse_bound_is_above_the_norm():
    rng, kahan_rng = np.random.default_rng(9), np.random.default_rng(1)
    shift_rng = np.random.default_rng(2)
    for n in range(1, 41):
        uppers = []
        for spread in (0.0, 3.0):
            upper = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            upper[np.diag_indices(n)] *= 10.0 ** rng.uniform(-spread, 0.0, n)
            uppers.append(upper)
        kahan = _kahan(kahan_rng, n)
        # Kahan's comparison matrix itself: |U^-1| = M(U)^-1, so the bound
        # is the norm up to rounding
        comparison = -np.abs(kahan)
        comparison[np.diag_indices(n)] *= -1.0
        rounding = 8.0 * (n + 1) ** 2 * np.finfo(float).eps
        for upper in uppers + [kahan, comparison]:
            tri = _with_comparison_half(upper)
            stored = tri.copy()
            bound = numkit._tri_inverse_bound(tri, np.abs(np.diagonal(tri)))
            np.testing.assert_array_equal(tri, stored)
            assert bound >= max(_inverse_norm_bounds(tri))
            # the set-up bound of SchurFactor, with T = -upper: |Re T_kk| on
            # the diagonal bounds every shift with |s - T_kk| >= |Re T_kk|,
            # on the imaginary axis (through an eigenvalue's imaginary part)
            # and off it, where the real part outweighs every |Re T_kk|
            t_kk = -np.diagonal(upper)
            floor = np.abs(t_kk.real)
            floor_bound = numkit._tri_inverse_bound(tri, floor)
            np.testing.assert_array_equal(tri, stored)
            shifts = 1j * np.array([0.0, t_kk[0].imag, shift_rng.standard_normal()])
            shifts = np.concatenate([shifts, 2.0 * floor.max() * (1.0 + shift_rng.random(2))
                                     + 1j * shift_rng.standard_normal(2)])
            for shift in shifts:
                assert np.all(np.abs(shift - t_kk) >= floor)
                shifted = _with_comparison_half(upper + shift * np.eye(n))
                assert floor_bound >= max(_inverse_norm_bounds(shifted))
                per_shift = numkit._tri_inverse_bound(shifted, np.abs(np.diagonal(shifted)))
                assert floor_bound >= per_shift * (1.0 - rounding)


def test_tri_inverse_bound_edge_cases():
    # empty, singular and overflowing triangles give no finite bound, so
    # the gate falls back to the estimate
    def bound(tri):
        return numkit._tri_inverse_bound(tri, np.abs(np.diagonal(tri)))

    assert bound(np.zeros((0, 0), dtype=complex, order="F")) == np.inf
    singular = _with_comparison_half(np.array([[1.0, 2.0], [0.0, 0.0]], dtype=complex))
    assert bound(singular) == np.inf
    huge = _with_comparison_half(np.array([[1e-200, 1e200], [0.0, 1e-200]], dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not bound(huge) < np.inf


def _kahan(rng, n):
    # Kahan's triangle, whose condition number grows exponentially with n,
    # with random phases on its entries
    c = rng.uniform(0.1, 0.6)
    s = np.sqrt(1.0 - c * c)
    k = np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
    return k * np.exp(2j * np.pi * rng.random((n, n)))

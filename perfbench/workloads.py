"""Benchmark workloads: seeded inputs, the timed operations, and their oracles.

One worker process runs one *certificate*: a fixed, seeded amount of work
that ends in checked results. The package is called only through its public
API, in the order ``ioqfr sweep`` and ``ioqfr bound-report`` use it: the
``models`` builders, ``lindblad.prepare``, ``bounds.activity_matrix`` and
``numkit.psd_inv_sqrt``, then ``bounds.evaluate_point`` per point or
``bounds.certify_bound`` per model. Names are looked up on the modules at
call time, so a traced worker sees the tracing wrappers. See README.md for
why each workload exists and which layers it loads.

Import this module only after ``ioqfr``: it imports numpy.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ioqfr import bounds, lindblad, models, numkit

TOL = numkit.DEFAULT_TOL
ORACLE_REL = 1e-8   # agreement demanded of dense solves and closed forms


@dataclass
class Certificate:
    """Set-up work is done when this is built; the ops are the timed work.
    ``check(i, result)`` returns "" when op ``i`` produced a correct result,
    and otherwise says what is wrong."""

    d2: list[int]   # distinct Liouvillian orders n = d^2 among the inputs
    ops: list[Callable[[], object]]
    check: Callable[[int, object], str]


def run_ops(cert: Certificate) -> tuple[list, list[float], float]:
    """Run every op back to back: a closed loop with one caller. Returns the
    results (an exception for an op that raised), op latencies and the
    duration of the whole timed phase."""
    results, latencies = [], []
    start = time.perf_counter()
    for op in cert.ops:
        t = time.perf_counter()
        try:
            result = op()
        except Exception as err:  # a raising op is a failed op; the run goes on
            result = err
        latencies.append(time.perf_counter() - t)
        results.append(result)
    return results, latencies, time.perf_counter() - start


def check_results(cert: Certificate, results: list) -> list[str]:
    """One message per failed op: it raised, or its result failed an oracle."""
    failures = []
    for i, result in enumerate(results):
        if isinstance(result, Exception):
            failures.append(f"op {i} raised {type(result).__name__}: {result}")
            continue
        try:
            problem = cert.check(i, result)
        except Exception as err:  # an oracle that cannot run fails the op too
            problem = f"oracle raised {type(err).__name__}: {err}"
        if problem:
            failures.append(f"op {i}: {problem}")
    return failures


# ---------------------------------------------------------------------------
# oracles

def bound_failure(passed: bool, lambda_max: float) -> str:
    """For purely dissipative signals J <= A (x) I_2 is a theorem, so every
    certified point passes with lambda_max <= 1 + bound_margin."""
    if not passed:
        return "certificate did not pass"
    if not lambda_max <= 1.0 + TOL.bound_margin:
        return f"lambda_max {lambda_max!r} exceeds 1 + {TOL.bound_margin:g}"
    return ""


def relative_mismatch(got: np.ndarray, want: np.ndarray) -> float:
    want = np.asarray(want)
    return float(np.linalg.norm(np.asarray(got) - want)
                 / max(np.linalg.norm(want), np.finfo(float).tiny))


def _vec(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=complex).reshape(-1, order="F")


def dense_stationary(generator: np.ndarray) -> np.ndarray:
    """Stationary state from one numpy solve with the trace row in place of
    row 0 (rows of a trace-preserving generator are linearly dependent)."""
    d = math.isqrt(generator.shape[0])
    m = np.array(generator, dtype=complex)
    m[0, :] = _vec(np.eye(d))
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    rho = np.linalg.solve(m, rhs).reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def dense_values(model, generator: np.ndarray, rho: np.ndarray,
                 omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum matrix S and response R at ``omega`` (nonzero) from dense
    ``numpy.linalg.solve`` of (-i omega - L), written from the definitions
    and sharing no code with the package's resolvent path."""
    d = model.dim
    n = d * d
    xs, sources = [], []
    for mu, theta in model.monitored:
        c = model.channels[mu]
        phase = np.exp(-1j * theta)
        xs.append(phase * c + np.conj(phase) * c.conj().T)
        inserted = phase * (c @ rho) + np.conj(phase) * (rho @ c.conj().T)
        sources.append(inserted - rho * np.trace(inserted))
    perturbed = []
    for q in range(model.n_params):
        v = np.zeros((d, d), dtype=complex)
        for mu, c in enumerate(model.channels):
            m = model.tangent_operator(mu, q)
            if m is not None:
                cross = m.conj().T @ c + c.conj().T @ m
                v += (m @ rho @ c.conj().T + c @ rho @ m.conj().T
                      - 0.5 * (cross @ rho + rho @ cross))
        perturbed.append(v)
    k = len(sources)
    rhs = np.stack([_vec(s) for s in sources + perturbed], axis=1)
    eye = np.eye(n)
    fwd = np.linalg.solve(-1j * omega * eye - generator, rhs)
    bwd = np.linalg.solve(1j * omega * eye - generator, rhs[:, :k])

    def trace_with(x: np.ndarray, column: np.ndarray) -> complex:
        return np.sum(x.T * column.reshape((d, d), order="F"))

    s = np.array([[(a == b) + trace_with(xs[a], fwd[:, b]) + trace_with(xs[b], bwd[:, a])
                   for b in range(k)] for a in range(k)])
    r = np.empty((k, model.n_params), dtype=complex)
    for a, (mu, theta) in enumerate(model.monitored):
        phase = np.exp(-1j * theta)
        for q in range(model.n_params):
            m = model.tangent_operator(mu, q)
            direct = 0.0 if m is None else np.trace(
                (phase * m + np.conj(phase) * m.conj().T) @ rho).real
            r[a, q] = trace_with(xs[a], fwd[:, k + q]) + direct
    return s, r


# ---------------------------------------------------------------------------
# frequency sweeps of one kerr_cat model

# A certificate is one sweep of SWEEP_FREQUENCIES seeded frequencies, the
# size of the sweeps the d^2=144 seed figures come from (303 points at three
# phases). That is half the CLI's default 201-point grid, so that a d^2=900
# certificate (about 21 s) fits twice in one timed run. The size sets how
# one-time set-up weighs against per-point work; README.md gives the profile.
SWEEP_FREQUENCIES = 101

SWEEPS = {
    # n_cut, monitored phases, frequencies per certificate, dense-checked points
    "sweep_d144_phases": (12, (0.0, np.pi / 4, np.pi / 2), SWEEP_FREQUENCIES, 6),
    "sweep_d900": (30, (0.0,), SWEEP_FREQUENCIES, 2),
}


def build_sweep(spec: tuple, rng: np.random.Generator) -> Certificate:
    """kerr_cat at ``n_cut`` monitored at each phase, sharing one prepared
    System through ``with_monitored``; one op per (frequency, phase)."""
    n_cut, thetas, n_freq, n_checked = spec
    omegas = rng.uniform(-5.0, 5.0, n_freq)
    points = [(w, k) for w in omegas for k in range(len(thetas))]
    checked = {int(i) for i in rng.choice(len(points), n_checked, replace=False)}

    model = models.kerr_cat_model(models.KerrCatParams(n_cut=n_cut), theta=thetas[0])
    base = lindblad.prepare(model, TOL)
    systems = [base] + [base.with_monitored([(0, th)]) for th in thetas[1:]]
    activity = bounds.activity_matrix(base, TOL)
    normalizer = numkit.psd_inv_sqrt(np.kron(activity, np.eye(2)), TOL.pinv_rel)

    def op(w: float, k: int) -> Callable[[], object]:
        return lambda: bounds.evaluate_point(systems[k], activity, normalizer, w, TOL)

    dense: dict = {}

    def check(i: int, point) -> str:
        problem = bound_failure(point.passed, point.lambda_max)
        if problem or i not in checked:
            return problem
        if not dense:
            dense["L"] = lindblad.liouvillian(model)
            dense["rho"] = dense_stationary(dense["L"])
        w, k = points[i]
        s, r = dense_values(systems[k].model, dense["L"], dense["rho"], w)
        for label, got, want in (("S", point.noise.complex_matrix, s),
                                 ("R", point.response.complex_matrix, r)):
            err = relative_mismatch(got, want)
            if not err <= ORACLE_REL:
                return f"{label} differs from the dense solve by {err:.2e} relative"
        return ""

    return Certificate(d2=[n_cut * n_cut], ops=[op(w, k) for w, k in points], check=check)


# ---------------------------------------------------------------------------
# many small independent models

QUANTUM_DIMS = range(4, 13)
CLASSICAL_DIMS = range(3, 9)
N_RF = 6
# The mix of 30 models above, this many times over: 150 models, the size of
# the scan the seed figures come from.
SCAN_REPEATS = 5


def _omegas(rng: np.random.Generator) -> list[float]:
    """Zero frequency plus one seeded frequency 0.2 <= |w| <= 5."""
    return [0.0, float(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 5.0))]


def _complex_normal(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def quantum_op(rng: np.random.Generator, d: int, mode: str, n_ch: int,
               n_par: int, n_mon: int):
    """Random dense Hamiltonian and ``n_ch`` jump operators; kinetic signals,
    or a tangent grid M_mu = sum_nu u[mu, nu] L_nu with u real symmetric
    (purely dissipative by construction); ``n_mon`` currents on distinct,
    randomly chosen channels at random phases."""
    g = _complex_normal(rng, d)
    h = (g + g.conj().T) / (2.0 * math.sqrt(d))
    channels = tuple(_complex_normal(rng, d) / math.sqrt(2.0 * d) for _ in range(n_ch))
    if mode == "kinetic":
        coefficients = rng.standard_normal((n_ch, n_par))
    else:
        us = [rng.standard_normal((n_ch, n_ch)) for _ in range(n_par)]
        us = [0.5 * (u + u.T) for u in us]
        grid = [[sum(u[mu, nu] * channels[nu] for nu in range(n_ch)) for u in us]
                for mu in range(n_ch)]
    monitored = tuple((int(mu), float(rng.uniform(0.0, 2.0 * np.pi)))
                      for mu in rng.choice(n_ch, n_mon, replace=False))
    omegas = _omegas(rng)

    def op():
        signal = (lindblad.kinetic_signal(coefficients) if mode == "kinetic"
                  else lindblad.tangent_signal(grid))
        model = lindblad.LindbladModel(hamiltonian=h, channels=channels,
                                       monitored=monitored, signal=signal)
        return bounds.certify_bound(lindblad.prepare(model, TOL), omegas, TOL)

    def check(report) -> str:
        for passed, lam in zip(report.passed, report.lambda_max):
            problem = bound_failure(bool(passed), float(lam))
            if problem:
                return problem
        return ""

    return d * d, op, check


def rf_op(rng: np.random.Generator):
    """Driven emitter monitored at pi/2; lambda_max has the closed form
    |R_y|^2 / (S_y A)."""
    params = models.RfParams(kappa=float(rng.uniform(0.5, 2.0)),
                             rabi=float(rng.uniform(0.3, 3.0)))
    omegas = _omegas(rng)

    def op():
        model = models.rf_model(params, theta=np.pi / 2)
        return bounds.certify_bound(lindblad.prepare(model, TOL), omegas, TOL)

    def check(report) -> str:
        for w, passed, lam in zip(omegas, report.passed, report.lambda_max):
            problem = bound_failure(bool(passed), float(lam))
            if problem:
                return problem
            forms = models.rf_closed_forms(params, w)
            want = abs(forms.response_y) ** 2 / (forms.spectrum_y * forms.activity)
            err = abs(float(lam) - want) / want
            if not err <= ORACLE_REL:
                return f"rf lambda_max differs from the closed form by {err:.2e} at w={w}"
        return ""

    return 4, op, check


def classical_op(rng: np.random.Generator, d: int):
    """Random strongly connected jump process: a directed ring plus random
    extra edges, rates in [0.2, 2], one or two weighted signals."""
    rates = np.where(rng.random((d, d)) < 0.4, rng.uniform(0.2, 2.0, (d, d)), 0.0)
    ring = np.arange(d)
    rates[(ring + 1) % d, ring] = rng.uniform(0.2, 2.0, d)
    np.fill_diagonal(rates, 0.0)
    weights = rng.uniform(-1.5, 1.5, (int(rng.integers(1, 3)), d, d))

    def op():
        return bounds.classical_reduction_check(rates, weights, TOL)

    def check(report) -> str:
        return "" if report.passed else (
            f"classical reduction failed: steady {report.steady_error:.2e}, "
            f"activity {report.activity_error:.2e}")

    return d * d, op, check


def build_scan(rng: np.random.Generator) -> Certificate:
    """Every certificate holds the same mix of kinds and shapes, in seeded
    order with seeded entries, SCAN_REPEATS times over: each quantum d once
    per signal mode, with 2-4 channels, 1-2 signals and 1-2 currents cycling
    over d; each classical d once; six rf models. Op costs span 100x, so
    drawing the shapes at random too would make every op percentile depend
    on the draw."""
    kinds = SCAN_REPEATS * (
        [("quantum", d, mode, 2 + (d + k) % 3, 1 + (d + k) % 2, 1 + (d + k + 1) % 2)
         for d in QUANTUM_DIMS for k, mode in enumerate(("kinetic", "tangent"))]
        + [("rf",)] * N_RF + [("classical", d) for d in CLASSICAL_DIMS])
    built = []
    for i in rng.permutation(len(kinds)):
        kind = kinds[i]
        if kind[0] == "quantum":
            built.append(quantum_op(rng, *kind[1:]))
        elif kind[0] == "rf":
            built.append(rf_op(rng))
        else:
            built.append(classical_op(rng, kind[1]))
    checks = [c for _, _, c in built]
    return Certificate(d2=sorted({d2 for d2, _, _ in built}), ops=[op for _, op, _ in built],
                       check=lambda i, result: checks[i](result))


def build(name: str, seed: int, worker: int) -> Certificate:
    """Inputs depend only on (seed, worker): workers of a run with
    different indices get fresh frequencies or models, and the same seed
    repeats them."""
    rng = np.random.default_rng([seed, worker])
    if name in SWEEPS:
        return build_sweep(SWEEPS[name], rng)
    if name == "scan_models":
        return build_scan(rng)
    raise ValueError(f"unknown workload {name!r}")

"""Release gate: each criterion runs as one test and prints one verdict line.

The criteria (tolerances frozen in ioqfr.verify):

  cavity_saturation      pipeline lambda_max = cos^2(theta - theta*) to 1e-10
                         on the truncated cavity, at the optimal phase
                         (J = A) and a random one, 10 seeded cavities x 5
                         frequencies
  rf_closed_forms        response and both quadrature spectra match the
                         closed forms to 1e-8 relative, 3 drives x 201 points
  rf_positivity          closed-form margin identity nonnegative to 1e-10,
                         spot value 26/81 at omega = 0
  rf_phase_bound         S_theta A - |R_theta|^2 >= -1e-10 at pi/4 and pi/2
  kerr_cat_certificate   matrix and scalar bound certified over [-5, 5],
                         lambda_max < 1, margins >= -1e-8
  kerr_cat_truncation    photon number stable to 1e-6 relative from
                         n_cut 12 -> 16
  classical_reduction    stationary law to 1e-10 and activity to 1e-12
                         against direct classical solves, 20 seeded instances
  lockin_normalization   time-domain lock-in extraction matches the real
                         response columns to 1e-3 relative at 5 frequencies
  rayleigh_identity      quadratic form equals the Rayleigh maximum to 1e-9
                         on 100 seeded rank-deficient instances
  structural_invariants  trace/hermiticity preservation, spectral
                         contraction, noise PSD, Penrose identities on all
                         built-in models
"""
import pytest

from ioqfr.verify import SUITES, run_suites


@pytest.mark.parametrize("name", list(SUITES))
def test_acceptance_criterion(name):
    result = run_suites([name])[0]
    within = result.duration <= result.limit
    verdict = "PASS" if (result.passed and within) else "FAIL"
    print(f"ACCEPTANCE {verdict} {name} "
          f"({result.duration:.2f}s, limit {result.limit:g}s): {result.detail}")
    assert result.passed, f"{name}: {result.detail}"
    assert within, (f"{name} took {result.duration:.2f}s, "
                    f"over the {result.limit:g}s budget")

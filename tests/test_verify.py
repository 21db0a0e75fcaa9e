import numpy as np

from ioqfr.lindblad import unvec
from ioqfr.verify import _expectations


def test_expectations_match_per_state_traces():
    # the lock-in readout takes every sample at once; one trace per state
    # is the reference, to rounding of the d^2-term sums
    rng = np.random.default_rng(3)
    d, samples = 4, 9
    op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    states = rng.standard_normal((d * d, samples)) + 1j * rng.standard_normal((d * d, samples))
    want = [np.trace(op @ unvec(states[:, k])).real for k in range(samples)]
    np.testing.assert_allclose(_expectations(op, states), want, rtol=0, atol=1e-13)

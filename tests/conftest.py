import numpy as np
import pytest

from ioqfr import prepare
from ioqfr.models import KerrCatParams, RfParams, kerr_cat_model, rf_model


@pytest.fixture(scope="session")
def rf_unit():
    """Driven emitter at kappa = rabi = 1, monitoring the pi/2 quadrature."""
    return prepare(rf_model(RfParams(kappa=1.0, rabi=1.0), theta=np.pi / 2))


@pytest.fixture(scope="session")
def kerr_ref():
    """Two-port Kerr parametric oscillator at the reference working point."""
    return prepare(kerr_cat_model(KerrCatParams()))

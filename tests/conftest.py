import numpy as np
import pytest

from mtwcheck import conformal as cf
from mtwcheck.expr import parse_field
from mtwcheck.geometry import MetricField, euclidean_metric, sphere_metric


@pytest.fixture(scope="session")
def flat2():
    return euclidean_metric(2)


@pytest.fixture(scope="session")
def flat3():
    return euclidean_metric(3)


@pytest.fixture(scope="session")
def sphere():
    return sphere_metric()


@pytest.fixture(scope="session")
def conformal_a3():
    return cf.conformal_metric(cf.ConformalSpec(a=-3.0))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def sphere_points(rng, count):
    """Random sphere chart points away from the coordinate poles."""
    theta = rng.uniform(0.4, np.pi - 0.4, count)
    phi = rng.uniform(-1.5, 1.5, count)
    return np.stack([theta, phi], axis=1)


def inline3d_metric():
    """The 3-D inline metric exp(2xyz) I."""
    e = parse_field("exp(2*x*y*z)", 3)
    zero = parse_field("0", 3)
    return MetricField.from_upper([e, zero, zero, e, zero, e], 3)

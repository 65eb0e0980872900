"""Conformal 2D metric family: closed forms vs the generic pipeline."""

import math

import numpy as np
import pytest

from mtwcheck import conformal as cf
from mtwcheck import mtw
from mtwcheck.geometry import sectional


# ---------------------------------------------------------------------------
# Metric and factor
# ---------------------------------------------------------------------------


def test_metric_is_identity_where_f_vanishes():
    for spec, pt in [
        (cf.ConformalSpec(a=0.0), (0.0, 0.0)),
        (cf.ConformalSpec(a=-3.0), (1.0, 0.0)),  # every f-term carries y
    ]:
        m = cf.conformal_metric(spec)
        assert np.allclose(m.matrix(pt), np.eye(2), atol=1e-14)


def test_metric_positive_definite_generic(rng):
    m = cf.conformal_metric(cf.ConformalSpec(a=-3.0, a4=0.4))
    for _ in range(10):
        pt = rng.uniform(-1.0, 1.0, 2)
        g = m.matrix(pt)
        assert np.linalg.eigvalsh(g)[0] > 0
        assert g[0, 1] == 0.0


# ---------------------------------------------------------------------------
# Gauss curvature closed form
# ---------------------------------------------------------------------------


def test_gauss_closed_known_values():
    spec = cf.ConformalSpec(a=-3.0)
    assert cf.gauss_closed(spec, 0.0, 0.0) == 0.0
    assert cf.gauss_closed(spec, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert cf.gauss_closed(spec, 1.0, 0.0) == pytest.approx(6.0, abs=1e-12)


@pytest.mark.parametrize("a", [-2.0, -3.0, -4.0])
@pytest.mark.parametrize("a4", [0.0, 0.5])
def test_gauss_closed_matches_pipeline(rng, a, a4):
    spec = cf.ConformalSpec(a=a, a4=a4)
    metric = cf.conformal_metric(spec)
    for _ in range(25):
        x, y = rng.uniform(-0.7, 0.7, 2)
        closed = cf.gauss_closed(spec, x, y)
        pipeline = sectional(metric, [x, y], [1.0, 0.0], [0.0, 1.0])
        assert pipeline == pytest.approx(closed, abs=1e-8)


def test_laplacian_with_quartic_term():
    spec = cf.ConformalSpec(a=-2.0, a4=0.5)
    x, y = 0.3, -0.6
    expected = 2 * spec.a * x**2 + 12 * x * y + (2 * spec.a + 12 * spec.a4) * y**2
    assert cf.laplacian_f(spec, x, y) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Nonnegative-curvature threshold
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,expected",
    [(-3.0, True), (-2.9, False), (-10.0, True), (-2.999, False), (-3.001, True)],
)
def test_nonneg_curvature_threshold(a, expected):
    assert cf.nonneg_curvature_threshold(cf.ConformalSpec(a=a)) is expected


def test_nonneg_curvature_witness_point():
    # a = -2.9 fails because 4a + 12 = 0.4 > 0 at (1, 1)
    spec = cf.ConformalSpec(a=-2.9)
    assert cf.gauss_closed(spec, 1.0, 1.0) < 0


# ---------------------------------------------------------------------------
# Discriminant polynomial
# ---------------------------------------------------------------------------


def test_discriminant_polynomial_values():
    assert cf.discriminant_polynomial(-3.0, 0.0, 1.0) == pytest.approx(144.0)
    assert cf.discriminant_polynomial(-4.0, 0.0, 1.0) == pytest.approx(-80.0)
    assert cf.discriminant_polynomial(-5.0, 0.0, 0.0) == 0.0


@pytest.mark.parametrize("a", [-3.0, -3.5, -4.0])
def test_discriminant_polynomial_matches_pipeline(a):
    metric = cf.conformal_metric(cf.ConformalSpec(a=a))
    for k in range(8):
        ang = 2 * math.pi * k / 8
        u = np.array([math.cos(ang), math.sin(ang)])
        res = mtw.discriminant_2d(metric, [0.0, 0.0], u)
        poly = cf.discriminant_polynomial(a, u[0], u[1])
        scale = max(1.0, abs(poly))
        assert abs((res.lhs - res.rhs) - poly) / scale < 1e-6


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,expected",
    [
        (-2.0, "fails-zeroth"),
        (-2.99, "fails-zeroth"),
        (-3.0, "fails-second-order"),
        (-3.5, "fails-second-order"),
        (-3.674, "fails-second-order"),
        (-3.675, "passes-necessary"),
        (-4.0, "passes-necessary"),
    ],
)
def test_classify(a, expected):
    assert cf.classify(a) == expected


def test_second_order_threshold_constant():
    assert cf.SECOND_ORDER_THRESHOLD == pytest.approx(-math.sqrt(27.0 / 2.0))
    assert cf.classify(cf.SECOND_ORDER_THRESHOLD) == "passes-necessary"
    # classify's second-order edge is the constant
    assert cf.classify(cf.SECOND_ORDER_THRESHOLD - 1e-9) == "passes-necessary"
    assert cf.classify(cf.SECOND_ORDER_THRESHOLD + 1e-9) == "fails-second-order"


def test_boundary_discriminant_nonpositive_with_axis_equality():
    a_star = -math.sqrt(27.0 / 2.0)
    worst = -np.inf
    for k in range(64):
        ang = 2 * math.pi * k / 64
        val = cf.discriminant_polynomial(a_star, math.cos(ang), math.sin(ang))
        worst = max(worst, val)
        assert val <= 1e-9
    # equality is attained exactly on the coordinate axes
    assert cf.discriminant_polynomial(a_star, 1.0, 0.0) == pytest.approx(
        0.0, abs=1e-9
    )
    assert cf.discriminant_polynomial(a_star, 0.0, 1.0) == pytest.approx(
        0.0, abs=1e-9
    )
    assert worst == pytest.approx(0.0, abs=1e-9)

"""A two-parameter conformal surface family with closed-form answers.

The metric is e^{2f} (dx^2 + dy^2) on the plane with

    f(x, y) = x^3 y + a x^2 y^2 + x y^3 + a4 y^4,

a family whose Gauss curvature vanishes at the origin while its second
derivatives there are rich enough to exercise every second-order
necessary condition.  All quantities of interest have hand-computable
closed forms, so this module doubles as the regression anchor for the
generic jet pipeline:

* Gauss curvature K = -(Lap f) e^{-2f} with
  Lap f = 2 a x^2 + 12 x y + (2 a + 12 a4) y^2,
* curvature is nonnegative near the origin iff a <= -3 (at a4 = 0),
* the two-dimensional discriminant gap at the origin is the quartic
  16 [ (27 - 2 a^2)(u1^4 + u2^4) + (18 - 4 a^2) u1^2 u2^2 ],
* the full necessary-condition battery passes iff a <= -sqrt(27/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .geometry import MetricField

SECOND_ORDER_THRESHOLD = -math.sqrt(27.0 / 2.0)


@dataclass(frozen=True)
class ConformalSpec:
    """Parameters of the conformal family."""

    a: float
    a4: float = 0.0


def conformal_factor(spec: ConformalSpec) -> ex.ScalarField:
    """The exponent f with e^{2f} the conformal factor."""
    x = ex.var(0, 2)
    y = ex.var(1, 2)
    x2 = ex.mul(x, x)
    y2 = ex.mul(y, y)
    f = ex.mul(ex.mul(x2, x), y)
    f = ex.add(f, ex.scale(spec.a, ex.mul(x2, y2)))
    f = ex.add(f, ex.mul(x, ex.mul(y2, y)))
    if spec.a4 != 0.0:
        f = ex.add(f, ex.scale(spec.a4, ex.mul(y2, y2)))
    return f


def conformal_metric(spec: ConformalSpec) -> MetricField:
    """The metric e^{2f} (dx^2 + dy^2)."""
    e2f = ex.exp(ex.scale(2.0, conformal_factor(spec)))
    zero = ex.const(0.0, 2)
    return MetricField.from_entries([[e2f, zero], [zero, e2f]])


def laplacian_f(spec: ConformalSpec, x: float, y: float) -> float:
    return (
        2.0 * spec.a * x * x
        + 12.0 * x * y
        + (2.0 * spec.a + 12.0 * spec.a4) * y * y
    )


def gauss_closed(spec: ConformalSpec, x: float, y: float) -> float:
    """Closed-form Gauss curvature K = -(Lap f) e^{-2f}."""
    f = (
        x**3 * y + spec.a * x**2 * y**2 + x * y**3 + spec.a4 * y**4
    )
    return -laplacian_f(spec, x, y) * math.exp(-2.0 * f)


def nonneg_curvature_threshold(spec: ConformalSpec) -> bool:
    """Whether the curvature is nonnegative on a neighborhood of 0.

    K >= 0 iff the quadratic form Lap f = 2a x^2 + 12 x y + (2a+12a4) y^2
    is negative semidefinite, i.e. its largest eigenvalue is <= 0.
    """
    a, b, c = 2.0 * spec.a, 6.0, 2.0 * spec.a + 12.0 * spec.a4
    # eigenvalues of [[a, b], [b, c]]
    lam_max = 0.5 * ((a + c) + math.hypot(a - c, 2.0 * b))
    return lam_max <= 1e-12


def discriminant_polynomial(a: float, u1: float, u2: float) -> float:
    """Closed-form discriminant gap (lhs - rhs) at the origin.

    For u = (u1, u2) and its quarter rotation w = (-u2, u1):

        16 [ (27 - 2 a^2)(u1^4 + u2^4) + (18 - 4 a^2) u1^2 u2^2 ].
    """
    return 16.0 * (
        (27.0 - 2.0 * a * a) * (u1**4 + u2**4)
        + (18.0 - 4.0 * a * a) * u1**2 * u2**2
    )


def classify(a: float) -> str:
    """Placement of parameter ``a`` against the necessary conditions.

    * a > -3: curvature goes negative near the origin, so the
      zeroth-order condition already fails ("fails-zeroth");
    * -3 >= a > -sqrt(27/2): curvature is fine but the second-order
      discriminant at the origin is violated ("fails-second-order");
    * a <= -sqrt(27/2): every condition implemented here passes
      ("passes-necessary").
    """
    if not nonneg_curvature_threshold(ConformalSpec(a)):
        return "fails-zeroth"
    max_gap = max(
        discriminant_polynomial(a, 1.0, 0.0),
        discriminant_polynomial(a, 1.0, 1.0) / 4.0,
    )
    # the direction-maximum of the quartic is attained on an axis or
    # the diagonal; axis value 16(27 - 2 a^2) dominates for a <= -3
    if max_gap > 0.0:
        return "fails-second-order"
    return "passes-necessary"

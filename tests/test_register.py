"""The register of open wrong answers: one strict xfail per reproduction
that ROADMAP.md lists as re-checked, its reason naming its item.

Each test asserts the right answer, which today's code does not give.
A fix turns its entry into an XPASS, which fails under ``strict``, so the
change that fixes an item removes its markers here.  The rows need no
exact oracle: route agreement, ``conformal.classify`` or a closed form
decides each one.
"""

import json
import math

import numpy as np
import pytest

from mtwcheck import conformal as cf
from mtwcheck import mtw
from mtwcheck.cli import main
from mtwcheck.dynamics import cost
from mtwcheck.errors import MetricDegenerateError
from mtwcheck.expr import parse_field
from mtwcheck.geometry import MetricField, PotentialField, euclidean_metric, sphere_metric

from conftest import inline3d_metric


def _register(item: int, what: str, raises=AssertionError):
    """A strict xfail for ROADMAP item ``item``, expecting ``raises``: any
    other error fails the test."""
    return pytest.mark.xfail(strict=True, raises=raises, reason=f"ROADMAP item {item}: {what}")


def _potential(text: str, dim: int, **constants) -> PotentialField:
    return PotentialField(parse_field(text, dim, constants=constants), dim)


@pytest.mark.parametrize("metric, potential, x", [
    pytest.param(sphere_metric, lambda: _potential(
        "0 - 0.08*((x - h)^2 + y^2)", 2, h=math.pi / 2), [math.pi / 2, 0.0],
        id="sphere2"),  # the closed form reads 1.0054342, jacobi 0.9947860
    pytest.param(lambda: euclidean_metric(2), lambda: _potential(
        "0 - 0.125*(x^2 + y^2) + 0.2*x^2*y", 2), [0.0, 0.0],
        id="euclidean2-cubic"),  # the closed form reads 0, jacobi 0.001524116
])
@_register(1, "the zeroth-order closed form with a potential is a hand formula")
def test_zeroth_order_closed_form_with_a_potential_meets_jacobi(metric, potential, x):
    metric, potential = metric(), potential()
    u, w = [1.0, 0.0], [0.0, 1.0]
    closed = mtw.mtw_zeroth_general(metric, potential, x, u, w)
    jacobi = mtw.mtw_jacobi(metric, potential, x, u, [0.0, 0.0], w)
    assert abs(closed - jacobi.value) <= jacobi.error_estimate


@_register(7, "the 3-D second-order closed form misplaces its nabla^2 R terms")
def test_second_order_closed_form_meets_jacobi_in_3d():
    # d^2/dt^2 MTW(x; u, t v, w) on exp(2xyz) I: mtw_second reads 0.0256896,
    # jacobi's second t-difference, Richardson-extrapolated over t = 0.04
    # and 0.02 at 800 steps, reads 0.0303921
    metric = inline3d_metric()
    x = np.array([0.5, -0.6, 0.7])
    scale = math.exp(-x.prod())  # g = exp(2xyz) I: g-unit coordinate vectors
    u, w = np.array([scale, 0, 0]), np.array([0, scale, 0])
    v = np.array([0.5, 0.3, -0.4])
    ts = np.array([0.0, 0.02, -0.02, 0.04, -0.04])
    rows = len(ts)
    value = mtw._jacobi(metric, None, np.tile(x, (rows, 1)), np.tile(u, (rows, 1)),
                        ts[:, None] * v, np.tile(w, (rows, 1)), mtw.DEFAULT_FD_STEP,
                        800)[0]
    d2 = [(value[k] - 2 * value[0] + value[k + 1]) / ts[k] ** 2 for k in (1, 3)]
    jacobi = (4 * d2[0] - d2[1]) / 3
    assert mtw.mtw_second(metric, x, u, v, w) == pytest.approx(jacobi, abs=1e-4)


def _check(capsys, a: str, region: str):
    code = main(["check", "--metric", "conformal2d", "--param", f"a={a}",
                 f"--region={region}", "--points-per-axis", "8", "--samples", "16"])
    rows = {r["condition"]: r["verdict"] for r in json.loads(capsys.readouterr().out)["results"]}
    return code, rows


@_register(2, "the checker meets the zero-curvature locus only at a sample")
def test_check_finds_the_missed_locus_violation(capsys):
    # classify calls a = -3.2 fails-second-order; the box's grid misses the
    # locus, so the three locus conditions read vacuous
    assert cf.classify(-3.2) == "fails-second-order"
    assert _check(capsys, "-3.2", "-0.17,0.23")[1]["discriminant-2d"] == "violated"


@_register(2, "the locus tolerance on K does not match the first-order one")
def test_check_passes_a_metric_that_classify_passes(capsys):
    # the centre, K = 1.0e-8, counts as on the locus, where the first-order
    # value 2.7e-4 exceeds its threshold, and the check exits 1
    assert cf.classify(-4.0) == "passes-necessary"
    assert _check(capsys, "-4", "-0.2001,0.2")[0] == 0


@_register(8, "the checker does not search between its samples")
def test_check_finds_negative_curvature_between_the_samples(capsys):
    # K < 0 only in a thin wedge around the diagonal, which the shifted grid
    # misses: the sampled minimum of K is +3.03e-3, the true one -1.6e-3
    assert cf.classify(-2.99) == "fails-zeroth"
    rows = _check(capsys, "-2.99", "-0.2,0.2,-0.17,0.23")[1]
    assert rows["sectional-nonneg"] == "violated"


@_register(10, "shooting raises when its initial curve leaves the region",
           raises=MetricDegenerateError)
def test_cost_reaches_a_reachable_target():
    # g = diag(1 + x, 1 + y) is positive definite for x, y > -1, and the
    # cost from 0 to (0, -0.925) is (2/3 (1 - 0.075^(3/2)))^2 / 2; the
    # default initial curve's RK4 stage points pass y = -1
    metric = MetricField.from_upper([parse_field(e, 2) for e in ("1 + x", "0", "1 + y")], 2)
    exact = (2 / 3 * (1 - 0.075 ** 1.5)) ** 2 / 2
    assert cost(metric, None, [0.0, 0.0], [0.0, -0.925]).value == pytest.approx(
        exact, abs=1e-4)

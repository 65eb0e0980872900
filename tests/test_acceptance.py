"""End-to-end acceptance criteria.

Each test covers one acceptance criterion at its stated tolerance and
runtime budget and emits a single summary line on success.
"""

import math
import time

import numpy as np
import pytest

from mtwcheck import conformal as cf
from mtwcheck import dynamics as dyn
from mtwcheck import mtw
from mtwcheck.cli import _jsonify
from mtwcheck.dynamics import jacobi_bvp, least_action_curve, lemma_suite
from mtwcheck.errors import MetricDegenerateError
from mtwcheck.expr import parse_field
from mtwcheck.geometry import (
    GeometryBatch,
    PotentialField,
    euclidean_metric,
    quartic_potential,
    riemann,
    sectional,
    sphere_metric,
)

from conftest import HARD_JACOBI, HARD_POTENTIAL, inline3d_metric, sphere_points

EQUATOR = np.pi / 2
E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
ZERO2 = np.zeros(2)
ZERO3 = np.zeros(3)
E3_1, E3_2 = np.eye(3)[:2]


def _report(num, label, elapsed, budget, detail):
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"criterion {num} ({label}): PASS in {elapsed:.1f}s — {detail}")


def test_criterion_1_conformal_discriminant_regression():
    t0 = time.perf_counter()

    # pipeline lhs-rhs against the closed polynomial, 32 unit directions
    worst = 0.0
    for a in (-3.0, -3.5, -4.0):
        metric = cf.conformal_metric(cf.ConformalSpec(a=a))
        for k in range(32):
            ang = 2 * math.pi * k / 32
            u = np.array([math.cos(ang), math.sin(ang)])
            res = mtw.discriminant_2d(metric, ZERO2, u)
            poly = cf.discriminant_polynomial(a, u[0], u[1])
            rel = abs((res.lhs - res.rhs) - poly) / max(1.0, abs(poly))
            worst = max(worst, rel)
            assert rel < 1e-6

    # classification sweep at a 0.005 step; decimal grid so the zeroth
    # transition lands on a = -3 exactly
    grid = [(-4000 + 5 * k) / 1000.0 for k in range(301)]
    verdicts = [cf.classify(a) for a in grid]
    zeroth_edge = next(a for a, v in zip(grid, verdicts) if v == "fails-zeroth")
    assert zeroth_edge == -2.995
    assert verdicts[grid.index(-3.0)] == "fails-second-order"
    last_pass = max(a for a, v in zip(grid, verdicts) if v == "passes-necessary")
    assert abs(last_pass - (-math.sqrt(27.0 / 2.0))) <= 5e-3

    _report(1, "conformal discriminant regression", time.perf_counter() - t0,
            30.0, f"max rel err {worst:.2e}; second-order edge {last_pass}")


def test_criterion_2_gauss_curvature_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    count = 0
    for a, a4 in [(-3.0, 0.0), (-2.0, 0.5)]:
        spec = cf.ConformalSpec(a=a, a4=a4)
        metric = cf.conformal_metric(spec)
        for _ in range(100):
            x, y = rng.uniform(-0.7, 0.7, 2)
            closed = cf.gauss_closed(spec, x, y)
            pipeline = sectional(metric, [x, y], E1, E2)
            worst = max(worst, abs(pipeline - closed))
            assert abs(pipeline - closed) < 1e-8
            count += 1
    assert count == 200

    assert cf.nonneg_curvature_threshold(cf.ConformalSpec(a=-3.0)) is True
    assert cf.nonneg_curvature_threshold(cf.ConformalSpec(a=-2.999)) is False
    assert cf.nonneg_curvature_threshold(cf.ConformalSpec(a=-3.001)) is True

    _report(2, "Gauss curvature closed form", time.perf_counter() - t0, 5.0,
            f"max |pipeline - closed| {worst:.2e} over 200 points")


def test_criterion_3_sphere_and_flat_zeroth_order():
    t0 = time.perf_counter()
    calib = mtw.calibrate_normalization()
    assert calib.spread <= 1e-3
    kappa = calib.kappa

    sphere = sphere_metric()
    val = mtw.mtw_jacobi(sphere, None, [EQUATOR, 0.5], E1, ZERO2, E2).value
    assert val / kappa == pytest.approx(1.0, abs=1e-4)

    flat = euclidean_metric(2)
    flat_val = mtw.mtw_jacobi(flat, None, ZERO2, E1, ZERO2, E2).value
    assert abs(flat_val) <= 1e-8

    _report(3, "sphere/flat zeroth order", time.perf_counter() - t0, 10.0,
            f"kappa {kappa} spread {calib.spread:.1e}; "
            f"sphere {val:.8f}, flat {flat_val:.1e}")


def test_criterion_4_mechanical_zeroth_order():
    t0 = time.perf_counter()
    flat = euclidean_metric(2)
    kappa = mtw.calibrate_normalization().kappa
    rng = np.random.default_rng(249)

    def fourth_derivative_oracle(A):
        # independent brute-force mixed fourth difference of the quartic
        # potential; exact for quartics up to rounding
        def V(p):
            q = float(p @ A @ p)
            return -q * q

        h = 0.5
        vals = np.empty((5, 5))
        for i, da in enumerate((-2, -1, 0, 1, 2)):
            for j, db in enumerate((-2, -1, 0, 1, 2)):
                vals[i, j] = V(da * h * E1 + db * h * E2)
        d2u = (vals[:, 3] - 2 * vals[:, 2] + vals[:, 1]) / h**2
        return (d2u[3] - 2 * d2u[2] + d2u[1]) / h**2

    worst_closed = worst_direct = 0.0
    for _ in range(10):
        B = rng.normal(size=(2, 2))
        A = 0.5 * (B + B.T)
        V = quartic_potential(A)
        simplified = mtw.mtw_zeroth_simplified(flat, V, ZERO2, E1, E2)

        oracle = fourth_derivative_oracle(A) / 20.0
        worst_closed = max(worst_closed, abs(simplified - oracle))
        assert abs(simplified - oracle) < 1e-9

        # the flat quartic cost is smooth enough that a step below the
        # curved-metric default keeps the stencil truncation-dominated
        direct = mtw.mtw_direct_cost(flat, V, ZERO2, E1, ZERO2, E2,
                                     h_s=0.05, h_t=0.05).value
        rel = abs(direct / kappa - simplified) / max(1e-30, abs(simplified))
        worst_direct = max(worst_direct, rel)
        assert rel < 1e-3

        chk = mtw.quartic_potential_check(A, E1, E2)
        assert chk.violates == (simplified < 0)
        assert chk.violates == (chk.condition_value > 0)

    _report(4, "mechanical zeroth order", time.perf_counter() - t0, 60.0,
            f"closed-vs-oracle {worst_closed:.1e}, direct rel {worst_direct:.1e}")


def _taylor_consistency(metric, x, u, v, w):
    """The closed forms 0, 1 and 2 against jacobi in t v at (x, u, w):
    the slope of the second-order Taylor remainder in t, and the relative
    errors of the centred first and second t-differences of jacobi."""
    kappa = 1.0  # pinned by criterion 3's calibration
    h_s, steps = 0.01, 400

    M0 = mtw.mtw_zeroth_general(metric, None, x, u, w)
    M1 = mtw.mtw_first(metric, x, u, v, w)
    M2 = mtw.mtw_second(metric, x, u, v, w)

    def jac(t):
        return mtw.mtw_jacobi(metric, None, x, u, t * v, w,
                              h=h_s, steps=steps).value / kappa

    ts = np.array([0.02, 0.04, 0.08, 0.16])
    remainders = np.array([
        abs(jac(t) - (M0 + t * M1 + 0.5 * t * t * M2)) for t in ts
    ])
    slope = np.polyfit(np.log(ts), np.log(remainders), 1)[0]

    t = 0.04
    jp, j0, jm = jac(t), jac(0.0), jac(-t)
    first_est = (jp - jm) / (2 * t)
    second_est = (jp - 2 * j0 + jm) / (t * t)
    return slope, abs(first_est - M1) / abs(M1), abs(second_est - M2) / abs(M2)


def test_criterion_5_taylor_consistency():
    t0 = time.perf_counter()
    metric = cf.conformal_metric(cf.ConformalSpec(a=-3.0))
    x = np.array([0.1, 0.0])
    slope, first, second = _taylor_consistency(metric, x, E1, np.array([0.7, 0.4]), E2)
    assert slope >= 2.7
    assert first < 1e-2
    assert second < 1e-2

    _report(5, "Taylor consistency", time.perf_counter() - t0, 60.0,
            f"remainder slope {slope:.3f}; "
            f"first rel {first:.1e}, second rel {second:.1e}")


def test_criterion_5_taylor_consistency_order_one_curvature():
    # At (0.1, 0) the curvature is small (K ~ 0.06), so the curvature-
    # squared lines of the second coefficient hardly move the comparison;
    # here K ~ 1.25 and a slot error in any of them moves M2 past the
    # tolerance.  u and w are g-orthonormal, g being exp(2f) I.
    t0 = time.perf_counter()
    metric = cf.conformal_metric(cf.ConformalSpec(a=-3.0))
    x = np.array([0.25, -0.2])
    g = metric.matrix(x)
    u, w = E1 / math.sqrt(g[0, 0]), E2 / math.sqrt(g[1, 1])
    assert sectional(metric, x, u, w) == pytest.approx(1.246, abs=1e-3)
    slope, first, second = _taylor_consistency(metric, x, u, np.array([0.7, 0.4]), w)
    assert slope >= 2.7
    assert first < 1e-2
    assert second < 1e-2

    _report(5, "Taylor consistency at K ~ 1", time.perf_counter() - t0, 60.0,
            f"remainder slope {slope:.3f}; "
            f"first rel {first:.1e}, second rel {second:.1e}")


def test_criterion_6_variation_identity_suite():
    t0 = time.perf_counter()
    taus = (0.2, 0.35, 0.5, 0.65, 0.8)
    u = np.array([1.0, 0.0])
    v = np.array([0.6, -0.3])
    w = np.array([0.2, 0.9])
    required = {
        "transport-mixed-ts",  # (tau^2/2) R(v,w)u
        "jacobi-second-t",     # tau(tau-1)(tau-2)/3 R(v,u)v
        "jacobi-mixed-ts",     # tau(tau-1)/3 [(tau-2)R(w,u)v - (tau+1)R(v,w)u]
    }
    worst = 0.0
    for metric, x in [
        (sphere_metric(), np.array([EQUATOR, 0.0])),
        (euclidean_metric(2), ZERO2),
    ]:
        checks = lemma_suite(metric, None, x, u, v, w, taus=taus)
        names = {c.name for c in checks}
        assert required <= names
        per_tau = {}
        for c in checks:
            per_tau.setdefault(c.name, set()).add(c.tau)
            worst = max(worst, c.error)
            assert c.error <= 1e-3, (c.name, c.tau, c.error)
        for name in required:
            assert len(per_tau[name]) == len(taus)

    _report(6, "variation identity suite", time.perf_counter() - t0, 120.0,
            f"worst identity error {worst:.1e} over sphere + flat")


def test_criterion_7_quadrature_identities():
    t0 = time.perf_counter()
    panels = 1024
    tau = np.linspace(0.0, 1.0, panels + 1)
    h = 1.0 / panels
    weights = dyn.simpson_weights(panels) * h
    one = 1.5 * float(weights @ mtw._cumulative_integral(2.0 * (1.0 - tau), h))
    twentieth = 1.5 * float(
        weights @ mtw._cumulative_integral(tau**2 * (1.0 - tau), h)
    )
    assert one == pytest.approx(1.0, abs=1e-12)
    assert twentieth == pytest.approx(0.05, abs=1e-12)

    _report(7, "quadrature identities", time.perf_counter() - t0, 1.0,
            f"|I1-1| {abs(one - 1.0):.1e}, |I2-1/20| {abs(twentieth - 0.05):.1e}")


def test_criterion_8_invariant_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    sphere = sphere_metric()
    conformal = cf.conformal_metric(cf.ConformalSpec(a=-3.0))
    conformal4 = cf.conformal_metric(cf.ConformalSpec(a=-2.0, a4=0.5))

    # tensor symmetries and both Bianchi identities over random samples
    samples = [
        (sphere, sphere_points(rng, 50)),
        (conformal, rng.uniform(-0.6, 0.6, (50, 2))),
        (conformal4, rng.uniform(-0.5, 0.5, (50, 2))),
    ]
    for metric, pts in samples:
        for x in pts:
            R = riemann(metric, x)
            assert np.allclose(R, -np.swapaxes(R, 0, 1), atol=1e-9)
            assert np.allclose(R, -np.swapaxes(R, 2, 3), atol=1e-9)
            assert np.allclose(R, np.transpose(R, (2, 3, 0, 1)), atol=1e-9)
            cyc = (R + np.transpose(R, (0, 2, 3, 1))
                   + np.transpose(R, (0, 3, 1, 2)))
            assert np.allclose(cyc, 0.0, atol=1e-9)
        for x in pts[:10]:
            nr = GeometryBatch(metric, x[None], curvature_order=1).nabla_r[0]
            cyc = (nr + np.transpose(nr, (1, 2, 0, 3, 4))
                   + np.transpose(nr, (2, 0, 1, 3, 4)))
            assert np.allclose(cyc, 0.0, atol=1e-8)
    for x in sphere_points(rng, 10):
        geo = GeometryBatch(sphere, x[None])
        assert np.max(np.abs(geo.nabla_r)) < 1e-8
        assert np.max(np.abs(geo.nabla2_r)) < 1e-8

    # energy conservation along least-action curves
    from mtwcheck.geometry import harmonic_potential

    flat = euclidean_metric(2)
    curves = [
        least_action_curve(sphere, None, [1.1, -0.2], [0.9, 0.3]),
        least_action_curve(sphere, None, [0.8, 0.5], [0.0, 1.2]),
        least_action_curve(conformal, None, [0.1, -0.1], [0.6, 0.3]),
        least_action_curve(flat, harmonic_potential(2), [0.4, 0.1], [0.2, -0.5]),
    ]
    for path in curves:
        assert path.energy_drift() <= 1e-8

    # linearity of the Jacobi solver and quadratic scaling of evaluators
    path = least_action_curve(sphere, None, [1.3, 0.1], [0.2, 0.8])
    u1, u2 = np.array([1.0, 0.2]), np.array([-0.4, 0.9])
    s1, s2 = jacobi_bvp(path, u1), jacobi_bvp(path, u2)
    s3 = jacobi_bvp(path, 1.7 * u1 - 0.6 * u2)
    assert np.allclose(s3.J, 1.7 * s1.J - 0.6 * s2.J, atol=1e-10)

    v = rng.normal(size=2)
    second = mtw.mtw_second(conformal, ZERO2, E1, v, E2)
    assert mtw.mtw_second(conformal, ZERO2, 2 * E1, v, E2) == pytest.approx(
        4 * second, rel=1e-12
    )
    assert mtw.mtw_second(conformal, ZERO2, E1, v, 3 * E2) == pytest.approx(
        9 * second, rel=1e-12
    )
    V = quartic_potential(np.array([[0.6, 0.1], [0.1, 0.9]]))
    z = mtw.mtw_zeroth_simplified(flat, V, ZERO2, E1, E2)
    assert mtw.mtw_zeroth_simplified(flat, V, ZERO2, 2 * E1, 3 * E2) == (
        pytest.approx(36 * z, rel=1e-12)
    )

    # determinism of the checker and of single evaluations
    import json

    spec = mtw.SamplingSpec(box=((-0.2, 0.2), (-0.2, 0.2)),
                            points_per_axis=4, directions=8, seed=42)
    r1 = mtw.check_a3w_necessary(conformal, None, spec)
    r2 = mtw.check_a3w_necessary(conformal, None, spec)
    assert json.dumps(_jsonify(r1), sort_keys=True) == json.dumps(
        _jsonify(r2), sort_keys=True
    )
    e1 = mtw.mtw_jacobi(sphere, None, [EQUATOR, 0.5], E1, ZERO2, E2).value
    e2 = mtw.mtw_jacobi(sphere, None, [EQUATOR, 0.5], E1, ZERO2, E2).value
    assert e1 == e2

    _report(8, "invariant suites", time.perf_counter() - t0, 120.0,
            "symmetry, Bianchi, energy, linearity, scaling, determinism")


# ---------------------------------------------------------------------------
# Dimension 3: the conditions hold in every dimension, only the
# discriminant is 2-D.  kappa = 1 is pinned by criterion 3's calibration.
# ---------------------------------------------------------------------------


def test_3d_flat_quartic_routes_agree():
    t0 = time.perf_counter()
    flat = euclidean_metric(3)
    A = np.array([[1.0, 0.2, 0.1], [0.2, 0.8, 0.0], [0.1, 0.0, 1.2]])
    assert np.all(np.linalg.eigvalsh(A) > 0)
    V = quartic_potential(A)

    closed = mtw.mtw_zeroth_simplified(flat, V, ZERO3, E3_1, E3_2)
    chk = mtw.quartic_potential_check(A, E3_1, E3_2)
    # -(2/5) [<Aw,w><Au,u> + 2<Au,w>^2] for u = e1, w = e2
    assert closed == pytest.approx(-0.4 * (0.8 * 1.0 + 2 * 0.2**2), abs=1e-12)
    assert chk.mtw_value == closed and chk.violates

    jac = mtw.mtw_jacobi(flat, V, ZERO3, E3_1, ZERO3, E3_2).value
    assert abs(jac - closed) / abs(closed) < 1e-4
    direct = mtw.mtw_direct_cost(flat, V, ZERO3, E3_1, ZERO3, E3_2,
                                 h_s=0.05, h_t=0.05).value
    assert abs(direct - closed) / abs(closed) < 1e-3

    _report("3-D a", "flat quartic in R^3", time.perf_counter() - t0, 2.0,
            f"closed {closed:.6f}; jacobi rel {abs(jac / closed - 1):.1e}, "
            f"direct rel {abs(direct / closed - 1):.1e}")


def test_3d_inline_metric_closed_form_matches_jacobi():
    t0 = time.perf_counter()
    metric = inline3d_metric()
    x = np.array([0.3, -0.2, 0.25])  # exp(2xyz) varies along every axis here
    closed = mtw.mtw_zeroth_general(metric, None, x, E3_1, E3_2)
    jac = mtw.mtw_jacobi(metric, None, x, E3_1, ZERO3, E3_2).value
    assert abs(jac - closed) / abs(closed) < 1e-4

    _report("3-D b", "inline metric exp(2xyz) I", time.perf_counter() - t0, 2.0,
            f"closed {closed:.8f}; jacobi rel {abs(jac / closed - 1):.1e}")


# ---------------------------------------------------------------------------
# The jacobi route's step ladder
# ---------------------------------------------------------------------------


def test_jacobi_ladder_accepts_the_routes_inputs_at_its_first_pair(conformal_a3):
    # the calibration cases, and the sphere and conformal a = -3 at three
    # points each, the points other tests of the route use; the error is
    # the s-stencil's, the same at 200 steps: 2.98e-8 relative at
    # conformal (0.1, 0), 2.80e-8 with the ladder.  Every case accepts
    # the pair (10, 20) but the flat quartic A = I, which reads a doubling
    # estimate above a quarter of its defect there and accepts (20, 40)
    t0 = time.perf_counter()
    sphere = sphere_metric()
    cases = [(label, metric, pot, x, u, w, mtw.mtw_zeroth_simplified(metric, pot, x, u, w))
             for label, metric, pot, x, u, w in mtw._default_calibration_inputs()]
    for metric, label, points in (
            (sphere, "sphere", ([EQUATOR, 0.5], [1.2, 0.3], [1.0, 0.5])),
            (conformal_a3, "conformal", ([0.1, -0.1], [0.1, 0.0], [0.25, -0.2]))):
        cases += [(f"{label} {x}", metric, None, x, E1, E2,
                   mtw.mtw_zeroth_general(metric, None, x, E1, E2)) for x in points]
    worst = 0.0
    for label, metric, pot, x, u, w, closed in cases:
        ev = mtw.mtw_jacobi(metric, pot, x, u, np.zeros(2), w)
        err = abs(ev.value - closed)
        assert ev.steps == (40 if label == "flat-quartic-definite" else 20), label
        assert err <= ev.error_estimate, label
        assert err <= 3e-8 * abs(closed), label
        worst = max(worst, err / max(abs(closed), 1e-300))

    _report("ladder a", "jacobi at its first pair", time.perf_counter() - t0, 10.0,
            f"{len(cases)} cases at 20 or 40 steps, worst rel {worst:.1e}")


def test_jacobi_ladder_climbs_past_the_rungs_where_a_curve_fails(conformal_a3, integrations):
    # before the ladder, 200 steps read 55,389 with an estimate of
    # 14,047, 640 steps 32,513 and 3,200 steps 32,413.3, the reference;
    # 20 and 40 steps raised
    t0 = time.perf_counter()
    pot = PotentialField(parse_field(HARD_POTENTIAL, 2), 2)
    ev = mtw.mtw_jacobi(conformal_a3, pot, *HARD_JACOBI)
    assert ev.steps >= 160
    # the row moves, so it starts at the ladder's second rung
    assert integrations == [(N, 5) for N in mtw.JACOBI_RUNGS[1:] if N <= ev.steps]
    assert abs(ev.value - 32413.3) <= ev.error_estimate

    # a pinned pair is accepted whatever its doubling estimate reads:
    # (80, 160) reads more than a quarter of its defect
    pinned = mtw.mtw_jacobi(conformal_a3, pot, *HARD_JACOBI, steps=160)
    assert pinned.steps == 160
    assert abs(pinned.value - 32413.3) <= pinned.error_estimate

    # a pinned pair raises the failure of its top rung, (20, 40) the one
    # 40 steps raised before the ladder, else that of the rung below:
    # (40, 80) raises the same
    messages = []
    for steps in (40, 80):
        with pytest.raises(MetricDegenerateError, match="not positive definite") as err:
            mtw.mtw_jacobi(conformal_a3, pot, *HARD_JACOBI, steps=steps)
        messages.append(str(err.value))
    assert messages[0] == messages[1]

    _report("ladder b", "jacobi climbs past failing rungs", time.perf_counter() - t0, 10.0,
            f"accepted at {ev.steps} steps: {ev.value:.1f} +- {ev.error_estimate:.1f}")

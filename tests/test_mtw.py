"""Cross-curvature evaluators, calibration, and the necessary-condition checker."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtwcheck import conformal as cf
from mtwcheck import dynamics as dyn
from mtwcheck import mtw
from mtwcheck.cli import _jsonify
from mtwcheck.errors import (
    CalibrationError,
    DimensionError,
    PreconditionError,
)
from mtwcheck.geometry import (
    GeometryBatch,
    GeometryJet,
    PotentialField,
    contract,
    euclidean_metric,
    gram_schmidt,
    harmonic_potential,
    quartic_potential,
    scale_metric,
    sphere_metric,
)
from mtwcheck.expr import parse_field

from conftest import inline3d_metric

EQUATOR = np.pi / 2
E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
ZERO2 = np.zeros(2)


# ---------------------------------------------------------------------------
# Jacobi-route evaluator
# ---------------------------------------------------------------------------


def test_jacobi_flat_zero(flat2, rng):
    for _ in range(3):
        u, v, w = rng.normal(size=(3, 2))
        ev = mtw.mtw_jacobi(flat2, None, ZERO2, u, v, w)
        assert abs(ev.value) <= 1e-8


def test_jacobi_sphere_orthonormal_is_kappa(sphere):
    ev = mtw.mtw_jacobi(sphere, None, [EQUATOR, 0.5], E1, ZERO2, E2)
    assert ev.value == pytest.approx(1.0, abs=1e-4)
    assert ev.method == "jacobi"
    assert ev.error_estimate is not None


def test_jacobi_quadratic_u_scaling(sphere):
    base = mtw.mtw_jacobi(sphere, None, [EQUATOR, 0.5], E1, ZERO2, E2)
    doubled = mtw.mtw_jacobi(sphere, None, [EQUATOR, 0.5], 2 * E1, ZERO2, E2)
    assert doubled.value == pytest.approx(4 * base.value, rel=1e-6)


# ---------------------------------------------------------------------------
# Direct-cost oracle
# ---------------------------------------------------------------------------


def test_direct_cost_flat_zero(flat2):
    ev = mtw.mtw_direct_cost(flat2, None, ZERO2, E1, ZERO2, E2)
    assert abs(ev.value) <= 1e-8
    assert ev.method == "direct-cost"
    assert ev.h_s is not None and ev.h_t is not None


def test_direct_cost_matches_simplified_quartic(flat2):
    V = quartic_potential(np.eye(2))
    direct = mtw.mtw_direct_cost(flat2, V, ZERO2, E1, ZERO2, E2)
    closed = mtw.mtw_zeroth_simplified(flat2, V, ZERO2, E1, E2)
    assert direct.value == pytest.approx(closed, rel=1e-3)


def test_direct_cost_matches_jacobi_sphere(sphere):
    direct = mtw.mtw_direct_cost(sphere, None, [EQUATOR, 0.5], E1, ZERO2, E2)
    jac = mtw.mtw_jacobi(sphere, None, [EQUATOR, 0.5], E1, ZERO2, E2)
    assert direct.value == pytest.approx(jac.value, rel=1e-3)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def test_calibration_constant_is_one():
    res = mtw.calibrate_normalization()
    assert res.kappa == 1.0
    assert res.spread <= 1e-3
    assert len(res.cases) >= 4


def test_calibration_batches_match_per_case_jacobi():
    # the default cases sharing a metric and potential run as one batch
    # (the three sphere cases as 15 lanes); each case must keep the value
    # mtw_jacobi gives it alone, bit for bit
    res = mtw.calibrate_normalization(h=2e-2, steps=40)
    inputs = mtw._default_calibration_inputs()
    assert [c.label for c in res.cases] == [i[0] for i in inputs]
    for case, (_, metric, pot, x, u, w) in zip(res.cases, inputs):
        alone = mtw.mtw_jacobi(metric, pot, x, u, np.zeros(metric.dim), w,
                               h=2e-2, steps=40)
        assert case.jacobi_value == alone.value, case.label


def test_inconsistent_calibration_rejected():
    cases = [
        mtw.CalibrationCase("fake-a", jacobi_value=0.9, closed_value=1.0),
        mtw.CalibrationCase("fake-b", jacobi_value=1.3, closed_value=1.0),
    ]
    with pytest.raises(CalibrationError):
        mtw.fit_kappa(cases)


# ---------------------------------------------------------------------------
# Zeroth-order closed forms
# ---------------------------------------------------------------------------


def test_zeroth_simplified_sphere(sphere):
    val = mtw.mtw_zeroth_simplified(sphere, None, [EQUATOR, 0.2], E1, E2)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_zeroth_simplified_quartic_identity(flat2):
    V = quartic_potential(np.eye(2))
    val = mtw.mtw_zeroth_simplified(flat2, V, ZERO2, E1, E2)
    assert val == pytest.approx(-0.4, abs=1e-12)


def test_zeroth_simplified_flat_zero(flat2):
    assert mtw.mtw_zeroth_simplified(flat2, None, ZERO2, E1, E2) == 0.0


def test_zeroth_simplified_requires_critical_point(flat2):
    V = quartic_potential(np.eye(2))
    with pytest.raises(PreconditionError):
        mtw.mtw_zeroth_simplified(flat2, V, [0.3, 0.1], E1, E2)


def test_zeroth_simplified_requires_vanishing_hessian(flat2):
    with pytest.raises(PreconditionError):
        mtw.mtw_zeroth_simplified(flat2, harmonic_potential(2), ZERO2, E1, E2)


def test_zeroth_general_reduces_to_simplified(flat2, sphere):
    A = np.array([[0.9, 0.2], [0.2, -0.6]])
    V = quartic_potential(A)
    gen = mtw.mtw_zeroth_general(flat2, V, ZERO2, E1, E2)
    simp = mtw.mtw_zeroth_simplified(flat2, V, ZERO2, E1, E2)
    assert gen == pytest.approx(simp, abs=1e-10)
    sph = mtw.mtw_zeroth_general(sphere, None, [EQUATOR, 0.2], E1, E2)
    assert sph == pytest.approx(1.0, abs=1e-10)


def test_zeroth_general_quadratic_potential_vanishes(flat2):
    # flat metric and quadratic concave V: every integrand term vanishes
    val = mtw.mtw_zeroth_general(flat2, harmonic_potential(2, omega=0.7),
                                 ZERO2, E1, E2)
    assert val == 0.0


def test_zeroth_general_rejects_positive_hessian(flat2):
    V = PotentialField(parse_field("x^2 + y^2", 2), 2)
    with pytest.raises(PreconditionError):
        mtw.mtw_zeroth_general(flat2, V, ZERO2, E1, E2)


def test_quadrature_identities():
    # triangle integrals reduced with the module's own Simpson machinery:
    # (3/2) int_0^1 int_0^taubar 2(1-tau) dtau dtaubar = 1
    # (3/2) int_0^1 int_0^taubar tau^2 (1-tau) dtau dtaubar = 1/20
    panels = 1024
    tau = np.linspace(0.0, 1.0, panels + 1)
    h = 1.0 / panels
    weights = dyn.simpson_weights(panels) * h
    for integrand, expected in [
        (2.0 * (1.0 - tau), 1.0),
        (tau**2 * (1.0 - tau), 0.05),
    ]:
        # nested route: prefix integral then outer Simpson
        prefix = mtw._cumulative_integral(integrand, h)
        nested = 1.5 * float(weights @ prefix)
        assert nested == pytest.approx(expected, abs=1e-12)
        # reduced route: the (1 - tau) weight absorbs the outer integral
        reduced = 1.5 * float(weights @ ((1.0 - tau) * integrand))
        assert reduced == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# First- and second-order closed forms
# ---------------------------------------------------------------------------


def test_first_flat_and_sphere_vanish(flat2, sphere, rng):
    u, v, w = rng.normal(size=(3, 2))
    assert mtw.mtw_first(flat2, ZERO2, u, v, w) == 0.0
    assert abs(mtw.mtw_first(sphere, [1.1, 0.2], u, v, w)) <= 1e-9


def test_first_is_linear_in_v(conformal_a3, rng):
    x = [0.1, -0.05]
    u, v, w = rng.normal(size=(3, 2))
    base = mtw.mtw_first(conformal_a3, x, u, v, w)
    assert mtw.mtw_first(conformal_a3, x, u, 2.5 * v, w) == pytest.approx(
        2.5 * base, rel=1e-12
    )


def test_second_flat_zero(flat2, rng):
    u, v, w = rng.normal(size=(3, 2))
    assert mtw.mtw_second(flat2, ZERO2, u, v, w) == 0.0


def test_second_conformal_origin_collapses_to_g(conformal_a3):
    # with curvature and its first derivative vanishing at the origin the
    # second-order value for v = u is carried entirely by the G-terms
    val = mtw.mtw_second(conformal_a3, ZERO2, E1, E1, E2)
    gval = mtw.g_quantity(conformal_a3, ZERO2, E1, E1, E2)
    assert val == pytest.approx(1.2, abs=1e-12)
    assert val == pytest.approx(gval, abs=1e-12)


def test_g_quantity_matches_simplified_decomposition(conformal_a3, rng):
    jet = GeometryJet(conformal_a3, ZERO2)
    for _ in range(5):
        a_c, b_c = rng.normal(size=2)
        v = a_c * E1 + b_c * E2
        got = mtw.g_quantity(conformal_a3, ZERO2, E1, v, E2)
        u, w = E1, E2
        expected = (
            0.6 * b_c**2 * contract(jet.nabla2_r, w, w, w, u, w, u)
            + 0.6 * a_c * b_c * contract(jet.nabla2_r, w, u, w, u, w, u)
            + 0.1 * a_c**2 * contract(jet.nabla2_r, u, u, w, u, w, u)
        )
        assert got == pytest.approx(expected, abs=1e-10)


def test_g_quantity_requires_orthogonal_flat_pair(conformal_a3, sphere):
    with pytest.raises(PreconditionError):
        mtw.g_quantity(conformal_a3, ZERO2, E1, E1, E1 + E2)  # not orthogonal
    with pytest.raises(PreconditionError):
        mtw.g_quantity(sphere, [EQUATOR, 0.0], E1, E1, E2)  # curvature != 0


def test_first_order_vanishing_on_symmetric_cases(flat2, sphere, conformal_a3):
    assert mtw.first_order_vanishing(flat2, ZERO2, E1, E2) == 0.0
    assert mtw.first_order_vanishing(sphere, [1.2, 0.1], E1, E2) <= 1e-9
    assert mtw.first_order_vanishing(conformal_a3, ZERO2, E1, E2) <= 1e-9


# ---------------------------------------------------------------------------
# 2D discriminant
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,u,expected_gap,expected_ok",
    [
        (-3.0, (0.0, 1.0), 144.0, False),
        (-4.0, (0.0, 1.0), -80.0, True),
        (-3.0, (1.0, 1.0), 0.0, True),  # boundary counts as satisfied
    ],
)
def test_discriminant_2d_closed_values(a, u, expected_gap, expected_ok):
    metric = cf.conformal_metric(cf.ConformalSpec(a=a))
    res = mtw.discriminant_2d(metric, ZERO2, np.array(u))
    assert res.lhs - res.rhs == pytest.approx(expected_gap, abs=1e-6)
    assert res.satisfied is expected_ok


def test_discriminant_2d_requires_dimension_two(flat3):
    with pytest.raises(DimensionError):
        mtw.discriminant_2d(flat3, np.zeros(3), np.array([0.0, 1.0, 0.0]))


def test_discriminant_2d_requires_flat_point(conformal_a3):
    with pytest.raises(PreconditionError):
        mtw.discriminant_2d(conformal_a3, [0.4, 0.1], E2)


# ---------------------------------------------------------------------------
# Quartic-potential sign condition
# ---------------------------------------------------------------------------


def test_quartic_check_identity_matrix():
    chk = mtw.quartic_potential_check(np.eye(2), E1, E2)
    assert chk.mtw_value == pytest.approx(-0.4, abs=1e-12)
    assert chk.condition_value == pytest.approx(2.0, abs=1e-12)
    assert chk.violates is True


def test_quartic_check_indefinite_matrix():
    chk = mtw.quartic_potential_check(np.diag([1.0, -1.0]), E1, E2)
    assert chk.mtw_value == pytest.approx(0.4, abs=1e-12)
    assert chk.condition_value == pytest.approx(-2.0, abs=1e-12)
    assert chk.violates is False


def test_quartic_check_zero_matrix():
    chk = mtw.quartic_potential_check(np.zeros((2, 2)), E1, E2)
    assert chk.mtw_value == 0.0
    assert chk.violates is False


# ---------------------------------------------------------------------------
# Bilinearity / scaling of the closed-form evaluators
# ---------------------------------------------------------------------------


def test_closed_forms_scale_quadratically(conformal_a3, rng):
    x = ZERO2
    u, w = E1, E2
    v = rng.normal(size=2)
    second = mtw.mtw_second(conformal_a3, x, u, v, w)
    assert mtw.mtw_second(conformal_a3, x, 2 * u, v, w) == pytest.approx(
        4 * second, rel=1e-12
    )
    assert mtw.mtw_second(conformal_a3, x, u, v, 3 * w) == pytest.approx(
        9 * second, rel=1e-12
    )
    assert mtw.mtw_second(conformal_a3, x, u, 2 * v, w) == pytest.approx(
        4 * second, rel=1e-12
    )
    gq = mtw.g_quantity(conformal_a3, x, u, v, w)
    assert mtw.g_quantity(conformal_a3, x, 2 * u, v, w) == pytest.approx(
        4 * gq, rel=1e-12
    )
    assert mtw.g_quantity(conformal_a3, x, u, v, 2 * w) == pytest.approx(
        4 * gq, rel=1e-12
    )


def test_zeroth_simplified_bilinearity(flat2, sphere):
    V = quartic_potential(np.array([[0.6, 0.1], [0.1, 0.9]]))
    base = mtw.mtw_zeroth_simplified(flat2, V, ZERO2, E1, E2)
    assert mtw.mtw_zeroth_simplified(flat2, V, ZERO2, 2 * E1, E2) == (
        pytest.approx(4 * base, rel=1e-12)
    )
    assert mtw.mtw_zeroth_simplified(flat2, V, ZERO2, E1, 3 * E2) == (
        pytest.approx(9 * base, rel=1e-12)
    )
    s = mtw.mtw_zeroth_simplified(sphere, None, [EQUATOR, 0.1], E1, E2)
    s2 = mtw.mtw_zeroth_simplified(sphere, None, [EQUATOR, 0.1], 2 * E1, 2 * E2)
    assert s2 == pytest.approx(16 * s, rel=1e-12)


# ---------------------------------------------------------------------------
# Region checker
# ---------------------------------------------------------------------------


def _small_spec(lo=-0.2, hi=0.2):
    return mtw.SamplingSpec(box=((lo, hi), (lo, hi)), points_per_axis=4,
                            directions=8, seed=42)


def test_check_flat_passes(flat2):
    report = mtw.check_a3w_necessary(flat2, None, _small_spec())
    assert report.overall_pass
    for cond in report.conditions:
        assert cond.passed, cond.name


def test_check_conformal_violation_and_pass():
    bad = cf.conformal_metric(cf.ConformalSpec(a=-3.5))
    rep = mtw.check_a3w_necessary(bad, None, _small_spec())
    assert not rep.overall_pass
    by_name = {c.name: c for c in rep.conditions}
    disc = by_name["discriminant-2d"]
    assert not disc.passed
    assert np.allclose(disc.worst.point, [0.0, 0.0], atol=1e-12)
    assert disc.worst.value == pytest.approx(40.0, rel=1e-6)  # 16(27-2a^2)

    good = cf.conformal_metric(cf.ConformalSpec(a=-3.7))
    rep2 = mtw.check_a3w_necessary(good, None, _small_spec())
    assert rep2.overall_pass


def test_check_witness_reproducible():
    """Every worst witness re-evaluates bit-exactly, with and without a
    potential; the checker already applied the zero-curvature
    precondition, so the re-evaluation waives it."""
    quartic = quartic_potential([[0.6, 0.1], [0.1, 0.9]])
    inputs = {
        "conformal": (cf.conformal_metric(cf.ConformalSpec(a=-3.5)), None),
        "quartic": (euclidean_metric(2), quartic),
    }
    reports = {}
    for label, (metric, pot) in inputs.items():
        rep = reports[label] = mtw.check_a3w_necessary(metric, pot, _small_spec())
        for cond in rep.conditions:
            wit = cond.worst
            if wit is None:
                continue
            again = mtw.evaluate_condition(
                metric, pot, wit.condition, wit.point, u=wit.u, v=wit.v,
                w=wit.w, curvature_tol=math.inf,
            )
            assert again == wit.value, (label, cond.name)

    # the quartic's only critical point is the origin, where it violates
    # the zeroth-order condition
    zeroth = next(c for c in reports["quartic"].conditions
                  if c.name == "zeroth-order")
    assert not zeroth.passed
    assert zeroth.evaluated == 8
    wit = zeroth.worst
    assert np.array_equal(wit.point, ZERO2)
    assert wit.value == mtw.mtw_zeroth_general(
        euclidean_metric(2), quartic, wit.point, wit.u, wit.w
    )


def test_check_zeroth_order_only_at_potential_maxima(flat2):
    """A minimum or a saddle of the potential fails the zeroth-order
    evaluator's Hess V <= 0 precondition and is skipped; the origin of
    a concave potential is still evaluated, once per pair."""
    def zeroth(text):
        pot = PotentialField(parse_field(text, 2), 2)
        rep = mtw.check_a3w_necessary(flat2, pot, _small_spec())
        return next(c for c in rep.conditions if c.name == "zeroth-order")

    for text in ("x^2+y^2", "x^2-y^2"):
        assert zeroth(text).evaluated == 0, text
    concave = zeroth("0-x^2-y^2")
    assert concave.evaluated == 8
    assert np.array_equal(concave.worst.point, ZERO2)


def test_check_builds_one_jet_per_point(monkeypatch):
    # every sample point's geometry is built exactly once, in batches of
    # at most CHECK_CHUNK_POINTS points, and no point is built alone
    sizes, singles = [], []
    batch, jet = mtw.GeometryBatch, mtw.GeometryJet

    def counting_batch(metric, X, *args, **kwargs):
        sizes.append(len(X))
        return batch(metric, X, *args, **kwargs)

    def counting_jet(*args, **kwargs):
        singles.append(1)
        return jet(*args, **kwargs)

    monkeypatch.setattr(mtw, "GeometryBatch", counting_batch)
    monkeypatch.setattr(mtw, "GeometryJet", counting_jet)
    spec = _small_spec()
    points = len(spec.points())
    metric = cf.conformal_metric(cf.ConformalSpec(a=-3.5))
    for chunk in (mtw.CHECK_CHUNK_POINTS, 5):
        monkeypatch.setattr(mtw, "CHECK_CHUNK_POINTS", chunk)
        sizes.clear()
        mtw.check_a3w_necessary(metric, None, spec)
        assert sum(sizes) == points
        assert len(sizes) == math.ceil(points / chunk)
        assert max(sizes) <= chunk
    assert singles == []


def test_orthonormal_pairs_drop_only_dependent_pair(flat2):
    geo = GeometryBatch(flat2, [ZERO2], curvature_order=0)
    U, W, ok = mtw._orthonormal_pairs(geo, np.array([E1, E1, E2]))
    # (e1, e1) is dependent; (e1, e2) and the wrap-around (e2, e1) remain
    assert ok.tolist() == [[False, True, True]]
    for (u, w), (want_u, want_w) in zip(zip(U[ok], W[ok]), [(E1, E2), (E2, E1)]):
        assert np.allclose(u, want_u) and np.allclose(w, want_w)


@pytest.mark.parametrize("name", ["sphere", "conformal", "inline3d"])
def test_gram_schmidt_is_the_checkers_pair(name, rng):
    # one Gram-Schmidt: gram_schmidt on two directions returns the
    # checker's pair from the same directions at the same point, bitwise
    metric, x = {
        "sphere": (sphere_metric(), np.array([1.1, -0.3])),
        "conformal": (cf.conformal_metric(cf.ConformalSpec(a=-3.0)),
                      np.array([0.1, -0.2])),
        "inline3d": (inline3d_metric(), np.array([0.1, 0.2, -0.1])),
    }[name]
    d1, d2 = rng.normal(size=(2, metric.dim))
    geo = GeometryBatch(metric, x[None], curvature_order=0)
    U, W, ok = mtw._orthonormal_pairs(geo, np.array([d1, d2]))
    u, w = gram_schmidt(metric, x, [d1, d2])
    assert ok[0, 0]
    assert np.array_equal(U[0, 0], u) and np.array_equal(W[0, 0], w)


def test_orthonormal_pairs_reject_wrong_length_directions(flat2):
    geo = GeometryBatch(flat2, [ZERO2], curvature_order=0)
    with pytest.raises(ValueError):
        mtw._orthonormal_pairs(geo, np.eye(3))


def _chunk_case(name):
    """(metric, potential, sampling) of the chunking cases."""
    if name == "conformal":
        return cf.conformal_metric(cf.ConformalSpec(a=-3.5)), None, _small_spec()
    if name == "inline3d":
        return inline3d_metric(), None, mtw.SamplingSpec(
            box=((-0.3, 0.3),) * 3, points_per_axis=3, directions=6, seed=42)
    return (euclidean_metric(2), quartic_potential([[0.6, 0.1], [0.1, 0.9]]),
            _small_spec(-0.5, 0.5))


@pytest.mark.parametrize("name", ["conformal", "inline3d", "flat-quartic"])
def test_check_is_independent_of_chunking(name, monkeypatch):
    """A check over several chunks gives the report of one chunk, bit for
    bit, and every witness re-evaluates exactly as a batch of one."""
    metric, pot, spec = _chunk_case(name)
    whole = mtw.check_a3w_necessary(metric, pot, spec)
    monkeypatch.setattr(mtw, "CHECK_CHUNK_POINTS", 4)
    chunked = mtw.check_a3w_necessary(metric, pot, spec)
    assert len(spec.points()) > 2 * mtw.CHECK_CHUNK_POINTS
    assert (json.dumps(_jsonify(chunked), sort_keys=True)
            == json.dumps(_jsonify(whole), sort_keys=True))
    for cond in chunked.conditions:
        wit = cond.worst
        if wit is not None:
            again = mtw.evaluate_condition(
                metric, pot, wit.condition, wit.point, u=wit.u, v=wit.v,
                w=wit.w, curvature_tol=math.inf,
            )
            assert again == wit.value, (name, cond.name)


# Measured peak of the check below: 9.8 MB, nearly all of it one chunk's
# geometry (CHECK_CHUNK_POINTS points at about 76 kB each in 3-D); the
# same check in a single batch peaks at about 26 MB.
CHECK_3D_PEAK_BOUND_MB = 12.0


def test_check_memory_is_bounded_by_one_chunk():
    # 343 3-D points span three chunks; the peak stays that of one
    metric = inline3d_metric()
    spec = mtw.SamplingSpec(box=((-0.3, 0.3),) * 3, points_per_axis=7,
                            directions=6, seed=42)
    assert len(spec.points()) > mtw.CHECK_CHUNK_POINTS
    mtw.check_a3w_necessary(metric, None, spec)  # plans built outside the trace
    tracemalloc.start()
    try:
        mtw.check_a3w_necessary(metric, None, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= CHECK_3D_PEAK_BOUND_MB * 1e6


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-4.0, max_value=-2.8),
       st.floats(min_value=-2.0, max_value=2.0))
def test_check_verdicts_and_counts_invariant_under_metric_scaling(a, log_c):
    # every threshold is relative, so scaling the metric by c moves no
    # verdict and no evaluated count (witness points may flip between
    # near-equal values, so they are not compared)
    base = cf.conformal_metric(cf.ConformalSpec(a=a))
    spec = _small_spec()
    reports = [mtw.check_a3w_necessary(m, None, spec)
               for m in (base, scale_metric(base, 10.0 ** log_c))]
    v1, v2 = ([(c.name, c.passed, c.evaluated) for c in r.conditions]
              for r in reports)
    assert v1 == v2


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_check_verdicts_invariant_under_metric_scaling(lam):
    base = cf.conformal_metric(cf.ConformalSpec(a=-3.5))
    scaled = scale_metric(base, lam)
    spec = _small_spec()
    rep1 = mtw.check_a3w_necessary(base, None, spec)
    rep2 = mtw.check_a3w_necessary(scaled, None, spec)
    v1 = [(c.name, c.passed) for c in rep1.conditions]
    v2 = [(c.name, c.passed) for c in rep2.conditions]
    assert v1 == v2


def test_check_report_deterministic(flat2):
    spec = _small_spec()
    r1 = mtw.check_a3w_necessary(flat2, None, spec)
    r2 = mtw.check_a3w_necessary(flat2, None, spec)
    j1 = json.dumps(_jsonify(r1), sort_keys=True)
    j2 = json.dumps(_jsonify(r2), sort_keys=True)
    assert j1 == j2

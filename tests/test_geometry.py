"""Pointwise tensor pipeline: Christoffel, curvature, covariant derivatives."""

import numpy as np
import pytest

from mtwcheck import conformal as cf
from mtwcheck.dynamics import _evaluator
from mtwcheck.errors import (
    DegeneratePlaneError,
    MetricDegenerateError,
    RankDeficiencyError,
)
from mtwcheck.geometry import (
    GeometryJet,
    MetricField,
    christoffel,
    euclidean_metric,
    gram_schmidt,
    quartic_potential,
    riemann,
    rotate90,
    sectional,
    sphere_metric,
)

from conftest import sphere_points


def _random_metric_points(rng, name, count):
    if name == "sphere":
        return sphere_metric(), sphere_points(rng, count)
    if name == "conformal":
        return (cf.conformal_metric(cf.ConformalSpec(a=-3.0)),
                rng.uniform(-0.6, 0.6, (count, 2)))
    if name == "conformal-a4":
        return (cf.conformal_metric(cf.ConformalSpec(a=-2.0, a4=0.5)),
                rng.uniform(-0.5, 0.5, (count, 2)))
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------


def test_euclidean_christoffel_zero(flat3):
    gam = christoffel(flat3, [0.3, -1.0, 2.0])
    assert np.allclose(gam, 0.0, atol=1e-15)


def test_conformal_christoffel_origin_zero(conformal_a3):
    gam = christoffel(conformal_a3, [0.0, 0.0])
    assert np.allclose(gam, 0.0, atol=1e-14)


@pytest.mark.parametrize("a", [-2.0, -3.5])
def test_conformal_christoffel_at_unit_point(a):
    # f = x^3 y + a x^2 y^2 + x y^3 has f_x(1,0) = 0 and f_y(1,0) = 1,
    # so the conformal connection evaluates in closed form there.
    metric = cf.conformal_metric(cf.ConformalSpec(a=a))
    gam = christoffel(metric, [1.0, 0.0])
    assert gam[0, 0, 1] == pytest.approx(1.0, abs=1e-12)   # x-xy entry
    assert gam[1, 0, 0] == pytest.approx(-1.0, abs=1e-12)  # y-xx entry
    assert gam[0, 0, 0] == pytest.approx(0.0, abs=1e-12)   # x-xx entry
    assert np.allclose(gam[0], gam[0].T, atol=1e-15)       # lower symmetry


def test_christoffel_metric_compatibility(rng):
    # dg_ij/dx_k = Gamma^l_ki g_lj + Gamma^l_kj g_il
    metric, pts = _random_metric_points(rng, "conformal", 3)
    h = 1e-6
    for x in pts:
        gam = christoffel(metric, x)
        g = metric.matrix(x)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            dg = (metric.matrix(x + e) - metric.matrix(x - e)) / (2 * h)
            recon = np.einsum("li,lj->ij", gam[:, k, :], g)
            recon = recon + recon.T
            assert np.allclose(dg, recon, atol=1e-8)


def test_degenerate_metric_rejected():
    from mtwcheck.expr import parse_field as pf

    bad = MetricField.from_upper([pf("0", 2), pf("0", 2), pf("1", 2)], 2)
    with pytest.raises(MetricDegenerateError):
        christoffel(bad, [0.0, 0.0])


# ---------------------------------------------------------------------------
# Riemann tensor
# ---------------------------------------------------------------------------


def test_euclidean_riemann_zero(flat2):
    assert np.allclose(riemann(flat2, [0.5, -0.5]), 0.0, atol=1e-15)


def test_sphere_coordinate_plane_curvature(sphere):
    K = sectional(sphere, [np.pi / 3, 0.2], [1.0, 0.0], [0.0, 1.0])
    assert K == pytest.approx(1.0, abs=1e-10)


def test_conformal_riemann_vanishes_at_origin(conformal_a3):
    assert np.allclose(riemann(conformal_a3, [0.0, 0.0]), 0.0, atol=1e-12)


@pytest.mark.parametrize("name", ["sphere", "conformal", "conformal-a4"])
def test_riemann_symmetries_and_first_bianchi(rng, name):
    metric, pts = _random_metric_points(rng, name, 50)
    for x in pts:
        R = riemann(metric, x)
        assert np.allclose(R, -np.swapaxes(R, 0, 1), atol=1e-9)
        assert np.allclose(R, -np.swapaxes(R, 2, 3), atol=1e-9)
        assert np.allclose(R, np.transpose(R, (2, 3, 0, 1)), atol=1e-9)
        cyc = (R + np.transpose(R, (0, 2, 3, 1))
               + np.transpose(R, (0, 3, 1, 2)))
        assert np.allclose(cyc, 0.0, atol=1e-9)


@pytest.mark.parametrize("name", ["sphere", "conformal", "conformal-a4"])
def test_second_bianchi(rng, name):
    metric, pts = _random_metric_points(rng, name, 10)
    for x in pts:
        # nr[m, i, j, k, l] = (nabla_m R)_ijkl
        nr = GeometryJet(metric, x, curvature_order=1).nabla_r
        cyc = (nr + np.transpose(nr, (1, 2, 0, 3, 4))
               + np.transpose(nr, (2, 0, 1, 3, 4)))
        assert np.allclose(cyc, 0.0, atol=1e-8)


def test_sphere_is_locally_symmetric(rng, sphere):
    for x in sphere_points(rng, 10):
        jet = GeometryJet(sphere, x)
        assert np.max(np.abs(jet.nabla_r)) < 1e-8
        assert np.max(np.abs(jet.nabla2_r)) < 1e-8


# ---------------------------------------------------------------------------
# Sectional curvature
# ---------------------------------------------------------------------------


def test_sphere_sectional_is_one_for_random_pairs(rng, sphere):
    for x in sphere_points(rng, 20):
        u = rng.normal(size=2)
        w = rng.normal(size=2)
        if abs(np.linalg.det(np.stack([u, w]))) < 0.1:
            w = w + np.array([0.5, -0.5])
        assert sectional(sphere, x, u, w) == pytest.approx(1.0, abs=1e-8)


def test_conformal_sectional_zero_curvature_point():
    metric = cf.conformal_metric(cf.ConformalSpec(a=-3.0))
    K = sectional(metric, [1.0, 1.0], [1.0, 0.0], [0.0, 1.0])
    assert K == pytest.approx(0.0, abs=1e-10)


def test_sectional_invariance_under_basis_change(rng, sphere, conformal_a3):
    for metric, x in [(sphere, np.array([1.2, 0.4])),
                      (conformal_a3, np.array([0.3, -0.2]))]:
        u = rng.normal(size=2)
        w = rng.normal(size=2) + np.array([1.0, 0.0])
        k1 = sectional(metric, x, u, w)
        k2 = sectional(metric, x, 2.0 * u, w + 3.0 * u)
        assert abs(k1 - k2) <= 1e-10 * max(1.0, abs(k1))


def test_sectional_degenerate_plane_rejected(flat2):
    with pytest.raises(DegeneratePlaneError):
        sectional(flat2, [0.0, 0.0], [1.0, 1.0], [2.0, 2.0])


# ---------------------------------------------------------------------------
# Curvature-derivative contractions at the conformal origin
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a", [-3.0, -4.0])
def test_second_curvature_derivative_contractions(a, rng):
    # At the origin of the conformal family the lowered curvature and its
    # first derivative vanish, and the second-derivative contractions
    # evaluate to quadratic forms in the direction components.
    metric = cf.conformal_metric(cf.ConformalSpec(a=a))
    jet = GeometryJet(metric, [0.0, 0.0])
    for _ in range(5):
        u = rng.normal(size=2)
        u = u / np.hypot(*u)  # identities are stated for unit directions
        w = np.array([-u[1], u[0]])
        expected = -4.0 * (a * u[0] ** 2 + 6 * u[0] * u[1] + a * u[1] ** 2)
        assert jet.n2r6(u, u, u, w, u, w) == pytest.approx(expected, abs=1e-9)
        mixed = -4.0 * (a * u[0] * w[0] + 3 * u[0] * w[1]
                        + 3 * w[0] * u[1] + a * u[1] * w[1])
        assert jet.n2r6(w, u, u, w, u, w) == pytest.approx(mixed, abs=1e-9)


@pytest.mark.parametrize("name", ["sphere", "conformal", "inline3d"])
def test_jet_tensors_match_point_evaluator(name, rng):
    # The jet pipeline and the integrator's batched field evaluator share
    # the Christoffel and curvature formulas but reach them by different
    # routes: jet products of Taylor coefficients against one generated
    # function of the metric partials, with an explicit product rule for
    # the Christoffel derivative.
    if name == "inline3d":
        from mtwcheck.expr import parse_field as pf

        e = pf("exp(2*x*y*z)", 3)
        zero = pf("0", 3)
        metric = MetricField.from_upper([e, zero, zero, e, zero, e], 3)
        pts = rng.uniform(-0.3, 0.3, (3, 3))
    else:
        metric, pts = _random_metric_points(rng, name, 3)
    fields = _evaluator(metric, None, need_curvature=True)(pts.T)
    for b, x in enumerate(pts):
        jet = GeometryJet(metric, x, curvature_order=0)
        gam, rup = fields.gam[..., b], fields.rup[..., b]
        assert np.allclose(jet.gamma, gam, rtol=1e-12,
                           atol=1e-12 * np.max(np.abs(gam)))
        assert np.allclose(jet.riemann_raised, rup, rtol=1e-12,
                           atol=1e-12 * np.max(np.abs(rup)))


# ---------------------------------------------------------------------------
# Potential derivatives
# ---------------------------------------------------------------------------


def test_cubic_potential_fourth_contraction_zero(flat2):
    from mtwcheck.geometry import PotentialField
    from mtwcheck.expr import parse_field as pf

    V = PotentialField(pf("x^3 + x*y^2", 2), 2)
    jet = GeometryJet(flat2, [0.2, 0.3], potential=V, curvature_order=0)
    assert jet.fourth_contraction([0.0, 1.0], [1.0, 0.0]) == pytest.approx(
        0.0, abs=1e-12
    )


def test_quartic_identity_matrix_fourth_contraction(flat2):
    V = quartic_potential(np.eye(2))
    jet = GeometryJet(flat2, [0.0, 0.0], potential=V, curvature_order=0)
    assert jet.fourth_contraction([0.0, 1.0], [1.0, 0.0]) == pytest.approx(
        -8.0, abs=1e-12
    )


def test_fourth_contraction_equals_plain_derivative_off_critical(flat2, rng):
    # In flat space the covariant corrections vanish even where grad V != 0.
    A = np.array([[0.8, -0.3], [-0.3, 0.5]])
    V = quartic_potential(A)
    x = np.array([0.3, -0.2])
    u = rng.normal(size=2)
    w = rng.normal(size=2)
    jet = GeometryJet(flat2, x, potential=V, curvature_order=0)

    def v_fn(p):
        q = float(p @ A @ p)
        return -q * q

    h = 0.05  # quartic V: 4th differences are exact for any step
    vals = np.empty((5, 5))
    offs = [-2, -1, 0, 1, 2]
    for i, a_ in enumerate(offs):
        for j, b_ in enumerate(offs):
            vals[i, j] = v_fn(x + a_ * h * u + b_ * h * w)
    d2_u = (vals[3, :] - 2 * vals[2, :] + vals[1, :]) / h**2
    d4 = (d2_u[3] - 2 * d2_u[2] + d2_u[1]) / h**2
    assert jet.fourth_contraction(w, u) == pytest.approx(d4, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# Orthonormalization helpers
# ---------------------------------------------------------------------------


def test_gram_schmidt_euclidean(flat2):
    out = gram_schmidt(flat2, [0.0, 0.0], [[2.0, 0.0], [1.0, 1.0]])
    assert np.allclose(out[0], [1.0, 0.0], atol=1e-14)
    assert np.allclose(out[1], [0.0, 1.0], atol=1e-14)


def test_gram_schmidt_conformal_origin(conformal_a3):
    out = gram_schmidt(conformal_a3, [0.0, 0.0], [[2.0, 0.0], [1.0, 1.0]])
    assert np.allclose(out[0], [1.0, 0.0], atol=1e-12)
    assert np.allclose(out[1], [0.0, 1.0], atol=1e-12)


def test_gram_schmidt_orthonormality_generic(rng, sphere):
    x = [1.1, -0.3]
    vecs = [rng.normal(size=2), rng.normal(size=2)]
    out = gram_schmidt(sphere, x, vecs)
    g = sphere.matrix(x)
    gram = np.array([[a @ g @ b for b in out] for a in out])
    assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_gram_schmidt_rank_deficiency(flat2):
    with pytest.raises(RankDeficiencyError):
        gram_schmidt(flat2, [0.0, 0.0], [[0.0, 0.0]])
    with pytest.raises(RankDeficiencyError):
        gram_schmidt(flat2, [0.0, 0.0], [[1.0, 1.0], [2.0, 2.0]])


def test_rotate90_metric_quarter_turn(rng, conformal_a3):
    x = np.array([0.3, 0.1])
    g = conformal_a3.matrix(x)
    u = rng.normal(size=2)
    r = rotate90(conformal_a3, x, u)
    assert abs(u @ g @ r) < 1e-12
    assert u @ g @ u == pytest.approx(r @ g @ r, rel=1e-12)

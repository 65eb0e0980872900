"""Pointwise tensor pipeline: Christoffel, curvature, covariant derivatives."""

import gc
import weakref
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtwcheck import conformal as cf
from mtwcheck import expr as ex
from mtwcheck.errors import (
    DegeneratePlaneError,
    DimensionError,
    MetricDegenerateError,
    PreconditionError,
    RankDeficiencyError,
)
from mtwcheck.expr import TaylorPlan, parse_field
from mtwcheck.geometry import (
    _FIELDS,
    _TAYLOR_PLAN_CACHE_SIZE,
    _TAYLOR_PLANS,
    GeometryBatch,
    MetricField,
    PotentialField,
    _christoffel_from,
    _curvature_from,
    _curve_stage,
    _generalized_eigh,
    _plan_of,
    christoffel,
    contract,
    euclidean_metric,
    gram_schmidt,
    mode_profile,
    quartic_potential,
    riemann,
    rotate90,
    scale_metric,
    sectional,
    sphere_metric,
)
from mtwcheck.jets import JetSpace, jcontract, jderiv, jmatinv
from mtwcheck.mtw import SamplingSpec

from conftest import inline3d_metric, reference_jet, reference_partial, sphere_points


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
    with pytest.raises(MetricDegenerateError, match=r"at \[0.5, 0.0\]"):
        bad.matrix([0.5, 0.0])


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
def test_non_finite_metric_is_not_positive_definite(entry):
    from mtwcheck.geometry import require_positive_definite

    g = np.tile(np.eye(2), (3, 1, 1))
    g[1, 0, 0] = g[2, 1, 1] = entry
    X = np.arange(6.0).reshape(3, 2)
    with pytest.raises(MetricDegenerateError, match=r"at \[2.0, 3.0\]"):
        require_positive_definite(g, X)


def test_positive_definite_test_needs_no_gershgorin_bound():
    from mtwcheck.geometry import require_positive_definite

    # eigenvalues 3 -+ 2 sqrt(2) > 0, though 1 - |2| < 0
    g = np.array([[[1.0, 2.0], [2.0, 5.0]]])
    require_positive_definite(g, np.zeros((1, 2)))


def test_positive_definite_test_names_a_block_s_only_failing_point():
    from mtwcheck.geometry import require_positive_definite

    # every point but the last clears its Gershgorin bound; the last is
    # named with its eigvalsh eigenvalue
    g = np.tile(np.eye(3), (50, 1, 1))
    g[-1] = [[1.0, 0.5, 0.0], [0.5, 0.25, 0.0], [0.0, 0.0, 2.0]]
    X = np.arange(150.0).reshape(50, 3)
    w = np.linalg.eigvalsh(g[-1])[0]
    with pytest.raises(MetricDegenerateError) as err:
        require_positive_definite(g, X)
    assert str(err.value).endswith(f"at [147.0, 148.0, 149.0]: min eigenvalue {w:.3e}")


def test_matrix_of_a_batch_is_the_matrices_of_its_points(rng):
    metric = cf.conformal_metric(cf.ConformalSpec(a=-3.0))
    X = rng.uniform(-0.3, 0.3, size=(4, 2))
    G = metric.matrix(X)
    assert G.shape == (4, 2, 2)
    for x, g in zip(X, G):
        assert np.array_equal(metric.matrix(x), g)
    with pytest.raises(DimensionError):
        metric.matrix([0.0, 0.0, 0.0])


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
        nr = GeometryBatch(metric, x[None], curvature_order=1).nabla_r[0]
        cyc = (nr + np.transpose(nr, (1, 2, 0, 3, 4))
               + np.transpose(nr, (2, 0, 1, 3, 4)))
        assert np.allclose(cyc, 0.0, atol=1e-8)


def test_sphere_is_locally_symmetric(rng, sphere):
    for x in sphere_points(rng, 10):
        geo = GeometryBatch(sphere, x[None])
        assert np.max(np.abs(geo.nabla_r)) < 1e-8
        assert np.max(np.abs(geo.nabla2_r)) < 1e-8


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
    N2 = GeometryBatch(metric, [[0.0, 0.0]]).nabla2_r[0]
    for _ in range(5):
        u = rng.normal(size=2)
        u = u / np.hypot(*u)  # identities are stated for unit directions
        w = np.array([-u[1], u[0]])
        expected = -4.0 * (a * u[0] ** 2 + 6 * u[0] * u[1] + a * u[1] ** 2)
        assert contract(N2, u, u, u, w, u, w) == pytest.approx(
            expected, abs=1e-9)
        mixed = -4.0 * (a * u[0] * w[0] + 3 * u[0] * w[1]
                        + 3 * w[0] * u[1] + a * u[1] * w[1])
        assert contract(N2, w, u, u, w, u, w) == pytest.approx(
            mixed, abs=1e-9)


@pytest.mark.parametrize("name", ["sphere", "conformal", "inline3d"])
def test_jet_tensors_match_point_evaluator(name, rng):
    # The jet pipeline and the integrator's generated kernels reach the
    # connection by different routes: the kernels contract the velocity
    # into the lowered partials of g before lifting by cofactors, while the
    # reference contracts the full Christoffel array built from jet values.
    # The conformal case carries a potential, whose raised gradient enters
    # the slope.  (The slope's Jacobian is pinned in test_dynamics.)
    potential = None
    if name == "inline3d":
        metric = inline3d_metric()
        pts = rng.uniform(-0.3, 0.3, (3, 3))
    else:
        metric, pts = _random_metric_points(rng, name, 3)
        if name == "conformal":
            potential = PotentialField(parse_field("0 - x^2*y - 0.3*y^4", 2), 2)
    vel = rng.normal(size=pts.shape)
    n = metric.dim
    fn, g_fill, _, lin = _curve_stage(metric, potential)
    a = np.concatenate([pts.T, vel.T])
    k, g = np.empty(a.shape), np.empty((len(pts), n, n))
    if g_fill is not None:
        g[...] = g_fill
    fn(a, k, g)
    got = {"gam_v": lin(a)[..., n:], "slope": k[n:].T}
    for b, (x, v) in enumerate(zip(pts, vel)):
        geo = GeometryBatch(metric, x[None], potential=potential, curvature_order=0)
        gam = geo.gamma[0]
        want = {
            "gam_v": np.einsum("kij,i->kj", gam, v),
            "slope": -np.einsum("kij,i,j->k", gam, v, v),
        }
        if potential is not None:
            want["slope"] -= geo.grad_v[0]
        for key, ref in want.items():
            assert np.allclose(got[key][b], ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(ref))), key


def _degree4_reference(metric, x, potential, order):
    """Every GeometryBatch field at one point with all stages at Taylor
    degree 4."""
    space = JetSpace.get(metric.dim, 4)
    n = metric.dim
    product = partial(jcontract, space)

    def d(a):
        return np.stack([jderiv(space, a, m) for m in range(n)])

    def covariant(T, gam):
        idx = "abcdefgh"[: T.ndim - 1]
        out = d(T)
        for s, q in enumerate(idx):
            out = out - product(f"{idx[:s]}p{idx[s + 1:]},pm{q}->m{idx}", T, gam)
        return out

    G = metric.jets(x, space)
    Ginv = jmatinv(space, G)
    gam = _christoffel_from(space, Ginv, d(G))
    dgam = d(gam)
    rup = _curvature_from(space, gam, dgam)
    Rlow = product("lm,mijk->ijkl", G, rup)
    ref = {"x": np.asarray(x, dtype=float), "g": G[..., 0], "g_inv": Ginv[..., 0],
           "gamma": gam[..., 0], "dgamma": dgam[..., 0],
           "riemann": Rlow[..., 0], "riemann_raised": rup[..., 0]}
    if order >= 1:
        ref["d2gamma"] = d(dgam)[..., 0]
        nr = covariant(Rlow, gam)
        ref["nabla_r"] = nr[..., 0]
        if order >= 2:
            ref["nabla2_r"] = covariant(nr, gam)[..., 0]
    if potential is not None:
        dv = d(reference_jet(potential.field, x, space))
        hess = covariant(dv, gam)
        n3 = covariant(hess, gam)
        ref["grad_v_lower"] = dv[..., 0]
        ref["grad_v"] = Ginv[..., 0] @ dv[..., 0]
        ref["hess_v"] = hess[..., 0]
        ref["nabla3_v"] = n3[..., 0]
        ref["nabla4_v"] = covariant(n3, gam)[..., 0]
    return ref


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("with_potential", [False, True])
@pytest.mark.parametrize("name", ["conformal", "inline3d"])
def test_graded_jet_matches_degree4_reference(name, with_potential, order):
    # Each stage runs at the lowest Taylor degree that keeps its values
    # exact; running every stage at degree 4 must give the same fields up
    # to rounding.
    if name == "inline3d":
        metric = inline3d_metric()
        x, A = [0.3, -0.2, 0.25], [[1, .2, .1], [.2, .8, 0], [.1, 0, 1.2]]
    else:
        metric = cf.conformal_metric(cf.ConformalSpec(a=-3.0))
        x, A = [0.3, -0.2], [[1, .3], [.3, .7]]
    potential = quartic_potential(np.array(A, dtype=float)) if with_potential else None
    geo = GeometryBatch(metric, [x], potential=potential, curvature_order=order)
    ref = _degree4_reference(metric, x, potential, order)
    fields = {k: v[0] for k, v in vars(geo).items() if isinstance(v, np.ndarray)}
    assert fields.keys() == ref.keys()
    for key, want in ref.items():
        scale = np.max(np.abs(want))
        assert np.max(np.abs(fields[key] - want)) <= 1e-13 * scale, key


# ---------------------------------------------------------------------------
# Potential derivatives
# ---------------------------------------------------------------------------


def test_cubic_potential_fourth_contraction_zero(flat2):
    from mtwcheck.geometry import PotentialField
    from mtwcheck.expr import parse_field as pf

    V = PotentialField(pf("x^3 + x*y^2", 2), 2)
    geo = GeometryBatch(flat2, [[0.2, 0.3]], potential=V, curvature_order=0)
    w, u = [0.0, 1.0], [1.0, 0.0]
    assert contract(geo.nabla4_v[0], w, w, u, u) == pytest.approx(
        0.0, abs=1e-12
    )


def test_quartic_identity_matrix_fourth_contraction(flat2):
    V = quartic_potential(np.eye(2))
    geo = GeometryBatch(flat2, [[0.0, 0.0]], potential=V, curvature_order=0)
    w, u = [0.0, 1.0], [1.0, 0.0]
    assert contract(geo.nabla4_v[0], w, w, u, u) == pytest.approx(
        -8.0, abs=1e-12
    )


def test_fourth_contraction_equals_plain_derivative_off_critical(flat2, rng):
    # In flat space the covariant corrections vanish even where grad V != 0.
    A = np.array([[0.8, -0.3], [-0.3, 0.5]])
    V = quartic_potential(A)
    x = np.array([0.3, -0.2])
    u = rng.normal(size=2)
    w = rng.normal(size=2)
    geo = GeometryBatch(flat2, x[None], potential=V, curvature_order=0)

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
    assert contract(geo.nabla4_v[0], w, w, u, u) == pytest.approx(d4, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# Hessian modes
# ---------------------------------------------------------------------------

_entry = st.floats(min_value=-2, max_value=2, allow_nan=False,
                   allow_infinity=False)


@st.composite
def _pencils(draw):
    """(g, B) with g symmetric positive definite (eigenvalues >= 0.5) and
    B a square matrix, both n x n for n = 1..4."""
    n = draw(st.integers(min_value=1, max_value=4))
    A, B = (np.array(draw(st.lists(_entry, min_size=n * n, max_size=n * n)))
            .reshape(n, n) for _ in range(2))
    g = A @ A.T + 0.5 * np.eye(n)
    return 0.5 * (g + g.T), B


def _constant_geometry(g, H, scale=1.0):
    """Geometry at the origin, a batch of one, of the constant metric
    scale * g with potential scale * (1/2) x^T H x, whose Hess V there is
    scale * H."""
    n = len(g)
    metric = MetricField.from_upper(
        [ex.const(g[i, j], n) for i in range(n) for j in range(i, n)], n)
    v = ex.fsum((ex.scale(0.5 * H[i, j], ex.mul(ex.var(i, n), ex.var(j, n)))
                 for i in range(n) for j in range(n)), n)
    pot = PotentialField(ex.scale(scale, v), n)
    return GeometryBatch(scale_metric(metric, scale), np.zeros((1, n)),
                         potential=pot, curvature_order=0)


@settings(max_examples=60, deadline=None)
@given(_pencils())
def test_generalized_eigh_solves_the_pencil(pencil):
    g, B = pencil
    H = B + B.T
    lam, E = _generalized_eigh(H, g)
    assert np.all(np.diff(lam) >= 0.0)
    assert np.allclose(E.T @ g @ E, np.eye(len(g)), rtol=0.0, atol=1e-10)
    scale = 1.0 + np.abs(H).max() + np.abs(lam).max() * np.abs(g).max()
    assert np.allclose(H @ E, g @ E * lam, rtol=0.0, atol=1e-10 * scale)


@settings(max_examples=30, deadline=None)
@given(_pencils(), st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False))
def test_mode_reconstruction_invariant_under_joint_scaling(pencil, c, t):
    # modes exist where Hess V <= 0, so the Hessian is -B B^T
    g, B = pencil
    H = -(B @ B.T)
    H = 0.5 * (H + H.T)
    v = np.linspace(1.0, -0.5, len(g))

    def reconstruct(geo):
        mus, E, ok = geo.hessian_modes()
        assert ok.tolist() == [True]
        mus, E = mus[0], E[0]
        return E @ (mode_profile(mus, t) * (E.T @ geo.g[0] @ v))

    want = reconstruct(_constant_geometry(g, H))
    got = reconstruct(_constant_geometry(g, H, scale=c))
    # the floor keeps the tolerance nonzero where a tiny t underflows
    assert np.allclose(got, want, rtol=1e-9,
                       atol=1e-9 * np.abs(want).max() + 1e-300)


def test_hessian_modes_reject_a_saddle(flat2):
    V = PotentialField(parse_field("x^2 - y^2", 2), 2)
    geo = GeometryBatch(flat2, [[0.0, 0.0]], potential=V, curvature_order=0)
    assert geo.hessian_modes()[2].tolist() == [False]
    with pytest.raises(PreconditionError, match="Hess V <= 0"):
        geo.hessian_modes("the test")


def test_hessian_modes_reject_a_noncritical_point(flat2):
    V = PotentialField(parse_field("0 - x^2 - y^2", 2), 2)
    geo = GeometryBatch(flat2, [[0.1, 0.0]], potential=V, curvature_order=0)
    assert geo.hessian_modes()[2].tolist() == [False]
    with pytest.raises(PreconditionError, match="critical point"):
        geo.hessian_modes("the test")


def test_hessian_modes_without_potential_are_zero(sphere):
    geo = GeometryBatch(sphere, [[1.0, 0.3]], curvature_order=0)
    mus, E, ok = geo.hessian_modes("the test")
    assert ok.tolist() == [True]
    assert np.array_equal(mus, np.zeros((1, 2)))
    assert np.allclose(E[0].T @ geo.g[0] @ E[0], np.eye(2), rtol=0.0, atol=1e-14)


def test_hessian_modes_are_per_point_masks(flat2):
    # in a batch of a maximum and a noncritical point, each point's
    # modes and mask are those it has alone, and the raising form names
    # the first point that is no maximum
    V = PotentialField(parse_field("0 - x^2 - 2*y^4 + x*y^3", 2), 2)
    X = np.array([[0.0, 0.0], [0.3, 0.1]])
    geo = GeometryBatch(flat2, X, potential=V, curvature_order=0)
    mus, E, ok = geo.hessian_modes()
    assert ok.tolist() == [True, False]
    for b, x in enumerate(X):
        mus1, E1, ok1 = GeometryBatch(flat2, x[None], potential=V,
                                      curvature_order=0).hessian_modes()
        assert np.array_equal(mus[b], mus1[0]) and np.array_equal(E[b], E1[0])
        assert ok1[0] == ok[b]
    with pytest.raises(PreconditionError, match="critical point"):
        geo.hessian_modes("the test")
    GeometryBatch(flat2, X[:1], potential=V, curvature_order=0).hessian_modes("x")
    saddle = PotentialField(parse_field("x^2 - y^2", 2), 2)
    both = GeometryBatch(flat2, np.zeros((2, 2)), potential=saddle, curvature_order=0)
    assert both.hessian_modes()[2].tolist() == [False, False]


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


# ---------------------------------------------------------------------------
# Batches of points
# ---------------------------------------------------------------------------


def _batch_case(name):
    """(metric, potential, sample points) of the batch-invariance cases."""
    if name == "conformal":
        metric, pot, box = cf.conformal_metric(cf.ConformalSpec(a=-3.5)), None, 0.2
    elif name == "inline3d":
        metric, pot, box = inline3d_metric(), None, 0.3
    else:
        metric, pot, box = (euclidean_metric(2),
                            quartic_potential([[0.6, 0.1], [0.1, 0.9]]), 0.5)
    spec = SamplingSpec(((-box, box),) * metric.dim, points_per_axis=3)
    return metric, pot, spec.points()


@pytest.mark.parametrize("order", [0, 2])
@pytest.mark.parametrize("name", ["conformal", "inline3d", "flat-quartic"])
def test_batch_point_equals_point_built_alone(name, order):
    # every array of point b of a batch is bit-identical to the batch of
    # one built at that point, whatever the batch around it
    metric, pot, X = _batch_case(name)
    for batch_points in (X, X[1:4]):
        batch = GeometryBatch(metric, batch_points, pot, curvature_order=order)
        for b, x in enumerate(batch_points):
            alone = GeometryBatch(metric, x[None], pot, curvature_order=order)
            for field in _FIELDS:
                got, want = getattr(batch, field), getattr(alone, field)
                if want is None:
                    assert got is None, field
                else:
                    assert np.array_equal(got[b], want[0]), (field, b)


@pytest.mark.parametrize("name", ["sphere", "conformal", "inline3d"])
def test_metric_jets_match_scalar_taylor_coefficients(name, rng):
    # one generated function for all partials against one scalar
    # evaluation per coefficient; they differ only where NumPy's exp or
    # sin rounds differently from the math module's
    if name == "inline3d":
        metric, pts = inline3d_metric(), rng.uniform(-0.3, 0.3, (4, 3))
    else:
        metric, pts = _random_metric_points(rng, name, 4)
    space = JetSpace.get(metric.dim, 4)
    G = metric.jets(pts, space)
    for b, x in enumerate(pts):
        assert np.array_equal(metric.jets(x, space), G[:, :, b])
        for i in range(metric.dim):
            for j in range(metric.dim):
                want = reference_jet(metric.entries[i][j], x, space)
                assert np.allclose(G[i, j, b], want, rtol=1e-14,
                                   atol=1e-14 * np.max(np.abs(want)))


def test_taylor_plan_evaluates_each_distinct_partial_once(monkeypatch):
    # the three diagonal entries of exp(2xyz) I are separate but equal
    # fields (parsed one by one, as the CLI does), and the off-diagonal
    # zeros are constant: one entry's non-constant partials are all the
    # plan evaluates, and its build differentiates each distinct
    # (node, variable) pair once
    upper = [parse_field("exp(2*x*y*z)" if i == j else "0", 3)
             for i in range(3) for j in range(i, 3)]
    steps = []
    diff = ex._diff

    def counting(node, v, dag):
        if (id(node), v) not in dag.derivs:
            steps.append((repr(node), v))
        return diff(node, v, dag)

    monkeypatch.setattr(ex, "_diff", counting)
    space = JetSpace.get(3, 4)
    plan = TaylorPlan(upper, space)
    monkeypatch.undo()
    diag = upper[0]
    assert sorted(v for node, v in steps if node == repr(diag.tree)) == [0, 1, 2]
    assert len(steps) == len(set(steps))
    partials = {reference_partial(diag.tree, m) for m in space.monomials}
    live = {p for p in partials if p[0] != "c"}
    assert plan._live == len(live)


def test_taylor_plans_built_concurrently_agree():
    # each build derives on a DAG of its own, so threads building plans of
    # fresh metrics share nothing, and no module table of expr grows
    def tables():
        return {k: len(v) for k, v in vars(ex).items()
                if isinstance(v, dict) and not k.startswith("__")}

    before = tables()
    space = JetSpace.get(2, 4)
    X = np.array([[0.1, -0.2], [0.3, 0.05]])

    def build(_):
        m = cf.conformal_metric(cf.ConformalSpec(a=-3.5))
        plan = TaylorPlan([m.entries[0][0], m.entries[0][1], m.entries[1][1]], space)
        return plan.rows, plan.values(X)

    with ThreadPoolExecutor(4) as pool:
        out = list(pool.map(build, range(16)))
    for rows, vals in out[1:]:
        assert np.array_equal(rows, out[0][0])
        assert np.array_equal(vals, out[0][1])
    assert tables() == before


def test_taylor_plan_cache_is_bounded():
    # distinct metrics, since equal ones share one plan
    for k in range(3 * _TAYLOR_PLAN_CACHE_SIZE):
        GeometryBatch(cf.conformal_metric(cf.ConformalSpec(a=-3.5 - 0.01 * k)),
                      [[0.1, 0.0]], curvature_order=0)
    assert len(_TAYLOR_PLANS) <= _TAYLOR_PLAN_CACHE_SIZE


def _metric_plan(metric, degree):
    """The cached plan of the metric's upper-triangle entries, as
    MetricField.jets asks for it."""
    n = metric.dim
    return _plan_of([metric.entries[i][j] for i in range(n) for j in range(i, n)],
                    JetSpace.get(n, degree))


@pytest.mark.parametrize("make", [
    inline3d_metric, lambda: cf.conformal_metric(cf.ConformalSpec(a=-3.5))],
    ids=["inline3d", "conformal2d"])
def test_equal_metrics_share_one_taylor_plan(make, plan_cache, plan_builds):
    # each call parses the metric text afresh: new field objects, one plan
    first, second = make(), make()
    assert first.entries[0][0] is not second.entries[0][0]
    for metric in (first, second):
        GeometryBatch(metric, np.zeros((1, metric.dim)), curvature_order=2)
    assert len(plan_builds) == 1 == len(plan_cache)
    assert _metric_plan(first, 4) is _metric_plan(second, 4)
    assert len(plan_builds) == 1


@pytest.mark.parametrize("a, b", [
    (ex.const(0.0, 2), ex.const(-0.0, 2)),
    (ex.ScalarField(("*", ("c", 0.0), ("x", 0)), 2),
     ex.ScalarField(("*", ("c", -0.0), ("x", 0)), 2)),
    (parse_field("exp(2*x*y)", 2), parse_field("exp(3*x*y)", 2)),
], ids=["zero", "signed-zero-factor", "coefficient"])
def test_taylor_plans_differ_in_every_constant(a, b, plan_cache):
    space = JetSpace.get(2, 3)
    X = np.array([[0.3, -0.2], [0.7, 0.4]])
    plans = [_plan_of([f], space) for f in (a, b)]
    assert plans[0] is not plans[1]
    got = [p(X) for p in plans]
    for f, jets in zip((a, b), got):
        assert jets.tobytes() == TaylorPlan([f], space)(X).tobytes()
    assert got[0].tobytes() != got[1].tobytes()


def test_taylor_plan_cache_checks_the_dimension(plan_cache):
    space = JetSpace.get(2, 2)
    _plan_of([parse_field("x*y", 2)], space)
    # the same text in another dimension is another field
    with pytest.raises(DimensionError):
        _plan_of([parse_field("x*y", 3)], space)


def test_taylor_plan_cache_keeps_no_metric_alive(plan_cache):
    metric = cf.conformal_metric(cf.ConformalSpec(a=-3.5))
    GeometryBatch(metric, np.zeros((1, 2)), curvature_order=0)
    plan = _metric_plan(metric, 2)
    ref = weakref.ref(metric)
    del metric
    gc.collect()
    assert ref() is None
    assert _metric_plan(cf.conformal_metric(cf.ConformalSpec(a=-3.5)), 2) is plan
    assert len(plan_cache) == 1

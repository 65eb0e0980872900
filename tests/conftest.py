import numpy as np
import pytest
from hypothesis import settings

from mtwcheck import conformal as cf
from mtwcheck import dynamics
from mtwcheck import expr as ex
from mtwcheck import geometry
from mtwcheck.expr import ScalarField, TaylorPlan, parse_field
from mtwcheck.geometry import (
    MetricField,
    RecentCache,
    euclidean_metric,
    sphere_metric,
)

# CI runs with --hypothesis-profile=ci: the same examples every run, so a
# fresh random draw cannot fail a build, and a failure prints the blob
# that reproduces it.  Local runs keep the default, randomized profile.
settings.register_profile("ci", derandomize=True, print_blob=True)


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
def plan_cache(monkeypatch):
    """An empty Taylor plan cache in place of the process's own, for the
    test's duration: every plan the test asks for is built cold."""
    cache = RecentCache(geometry._TAYLOR_PLAN_CACHE_SIZE)
    monkeypatch.setattr(geometry, "_TAYLOR_PLANS", cache)
    return cache


@pytest.fixture
def plan_builds(monkeypatch):
    """The jet space of every TaylorPlan built during the test, in order."""
    built = []
    init = TaylorPlan.__init__

    def counting(self, fields, space):
        built.append(space)
        init(self, fields, space)

    monkeypatch.setattr(TaylorPlan, "__init__", counting)
    return built


@pytest.fixture
def integrations(monkeypatch):
    """The (steps, lanes) of every _integrate call during the test, in
    call order, a call that raises included."""
    calls = []
    integrate = dynamics._integrate

    def counting(metric, potential, x0, v0, steps, **kwargs):
        calls.append((steps, len(x0)))
        return integrate(metric, potential, x0, v0, steps, **kwargs)

    monkeypatch.setattr(dynamics, "_integrate", counting)
    return calls


# The jacobi route's ladder climbs on this input: conformal a = -3 with
# the potential HARD_POTENTIAL, at HARD_JACOBI = (x, u, v, w).  Some
# curve of its stencil leaves the region at 20 and 40 RK4 steps, and
# none does at 50 steps or on any rung above 40.
HARD_POTENTIAL = "0-x^2-3*y^2-x*y-x^4"
HARD_JACOBI = ([-0.06, -0.05], [0.01, -0.28], [-0.59, -0.41], [1.29, 1.01])


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


def reference_diff(node, v):
    """d node / d x_v by plain recursion over the tree, nothing shared or
    memoized: the oracle for every derivative the package takes."""
    kind = node[0]
    if kind == "c":
        return ex._ZERO
    if kind == "x":
        return ex._ONE if node[1] == v else ex._ZERO
    if kind == "+":
        return ex._mk_add(reference_diff(node[1], v), reference_diff(node[2], v))
    if kind == "-":
        return ex._mk_sub(reference_diff(node[1], v), reference_diff(node[2], v))
    if kind == "neg":
        return ex._mk_neg(reference_diff(node[1], v))
    if kind == "*":
        a, b = node[1], node[2]
        return ex._mk_add(ex._mk_mul(reference_diff(a, v), b),
                          ex._mk_mul(a, reference_diff(b, v)))
    if kind == "^":
        a, k = node[1], node[2]
        return ex._mk_mul(ex._mk_mul(("c", float(k)), ex._mk_pow(a, k - 1)),
                          reference_diff(a, v))
    if kind == "exp":
        return ex._mk_mul(node, reference_diff(node[1], v))
    if kind == "sin":
        return ex._mk_mul(("cos", node[1]), reference_diff(node[1], v))
    if kind == "cos":
        return ex._mk_mul(ex._mk_neg(("sin", node[1])), reference_diff(node[1], v))
    raise AssertionError(kind)


def reference_partial(node, counts):
    """The partial of a tree for per-variable counts, variable 0 first."""
    for v, k in enumerate(counts):
        for _ in range(k):
            node = reference_diff(node, v)
    return node


def reference_jet(f, x, space):
    """The jet of field ``f`` about the point ``x``: each monomial's
    reference partial, evaluated by the scalar evaluator, over its
    factorial."""
    return np.array([ScalarField(reference_partial(f.tree, m), f.dim)(x)
                     for m in space.monomials]) / space.factorials


def reference_integrate(metric, potential, x0, v0, steps, transport=False,
                        variation=None):
    """One lane of the coupled RK4 of the curve, its transport Psi and its
    coordinate variation Phi = (dx, dv), Phi' = [[0, I], [-d_x F, -2 Gamma v]]
    Phi with F = Gamma(v, v) + grad V, the whole state stepped together:
    the oracle for ``dynamics._integrate``, which steps the curve alone and
    advances Psi and Phi by step maps.  The coefficients are the generated
    kernels' (their values are checked against the jet pipeline).  The
    "full" columns start at [[I, 0], [-Gamma v0, I]], one per covariant
    start datum (J0, P0).  Returns the grid states as a one-lane
    ``dynamics.Flow``, (steps+1, 1, ...) per field."""
    n = metric.dim
    ncols = {None: 0, "velocity": n, "full": 2 * n}[variation]
    stage, g_fill, _, lin = geometry._curve_stage(metric, potential)
    voff = 2 * n + (n * n if transport else 0)

    def rhs(y):
        a = y[0: 2 * n, None]
        k, g = np.empty((2 * n, 1)), np.empty((1, n, n))
        if g_fill is not None:
            g[...] = g_fill
        stage(a, k, g)
        A = lin(a)[0]
        dx, gam_v = A[:, 0:n], A[:, n:]
        parts = [k[:, 0]]
        if transport:
            parts.append((-gam_v @ y[2 * n: voff].reshape(n, n)).ravel())
        if ncols:
            gen = np.block([[np.zeros((n, n)), np.eye(n)], [-dx, -2.0 * gam_v]])
            parts.append((gen @ y[voff:].reshape(2 * n, ncols)).ravel())
        return np.concatenate(parts)

    seed = np.eye(2 * n)[:, 2 * n - ncols:]
    if variation == "full":
        seed[n:, 0:n] = -lin(np.concatenate([x0, v0])[:, None])[0, :, n:]
    y = np.concatenate([x0, v0, np.eye(n).ravel() if transport else [], seed.ravel()])
    h = 1.0 / steps
    out = [y]
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    out = np.array(out)[:, None]
    return dynamics.Flow(
        curve=out[..., 0: 2 * n],
        psi=out[..., 2 * n: voff].reshape(-1, 1, n, n) if transport else None,
        phi=out[..., voff:].reshape(-1, 1, 2 * n, ncols) if ncols else None)

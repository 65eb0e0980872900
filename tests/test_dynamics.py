"""Trajectories, transport, Jacobi boundary-value problems, variation families."""

import collections
import gc
import json
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from mtwcheck.dynamics import (
    CostResult,
    c_exp,
    cost,
    jacobi_bvp,
    jacobi_residual,
    least_action_curve,
    lemma_suite,
    parallel_transport,
    shoot_velocity,
    simpson,
    simpson_weights,
)
from mtwcheck import geometry
from mtwcheck.errors import (
    ConjugatePointError,
    DimensionError,
    PreconditionError,
    ShootingError,
)
from mtwcheck.geometry import (
    _TAYLOR_PLAN_CACHE_SIZE,
    _plan_of,
    euclidean_metric,
    gram_schmidt,
    harmonic_potential,
    quartic_potential,
    sphere_metric,
)
from mtwcheck.jets import JetSpace
from mtwcheck.mtw import mtw_jacobi

from conftest import (benchmark_workloads, inline3d_metric, reference_integrate,
                      reference_value)

EQUATOR = np.pi / 2


# ---------------------------------------------------------------------------
# Least-action curves and the endpoint map
# ---------------------------------------------------------------------------


def test_flat_curve_is_straight_line(flat2):
    v = np.array([0.3, -0.8])
    path = least_action_curve(flat2, None, [0.0, 0.0], v)
    for k in (0, 57, 200):
        assert np.allclose(path.pos[k], path.tau[k] * v, atol=1e-14)
        assert np.allclose(path.vel[k], v, atol=1e-14)


def test_mechanical_curve_matches_sinh(flat2):
    # V = -|x|^2/2 gives the covariant Newton equation gamma'' = gamma,
    # so gamma(tau) = sinh(tau) v from the origin.
    v = np.array([0.7, 0.2])
    path = least_action_curve(flat2, harmonic_potential(2), [0.0, 0.0], v)
    for k in (50, 120, 200):
        t = path.tau[k]
        assert np.allclose(path.pos[k], math.sinh(t) * v, atol=1e-10)
        assert np.allclose(path.vel[k], math.cosh(t) * v, atol=1e-10)


def test_sphere_great_circle(sphere):
    path = least_action_curve(sphere, None, [EQUATOR, 0.0], [0.0, 1.0])
    # equator is a geodesic: theta stays constant, phi moves at unit speed
    assert np.allclose(path.pos[:, 0], EQUATOR, atol=1e-12)
    assert np.allclose(path.pos[:, 1], path.tau, atol=1e-12)
    speeds = [sphere.inner(path.pos[k], path.vel[k], path.vel[k])
              for k in (0, 100, 200)]
    assert np.allclose(speeds, 1.0, atol=1e-12)


@pytest.mark.parametrize("v0", [[0.9, 0.3], [0.0, 1.4]])
def test_energy_conservation(sphere, v0):
    path = least_action_curve(sphere, None, [1.1, -0.2], v0)
    assert path.energy_drift() <= 1e-8


def test_energy_conservation_mechanical(flat2):
    path = least_action_curve(flat2, harmonic_potential(2), [0.4, 0.1],
                              [0.2, -0.5])
    assert path.energy_drift() <= 1e-8


def test_c_exp_flat(flat2):
    y = c_exp(flat2, None, [0.2, -0.1], [0.5, 0.5])
    assert np.allclose(y, [0.7, 0.4], atol=1e-14)


def test_c_exp_mechanical_sinh(flat2):
    v = np.array([0.4, -0.3])
    y = c_exp(flat2, harmonic_potential(2), [0.0, 0.0], v)
    assert np.allclose(y, math.sinh(1.0) * v, atol=1e-10)


def test_c_exp_total_at_conjugate_length(sphere):
    # the endpoint map itself is defined even at |v| = pi; only the BVP
    # downstream flags the conjugate point
    y = c_exp(sphere, None, [EQUATOR, 0.0], [0.0, np.pi])
    assert np.allclose(y, [EQUATOR, np.pi], atol=1e-10)


# ---------------------------------------------------------------------------
# Two-point cost by shooting
# ---------------------------------------------------------------------------


def test_flat_cost_half_squared_distance(flat2):
    x = np.array([0.1, 0.2])
    y = np.array([0.9, -0.4])
    res = cost(flat2, None, x, y)
    assert res.value == pytest.approx(0.5 * float((y - x) @ (y - x)), abs=1e-12)
    assert res.endpoint_error <= 1e-10


def test_mechanical_cost_matches_closed_form(flat2):
    # minimizer gamma(tau) = sinh(tau)/sinh(1) * y has action coth(1)|y|^2/2
    y = np.array([0.6, -0.2])
    res = cost(flat2, harmonic_potential(2), [0.0, 0.0], y, steps=200)
    closed = 0.5 / math.tanh(1.0) * float(y @ y)
    assert res.value == pytest.approx(closed, abs=1e-7)
    # initial velocity of the closed-form curve is y / sinh(1)
    assert np.allclose(res.initial_velocity, y / math.sinh(1.0), atol=1e-9)


def test_sphere_cost_is_half_arc_squared(sphere):
    # at 200 steps, so the fine solve starts from a coarse one's velocity
    res = cost(sphere, None, [EQUATOR, 0.0], [EQUATOR, 1.2], steps=200)
    assert res.value == pytest.approx(0.5 * 1.2**2, abs=1e-9)


def test_antipodal_shooting_diverges(sphere):
    x = np.array([1.0, 0.3])
    y = np.array([np.pi - 1.0, 0.3 + np.pi])  # exact antipode of x
    with pytest.raises(ShootingError):
        cost(sphere, None, x, y)


def test_antipodal_shoot_raises_within_budget(sphere, monkeypatch):
    # the work before failing is bounded in integrations, not seconds:
    # each grid of the nested solve spends at most its own budget
    from mtwcheck import dynamics as dyn

    calls = []
    integrate = dyn._integrate

    def counted(*args, **kwargs):
        calls.append((args[4], len(args[2])))  # steps, lanes
        return integrate(*args, **kwargs)

    monkeypatch.setattr(dyn, "_integrate", counted)
    x = np.array([1.0, 0.3])
    y = np.array([np.pi - 1.0, 0.3 + np.pi])
    with pytest.raises(ShootingError, match="stagnated"):
        shoot_velocity(sphere, None, x, y)
    assert {lanes for _, lanes in calls} == {1}
    per_grid = collections.Counter(steps for steps, _ in calls)
    assert set(per_grid) == {25, 200}
    assert max(per_grid.values()) <= dyn.SHOOT_INTEGRATION_BUDGET


def _count_grids(monkeypatch) -> list:
    """The step count of every later _integrate call that integrates (one
    that raises first is not counted), in call order."""
    from mtwcheck import dynamics as dyn

    grids = []
    integrate = dyn._integrate

    def counted(*args, **kwargs):
        flow = integrate(*args, **kwargs)
        grids.append(args[4])
        return flow

    monkeypatch.setattr(dyn, "_integrate", counted)
    return grids


def test_shoot_integration_budget_raises(sphere, monkeypatch):
    from mtwcheck import dynamics as dyn

    grids = _count_grids(monkeypatch)
    # this shoot takes 3 Newton steps, 4 integrations, on the coarse grid
    # of 25 steps, and from there 1 Newton step, 2 integrations, on the
    # caller's grid of 200
    args = (sphere, None, [1.0, 0.2], [1.4, 0.9])
    assert shoot_velocity(*args)[1] == 1
    assert grids == [25] * 4 + [200] * 2
    # each grid has its own budget: the coarse solve exhausts it, which
    # only discards the coarse start, and the fine solve from the caller's
    # guess exhausts it too and raises
    grids.clear()
    monkeypatch.setattr(dyn, "SHOOT_INTEGRATION_BUDGET", 3)
    with pytest.raises(ShootingError, match="budget of 3 integrations"):
        shoot_velocity(*args)
    assert grids == [25] * 3 + [200] * 3


@pytest.mark.parametrize("lanes", [1, 2])
def test_singular_shooting_jacobian_falls_back_then_raises(lanes, sphere, monkeypatch):
    # with CONJUGATE_COND_LIMIT at 0 every endpoint Jacobian reads as
    # singular: the coarse solve drops each lane after its initial
    # integration, the fine solve starts from the caller's guess and
    # raises after its own
    from mtwcheck import dynamics as dyn

    X = np.array([[1.0, 0.2], [1.3, -0.4]])[:lanes]
    Y = np.array([[1.4, 0.9], [1.9, 0.3]])[:lanes]
    starts = []
    integrate = dyn._integrate

    def counted(metric, potential, x0, v0, steps, **kwargs):
        starts.append((steps, v0.copy()))
        return integrate(metric, potential, x0, v0, steps, **kwargs)

    monkeypatch.setattr(dyn, "_integrate", counted)
    monkeypatch.setattr(dyn, "CONJUGATE_COND_LIMIT", 0.0)
    with pytest.raises(ShootingError) as err:
        if lanes == 1:
            cost(sphere, None, X[0], Y[0])
        else:
            dyn._costs(sphere, None, X, Y)
    assert str(err.value) == "endpoint Jacobian is numerically singular during shooting"
    assert [steps for steps, _ in starts] == [25, 200]
    for _, v0 in starts:
        assert np.array_equal(v0, Y - X)


@pytest.mark.parametrize("settings", [
    {"tol": math.nan}, {"tol": math.inf}, {"tol": -1.0}, {"tol": 0.0},
    {"max_iter": 0}, {"max_iter": -3}, {"max_iter": 2.5},
], ids=["tol-nan", "tol-inf", "tol-negative", "tol-zero", "max-iter-0",
        "max-iter-negative", "max-iter-float"])
@pytest.mark.parametrize("call", ["cost", "shoot_velocity", "_costs"])
def test_bad_shooting_settings_raise_before_integrating(call, settings, sphere,
                                                        monkeypatch):
    from mtwcheck import dynamics as dyn
    from mtwcheck.errors import SolverSettingsError

    grids = _count_grids(monkeypatch)
    x, y = [1.0, 0.2], [1.4, 0.9]
    if call == "_costs":
        x, y = np.array([x]), np.array([y])
    with pytest.raises(SolverSettingsError, match="positive finite tol") as err:
        getattr(dyn, call)(sphere, None, x, y, **settings)
    ((name, value),) = settings.items()
    assert f"{name}={value}" in str(err.value)
    assert grids == []


_STEPS_CALLS = {
    "cost": lambda m, steps: cost(m, None, [1.0, 0.2], [1.4, 0.9], steps=steps),
    "shoot_velocity": lambda m, steps: shoot_velocity(m, None, [1.0, 0.2], [1.4, 0.9],
                                                      steps=steps),
    "c_exp": lambda m, steps: c_exp(m, None, [1.0, 0.2], [0.4, 0.7], steps=steps),
    "least_action_curve": lambda m, steps: least_action_curve(m, None, [1.0, 0.2],
                                                              [0.4, 0.7], steps=steps),
    "mtw_jacobi": lambda m, steps: mtw_jacobi(
        m, None, [1.2, 0.3], [1.0, 0.0], [0.2, 0.1], [0.0, 1.0], steps=steps),
}


@pytest.mark.parametrize("call, steps", [
    ("cost", 100.0), ("shoot_velocity", 96.0), ("c_exp", 10.5),
    ("least_action_curve", 2.0), ("mtw_jacobi", 3.0),
])
def test_non_integer_steps_raise_before_integrating(call, steps, sphere, monkeypatch):
    from mtwcheck.errors import DiscretizationError

    grids = _count_grids(monkeypatch)
    with pytest.raises(DiscretizationError) as err:
        _STEPS_CALLS[call](sphere, steps)
    assert str(err.value) == f"steps must be an integer, got {steps!r}"
    assert grids == []


def _fail_coarse_solves(monkeypatch, error, starts=None):
    """Make every lane of every coarse integration fail with ``error`` at
    its start (only the lanes from a start point in ``starts``, when
    given)."""
    from mtwcheck import dynamics as dyn

    integrate = dyn._integrate

    def failing(metric, potential, x0, v0, steps, **kwargs):
        flow = integrate(metric, potential, x0, v0, steps, **kwargs)
        if steps == dyn.DEFAULT_STEPS // dyn.COARSE_FACTOR:
            for b, x in enumerate(x0):
                if starts is None or any(np.array_equal(x, s) for s in starts):
                    flow.failed[b] = ((0, 0), error("coarse failure"))
        return flow

    monkeypatch.setattr(dyn, "_integrate", failing)


def _one_grid(monkeypatch, call):
    """``call()`` with the coarse grid switched off."""
    from mtwcheck import dynamics as dyn

    with monkeypatch.context() as m:
        m.setattr(dyn, "COARSE_MIN_STEPS", 10**9)
        return call()


def _same_cost(a, b) -> None:
    assert a.value == b.value
    assert np.array_equal(a.initial_velocity, b.initial_velocity)
    assert a.iterations == b.iterations
    assert a.endpoint_error == b.endpoint_error
    assert np.array_equal(a.path.pos, b.path.pos)
    assert np.array_equal(a.path.vel, b.path.vel)


def _lane_cost(batch, b: int) -> CostResult:
    """Lane b of a ``dynamics._costs`` batch as the CostResult of ``cost``."""
    values, V, iters, err, curves = batch
    n = V.shape[1]
    path = SimpleNamespace(pos=curves[:, b, 0:n], vel=curves[:, b, n:])
    return CostResult(value=float(values[b]), initial_velocity=V[b],
                      iterations=int(iters[b]), endpoint_error=float(err[b]), path=path)


@pytest.mark.parametrize("error", ["ShootingError", "MetricDegenerateError",
                                   "CurveOverflowError", "ConjugatePointError"])
def test_failed_coarse_solve_falls_back_to_the_callers_guess(error, sphere,
                                                             monkeypatch):
    from mtwcheck import errors

    def call():
        return cost(sphere, None, [1.0, 0.2], [1.4, 0.9])

    one_grid = _one_grid(monkeypatch, call)
    assert one_grid.iterations == 3  # the one-grid solve walks from the guess
    _fail_coarse_solves(monkeypatch, getattr(errors, error))
    _same_cost(call(), one_grid)


def _stall_coarse_solves(monkeypatch, start, end):
    """Make every coarse curve from ``start`` end at ``end`` whatever its
    velocity, so that its coarse solve cannot converge."""
    from mtwcheck import dynamics as dyn

    integrate = dyn._integrate

    def stalled(metric, potential, x0, v0, steps, **kwargs):
        out = integrate(metric, potential, x0, v0, steps, **kwargs)
        if steps == dyn.DEFAULT_STEPS // dyn.COARSE_FACTOR:
            out.curve[-1][np.all(x0 == start, axis=1), 0: len(end)] = end
        return out

    monkeypatch.setattr(dyn, "_integrate", stalled)


@pytest.mark.parametrize("failure", ["leaves", "stagnates"])
def test_falling_back_lane_keeps_every_batch_lane_as_alone(failure, sphere,
                                                          monkeypatch):
    from mtwcheck import dynamics as dyn
    from mtwcheck.errors import MetricDegenerateError

    X = np.array([[1.0, 0.2], [1.0, 0.2], [1.3, -0.4], [0.9, 0.5]])
    Y = np.array([[1.4, 0.9], [1.0, 0.2], [1.9, 0.3], [0.2, 1.6]])
    one_grid = _one_grid(monkeypatch, lambda: cost(sphere, None, X[2], Y[2]))
    if failure == "leaves":
        # every coarse curve from lane 2's start "leaves the region": its
        # initial curve fails the lane alone
        _fail_coarse_solves(monkeypatch, MetricDegenerateError, starts=[X[2]])
    else:
        # lane 2's coarse line search fails every trial: it stagnates
        _stall_coarse_solves(monkeypatch, X[2], Y[2] + 1e-3)
    batch = dyn._costs(sphere, None, X, Y)
    for b in range(len(X)):
        _same_cost(_lane_cost(batch, b), cost(sphere, None, X[b], Y[b]))
    _same_cost(_lane_cost(batch, 2), one_grid)
    # the other lanes start from their coarse velocities (from the
    # caller's guess, lanes 0 and 3 take 3 and 6 Newton steps); lane 3's
    # chord step leaves it above tol, so it takes a second fine step
    assert batch[2].tolist() == [1, 0, 3, 2]


def _fine_passes(monkeypatch) -> list:
    """The (steps, lanes) of every "velocity" pass shooting runs on a grid
    of at least COARSE_FACTOR * COARSE_MIN_STEPS steps, the fine grids."""
    from mtwcheck import dynamics as dyn

    passes, jacobians = [], dyn._velocity_jacobians

    def counted(metric, potential, flow, lanes):
        steps = len(flow.curve) - 1
        if steps >= dyn.COARSE_FACTOR * dyn.COARSE_MIN_STEPS:
            passes.append((steps, len(lanes)))
        return jacobians(metric, potential, flow, lanes)

    monkeypatch.setattr(dyn, "_velocity_jacobians", counted)
    return passes


def test_chord_step_that_misses_tol_falls_back_to_the_lanes_own_variation(
        sphere, monkeypatch):
    # the first fine Newton step of each lane reads the Jacobian of its
    # 25-step coarse solution; the lane from (0.9, 0.5) to (0.2, 1.6) is
    # left above tol by that step, so it runs the variation of the curve
    # the step accepted and takes a second one, while the lanes beside it
    # converge on the chord step; each lane keeps its one-lane results
    from mtwcheck import dynamics as dyn

    X = np.array([[1.0, 0.2], [0.9, 0.5], [1.3, -0.4]])
    Y = np.array([[1.4, 0.9], [0.2, 1.6], [1.9, 0.3]])
    passes = _fine_passes(monkeypatch)
    batch = dyn._costs(sphere, None, X, Y)
    assert batch[2].tolist() == [1, 2, 1]
    assert passes == [(200, 1)]
    for b in range(len(X)):
        _same_cost(_lane_cost(batch, b), cost(sphere, None, X[b], Y[b]))


@pytest.mark.parametrize("seed", [42, 4711])
def test_routes_shooting_runs_no_fine_grid_variation(seed, monkeypatch):
    # the benchmark's routes pass: the direct cost's 25 shots (100 steps)
    # and the sphere cost (200 steps) each converge on their chord step
    from mtwcheck import conformal, dynamics, geometry, mtw

    work = benchmark_workloads().RoutesWorkload(
        {"mtw": mtw, "dynamics": dynamics, "geometry": geometry,
         "conformal": conformal}, seed)
    passes = _fine_passes(monkeypatch)
    result = work.run_once()
    assert work.check(result)[1] == []
    assert passes == []


def test_shoot_velocity_flat_is_difference(flat2):
    v, iters = shoot_velocity(flat2, None, [0.2, 0.1], [-0.3, 0.8])[:2]
    assert np.allclose(v, [-0.5, 0.7], atol=1e-12)


def test_batched_shoot_matches_one_lane_shoots(sphere):
    from mtwcheck import dynamics as dyn

    X = np.array([[1.0, 0.2], [1.0, 0.2], [1.3, -0.4], [0.9, 0.5]])
    Y = np.array([[1.4, 0.9], [1.0, 0.2], [1.9, 0.3], [0.2, 1.6]])
    batch = dyn._costs(sphere, None, X, Y, steps=100)
    # lanes finish at different iterations, one without any
    assert sorted(set(batch[2]))[0] == 0
    assert len(set(batch[2])) > 2
    for b in range(len(X)):
        _same_cost(_lane_cost(batch, b), cost(sphere, None, X[b], Y[b], steps=100))


def test_cost_curve_is_the_plain_integration(sphere):
    # cost() reads the action off the last accepted shooting integration;
    # its curve part is the plain integration of the returned velocity
    res = cost(sphere, None, [1.0, 0.2], [1.4, 0.9])
    path = least_action_curve(sphere, None, [1.0, 0.2], res.initial_velocity)
    assert np.array_equal(res.path.pos, path.pos)
    assert np.array_equal(res.path.vel, path.vel)


@pytest.mark.parametrize("panels", [1, 2, 3, 4, 7, 8, 199, 200])
def test_simpson_weights_integrate_low_degrees_exactly(panels):
    # every count integrates constants and linear functions exactly; every
    # count of at least 2 integrates cubics too, but not quartics: an even
    # count is pure Simpson, and an odd one ends with the 3/8 rule.  One
    # panel is a trapezoid, which misses quadratics
    t = np.linspace(-0.5, 1.5, panels + 1)
    weights = simpson_weights(panels) * (2.0 / panels)
    exact = 4 if panels >= 2 else 2
    for k in range(exact + 1):
        want = (1.5 ** (k + 1) - (-0.5) ** (k + 1)) / (k + 1)
        got = weights @ t**k
        if k < exact:
            assert got == pytest.approx(want, rel=1e-14, abs=1e-14)
        else:
            assert got != pytest.approx(want, rel=1e-12)


def test_action_at_an_odd_step_count_is_fourth_order():
    # a trapezoid tail made the action at 25 steps third order, 6.4e-5 off
    # the 800-step action where 24 and 26 steps were 1.4e-6 and 1.0e-6 off;
    # the 3/8 tail reads 1.7e-6
    metric = euclidean_metric(2)
    potential = quartic_potential(np.array([[1.0, 0.3], [0.3, 0.8]]))
    x, y = [0.3, -0.2], [-0.5, 0.6]
    fine = cost(metric, potential, x, y, steps=800).value
    assert cost(metric, potential, x, y, steps=25).value == pytest.approx(fine, rel=5e-6)


def test_simpson_even_count_is_the_classic_rule():
    # the weights 1, 4, 2, ..., 4, 1 over 3, bit for bit: the closed-form
    # zeroth-order quadrature keeps its values at 1024 panels
    classic = np.ones(1025)
    classic[1:-1:2] = 4.0
    classic[2:-1:2] = 2.0
    assert np.array_equal(simpson_weights(1024), classic / 3.0)
    rows = np.random.default_rng(3).normal(size=(5, 1025))
    assert np.array_equal(simpson(rows, 0.5)[2:3], simpson(rows[2:3], 0.5))


# ---------------------------------------------------------------------------
# Parallel transport
# ---------------------------------------------------------------------------


def test_flat_transport_constant(flat2):
    path = least_action_curve(flat2, None, [0.0, 0.0], [1.0, 0.5])
    frame = parallel_transport(path, [0.3, -0.7])
    assert np.allclose(frame.vectors, [0.3, -0.7], atol=1e-14)


def test_sphere_transport_preserves_norm(sphere):
    path = least_action_curve(sphere, None, [EQUATOR, 0.0],
                              [0.0, np.pi / 2])  # quarter great circle
    frame = parallel_transport(path, [0.4, 0.6])
    assert frame.norm_drift() <= 1e-9


def test_transport_preserves_angle_with_velocity(sphere):
    path = least_action_curve(sphere, None, [1.0, 0.2], [0.5, 0.4])
    frame = parallel_transport(path, [0.3, -0.2])
    angles = [
        float(np.asarray(frame.vectors[k]) @ sphere.matrix(path.pos[k]) @ path.vel[k])
        for k in (0, 67, 133, 200)
    ]
    assert np.ptp(angles) <= 1e-8


def test_conformal_transport_norm_drift(conformal_a3):
    path = least_action_curve(conformal_a3, None, [0.1, -0.1], [0.6, 0.3])
    frame = parallel_transport(path, [1.0, 1.0])
    assert frame.norm_drift() <= 1e-8


# ---------------------------------------------------------------------------
# Jacobi boundary-value problems
# ---------------------------------------------------------------------------


def test_flat_jacobi_linear_profile(flat2):
    path = least_action_curve(flat2, None, [0.0, 0.0], [0.4, 0.1])
    u = np.array([0.8, -0.5])
    sol = jacobi_bvp(path, u)
    for k in (0, 50, 150, 200):
        assert np.allclose(sol.J[k], (1 - path.tau[k]) * u, atol=1e-12)


def test_mechanical_jacobi_sinh_profile(flat2):
    # constant curve at the potential maximum; Hessian eigenvalue -mu^2
    mu = 1.3
    path = least_action_curve(flat2, harmonic_potential(2, omega=mu),
                              [0.0, 0.0], [0.0, 0.0])
    u = np.array([1.0, 0.0])
    sol = jacobi_bvp(path, u)
    for k in (40, 100, 160):
        t = path.tau[k]
        expect = math.sinh(mu * (1 - t)) / math.sinh(mu) * u
        assert np.allclose(sol.J[k], expect, atol=1e-10)


def test_jacobi_boundary_conditions(sphere):
    path = least_action_curve(sphere, None, [1.2, 0.3], [0.3, 0.9])
    u = np.array([0.7, 0.4])
    sol = jacobi_bvp(path, u)
    assert np.allclose(sol.J[0], u, atol=1e-12)
    assert np.allclose(sol.J[-1], 0.0, atol=1e-9)


def test_jacobi_residual_small(sphere):
    path = least_action_curve(sphere, None, [1.0, -0.2], [0.5, 0.7])
    sol = jacobi_bvp(path, [0.3, 0.9])
    assert jacobi_residual(sol) <= 1e-6


@pytest.mark.parametrize("case", ["conformal-potential", "inline3d"])
def test_jacobi_residual_small_with_a_potential_and_in_3d(case, conformal_a3, sphere):
    metric, pot, x0, v0 = _oracle_case(case, conformal_a3, sphere)
    path = least_action_curve(metric, pot, x0, v0)
    sol = jacobi_bvp(path, np.eye(metric.dim)[0] + 0.4 * np.eye(metric.dim)[1])
    assert jacobi_residual(sol) <= 1e-6


def test_jacobi_residual_rejects_the_field_of_another_metric(sphere, flat2):
    # the residual reads Gamma and the curvature from the jet pipeline along
    # the path, not from the integrator's coefficient: the flat metric's
    # two-point field paired with the sphere's curve fails it
    from mtwcheck.dynamics import JacobiSolution

    x, v, u = [1.0, -0.2], [0.5, 0.7], [0.3, 0.9]
    path = least_action_curve(sphere, None, x, v)
    right = jacobi_residual(jacobi_bvp(path, u))
    flat = jacobi_bvp(least_action_curve(flat2, None, x, v), u)
    wrong = jacobi_residual(JacobiSolution(path=path, u0=flat.u0, J=flat.J, dJ=flat.dJ))
    assert wrong >= 1e3 * max(right, 1e-12)


@pytest.mark.parametrize("steps", [12, 25])
@pytest.mark.parametrize("case", ["sphere", "conformal-potential"])
def test_velocity_jacobian_is_the_derivative_of_the_discrete_endpoint(
        case, steps, conformal_a3, sphere):
    # the variation advances by the derivative of each RK4 step, so the
    # "velocity" columns are the Jacobian of the discrete endpoint map, not
    # only of the exact one (which differs by O(h^4): 1.6e-7 at 12 steps)
    from mtwcheck import dynamics as dyn

    metric, pot, x0, v0 = _oracle_case(case, conformal_a3, sphere)
    n, e = metric.dim, 1e-5
    X, V = np.array([x0]), np.array([v0])
    jac = dyn._integrate(metric, pot, X, V, steps, variation="velocity").phi[-1, 0, 0:n]
    fd = np.stack([(dyn._endpoints(metric, pot, X, V + d, steps)
                    - dyn._endpoints(metric, pot, X, V - d, steps))[0] / (2 * e)
                   for d in np.eye(n) * e], axis=1)
    assert np.max(np.abs(jac - fd)) <= 1e-9


def test_jacobi_linearity(sphere):
    path = least_action_curve(sphere, None, [1.3, 0.1], [0.2, 0.8])
    u1 = np.array([1.0, 0.2])
    u2 = np.array([-0.4, 0.9])
    a, b = 1.7, -0.6
    s1 = jacobi_bvp(path, u1)
    s2 = jacobi_bvp(path, u2)
    s3 = jacobi_bvp(path, a * u1 + b * u2)
    assert np.allclose(s3.J, a * s1.J + b * s2.J, atol=1e-10)
    assert np.allclose(s3.initial_derivative,
                       a * s1.initial_derivative + b * s2.initial_derivative,
                       atol=1e-10)


def test_conjugate_point_detected(sphere):
    # a length-pi great-circle arc reaches the first conjugate point; the
    # fundamental-matrix block needs a fine grid for its conditioning to
    # cross the detection threshold
    path = least_action_curve(sphere, None, [EQUATOR, 0.0], [0.0, np.pi],
                              steps=2000)
    with pytest.raises(ConjugatePointError):
        jacobi_bvp(path, [1.0, 0.0])


def test_no_false_conjugate_short_arc(sphere):
    path = least_action_curve(sphere, None, [EQUATOR, 0.0], [0.0, 2.0],
                              steps=2000)
    sol = jacobi_bvp(path, [1.0, 0.0])
    assert np.allclose(sol.J[-1], 0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# Variation-identity suite (spot checks; the full tolerance sweep is in
# the acceptance tests)
# ---------------------------------------------------------------------------


def test_lemma_suite_flat_all_zero(flat2):
    checks = lemma_suite(flat2, None, [0.0, 0.0], [1.0, 0.0], [0.6, -0.3],
                         [0.2, 0.9], taus=(0.3, 0.7))
    assert checks
    for c in checks:
        assert c.error <= 1e-6, (c.name, c.tau, c.error)


def test_lemma_suite_mechanical_mode(flat2):
    checks = lemma_suite(flat2, harmonic_potential(2, omega=0.8),
                         [0.0, 0.0], [1.0, 0.0], [0.6, -0.3], [0.2, 0.9],
                         taus=(0.35, 0.65))
    names = {c.name for c in checks}
    assert "curve-first-t" in names
    for c in checks:
        assert c.error <= 1e-3, (c.name, c.tau, c.error)


def test_lemma_suite_requires_normal_coordinates(sphere):
    # centers with nonvanishing Christoffel symbols are rejected rather
    # than silently producing uncorrected coordinate derivatives
    with pytest.raises(PreconditionError):
        lemma_suite(sphere, None, [1.0, 0.3], [1.0, 0.0], [0.6, -0.3],
                    [0.2, 0.9], taus=(0.5,))


@pytest.mark.parametrize("case", ["sphere", "flat-quartic", "inline3d"])
def test_variation_family_entries_equal_single_curves(case, sphere):
    # the family's fields are its one batch's lanes reshaped in s-major
    # order: entry (i, j) is the curve of velocity t_j v + s_i w with its
    # transported u and two-point field, bit for bit; the grid has 3 s- and
    # 4 t-values, so a swapped axis cannot pass
    from mtwcheck.dynamics import variation_family

    pot = None
    if case == "sphere":
        metric, x = sphere, [EQUATOR, 0.0]
    elif case == "flat-quartic":
        metric, x = euclidean_metric(2), [0.0, 0.0]
        pot = quartic_potential([[0.6, 0.1], [0.1, 0.9]])
    else:
        metric, x = inline3d_metric(), [0.0, 0.0, 0.0]
    n, steps = metric.dim, 40
    u, v, w = (np.array(a[:n]) for a in ([1.0, 0.3, -0.2], [0.6, -0.3, 0.2],
                                          [0.2, 0.9, -0.1]))
    s_values, t_values = (-0.1, 0.0, 0.05), (0.5, 0.75, 1.0, 1.25)
    fam = variation_family(metric, pot, x, u, v, w, s_values, t_values, steps)
    fields = (fam.pos, fam.vel, fam.U, fam.J, fam.dJ)
    assert {a.shape for a in fields} == {(steps + 1, 3, 4, n)}
    for i, s in enumerate(s_values):
        for j, t in enumerate(t_values):
            path = least_action_curve(metric, pot, x, t * v + s * w, steps)
            sol = jacobi_bvp(path, u)
            want = (path.pos, path.vel, parallel_transport(path, u).vectors,
                    sol.J, sol.dJ)
            for got, one in zip(fields, want):
                assert np.array_equal(got[:, i, j], one)


# A 3-vector in dimension 2, given to each trajectory entry point in
# the slot named; the point is [0, 0] of conformal a = -3.
_BAD = [1.0, 0.0, 0.0]
_WRONG_LENGTH_CALLS = {
    "cost": ("y", lambda m, path: cost(m, None, [0.0, 0.0], _BAD)),
    "shoot_velocity": ("y", lambda m, path: shoot_velocity(m, None, [0.0, 0.0], _BAD)),
    "shoot_velocity v_init": ("v_init", lambda m, path: shoot_velocity(
        m, None, [0.0, 0.0], [0.1, 0.0], v_init=_BAD)),
    "c_exp": ("v", lambda m, path: c_exp(m, None, [0.0, 0.0], _BAD)),
    "least_action_curve": ("x", lambda m, path: least_action_curve(
        m, None, _BAD, [0.1, 0.0])),
    "gram_schmidt": ("vectors\\[0\\]", lambda m, path: gram_schmidt(
        m, [0.0, 0.0], [_BAD])),
    "parallel_transport": ("u", lambda m, path: parallel_transport(path, _BAD)),
    "jacobi_bvp": ("u", lambda m, path: jacobi_bvp(path, _BAD)),
}


@pytest.mark.parametrize("name", list(_WRONG_LENGTH_CALLS))
def test_trajectory_api_rejects_wrong_length_vectors(name, conformal_a3):
    """A vector of the wrong length raises DimensionError naming it,
    before any integration, not a broadcast, index or solver error."""
    slot, call = _WRONG_LENGTH_CALLS[name]
    path = least_action_curve(conformal_a3, None, [0.0, 0.0], [0.1, 0.0])
    with pytest.raises(DimensionError, match=f"^{slot} has shape \\(3,\\)"):
        call(conformal_a3, path)


# ---------------------------------------------------------------------------
# Lanes
# ---------------------------------------------------------------------------


_MODES = [
    {}, {"variation": "velocity"}, {"variation": "full"}, {"transport": True},
    {"transport": True, "variation": "full"},
]


def _flow_fields(flow, mode) -> list:
    """The arrays of a Flow, curve, psi and phi, each checked to be there
    exactly when the integration's ``mode`` asks for it."""
    fields = [flow.curve, flow.psi, flow.phi]
    asked = [True, mode.get("transport", False), "variation" in mode]
    assert [a is not None for a in fields] == asked
    return [a for a in fields if a is not None]


def _inline(upper, dim, potential=None):
    """The inline metric of the upper-triangle entry texts ``upper``, and
    the potential of the text ``potential`` or None."""
    from mtwcheck.expr import parse_field
    from mtwcheck.geometry import MetricField, PotentialField

    metric = MetricField.from_upper([parse_field(t, dim) for t in upper], dim)
    return metric, (None if potential is None
                    else PotentialField(parse_field(potential, dim), dim))


# a 3-D metric with every entry of g^-1 nonzero and a potential, and a 4-D
# one, whose stage inverts g with np.linalg.inv, with a potential
_INLINE3D_FULL = (["exp(x*y)", "0.2*x*z", "0.1*y", "exp(y*z)", "0.1*x*y", "1 + z^2"],
                  3, "0 - x^2*y - 0.2*z^2")
_INLINE4D = (["exp(x1*x2)", "0", "0", "0.1*x3*x4", "exp(x1*x2)", "0", "0",
              "exp(x1*x2)", "0.2*x2", "exp(x1*x2)"], 4, "0 - x1^2*x2 - 0.2*x4^2")


@pytest.mark.parametrize("mode", _MODES)
@pytest.mark.parametrize("case", ["conformal-potential", "inline3d", "sphere",
                                  "flat-quartic", "sphere-long", "inline3d-full",
                                  "inline4d"])
def test_lane_matches_curve_integrated_alone(case, mode, conformal_a3, sphere):
    # nine lanes cross a SIMD width of eight in the elementwise kernels and
    # run the vector stage kernel, a batch at the lane bound and a lane
    # alone its scalar step (the vector kernel in 4-D); the flat case runs
    # the evaluator's static-metric branch; the long case crosses step-map
    # blocks at other steps in each batch; the 3-D and 4-D cases run the
    # stage's cofactor and stacked inverses
    from mtwcheck import dynamics as dyn
    from mtwcheck.expr import parse_field
    from mtwcheck.geometry import PotentialField

    rng = np.random.default_rng(5)
    pot = None
    center = 0.0
    steps = 40
    if case == "inline3d":
        metric = inline3d_metric()
    elif case == "inline3d-full":
        metric, pot = _inline(*_INLINE3D_FULL)
    elif case == "inline4d":
        metric, pot = _inline(*_INLINE4D)
    elif case == "sphere-long":
        metric = sphere
        center = np.array([1.2, 0.1])
        steps = 150
        alone, batch = (max(1, dyn.STEP_MAP_BLOCK_POINTS // (4 * lanes))
                        for lanes in (1, 9))
        assert 1 < batch < alone < steps and alone % batch
    elif case == "sphere":
        metric = sphere
        center = np.array([1.2, 0.1])
    elif case == "flat-quartic":
        metric = euclidean_metric(2)
        pot = quartic_potential([[0.8, 0.1], [0.1, 1.2]])
    else:
        metric = conformal_a3
        pot = PotentialField(parse_field("0 - x^2*y - 0.3*y^4", 2), 2)
    n = metric.dim
    X = center + rng.uniform(-0.2, 0.2, (9, n))
    V = rng.uniform(-0.4, 0.4, (9, n))
    flow = _flow_fields(dyn._integrate(metric, pot, X, V, steps, store=True, **mode),
                        mode)
    end = _flow_fields(dyn._integrate(metric, pot, X, V, steps, **mode), mode)
    for a, e in zip(flow, end):
        assert len(a) == steps + 1 and len(e) == 1
        assert np.array_equal(a[-1:], e)
    bound = dyn.SCALAR_LANES
    assert bound < 9
    scalar = dyn._integrate(metric, pot, X[:bound], V[:bound], steps, store=True, **mode)
    for a, sc in zip(flow, _flow_fields(scalar, mode)):
        assert np.array_equal(a[:, :bound], sc)
    for b in (0, 4, 8):
        alone = dyn._integrate(metric, pot, X[b:b + 1], V[b:b + 1], steps,
                               store=True, **mode)
        for a, al in zip(flow, _flow_fields(alone, mode)):
            assert np.array_equal(a[:, b:b + 1], al)


@pytest.mark.parametrize("lanes", [1, 5, 25])
@pytest.mark.parametrize("case", ["sphere", "conformal-potential", "inline3d",
                                  "flat-quartic", "offdiag", "inline4d", "line"])
def test_stage_kernel_matches_the_field_evaluator(case, lanes, conformal_a3, sphere):
    # the generated stage's slope is -Gamma(v, v) - grad V of the jet
    # pipeline, with g^-1 from cofactors (np.linalg.inv in 4-D), so it
    # agrees to rounding; its g is the metric's values, bit for bit; up to
    # 3-D, the scalar step's RK4 step of each lane is the kernel's
    from mtwcheck.expr import parse_field
    from mtwcheck.geometry import GeometryBatch, PotentialField

    center = 0.0
    if case == "sphere":
        metric, pot, center = sphere, None, np.array([1.2, 0.1])
    elif case == "conformal-potential":
        metric = conformal_a3
        pot = PotentialField(parse_field("0 - x^2*y - 0.3*y^4", 2), 2)
    elif case == "inline3d":
        metric, pot = inline3d_metric(), None
    elif case == "flat-quartic":
        metric, pot = euclidean_metric(2), quartic_potential([[0.8, 0.1], [0.1, 1.2]])
    elif case == "offdiag":
        metric, pot = _inline(["1", "0.2*x*y", "1"], 2)
    elif case == "line":
        metric, pot = _inline(["exp(x) + x^2"], 1, "0 - x^3")
    else:
        metric, pot = _inline(*_INLINE4D)
    n = metric.dim
    rng = np.random.default_rng(11)
    X = center + rng.uniform(-0.3, 0.3, (lanes, n))
    V = rng.uniform(-0.5, 0.5, (lanes, n))
    fn, g_fill, step, _ = geometry._curve_stage(metric, pot)
    a = np.concatenate([X.T, V.T])  # a row per coordinate, as _integrate keeps it
    k = np.full((2 * n, lanes), np.nan)
    g = np.full((lanes, n, n), np.nan)
    if g_fill is not None:
        g[...] = g_fill
    fn(a, k, g)
    geo = GeometryBatch(metric, X, potential=pot, curvature_order=0)
    want = -np.einsum("bkij,bi,bj->bk", geo.gamma, V, V)
    if pot is not None:
        want -= geo.grad_v
    assert np.array_equal(k[0:n], V.T)
    np.testing.assert_allclose(k[n:].T, want, rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(want)))
    assert (g_fill is None) == (case == "flat-quartic")
    if g_fill is not None:
        assert np.array_equal(g, metric.matrix(X))
    assert (step is None) == (n > 3)
    if step is not None:
        _assert_scalar_step_is_the_kernels(fn, g_fill, step, a)


def _assert_scalar_step_is_the_kernels(fn, g_fill, step, a, h=0.05):
    """The scalar step's record of one RK4 step from each column of a
    equals the vector kernel's, bit for bit: the state after the step, the
    four stage arguments (the slopes scaled onto the state) and their g."""
    m, lanes = a.shape
    n = m // 2
    args, ks, gs = [a], [], []
    for scale in (0.5 * h, 0.5 * h, h, None):
        k, g = np.empty((m, lanes)), np.full((lanes, n, n), np.nan)
        if g_fill is not None:
            g[...] = g_fill
        fn(args[-1], k, g)
        ks.append(k)
        gs.append(g)
        if scale is not None:
            args.append(a + k * scale)
    y = a + (((ks[0] + ks[1] * 2.0) + ks[2] * 2.0) + ks[3]) * (h / 6.0)
    rec = np.array([step(h, r) for r in a.T.tolist()])
    assert np.array_equal(rec[:, 0:m], y.T)
    assert np.array_equal(rec[:, m: 5 * m].reshape(lanes, 4, m),
                          np.stack(args).transpose(2, 0, 1))
    if g_fill is None:
        assert rec.shape[1] == 5 * m
    else:
        assert np.array_equal(rec[:, 5 * m:].reshape(lanes, 4, n, n),
                              np.stack(gs).swapaxes(0, 1))


@pytest.mark.parametrize("case", ["sphere", "conformal-potential", "inline3d-full",
                                  "flat-quartic", "inline4d", "line"])
def test_slope_jacobian_is_the_derivative_of_the_stage_slope(case, conformal_a3,
                                                             sphere):
    # the linearization's coefficients d_x F, F = Gamma(v, v) + grad V, and
    # Gamma v are the x- and half the v-derivatives of the stage kernel's
    # acceleration -F: against the jet pipeline's Gamma, d Gamma, grad V
    # and Hess V (d_p grad V = g^-1 Hess V - Gamma(e_p, grad V)), and
    # against central differences of the kernel; the 1-D line runs the
    # n = 1 cofactor
    from mtwcheck.expr import parse_field
    from mtwcheck.geometry import GeometryBatch, PotentialField

    center = 0.0
    if case == "sphere":
        metric, pot, center = sphere, None, np.array([1.2, 0.1])
    elif case == "conformal-potential":
        metric = conformal_a3
        pot = PotentialField(parse_field("0 - x^2*y - 0.3*y^4", 2), 2)
    elif case == "inline3d-full":
        metric, pot = _inline(*_INLINE3D_FULL)
    elif case == "flat-quartic":
        metric, pot = euclidean_metric(2), quartic_potential([[0.8, 0.1], [0.1, 1.2]])
    elif case == "line":
        metric, pot = _inline(["exp(x) + x^2"], 1, "0 - x^3")
    else:
        metric, pot = _inline(*_INLINE4D)
    n = metric.dim
    rng = np.random.default_rng(5)
    X = center + rng.uniform(-0.3, 0.3, (6, n))
    V = rng.uniform(-0.5, 0.5, (6, n))
    fn, g_fill, _, lin = geometry._curve_stage(metric, pot)
    A = lin(np.concatenate([X.T, V.T]))
    dx, gam_v = A[..., 0:n], A[..., n:]
    geo = GeometryBatch(metric, X, potential=pot, curvature_order=0)
    want = np.einsum("bpkij,bi,bj->bkp", geo.dgamma, V, V)
    if pot is not None:
        want += geo.g_inv @ geo.hess_v - np.einsum("bkpa,ba->bkp", geo.gamma, geo.grad_v)
    scale = np.max(np.abs(want))
    np.testing.assert_allclose(dx, want, rtol=1e-12, atol=1e-12 * scale)

    def accel(X, V):
        k, g = np.empty((2 * n, len(X))), np.empty((len(X), n, n))
        if g_fill is not None:
            g[...] = g_fill  # the 4-D kernel inverts g as filled
        fn(np.concatenate([X.T, V.T]), k, g)
        return k[n:].T

    e = 1e-6
    for p, d in enumerate(np.eye(n) * e):
        by_x = (accel(X + d, V) - accel(X - d, V)) / (2 * e)
        np.testing.assert_allclose(-by_x, dx[..., p], rtol=1e-8, atol=1e-8 * scale)
        by_v = (accel(X, V + d) - accel(X, V - d)) / (2 * e)
        np.testing.assert_allclose(-by_v, 2.0 * gam_v[..., p], rtol=1e-8,
                                   atol=1e-8 * max(scale, 1.0))


def test_scalar_step_rounds_exp_as_the_vector_kernel(conformal_a3):
    # math.exp and np.exp round some arguments to neighbouring floats; at
    # such points the scalar step's g is still the batch evaluator's
    rng = np.random.default_rng(3)
    X = rng.uniform(-0.6, 0.6, (400, 2))
    V = rng.uniform(-0.5, 0.5, (400, 2))
    want = conformal_a3.matrix(X)
    by_math_exp = np.array([reference_value(conformal_a3.entries[0][0].tree, x) for x in X])
    differ = np.flatnonzero(want[:, 0, 0] != by_math_exp)
    assert differ.size >= 5
    fn, g_fill, step, _ = geometry._curve_stage(conformal_a3, None)
    for b in differ:
        g0 = np.array(step(0.05, (*X[b], *V[b]))[20:24]).reshape(2, 2)
        assert np.array_equal(g0, want[b])
    a = np.concatenate([X[differ].T, V[differ].T])
    _assert_scalar_step_is_the_kernels(fn, g_fill, step, a)


@pytest.mark.parametrize("lanes", [1, 8, 9])
def test_singular_stage_point_raises_alike_on_both_stage_paths(lanes):
    # stage 2 of the first of two steps lands on x = 1, where det g is 0:
    # the scalar step's division by zero hands the lane to the vector
    # kernel, so alone, at the lane bound and in a vector batch the error
    # is the same, and no ZeroDivisionError or NumPy warning escapes
    import warnings

    from mtwcheck import dynamics as dyn
    from mtwcheck.errors import MetricDegenerateError

    metric, _ = _inline(["1", "x", "1"], 2)
    X = np.zeros((lanes, 2))
    V = np.tile([0.2, 0.1], (lanes, 1))
    V[lanes // 2] = [4.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MetricDegenerateError) as err:
            dyn._checked(dyn._integrate(metric, None, X, V, 2))
    assert str(err.value) == "metric not positive definite at [1.0, 0.0]: min eigenvalue 0.000e+00"


def test_second_cost_on_an_equal_metric_compiles_no_kernel(plan_cache, monkeypatch):
    # the stage kernel and the linearization are kept on their plan, which
    # a freshly parsed equal metric finds by content: every integration of
    # both costs, on the coarse grid and the fine one, linearized or not,
    # runs the kernels compiled first, and the second cost compiles nothing
    from mtwcheck import expr as ex

    built, compiled = [], []
    compile_stage, compile_src = geometry._stage_kernel, ex._compile
    monkeypatch.setattr(geometry, "_stage_kernel",
                        lambda *args: built.append(args) or compile_stage(*args))
    monkeypatch.setattr(ex, "_compile",
                        lambda *args: compiled.append(args) or compile_src(*args))
    upper = ["1", "0", "sin(x)^2"]
    first = cost(_inline(upper, 2)[0], None, [1.2, 0.3], [1.5, 0.6], steps=100)
    assert len(built) == 1
    assert compiled
    compiled.clear()
    again = cost(_inline(upper, 2)[0], None, [1.2, 0.3], [1.5, 0.6], steps=100)
    assert len(built) == 1
    assert compiled == []
    assert again.value == first.value


def _oracle_case(case, conformal_a3, sphere):
    """(metric, potential, x0, v0) of one oracle case."""
    from mtwcheck.expr import parse_field
    from mtwcheck.geometry import PotentialField

    if case == "sphere":
        return sphere, None, [1.2, 0.1], [0.3, -0.4]
    if case == "conformal-potential":
        return (conformal_a3, PotentialField(parse_field("0 - x^2*y - 0.3*y^4", 2), 2),
                [0.1, -0.1], [0.3, 0.2])
    if case == "inline3d":
        return inline3d_metric(), None, [0.1, 0.2, -0.1], [0.2, 0.1, 0.3]
    return (euclidean_metric(2), quartic_potential([[0.8, 0.1], [0.1, 1.2]]),
            [0.1, -0.2], [0.3, 0.4])


@pytest.mark.parametrize("store", [False, True])
@pytest.mark.parametrize("mode", _MODES[1:])
@pytest.mark.parametrize("case", ["sphere", "conformal-potential", "inline3d",
                                  "flat-quartic"])
def test_split_integration_matches_coupled_rk4(case, mode, store, conformal_a3,
                                               sphere):
    # the curve stepped alone and its transport and variation advanced by
    # RK4 step maps give the coupled RK4 of the whole state up to rounding;
    # 150 steps of one lane cross step-map blocks
    from mtwcheck import dynamics as dyn

    metric, pot, x0, v0 = _oracle_case(case, conformal_a3, sphere)
    want = _flow_fields(reference_integrate(metric, pot, np.array(x0), np.array(v0),
                                            150, **mode), mode)
    got = _flow_fields(dyn._integrate(metric, pot, np.array([x0]), np.array([v0]), 150,
                                      store=store, **mode), mode)
    scale = max(np.max(np.abs(w)) for w in want)
    for g, w in zip(got, want):
        if not store:
            w = w[-1:]
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-12 * scale


@pytest.mark.parametrize("mode", [{}, {"transport": True, "variation": "full"}])
@pytest.mark.parametrize("case", ["conformal-potential", "flat-quartic"])
def test_integration_and_field_outputs_are_not_reused(case, mode, conformal_a3):
    # the buffers an integration or an evaluator keeps between stages are
    # never what it returns: a second call at the same lane count, on other
    # inputs, leaves the first call's arrays as they were, and no two of
    # the arrays returned share memory
    from mtwcheck import dynamics as dyn
    from mtwcheck.expr import parse_field
    from mtwcheck.geometry import PotentialField

    if case == "flat-quartic":
        metric = euclidean_metric(2)
        pot = quartic_potential([[0.8, 0.1], [0.1, 1.2]])
    else:
        metric = conformal_a3
        pot = PotentialField(parse_field("0 - x^2*y - 0.3*y^4", 2), 2)
    rng = np.random.default_rng(8)
    X, V = rng.uniform(-0.2, 0.2, (2, 3, 2))
    for store in (False, True):
        first = _flow_fields(dyn._integrate(metric, pot, X, V, 10, store=store, **mode),
                             mode)
        kept = [a.copy() for a in first]
        second = _flow_fields(
            dyn._integrate(metric, pot, X + 0.1, V - 0.1, 10, store=store, **mode), mode)
        for a, b in zip(first, kept):
            assert np.array_equal(a, b)
            assert not any(np.shares_memory(a, d) for d in second)
            assert not any(np.shares_memory(a, d) for d in first if d is not a)

    lin = geometry._curve_stage(metric, pot)[3]
    first = lin(np.concatenate([X.T, V.T]))
    kept = first.copy()
    lin(np.concatenate([X.T + 0.1, V.T - 0.1]))
    assert np.array_equal(first, kept)


# ---------------------------------------------------------------------------
# Curves that leave the region where the metric is positive definite
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def half_plane_metric():
    """g = diag(1 + x, 1 + y), positive definite where x, y > -1."""
    from mtwcheck.expr import parse_field
    from mtwcheck.geometry import MetricField

    return MetricField.from_upper(
        [parse_field("1 + x", 2), parse_field("0", 2), parse_field("1 + y", 2)], 2)


def _named_point(err) -> np.ndarray:
    """The point a MetricDegenerateError names."""
    text = str(err)
    return np.array(json.loads(text[text.index("["): text.index("]") + 1]))


@pytest.mark.parametrize("call", [
    lambda m: c_exp(m, None, [0.0, 0.0], [0.0, -0.8]),
    lambda m: least_action_curve(m, None, [0.0, 0.0], [0.0, -0.8]),
    lambda m: cost(m, None, [0.0, 0.0], [0.0, -1.2]),
], ids=["c_exp", "least_action_curve", "cost"])
def test_curve_leaving_the_positive_definite_region_raises(call, half_plane_metric):
    # the curve runs down the y axis past y = -1 without a stage whose
    # metric cannot be inverted: the first point reached past it names
    # the failure
    from mtwcheck.errors import MetricDegenerateError

    with pytest.raises(MetricDegenerateError, match="not positive definite") as e:
        call(half_plane_metric)
    x, y = _named_point(e.value)
    assert x == 0.0 and 1.0 + y <= 0.0


def test_rk4_stage_point_leaving_the_region_raises(half_plane_metric):
    # at 50 steps every grid point of this curve stays above y = -0.954,
    # but its RK4 stage points jump far below y = -1 and back, and the
    # grid alone would return the endpoint (0, 226118); the exact curve
    # reaches y = -1 at t = 8/9, and the first stage point past it names
    # the failure
    from mtwcheck.errors import MetricDegenerateError

    with pytest.raises(MetricDegenerateError, match="not positive definite") as e:
        c_exp(half_plane_metric, None, [0.0, 0.0], [0.0, -0.75], steps=50)
    x, y = _named_point(e.value)
    assert x == 0.0 and -1.01 < y <= -1.0


def test_one_lane_leaving_the_region_fails_the_batch_at_its_grid_point(
        half_plane_metric):
    from mtwcheck import dynamics as dyn
    from mtwcheck.errors import MetricDegenerateError

    X = np.zeros((3, 2))
    V = np.array([[0.3, 0.2], [0.0, -0.8], [-0.2, 0.3]])
    with pytest.raises(MetricDegenerateError) as alone:
        dyn._checked(dyn._integrate(half_plane_metric, None, X[1:2], V[1:2], 50))
    with pytest.raises(MetricDegenerateError) as batch:
        dyn._checked(dyn._integrate(half_plane_metric, None, X, V, 50,
                                    variation="velocity"))
    # the lane's grid points are bit-identical to the curve integrated
    # alone, and the other lanes stay inside the region
    assert str(batch.value) == str(alone.value)
    assert 1.0 + _named_point(batch.value)[1] <= 0.0
    dyn._checked(dyn._integrate(half_plane_metric, None, X[[0, 2]], V[[0, 2]], 50))


def _failing_batch(failure, lanes, half_plane_metric):
    """(metric, potential, X, V, b, steps): a batch of ``lanes`` lanes
    whose lane b leaves the region at a stage point (down the y axis past
    y = -1 on the half plane), ends outside it with every stage point
    inside (thrown at x = -1 by the potential 1.35 x, two steps), or
    overflows (a flat metric whose potential -x^4 throws the curve to inf
    after step 9 of 20), and whose other lanes stay finite inside it."""
    from mtwcheck.expr import parse_field
    from mtwcheck.geometry import PotentialField

    rng = np.random.default_rng(4)
    X = rng.uniform(-0.1, 0.1, (lanes, 2))
    V = rng.uniform(-0.3, 0.3, (lanes, 2))
    b = lanes // 2
    steps = 20
    if failure == "leaves":
        metric, pot = half_plane_metric, None
        X[b], V[b] = [0.0, 0.0], [0.0, -0.8]
    elif failure == "ends-outside":
        metric = half_plane_metric
        pot = PotentialField(parse_field("1.35*x", 2), 2)
        X[:, 0] += 1.0
        X[b], V[b] = [0.0, 0.0], [0.0, 0.0]
        steps = 2
    else:
        metric = euclidean_metric(2)
        pot = PotentialField(parse_field("0 - x^4", 2), 2)
        X[b], V[b] = [0.0, 0.0], [30.0, 0.0]
    return metric, pot, X, V, b, steps


@pytest.mark.parametrize("lanes", [3, 12], ids=["scalar", "vector"])
@pytest.mark.parametrize("failure", ["leaves", "ends-outside", "overflows"])
def test_failed_lane_stops_no_other_lane(failure, lanes, half_plane_metric):
    # the failing lane is kept on the Flow with the error it raises alone
    # (naming its own lane index), and every other lane's arrays are the
    # bits of that lane integrated alone, on the scalar and vector paths
    from mtwcheck import dynamics as dyn

    metric, pot, X, V, b, steps = _failing_batch(failure, lanes, half_plane_metric)
    assert (lanes <= dyn.SCALAR_LANES) == (lanes == 3)
    mode = {"transport": True, "variation": "full", "store": True}
    flow = dyn._integrate(metric, pot, X, V, steps, **mode)
    assert list(flow.failed) == [b]
    key, error = flow.failed[b]
    with pytest.raises(type(error)) as alone:
        dyn._checked(dyn._integrate(metric, pot, X[b:b + 1], V[b:b + 1], steps, **mode))
    assert str(error) == str(alone.value).replace("(lane 0:", f"(lane {b}:")
    if failure == "ends-outside":
        assert key == (2, 4) and str(error) == (
            "metric not positive definite at [-1.0130887682558685, 0.0]: "
            "min eigenvalue -1.309e-02")
    if failure == "overflows":
        assert key == (9, 5) and str(error).startswith(
            "curve state is not finite after step 9 of 20")
    for a in (c for c in range(lanes) if c != b):
        one = dyn._integrate(metric, pot, X[a:a + 1], V[a:a + 1], steps, **mode)
        assert one.failed == {}
        for got, want in zip((flow.curve, flow.psi, flow.phi),
                             (one.curve, one.psi, one.phi)):
            assert got[:, a].tobytes() == want[:, 0].tobytes()


def test_batch_raises_its_first_failure_by_key_then_lane(half_plane_metric):
    # lanes 1 and 2 leave the region; lane 2 at an earlier step, so the
    # batch raises lane 2's error, and with both equal, lane 1's
    from mtwcheck import dynamics as dyn
    from mtwcheck.errors import MetricDegenerateError

    X = np.zeros((3, 2))
    V = np.array([[0.3, 0.2], [0.0, -0.8], [0.0, -1.6]])
    flow = dyn._integrate(half_plane_metric, None, X, V, 50)
    assert sorted(flow.failed) == [1, 2]
    assert flow.failed[2][0] < flow.failed[1][0]
    with pytest.raises(MetricDegenerateError) as err:
        dyn._checked(flow)
    assert err.value is flow.failed[2][1]
    V[2] = V[1]
    flow = dyn._integrate(half_plane_metric, None, X, V, 50)
    with pytest.raises(MetricDegenerateError) as err:
        dyn._checked(flow)
    assert err.value is flow.failed[1][1]
    assert str(err.value) == str(flow.failed[2][1])


def test_unreachable_target_costs_one_integration_per_trial(half_plane_metric,
                                                            monkeypatch):
    # a 25-lane batch from 0 whose last target (-0.8, 0.1) is past x = -1
    # along its first curve: on the coarse grid of 12 steps that lane
    # fails and drops out inside the batch's integrations, with no lane
    # integrated again alone; on the fine grid it fails its initial
    # integration, the 15 other lanes not yet converged take one more,
    # and the lane's error is raised
    from mtwcheck import dynamics as dyn
    from mtwcheck.errors import MetricDegenerateError

    grid = np.linspace(-0.2, 0.2, 5)
    Y = np.array([[a, c] for a in grid for c in grid])
    X = np.zeros_like(Y)
    calls = []
    integrate = dyn._integrate

    def counted(*args, **kwargs):
        calls.append((args[4], len(args[2])))  # steps, lanes
        return integrate(*args, **kwargs)

    monkeypatch.setattr(dyn, "_integrate", counted)
    dyn._costs(half_plane_metric, None, X, Y, steps=100)
    reachable = list(calls)
    calls.clear()
    Y[24] = [-0.8, 0.1]
    with pytest.raises(MetricDegenerateError) as err:
        dyn._costs(half_plane_metric, None, X, Y, steps=100)
    assert str(err.value) == ("metric not positive definite at "
                              "[-1.012326767533242, 0.08184736828405459]: "
                              "min eigenvalue -1.233e-02")
    assert calls == [(12, 25), (12, 23), (12, 23), (100, 25), (100, 15)]
    assert len(calls) <= len(reachable)
    with pytest.raises(MetricDegenerateError) as alone:
        dyn._checked(integrate(half_plane_metric, None, X[24:], Y[24:], 100))
    assert str(alone.value) == str(err.value)


def test_shooting_trial_leaving_the_region_fails_its_line_search(
        half_plane_metric):
    # straight down the y axis, (1 + y) y'^2 is conserved, so the curve
    # reaching y = -0.925 at unit time has |y'(0)| = c = 2/3 (1 - 0.075^1.5)
    # and cost c^2 / 2; from y'(0) = -0.3 a full Newton step's trial curve
    # crosses y = -1, fails its line-search test, and a halved step goes on
    # (the default guess y'(0) = -0.925 > c leaves the region itself)
    res = cost(half_plane_metric, None, [0.0, 0.0], [0.0, -0.925], steps=50,
               v_init=[0.0, -0.3])
    c = 2.0 / 3.0 * (1.0 - 0.075 ** 1.5)
    assert res.endpoint_error <= 1e-10
    assert res.value == pytest.approx(0.5 * c * c, rel=1e-4)
    assert np.all(1.0 + res.path.pos[:, 1] > 0.0)


def test_shooting_trial_leaving_the_region_fails_only_its_lane(half_plane_metric):
    from mtwcheck import dynamics as dyn

    X = np.zeros((3, 2))
    Y = np.array([[0.3, 0.2], [0.0, -0.925], [-0.2, 0.3]])
    V = Y - X
    V[1] = [0.0, -0.3]  # as in the test above
    batch = dyn._costs(half_plane_metric, None, X, Y, steps=50, V_init=V)
    for b in range(len(X)):
        alone = cost(half_plane_metric, None, X[b], Y[b], steps=50, v_init=V[b])
        _same_cost(_lane_cost(batch, b), alone)


def test_lane_that_cannot_converge_raises_its_first_trial_failure(
        half_plane_metric):
    # the target (0, -1.5) lies outside the region: from y'(0) = -0.3 the
    # first curve stays inside, Newton's full trial steps cross y = -1 and
    # the lane stagnates, so it raises its first trial curve's failure, not
    # a ShootingError, alone and as a lane of a batch
    from mtwcheck import dynamics as dyn
    from mtwcheck.errors import MetricDegenerateError

    want = ("metric not positive definite at [0.0, -1.2595954340398874]: "
            "min eigenvalue -2.596e-01")
    with pytest.raises(MetricDegenerateError) as alone:
        cost(half_plane_metric, None, [0.0, 0.0], [0.0, -1.5], steps=50,
             v_init=[0.0, -0.3])
    assert str(alone.value) == want
    X = np.zeros((3, 2))
    Y = np.array([[0.3, 0.2], [0.0, -1.5], [-0.2, 0.3]])
    V = Y - X
    V[1] = [0.0, -0.3]
    with pytest.raises(MetricDegenerateError) as batch:
        dyn._costs(half_plane_metric, None, X, Y, steps=50, V_init=V)
    assert str(batch.value) == want
    # with max_iter = 1 every lane misses tol in one event, lane 0 alone
    # with a ShootingError, and lane 1's trial failure still comes first
    with pytest.raises(ShootingError, match="did not reach tolerance"):
        dyn._costs(half_plane_metric, None, X[:1], Y[:1], steps=50, max_iter=1,
                   V_init=V[:1])
    with pytest.raises(MetricDegenerateError) as batch:
        dyn._costs(half_plane_metric, None, X, Y, steps=50, max_iter=1, V_init=V)
    assert str(batch.value) == want


def test_newton_keeps_each_lanes_failure_and_the_others_as_alone(half_plane_metric,
                                                                 monkeypatch):
    # one batch on the coarse grid of 25 steps: lane 1 stalls (its line
    # search fails every trial), and the initial curves of lanes 2 and 4
    # leave the region, lane 4's at step 12 and lane 2's at step 21; each
    # keeps the error it has alone, lanes 0 and 3 converge bit for bit as
    # alone, and shooting raises lane 4's failure, the first by key
    from mtwcheck import dynamics as dyn
    from mtwcheck.errors import MetricDegenerateError

    X = np.array([[0.0, 0.0], [0.1, 0.1], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    Y = np.array([[0.3, 0.2], [0.2, 0.4], [-0.8, 0.1], [-0.2, 0.3], [-1.5, 0.0]])
    _stall_coarse_solves(monkeypatch, X[1], Y[1] + 1e-3)

    def newton(lanes):
        return dyn._newton(half_plane_metric, None, X[lanes], Y[lanes], 25, 1e-10, 50,
                           (Y - X)[lanes])

    V, iters, err, curves, failed = newton(slice(None))
    assert sorted(failed) == [1, 2, 4]
    for b in failed:
        alone = newton(slice(b, b + 1))[4]
        assert type(failed[b][1]) is type(alone[0][1])
        assert str(failed[b][1]) == str(alone[0][1])
    assert str(failed[1][1]) == ("shooting stagnated at endpoint error 1.414e-03 "
                                 "after 1 iterations")
    for b in (0, 3):
        Va, ia, ea, ca, fa = newton(slice(b, b + 1))
        assert fa == {}
        assert np.array_equal(V[b], Va[0]) and iters[b] == ia[0] and err[b] == ea[0]
        assert np.array_equal(curves[:, b], ca[:, 0])
    with pytest.raises(MetricDegenerateError) as raised:
        dyn._shoot(half_plane_metric, None, X, Y, 25, 1e-10, 50, None)
    assert str(raised.value) == ("metric not positive definite at "
                                 "[-1.0882434645929384, 0.0]: min eigenvalue -8.824e-02")


def test_singular_jacobian_after_a_failed_trial_raises_a_shooting_error(
        half_plane_metric, monkeypatch):
    # the lane of test_shooting_trial_leaving_the_region_fails_its_line_search:
    # its first full Newton step's trial curve leaves the region, and with
    # CONJUGATE_COND_LIMIT at 1.5 its second endpoint Jacobian (condition
    # number 1.76, the first 1.22) reads as singular, which is its error
    from mtwcheck import dynamics as dyn

    monkeypatch.setattr(dyn, "CONJUGATE_COND_LIMIT", 1.5)
    with pytest.raises(ShootingError, match="endpoint Jacobian is numerically singular"):
        cost(half_plane_metric, None, [0.0, 0.0], [0.0, -0.925], steps=50,
             v_init=[0.0, -0.3])


def test_initial_shooting_curve_leaving_the_region_between_grid_points_raises(
        half_plane_metric):
    # the default guess y'(0) = -0.925 > c of the two tests above: with
    # (1 + y) y'^2 conserved, the exact curve reaches y = -1 at
    # t = (2/3) / 0.925 = 0.72.  At 50 steps its grid points stay above
    # y = -0.986 (the curve ends at y = 6.34), but its RK4 stage points
    # reach y = -1.32, so the initial curve leaves the region and raises,
    # alone and as a lane of a batch
    from mtwcheck import dynamics as dyn
    from mtwcheck.errors import MetricDegenerateError

    with pytest.raises(MetricDegenerateError, match="not positive definite") as alone:
        cost(half_plane_metric, None, [0.0, 0.0], [0.0, -0.925], steps=50)
    x, y = _named_point(alone.value)
    assert x == 0.0 and 1.0 + y <= 0.0
    X = np.zeros((3, 2))
    Y = np.array([[0.3, 0.2], [0.0, -0.925], [-0.2, 0.3]])
    with pytest.raises(MetricDegenerateError) as batch:
        dyn._costs(half_plane_metric, None, X, Y, steps=50)
    assert str(batch.value) == str(alone.value)


def test_initial_shooting_curve_leaving_the_region_raises(half_plane_metric):
    # the first guess, the velocity Y - X, has a curve through y = -1:
    # without a Jacobian of an accepted curve there is no Newton step
    from mtwcheck.errors import MetricDegenerateError

    with pytest.raises(MetricDegenerateError, match="not positive definite") as e:
        cost(half_plane_metric, None, [0.0, 0.0], [0.643, -0.840], steps=50)
    assert 1.0 + _named_point(e.value)[1] <= 0.0


# ---------------------------------------------------------------------------
# Shooting runs its variation from the stage points a curve recorded
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lanes", [3, 12], ids=["scalar-path", "vector-path"])
@pytest.mark.parametrize("case", ["sphere", "conformal-potential", "inline3d"])
def test_velocity_pass_from_recorded_stages_is_the_integrated_variation(
        case, lanes, conformal_a3, sphere):
    # a stored plain integration keeps its stage points; the "velocity"
    # pass run afterwards from them, over every lane or over some in any
    # order, gives the bits of the variation integrated with the curve,
    # across blocks of steps (37 steps of 12 lanes make four blocks)
    from mtwcheck import dynamics as dyn

    metric, pot, x0, v0 = _oracle_case(case, conformal_a3, sphere)
    n = metric.dim
    shift = np.linspace(-0.05, 0.05, lanes)[:, None]
    X, V = np.array(x0) + shift, np.array(v0) - shift
    want = dyn._integrate(metric, pot, X, V, 37, variation="velocity").phi[-1, :, 0:n]
    flow = dyn._integrate(metric, pot, X, V, 37, store=True)
    assert len(flow.stages) == (1 if lanes <= dyn.SCALAR_LANES else 4)
    every = dyn._velocity_jacobians(metric, pot, flow, np.arange(lanes))
    assert np.array_equal(every, want)
    some = np.array([lanes - 1, 0, lanes // 2])
    assert np.array_equal(dyn._velocity_jacobians(metric, pot, flow, some), want[some])


@pytest.mark.parametrize("x, y, want", [
    # full Newton steps on the coarse grid, one chord step on the fine
    ([1.0, 0.2], [1.4, 0.9],
     (["0x1.2a5360715e55fp-2", "0x1.a9ee108cbdecbp-1"], 1, "0x1.13463fa37014ep-49",
      "0x1.2658cfd9c5914p-2")),
    # the coarse line search halves twice, then converges
    ([0.5, 0.0], [2.5, 2.0],
     (["0x1.79edd7e3d5e60p-1", "0x1.43f4bf8a1ea00p+2"], 2, "0x1.1e3779b97f4a8p-49",
      "0x1.9bc72a65fb3ddp+1")),
], ids=["full-steps", "halving"])
def test_sphere_cost_keeps_its_bits(x, y, want, sphere):
    # the velocities, iterations, endpoint errors and actions of the
    # shooting whose first fine Newton step reads the Jacobian of the
    # coarse solution
    res = cost(sphere, None, x, y)
    got = ([v.hex() for v in res.initial_velocity], res.iterations,
           res.endpoint_error.hex(), res.value.hex())
    assert got == want


def test_shooting_runs_each_variation_from_a_curve_it_reads(sphere, monkeypatch):
    # the halving cost above: every trial is integrated once, as a plain
    # stored curve, and a Newton step runs the variation of the curve it
    # steps from, except the fine grid's first, a chord step that reads
    # the variation of the coarse grid's last curve; the fine grid's last
    # curve, on which the lane converges, runs none
    from mtwcheck import dynamics as dyn

    curves, passes = [], []
    integrate, jacobians = dyn._integrate, dyn._velocity_jacobians

    def counted(metric, potential, x0, v0, steps, **kwargs):
        assert kwargs == {"store": True}
        flow = integrate(metric, potential, x0, v0, steps, **kwargs)
        curves.append((steps, tuple(v0[0]), flow))
        return flow

    def counted_pass(metric, potential, flow, lanes):
        passes.append(next(i for i, c in enumerate(curves) if c[2] is flow))
        return jacobians(metric, potential, flow, lanes)

    monkeypatch.setattr(dyn, "_integrate", counted)
    monkeypatch.setattr(dyn, "_velocity_jacobians", counted_pass)
    cost(sphere, None, [0.5, 0.0], [2.5, 2.0])
    steps = [s for s, _, _ in curves]
    assert steps == [25] * 13 + [200] * 3
    assert len({(s, v) for s, v, _ in curves}) == len(curves)  # none integrated twice
    # 10 coarse and 2 fine Newton steps, each from the curve accepted last
    # but the first fine one, which reads the coarse solution's (curve 12)
    assert passes == [0, 1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14]
    assert 13 not in passes and 15 not in passes
    # in a batch with a lane that converges sooner, each Newton step of a
    # lane runs one variation of that lane, and no other runs
    lanes = []
    monkeypatch.setattr(dyn, "_velocity_jacobians",
                        lambda m, p, flow, cols: lanes.append(len(cols))
                        or jacobians(m, p, flow, cols))
    X, Y = np.array([[1.0, 0.2], [0.5, 0.0]]), np.array([[1.4, 0.9], [2.5, 2.0]])
    iters = dyn._newton(sphere, None, X, Y, 25, 1e-8, 50, Y - X)[1]
    assert iters.tolist() == [3, 10]
    assert sum(lanes) == 13


@pytest.mark.parametrize("metric", ["half-plane", "indefinite"])
def test_shooting_batch_failing_at_every_start_runs_no_variation(
        metric, half_plane_metric, monkeypatch):
    # every lane fails at its start point, so the integration returns
    # before it steps (for a constant indefinite g before any kernel is
    # compiled): each lane keeps its start failure and no variation runs
    from mtwcheck import dynamics as dyn
    from mtwcheck.errors import MetricDegenerateError
    from mtwcheck.expr import parse_field
    from mtwcheck.geometry import MetricField

    if metric == "indefinite":
        half_plane_metric = MetricField.from_upper(
            [parse_field(e, 2) for e in ("1", "2", "1")], 2)
    monkeypatch.setattr(dyn, "_velocity_jacobians", None)
    X = np.array([[-1.5, 0.0], [-1.2, 0.3]])
    Y = np.array([[0.2, 0.1], [0.1, 0.4]])
    V, iters, err, curves, failed = dyn._newton(half_plane_metric, None, X, Y, 25,
                                                1e-10, 50, Y - X)
    assert sorted(failed) == [0, 1]
    assert all(key == (0, (0, 0)) for key, _ in failed.values())
    assert np.isnan(err).all() and iters.tolist() == [0, 0]
    with pytest.raises(MetricDegenerateError) as batch:
        dyn._costs(half_plane_metric, None, X, Y)
    assert str(batch.value) == str(failed[0][1])
    assert str(batch.value).startswith("metric not positive definite at [-1.5, 0.0]")


# ---------------------------------------------------------------------------
# The plans and the kernels kept on them are found by content
# ---------------------------------------------------------------------------


def test_repeated_calibrations_reuse_their_plans(plan_cache, plan_builds):
    # every calibration builds fresh metrics; their plans are found by
    # content, so only the first call builds any
    from mtwcheck.mtw import calibrate_normalization

    first = calibrate_normalization(steps=20)
    built = len(plan_builds)
    assert built >= 1
    for _ in range(9):
        assert calibrate_normalization(steps=20) == first
        assert len(plan_builds) == built
    assert len(plan_cache) <= _TAYLOR_PLAN_CACHE_SIZE


def _routes_sequence(steps):
    """The library calls of the benchmark's routes workload, on metrics
    built afresh as a new process would build them: the calibration,
    jacobi against the general closed form on the sphere and on
    conformal a = -3, the direct cost against the simplified closed form
    on a flat quartic, and a sphere cost."""
    from mtwcheck import mtw
    from mtwcheck.conformal import ConformalSpec, conformal_metric

    zero2, e1, e2 = np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    sphere, flat = sphere_metric(), euclidean_metric(2)
    quartic = quartic_potential([[0.8, 0.1], [0.1, 1.2]])
    mtw.calibrate_normalization(steps=steps)
    for metric, x in ((sphere, [1.2, 0.3]),
                      (conformal_metric(ConformalSpec(a=-3.0)), [0.1, -0.1])):
        mtw.mtw_jacobi(metric, None, x, e1, zero2, e2, steps=steps)
        mtw.mtw_zeroth_general(metric, None, x, e1, e2)
    mtw.mtw_direct_cost(flat, quartic, zero2, e1, zero2, e2, h_s=0.05, h_t=0.05,
                        steps=steps)
    mtw.mtw_zeroth_simplified(flat, quartic, zero2, e1, e2)
    cost(sphere, None, [1.2, 0.3], [1.5, 0.6], steps=steps)


def test_repeated_routes_sequences_reuse_their_plans(plan_cache, plan_builds):
    # one pass touches more plan keys than a bound of 16 would hold, and
    # all of them fit the cache, so a second pass builds no plan; the keys
    # do not depend on the step count
    _routes_sequence(steps=20)
    built = len(plan_builds)
    assert 16 < built <= _TAYLOR_PLAN_CACHE_SIZE
    _routes_sequence(steps=20)
    assert len(plan_builds) == built


def test_plan_lookups_share_one_plan_under_concurrent_use(plan_cache, monkeypatch):
    import sys
    import threading

    from mtwcheck.conformal import ConformalSpec, conformal_metric

    # the curve's stage kernel and its linearization are kept on the same
    # plan: a thread compiles them at most once (on a race, more than one
    # thread may), and the plan cache keeps its bound
    space = JetSpace.get(2, 2)
    plans, stages, errors, built = [], [], [], []
    compile_stage = geometry._stage_kernel
    monkeypatch.setattr(geometry, "_stage_kernel",
                        lambda *args: built.append(args) or compile_stage(*args))

    def work():
        try:
            for _ in range(1000):
                metric = conformal_metric(ConformalSpec(a=-3.5))
                fields = [f for row in metric.entries for f in row]
                plans.append(_plan_of(fields, space))
                stages.append(geometry._curve_stage(metric, None))
        except Exception as e:  # reported below, with the thread's failure
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(plans) == 8 * 1000
    assert all(p is plans[0] for p in plans)
    assert 1 <= len(built) <= 8
    assert len({id(s) for s in stages}) <= 8
    assert any(s is plans[0].kernel for s in stages)
    assert all(len(s) == 4 and callable(s[3]) for s in stages)
    assert len(plan_cache) <= _TAYLOR_PLAN_CACHE_SIZE


def test_cost_keeps_no_metric_alive():
    metric = sphere_metric()
    res = cost(metric, None, [EQUATOR, 0.0], [EQUATOR, 0.5], steps=20)
    ref = weakref.ref(metric)
    del metric, res
    gc.collect()
    assert ref() is None

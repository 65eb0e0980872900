"""Curves, transports and linearized flows of the mechanical action.

The action of a path is the time integral of kinetic energy minus the
potential; its critical curves satisfy (covariantly) acceleration =
-grad V.  This module integrates those curves with fixed-step RK4,
solves endpoint problems by damped Newton shooting, transports frames,
and solves the two-point linearized-variation (Jacobi) problem by
fundamental-matrix superposition.  Everything is deterministic: fixed
step counts, no adaptive control.

A variation family bundles curves over an (s, t) grid of initial
velocities t*v + s*w around a common start point, together with the
transported frame of a reference vector and the two-point variation
field; finite-difference estimators with Christoffel corrections
recover covariant (s, t)-derivatives of those fields, which is how the
integration-by-parts identities behind the curvature evaluators are
verified numerically.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConjugatePointError,
    DimensionError,
    PreconditionError,
    ShootingError,
)
from .geometry import (
    GeometryJet,
    MetricField,
    PotentialField,
    _christoffel_from,
    _curvature_from,
    _first_kind,
    as_point,
)

# Condition-number ceiling beyond which the endpoint variation block is
# treated as singular (conjugate endpoint).
CONJUGATE_COND_LIMIT = 1e12

DEFAULT_STEPS = 200


# ---------------------------------------------------------------------------
# Per-point evaluation of the data entering the equations of motion
# ---------------------------------------------------------------------------


class _PointEval:
    """Fast per-point evaluation of Christoffel/curvature/potential data.

    Compiled entry evaluators are pulled out of the field objects once;
    all-constant metrics (flat charts) short-circuit to static data.
    """

    def __init__(self, metric: MetricField, potential: PotentialField | None,
                 need_curvature: bool):
        self.metric = metric
        self.potential = potential
        self.need_curvature = need_curvature
        n = metric.dim
        self.n = n

        self.static = all(
            metric.entries[i][j].tree[0] == "c" for i in range(n) for j in range(n)
        )
        if self.static:
            g = np.array(
                [[metric.entries[i][j].tree[1] for j in range(n)] for i in range(n)]
            )
            w = np.linalg.eigvalsh(g)
            if w[0] <= 1e-10:
                raise PreconditionError("constant metric is not positive definite")
            self._g = g
            self._ginv = np.linalg.inv(g)
            self._gam = np.zeros((n, n, n))
            self._rup = np.zeros((n, n, n, n))
        else:
            ents = metric.entries
            self._g_f = [[ents[i][j]._fn() for j in range(n)] for i in range(n)]
            self._dg_f = [
                [[ents[i][j].partial(self._cnt(n, m))._fn() for j in range(n)]
                 for i in range(n)]
                for m in range(n)
            ]
            if need_curvature:
                self._d2g_f = [
                    [
                        [[ents[i][j].partial(self._cnt(n, p, m))._fn()
                          for j in range(n)] for i in range(n)]
                        for m in range(n)
                    ]
                    for p in range(n)
                ]

        self.has_potential = potential is not None and not potential.is_zero
        if self.has_potential:
            vf = potential.field
            self._v_f = vf._fn()
            self._dv_f = [vf.partial(self._cnt(n, i))._fn() for i in range(n)]
            self._d2v_f = [
                [vf.partial(self._cnt(n, i, j))._fn() for j in range(n)]
                for i in range(n)
            ]

    @staticmethod
    def _cnt(n: int, *dirs: int) -> tuple[int, ...]:
        c = [0] * n
        for d in dirs:
            c[d] += 1
        return tuple(c)

    def __call__(self, x: np.ndarray):
        """Return (g, ginv, gam, rup, grad_raised, hess_op, v_value)."""
        n = self.n
        xt = tuple(x)
        if self.static:
            g, ginv, gam, rup = self._g, self._ginv, self._gam, self._rup
        else:
            g = np.empty((n, n))
            dg = np.empty((n, n, n))
            for i in range(n):
                for j in range(n):
                    g[i, j] = self._g_f[i][j](xt)
            for m in range(n):
                fm = self._dg_f[m]
                for i in range(n):
                    for j in range(n):
                        dg[m, i, j] = fm[i][j](xt)
            ginv = np.linalg.inv(g)
            gam = _christoffel_from(np.einsum, ginv, dg)
            if self.need_curvature:
                d2g = np.empty((n, n, n, n))
                for p in range(n):
                    for m in range(n):
                        fpm = self._d2g_f[p][m]
                        for i in range(n):
                            for j in range(n):
                                d2g[p, m, i, j] = fpm[i][j](xt)
                # product rule: d_p Gamma = (d_p ginv T + ginv d_p T) / 2
                dginv = -np.einsum("ka,mab,bl->mkl", ginv, dg, ginv)
                dT = np.stack([_first_kind(d2g[p]) for p in range(n)])
                dgam = 0.5 * (
                    np.einsum("pkm,ijm->pkij", dginv, _first_kind(dg))
                    + np.einsum("km,pijm->pkij", ginv, dT)
                )
                rup = _curvature_from(np.einsum, gam, dgam)
            else:
                rup = None

        if self.has_potential:
            grad = np.array([f(xt) for f in self._dv_f])
            d2v = np.array([[self._d2v_f[i][j](xt) for j in range(n)] for i in range(n)])
            hess_low = d2v - np.einsum("kij,k->ij", gam, grad)
            grad_raised = ginv @ grad
            hess_op = ginv @ hess_low
            v_val = self._v_f(xt)
        else:
            grad_raised = None
            hess_op = None
            v_val = 0.0
        return g, ginv, gam, rup, grad_raised, hess_op, v_val


# Evaluators of the most recently used (metric, potential, curvature)
# keys; the bound stops the cache from keeping every metric alive.
_EVAL_CACHE_SIZE = 16
_EVAL_CACHE: dict = {}
_EVAL_CACHE_LOCK = threading.Lock()


def _evaluator(metric: MetricField, potential: PotentialField | None,
               need_curvature: bool) -> _PointEval:
    key = (id(metric), id(potential), need_curvature)
    with _EVAL_CACHE_LOCK:
        ev = _EVAL_CACHE.pop(key, None)
        if ev is None or ev.metric is not metric or ev.potential is not potential:
            ev = _PointEval(metric, potential, need_curvature)
        _EVAL_CACHE[key] = ev  # insertion order is recency order
        if len(_EVAL_CACHE) > _EVAL_CACHE_SIZE:
            del _EVAL_CACHE[next(iter(_EVAL_CACHE))]
    return ev


# ---------------------------------------------------------------------------
# Trajectory containers
# ---------------------------------------------------------------------------


@dataclass
class CurvePath:
    """A least-action curve sampled on the uniform time grid."""

    metric: MetricField
    potential: PotentialField
    x0: np.ndarray
    v0: np.ndarray
    steps: int
    tau: np.ndarray  # (steps+1,)
    pos: np.ndarray  # (steps+1, n)
    vel: np.ndarray  # (steps+1, n)

    def energy(self) -> np.ndarray:
        """Conserved quantity 0.5 |dγ|^2 + V along the grid."""
        ev = _evaluator(self.metric, self.potential, need_curvature=False)
        out = np.empty(self.steps + 1)
        for k in range(self.steps + 1):
            g, *_rest, v_val = ev(self.pos[k])
            out[k] = 0.5 * float(self.vel[k] @ g @ self.vel[k]) + v_val
        return out

    def energy_drift(self) -> float:
        e = self.energy()
        return float(np.max(np.abs(e - e[0])) / max(1.0, abs(e[0])))

    @property
    def endpoint(self) -> np.ndarray:
        return self.pos[-1]


@dataclass
class ParallelFrame:
    """Parallel transport of a start vector along a curve."""

    path: CurvePath
    u0: np.ndarray
    vectors: np.ndarray  # (steps+1, n)

    def norm_drift(self) -> float:
        ev = _evaluator(self.path.metric, None, need_curvature=False)
        norms = np.empty(self.path.steps + 1)
        for k in range(self.path.steps + 1):
            g = ev(self.path.pos[k])[0]
            norms[k] = np.sqrt(float(self.vectors[k] @ g @ self.vectors[k]))
        return float(np.max(np.abs(norms - norms[0])) / max(1.0, norms[0]))


@dataclass
class JacobiSolution:
    """Two-point variation field J with J(0) = u, J(1) = 0 along a curve."""

    path: CurvePath
    u0: np.ndarray
    J: np.ndarray  # (steps+1, n)
    dJ: np.ndarray  # covariant time derivative, (steps+1, n)

    @property
    def initial_derivative(self) -> np.ndarray:
        return self.dJ[0]


# ---------------------------------------------------------------------------
# The joint integrator
# ---------------------------------------------------------------------------


def _integrate(
    metric: MetricField,
    potential: PotentialField | None,
    x0: np.ndarray,
    v0: np.ndarray,
    steps: int,
    *,
    transport: bool = False,
    variation: str | None = None,  # None | "full" | "velocity"
    store: bool = False,
):
    """RK4 integration of the coupled curve / transport / variation system.

    variation="full" evolves the 2n x 2n fundamental matrix of the
    linearized flow (positions and covariant derivatives); "velocity"
    evolves only the n columns seeded by initial covariant-derivative
    perturbations, which is the endpoint Jacobian needed for shooting.
    """
    n = metric.dim
    x0 = as_point(x0)
    v0 = as_point(v0)
    if x0.shape != (n,) or v0.shape != (n,):
        raise DimensionError("start point/velocity dimension mismatch")

    need_curv = variation is not None
    ev = _evaluator(metric, potential, need_curv)

    ncols = 0
    if variation == "full":
        ncols = 2 * n
    elif variation == "velocity":
        ncols = n
    elif variation is not None:
        raise ValueError(f"unknown variation mode {variation!r}")

    size = 2 * n + (n * n if transport else 0) + (2 * n * ncols if ncols else 0)
    y = np.zeros(size)
    y[0:n] = x0
    y[n: 2 * n] = v0
    off = 2 * n
    if transport:
        y[off: off + n * n] = np.eye(n).ravel()
        off += n * n
    voff = off
    if ncols:
        Phi0 = np.zeros((2 * n, ncols))
        if variation == "full":
            Phi0[:] = np.eye(2 * n)
        else:
            Phi0[n:, :] = np.eye(n)
        y[voff: voff + 2 * n * ncols] = Phi0.ravel()

    def rhs(state: np.ndarray) -> np.ndarray:
        x = state[0:n]
        v = state[n: 2 * n]
        g, ginv, gam, rup, grad_raised, hess_op, _v = ev(x)
        Gv = np.einsum("kij,i->kj", gam, v)
        acc = -Gv @ v
        if grad_raised is not None:
            acc = acc - grad_raised
        out = np.empty_like(state)
        out[0:n] = v
        out[n: 2 * n] = acc
        o = 2 * n
        if transport:
            Psi = state[o: o + n * n].reshape(n, n)
            out[o: o + n * n] = (-Gv @ Psi).ravel()
            o += n * n
        if ncols:
            Phi = state[o: o + 2 * n * ncols].reshape(2 * n, ncols)
            M = np.einsum("lijk,i,k->lj", rup, v, v)
            if hess_op is not None:
                M = M + hess_op
            A = np.zeros((2 * n, 2 * n))
            A[0:n, 0:n] = -Gv
            A[0:n, n:] = np.eye(n)
            A[n:, 0:n] = -M
            A[n:, n:] = -Gv
            out[o: o + 2 * n * ncols] = (A @ Phi).ravel()
        return out

    h = 1.0 / steps
    traj = np.empty((steps + 1, size)) if store else None
    if store:
        traj[0] = y
    for k in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if store:
            traj[k + 1] = y

    return y, traj, voff


def _unpack_path(metric, potential, x0, v0, steps, traj) -> CurvePath:
    n = metric.dim
    tau = np.linspace(0.0, 1.0, steps + 1)
    return CurvePath(
        metric=metric,
        potential=potential if potential is not None else PotentialField.zero(n),
        x0=as_point(x0),
        v0=as_point(v0),
        steps=steps,
        tau=tau,
        pos=traj[:, 0:n].copy(),
        vel=traj[:, n: 2 * n].copy(),
    )


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def least_action_curve(
    metric: MetricField,
    potential: PotentialField | None,
    x: Sequence[float],
    v0: Sequence[float],
    steps: int = DEFAULT_STEPS,
) -> CurvePath:
    """Critical curve of the action from ``x`` with initial velocity ``v0``."""
    _, traj, _ = _integrate(metric, potential, as_point(x), as_point(v0), steps,
                            store=True)
    return _unpack_path(metric, potential, x, v0, steps, traj)


def c_exp(
    metric: MetricField,
    potential: PotentialField | None,
    x: Sequence[float],
    v: Sequence[float],
    steps: int = DEFAULT_STEPS,
) -> np.ndarray:
    """Endpoint at unit time of the least-action curve with velocity ``v``."""
    n = metric.dim
    y, _, _ = _integrate(metric, potential, as_point(x), as_point(v), steps)
    return y[0:n].copy()


def parallel_transport(path: CurvePath, u: Sequence[float]) -> ParallelFrame:
    """Transport ``u`` along ``path`` (re-integrated at the path's step count)."""
    n = path.metric.dim
    u = as_point(u)
    _, traj, _ = _integrate(
        path.metric, path.potential, path.x0, path.v0, path.steps,
        transport=True, store=True,
    )
    Psi = traj[:, 2 * n: 2 * n + n * n].reshape(-1, n, n)
    return ParallelFrame(path=path, u0=u, vectors=Psi @ u)


@dataclass
class _VariationData:
    """Fundamental blocks of the linearized flow along a curve."""

    PhiJJ: np.ndarray  # (steps+1, n, n)
    PhiJP: np.ndarray
    PhiPJ: np.ndarray
    PhiPP: np.ndarray


def _variation_blocks(metric, potential, x0, v0, steps) -> tuple[np.ndarray, _VariationData]:
    n = metric.dim
    _, traj, voff = _integrate(
        metric, potential, x0, v0, steps, variation="full", store=True
    )
    Phi = traj[:, voff: voff + 4 * n * n].reshape(-1, 2 * n, 2 * n)
    return traj, _VariationData(
        PhiJJ=Phi[:, 0:n, 0:n],
        PhiJP=Phi[:, 0:n, n:],
        PhiPJ=Phi[:, n:, 0:n],
        PhiPP=Phi[:, n:, n:],
    )


def jacobi_bvp(path: CurvePath, u: Sequence[float]) -> JacobiSolution:
    """Solve the two-point variation problem J(0) = u, J(1) = 0 along ``path``.

    The general solution is superposed from fundamental columns; a
    singular endpoint block signals a conjugate point and raises.
    """
    u = as_point(u)
    _, var = _variation_blocks(path.metric, path.potential, path.x0, path.v0, path.steps)
    B = var.PhiJP[-1]
    if np.linalg.cond(B) > CONJUGATE_COND_LIMIT:
        raise ConjugatePointError(
            "endpoint variation block is numerically singular "
            "(conjugate point on the curve)"
        )
    P0 = -np.linalg.solve(B, var.PhiJJ[-1] @ u)
    J = var.PhiJJ @ u + var.PhiJP @ P0
    dJ = var.PhiPJ @ u + var.PhiPP @ P0
    return JacobiSolution(path=path, u0=u, J=J, dJ=dJ)


def jacobi_residual(sol: JacobiSolution) -> float:
    """Max norm of the variation equation residual on interior grid points.

    The covariant time derivative of dJ is estimated with a five-point
    stencil so the check is limited by the integrator, not the stencil.
    """
    path = sol.path
    n = path.metric.dim
    ev = _evaluator(path.metric, path.potential, need_curvature=True)
    h = 1.0 / path.steps
    worst = 0.0
    for k in range(2, path.steps - 1):
        ddJ = (
            -sol.dJ[k + 2] + 8 * sol.dJ[k + 1] - 8 * sol.dJ[k - 1] + sol.dJ[k - 2]
        ) / (12 * h)
        g, ginv, gam, rup, grad_raised, hess_op, _ = ev(path.pos[k])
        v = path.vel[k]
        cov = ddJ + np.einsum("kij,i,j->k", gam, v, sol.dJ[k])
        res = cov + np.einsum("lijk,i,j,k->l", rup, v, sol.J[k], v)
        if hess_op is not None:
            res = res + hess_op @ sol.J[k]
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


@dataclass
class CostResult:
    """Action cost with its convergence report."""

    value: float
    initial_velocity: np.ndarray
    iterations: int
    endpoint_error: float
    path: CurvePath


def shoot_velocity(
    metric: MetricField,
    potential: PotentialField | None,
    x: Sequence[float],
    y: Sequence[float],
    steps: int = DEFAULT_STEPS,
    tol: float = 1e-10,
    max_iter: int = 50,
    v_init: np.ndarray | None = None,
) -> tuple[np.ndarray, int, float]:
    """Damped-Newton solve for the initial velocity reaching ``y`` at time 1.

    The Newton matrix is the endpoint block of the linearized flow,
    integrated alongside the curve, so no extra finite differencing is
    involved.  Raises on stagnation or a singular endpoint block.
    """
    n = metric.dim
    x = as_point(x)
    y = as_point(y)
    v = as_point(v_init) if v_init is not None else (y - x)

    def endpoint_and_jac(vcur):
        state, traj, voff = _integrate(
            metric, potential, x, vcur, steps, variation="velocity"
        )
        end = state[0:n]
        Phi = state[voff: voff + 2 * n * n].reshape(2 * n, n)
        return end, Phi[0:n, :]

    end, jac = endpoint_and_jac(v)
    err = float(np.linalg.norm(end - y))
    for it in range(1, max_iter + 1):
        if err <= tol:
            return v, it - 1, err
        if np.linalg.cond(jac) > CONJUGATE_COND_LIMIT:
            raise ShootingError(
                "endpoint Jacobian is numerically singular during shooting"
            )
        step = np.linalg.solve(jac, y - end)
        lam = 1.0
        for _ in range(12):
            v_new = v + lam * step
            end_new, jac_new = endpoint_and_jac(v_new)
            err_new = float(np.linalg.norm(end_new - y))
            if err_new < err:
                break
            lam *= 0.5
        else:
            raise ShootingError(
                f"shooting stagnated at endpoint error {err:.3e} "
                f"after {it} iterations"
            )
        v, end, jac, err = v_new, end_new, jac_new, err_new
    if err <= tol:
        return v, max_iter, err
    raise ShootingError(
        f"shooting did not reach tolerance {tol:.1e} in {max_iter} iterations "
        f"(endpoint error {err:.3e})"
    )


def cost(
    metric: MetricField,
    potential: PotentialField | None,
    x: Sequence[float],
    y: Sequence[float],
    steps: int = DEFAULT_STEPS,
    tol: float = 1e-10,
    max_iter: int = 50,
    v_init: np.ndarray | None = None,
) -> CostResult:
    """Least action to move from ``x`` to ``y`` in unit time.

    The minimizing curve is found by shooting; the action integral is
    accumulated with the trapezoid-free quadrature of the integrator
    grid (Simpson on the stored samples).
    """
    v, iters, err = shoot_velocity(metric, potential, x, y, steps, tol, max_iter,
                                   v_init)
    path = least_action_curve(metric, potential, x, v, steps)
    ev = _evaluator(metric, potential, need_curvature=False)
    lag = np.empty(path.steps + 1)
    for k in range(path.steps + 1):
        g, *_rest, v_val = ev(path.pos[k])
        lag[k] = 0.5 * float(path.vel[k] @ g @ path.vel[k]) - v_val
    value = _simpson(lag, 1.0 / path.steps)
    return CostResult(
        value=value,
        initial_velocity=v,
        iterations=iters,
        endpoint_error=err,
        path=path,
    )


def _simpson(samples: np.ndarray, h: float) -> float:
    """Composite Simpson rule; even sample counts fall back to a trapezoid tail."""
    m = len(samples) - 1
    if m == 0:
        return 0.0
    total = 0.0
    end = m if m % 2 == 0 else m - 1
    for k in range(0, end, 2):
        total += (samples[k] + 4 * samples[k + 1] + samples[k + 2]) * (h / 3.0)
    if m % 2 == 1:
        total += 0.5 * h * (samples[-2] + samples[-1])
    return float(total)


# ---------------------------------------------------------------------------
# Variation families and covariant finite differences
# ---------------------------------------------------------------------------


@dataclass
class FamilyMember:
    """One curve of a two-parameter variation with its attached fields."""

    s: float
    t: float
    path: CurvePath
    U: np.ndarray  # transported reference vector, (steps+1, n)
    J: np.ndarray  # two-point variation field, (steps+1, n)
    dJ: np.ndarray


@dataclass
class VariationFamily:
    """Curves with initial velocity t*v + s*w over an (s, t) grid."""

    metric: MetricField
    potential: PotentialField
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    s_values: tuple[float, ...]
    t_values: tuple[float, ...]
    steps: int
    members: dict = dc_field(default_factory=dict)

    def member(self, i: int, j: int) -> FamilyMember:
        return self.members[(i, j)]


def _family_member(metric, potential, x, u, v0, steps, s, t) -> FamilyMember:
    n = metric.dim
    _, traj, voff = _integrate(
        metric, potential, x, v0, steps,
        transport=True, variation="full", store=True,
    )
    Psi = traj[:, 2 * n: 2 * n + n * n].reshape(-1, n, n)
    Phi = traj[:, voff: voff + 4 * n * n].reshape(-1, 2 * n, 2 * n)
    path = _unpack_path(metric, potential, x, v0, steps, traj)
    B = Phi[-1, 0:n, n:]
    if np.linalg.cond(B) > CONJUGATE_COND_LIMIT:
        raise ConjugatePointError(
            "conjugate point inside a variation family member"
        )
    P0 = -np.linalg.solve(B, Phi[-1, 0:n, 0:n] @ u)
    J = Phi[:, 0:n, 0:n] @ u + Phi[:, 0:n, n:] @ P0
    dJ = Phi[:, n:, 0:n] @ u + Phi[:, n:, n:] @ P0
    return FamilyMember(s=s, t=t, path=path, U=Psi @ u, J=J, dJ=dJ)


def variation_family(
    metric: MetricField,
    potential: PotentialField | None,
    x: Sequence[float],
    u: Sequence[float],
    v: Sequence[float],
    w: Sequence[float],
    s_values: Sequence[float],
    t_values: Sequence[float],
    steps: int = DEFAULT_STEPS,
) -> VariationFamily:
    """Build the curve family with fields over the (s, t) grid."""
    x = as_point(x)
    u = as_point(u)
    v = as_point(v)
    w = as_point(w)
    pot = potential if potential is not None else PotentialField.zero(metric.dim)
    fam = VariationFamily(
        metric=metric, potential=pot, x=x, u=u, v=v, w=w,
        s_values=tuple(float(s) for s in s_values),
        t_values=tuple(float(t) for t in t_values),
        steps=steps,
    )
    for i, s in enumerate(fam.s_values):
        for j, t in enumerate(fam.t_values):
            v0 = t * v + s * w
            fam.members[(i, j)] = _family_member(metric, pot, x, u, v0, steps, s, t)
    return fam


# ---------------------------------------------------------------------------
# Covariant (s, t)-derivatives at the center of a variation family
# ---------------------------------------------------------------------------


class _Diffs:
    """Plain central differences of one field over the 5x5 grid at one level."""

    def __init__(self, F: dict, stride: int, delta: float):
        c = F[(0, 0)]
        p, m = stride, -stride
        self.c = c
        self.d_s = (F[(p, 0)] - F[(m, 0)]) / (2 * delta)
        self.d_t = (F[(0, p)] - F[(0, m)]) / (2 * delta)
        self.d_ss = (F[(p, 0)] - 2 * c + F[(m, 0)]) / delta**2
        self.d_tt = (F[(0, p)] - 2 * c + F[(0, m)]) / delta**2
        self.d_ts = (F[(p, p)] - F[(p, m)] - F[(m, p)] + F[(m, m)]) / (4 * delta**2)
        self.d_tss = (
            (F[(p, p)] - 2 * F[(0, p)] + F[(m, p)])
            - (F[(p, m)] - 2 * F[(0, m)] + F[(m, m)])
        ) / (2 * delta**3)


class CenterStencil:
    """Covariant (s, t)-derivative estimates at the center of a family grid.

    Requires the family to be built on the symmetric five-point grids
    {-h, -h/2, 0, h/2, h} in both parameters, and requires the
    Christoffel symbols to vanish at the center point: the correction
    terms below are derived under that assumption, which holds in flat
    charts, on the sphere equator, and at the origin of the conformal
    charts used throughout.  Estimates combine the h and h/2 levels by
    Richardson extrapolation.
    """

    def __init__(self, family: VariationFamily, jet: GeometryJet):
        s_vals, t_vals = family.s_values, family.t_values
        if len(s_vals) != 5 or len(t_vals) != 5 or s_vals != t_vals:
            raise PreconditionError(
                "center stencil needs matching five-point (s, t) grids"
            )
        h = s_vals[4]
        expected = tuple(a * h / 2 for a in (-2, -1, 0, 1, 2))
        if any(abs(a - b) > 1e-15 * max(1.0, abs(h)) for a, b in zip(s_vals, expected)):
            raise PreconditionError(
                "center stencil needs the symmetric grid {-h, -h/2, 0, h/2, h}"
            )
        if float(np.max(np.abs(jet.gamma))) > 1e-10:
            raise PreconditionError(
                "center stencil requires vanishing Christoffel symbols "
                "at the family base point"
            )
        self.family = family
        self.jet = jet
        self.h = h

    def _fields(self, name: str, tau_index: int) -> dict:
        out = {}
        for (i, j), mem in self.family.members.items():
            if name == "pos":
                val = mem.path.pos[tau_index]
            elif name == "vel":
                val = mem.path.vel[tau_index]
            elif name == "U":
                val = mem.U[tau_index]
            elif name == "J":
                val = mem.J[tau_index]
            else:
                raise ValueError(f"unknown family field {name!r}")
            out[(i - 2, j - 2)] = val
        return out

    def _level(self, F: dict, Y: dict, which: str, stride: int, delta: float):
        L = _Diffs(F, stride, delta)
        if which == "s":
            return L.d_s
        if which == "t":
            return L.d_t
        P = _Diffs(Y, stride, delta)
        dgam = self.jet.dgamma
        d2gam = self.jet.d2gamma

        def dG(p, q, r):
            return np.einsum("mkij,m,i,j->k", dgam, p, q, r)

        def d2G(p1, p2, q, r):
            return np.einsum("pmkij,p,m,i,j->k", d2gam, p1, p2, q, r)

        # Mixed selectors compose the t-derivative first, then s: "ts"
        # estimates the s-covariant derivative of the t-covariant
        # derivative, which is the order in which the variation
        # identities hold.  Corrections assume vanishing symbols at the
        # center, so only first/second symbol derivatives survive.
        A0 = L.c
        if which == "ts":
            return L.d_ts + dG(P.d_s, P.d_t, A0)
        if which == "tt":
            return L.d_tt + dG(P.d_t, P.d_t, A0)
        if which == "ss":
            return L.d_ss + dG(P.d_s, P.d_s, A0)
        if which == "tss":
            return (
                L.d_tss
                + d2G(P.d_s, P.d_s, P.d_t, A0)
                + dG(P.d_ss, P.d_t, A0)
                + 2.0 * dG(P.d_s, P.d_ts, A0)
                + 2.0 * dG(P.d_s, P.d_t, L.d_s)
                + dG(P.d_s, P.d_s, L.d_t)
            )
        raise ValueError(f"unknown derivative selector {which!r}")

    def estimate(self, field: str, which: str, tau_index: int) -> np.ndarray:
        """Richardson-extrapolated covariant (s, t)-derivative of a field."""
        F = self._fields(field, tau_index)
        Y = self._fields("pos", tau_index)
        coarse = self._level(F, Y, which, 2, self.h)
        fine = self._level(F, Y, which, 1, self.h / 2)
        return (4.0 * fine - coarse) / 3.0


# ---------------------------------------------------------------------------
# The variation-identity (lemma) suite
# ---------------------------------------------------------------------------


@dataclass
class LemmaCheck:
    """One finite-difference test of a variation-derivative identity."""

    name: str
    tau: float
    estimate: np.ndarray
    target: np.ndarray
    error: float


def _mode_matrix(metric: MetricField, jet: GeometryJet, x: np.ndarray):
    """Eigen-modes of the linearized flow at a potential critical point.

    Returns (mus, E, coeffs_fn) where columns of E are metric-orthonormal
    eigenvectors of the Hessian operator with eigenvalues -mu^2 <= 0.
    """
    from scipy.linalg import eigh

    if jet.hess_v is None:
        lam = np.zeros(metric.dim)
        E = np.linalg.cholesky(np.linalg.inv(jet.g))  # any g-orthonormal frame
    else:
        lam, E = eigh(jet.hess_v, jet.g)
    if np.any(lam > 1e-8):
        raise PreconditionError(
            "linearized-flow modes need Hess V <= 0 at the base point"
        )
    mus = np.sqrt(np.maximum(-lam, 0.0))
    return mus, E


def _tangent_mode(mus, E, g, vec, shape_fn):
    """Apply per-eigenmode scalar profiles to a tangent vector."""
    coeff = E.T @ g @ vec
    return E @ (shape_fn(mus) * coeff)


def lemma_suite(
    metric: MetricField,
    potential: PotentialField | None,
    x: Sequence[float],
    u: Sequence[float],
    v: Sequence[float],
    w: Sequence[float],
    h: float = 1e-2,
    steps: int = DEFAULT_STEPS,
    taus: Sequence[float] = (0.2, 0.35, 0.5, 0.65, 0.8),
) -> list[LemmaCheck]:
    """Verify the covariant variation-derivative identities numerically.

    Builds the 5x5 family at offsets {-h, -h/2, 0, h/2, h} and compares
    Richardson-extrapolated covariant (s, t)-derivatives of the curve
    velocity, the transported frame and the two-point variation field
    against their curvature expressions.  With a potential, only the
    identities that survive a flat metric are checked (the base point
    must be a nondegenerate maximum); with none, the full Riemannian
    list is checked.
    """
    x = as_point(x)
    u = as_point(u)
    v = as_point(v)
    w = as_point(w)
    pot = potential if potential is not None else PotentialField.zero(metric.dim)
    jet = GeometryJet(metric, x, potential=None if pot.is_zero else pot)

    if float(np.max(np.abs(jet.gamma))) > 1e-10:
        raise PreconditionError(
            "lemma suite requires vanishing Christoffel symbols at the base point"
        )
    if not pot.is_zero:
        if float(np.max(np.abs(jet.grad_v_lower))) > 1e-10:
            raise PreconditionError(
                "lemma suite with a potential requires a critical point of V"
            )

    mus, E = _mode_matrix(metric, jet, x)

    offs = [a * h / 2 for a in (-2, -1, 0, 1, 2)]
    fam = variation_family(metric, pot, x, u, v, w, offs, offs, steps)
    st = CenterStencil(fam, jet)

    rup = jet.riemann_raised

    def Rop(a, b, c):
        return np.einsum("lijk,i,j,k->l", rup, a, b, c)

    def sinh_over(mu, tau):
        out = np.where(mu > 1e-8, np.sinh(mu * tau) / np.where(mu > 1e-8, mu, 1.0), tau)
        return out

    checks: list[LemmaCheck] = []

    def add(name, tau, est, tgt):
        est = np.asarray(est, dtype=float)
        tgt = np.asarray(tgt, dtype=float)
        checks.append(
            LemmaCheck(name=name, tau=tau, estimate=est, target=tgt,
                       error=float(np.max(np.abs(est - tgt))))
        )

    center = fam.member(2, 2)
    for tau in taus:
        k = round(tau * steps)
        if abs(k - tau * steps) > 1e-9:
            raise ValueError(
                f"tau={tau} is not on the integration grid with {steps} steps"
            )
        zero = np.zeros(metric.dim)

        # stationarity of the center curve
        add("center-curve-velocity", tau, center.path.vel[k], zero)
        # first t-derivative of the curve follows the linearized modes
        tgt = _tangent_mode(mus, E, jet.g, v, lambda m: sinh_over(m, tau))
        add("curve-first-t", tau, st.estimate("pos", "t", k), tgt)
        # transported frame is rigid to first order in s
        add("transport-first-s", tau, st.estimate("U", "s", k), zero)

        if pot.is_zero:
            add("transport-second-t", tau, st.estimate("U", "tt", k), zero)
            add("velocity-mixed-ts", tau, st.estimate("vel", "ts", k), zero)
            add("velocity-mixed-tss", tau, st.estimate("vel", "tss", k),
                tau**2 * Rop(v, w, w))
            add("transport-mixed-ts", tau, st.estimate("U", "ts", k),
                0.5 * tau**2 * Rop(v, w, u))
            add("jacobi-first-s", tau, st.estimate("J", "s", k), zero)
            add("jacobi-second-t", tau, st.estimate("J", "tt", k),
                tau * (tau - 1.0) * (tau - 2.0) / 3.0 * Rop(v, u, v))
            add("jacobi-mixed-ts", tau, st.estimate("J", "ts", k),
                tau * (tau - 1.0) / 3.0
                * ((tau - 2.0) * Rop(w, u, v) - (tau + 1.0) * Rop(v, w, u)))
        else:
            # with a potential the suite covers the flat-chart identities
            add("transport-second-s", tau, st.estimate("U", "ss", k), zero)

    return checks

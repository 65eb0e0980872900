"""Curves, transports and linearized flows of the mechanical action.

The action of a path is the time integral of kinetic energy minus the
potential; its critical curves satisfy (covariantly) acceleration =
-grad V.  This module integrates those curves with fixed-step RK4,
solves endpoint problems by damped Newton shooting, transports frames,
and solves the two-point linearized-variation (Jacobi) problem by
fundamental-matrix superposition.  Everything is deterministic: fixed
step counts, no adaptive control.

The integrator advances a batch of curves ("lanes") at once: lane b
starts at x0[b] with velocity v0[b], and the state of the coupled
system is one (B, size) array, a row per lane.  The metric must be
positive definite at every point a lane reaches, grid and RK4 stage
points alike, or :class:`~mtwcheck.errors.MetricDegenerateError`, the
error of the geometry pipeline, is raised: the start points are tested
before the first step, the stage points after each block of steps with
the g their stage already evaluated, and the last point after the last
step, in step and stage order, so that the error names the first point
that fails; a stage whose metric cannot be inverted raises once the
points reached so far have been tested; a curve stops at its first
non-finite state (NumPy's overflow warnings kept out), which raises
:class:`~mtwcheck.errors.CurveOverflowError` unless a point fails
first.  The curve [x, v] is stepped alone, as nothing in it reads the
transport or the variation: each RK4 stage makes one call to a fused
field evaluator without curvature, built afresh per integration on the
cached :class:`~mtwcheck.expr.TaylorPlan` of the geometry jets
(:func:`~mtwcheck.geometry._plan_of`), in which the velocity enters the
Christoffel symbols of the first kind before the inverse metric lifts
them (:func:`~mtwcheck.geometry._along_velocity`); the state, stage
arguments and slopes are made once and written in place.  The transport
Psi and the variation Phi solve linear equations Y' = A(t) Y, on which
RK4 is one matrix per step (:func:`_step_maps`): per block of at most
STEP_MAP_BLOCK_POINTS recorded stage points, the curve's g^-1 and
Gamma v are reused, R(., v) v + Hess V is one evaluator call, the maps
of -Gamma v and [[-Gamma v, I], [-R(., v) v - Hess V, -Gamma v]] are
batched matmuls, and they apply in step order, one stacked matmul per
step.  Every operation is elementwise or a matmul stacked over lanes,
so a lane's result is bit-identical to the curve integrated alone,
wherever its blocks start.  The stencils of the
cross-curvature routes run as one batch each, the damped-Newton shoot
steps every lane with its own line search, first on a grid
COARSE_FACTOR times coarser and then on the caller's (:func:`_shoot`),
and the single-curve
functions (:func:`c_exp`, :func:`cost`, ...) are one-lane calls into
the same engine.  Quantities along a stored curve (energy, transported
norms, the variation residual, the action) are one evaluator call over
all grid points.  Every two-point variation field, of one curve or a
batch, comes from one endpoint solve (:func:`_endpoint_solve`), and the
action integral here and the closed-form zeroth-order quadrature of
:mod:`mtwcheck.mtw` share one rule (:func:`simpson`).

A variation family bundles curves over an (s, t) grid of initial
velocities t*v + s*w around a common start point, together with the
transported frame of a reference vector and the two-point variation
field; finite-difference estimators with Christoffel corrections
recover covariant (s, t)-derivatives of those fields, which is how the
integration-by-parts identities behind the curvature evaluators are
verified numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ConjugatePointError,
    CurveOverflowError,
    DimensionError,
    DiscretizationError,
    MetricDegenerateError,
    PreconditionError,
    ShootingError,
    SolverSettingsError,
)
from .geometry import (
    GeometryBatch,
    MetricField,
    PotentialField,
    _along_velocity,
    _first_kind_rows,
    _plan_of,
    as_point,
    as_vectors,
    contract,
    mode_profile,
    require_positive_definite,
)
from .jets import JetSpace

# Condition-number ceiling beyond which the endpoint variation block is
# treated as singular (conjugate endpoint).
CONJUGATE_COND_LIMIT = 1e12

DEFAULT_STEPS = 200

# Shooting gives up on a lane whose line search fails LINE_SEARCH_TRIALS
# times in a row, that takes STAGNATION_STRIKES consecutive Newton steps
# each leaving more than STAGNATION_RATIO of its endpoint error, or that
# would need more than SHOOT_INTEGRATION_BUDGET integrations.
LINE_SEARCH_TRIALS = 12
STAGNATION_RATIO = 0.9
STAGNATION_STRIKES = 2
SHOOT_INTEGRATION_BUDGET = 40

# Shooting first solves on a grid COARSE_FACTOR times coarser, to the looser
# of COARSE_TOL and the caller's tolerance, when that grid keeps at least
# COARSE_MIN_STEPS steps (see _shoot).
COARSE_FACTOR = 8
COARSE_MIN_STEPS = 12
COARSE_TOL = 1e-8

# Stage points per block of steps (see _integrate): a block holds at most
# this many, and at least one step.  Each block's points are tested for a
# positive-definite metric in one call, and with a linearized flow its
# transport and variation coefficients are evaluated in one call, so the
# block bounds the memory of both.
STEP_MAP_BLOCK_POINTS = 512


# ---------------------------------------------------------------------------
# Field data at a batch of points
# ---------------------------------------------------------------------------


class _Fields(NamedTuple):
    """Data entering the equations of motion at lanes b, lane axis leading."""

    g: np.ndarray  # (B, n, n)
    ginv: np.ndarray  # (B, n, n)
    gam_v: np.ndarray  # (B, n, n), Gamma^k_ij v^i
    gam_vv: np.ndarray  # (B, n), Gamma(v, v)
    op: np.ndarray | None  # (B, n, n), R(., v) v + raised Hess V, with curvature
    grad: np.ndarray | None  # raised grad V, (B, n); None without potential
    v: np.ndarray | float  # V, (B,); 0.0 without potential


class _FieldEval:
    """Metric, connection, curvature and potential data along a batch of
    velocities at a batch of points.

    One :class:`~mtwcheck.expr.TaylorPlan` of the metric entries and the
    potential returns every partial the equations need, each distinct
    partial once.  The connection and the curvature are returned
    contracted with the velocity, which enters before the inverse metric
    lifts them (see :func:`~mtwcheck.geometry._along_velocity`), so no
    stage forms the full Christoffel or curvature arrays.  All-constant
    metrics (flat charts) short-circuit to static data.

    What depends only on the lane count is made on the first call at
    that count and kept until a call at another: the static metric's
    broadcast g and g^-1 and its zero connection (read-only), and the
    lane-major buffer of the plan's values, whose constant columns are
    filled once.  The arrays a call returns are never written again.
    """

    def __init__(self, metric: MetricField, potential: PotentialField | None,
                 need_curvature: bool):
        self.need_curvature = need_curvature
        n = metric.dim
        ents = metric.entries
        R = range(n)
        self.static = all(ents[i][j].tree[0] == "c" for i in R for j in R)
        self.has_potential = potential is not None and not potential.is_zero
        fields = [ents[i][j] for i in R for j in R]
        if self.has_potential:
            fields.append(potential.field)
        space = JetSpace.get(n, 2 if need_curvature else 1)
        self._plan = _plan_of(fields, space)
        # per field, the plan's rows of its value, of d_m for each m and,
        # with curvature, of d_p d_m for each (p, m)
        e = np.eye(n, dtype=int)
        monos = [0 * e[0], *e] + [p + m for p in e for m in e if need_curvature]
        part = self._plan.rows[:, [space.index[tuple(m)] for m in monos]]

        # Everything a stage reads from the field values is linear in them:
        # the entries of g, the first-kind symbols of dg and, with
        # curvature, of d2g (the formula applied to one-hot rows), and V,
        # dV, d2V.  Row r of the map holds the coefficients of the plan's
        # value r, so one matmul per lane gathers and combines them all.
        def rows(ix):
            return np.moveaxis(np.eye(self._plan.distinct)[ix], -1, 0)

        blocks = []
        if self.static:
            self._g = np.array([[ents[i][j].tree[1] for j in R] for i in R])
            self._ginv = np.linalg.inv(self._g)
        else:
            # [0, m, i, j] = d_m g_ij and, with curvature, [1 + p, m, i, j]
            # = d_p d_m g_ij: the layout _along_velocity expects
            d_ix = part[: n * n, 1:].T.reshape(-1, n, n, n)
            blocks += [rows(part[: n * n, 0].reshape(n, n)),
                       _first_kind_rows(rows(d_ix))]
        self._pot = sum(b[0].size for b in blocks)
        if self.has_potential:
            blocks.append(rows(part[n * n]))  # [V, dV, d2V]
        self._map = np.concatenate(
            [b.reshape(self._plan.distinct, -1) for b in blocks], axis=1
        ) if blocks else None
        self._lanes = None  # the lane count of the data below

    def _for_lanes(self, B: int, n: int) -> None:
        """Make the data that depends only on the lane count B."""
        self._lanes = B
        if self._map is not None:
            plan = self._plan
            # contiguous rows whatever the lane count, so that every lane
            # meets the same kernels (exp, sin, cos and the gemv below)
            self._coords = np.empty((n, B))
            self._vals = np.empty((B, plan.distinct))
            self._vals[:, plan._live:] = plan._consts
        if self.static:
            def zeros(*shape):
                a = np.zeros(shape)
                a.flags.writeable = False
                return a

            self._static = (
                np.broadcast_to(self._g, (B, n, n)),
                np.broadcast_to(self._ginv, (B, n, n)),
                zeros(B, n, n), zeros(B, n),
                zeros(B, n, n) if self.need_curvature else None,
            )

    def __call__(self, X: np.ndarray, V: np.ndarray,
                 ginv: np.ndarray | None = None) -> _Fields:
        """Field data at the points X[b] along the velocities V[b], both (B, n);
        ``ginv``, the inverse metric at X when the caller has it, is used
        in place of inverting the metric again."""
        B, n = X.shape
        if B != self._lanes:
            self._for_lanes(B, n)
        if self._map is not None:
            vals = self._vals
            if self._plan._fn is not None:
                np.copyto(self._coords, X.T)
                vals[:, : self._plan._live] = self._plan._fn(self._coords).T
            out = (vals[:, None, :] @ self._map)[:, 0]
        if self.static:
            g, ginv, gam_v, gam_vv, op = self._static
        else:
            g = out[:, 0: n * n].reshape(B, n, n)
            if ginv is None:
                try:
                    ginv = np.linalg.inv(g)
                except np.linalg.LinAlgError:
                    require_positive_definite(g, X)
                    raise
            C = out[:, n * n: self._pot].reshape(B, -1, n, n, n)
            gam_v, gam_vv, op = _along_velocity(ginv, C, V, self.need_curvature)

        if not self.has_potential:
            return _Fields(g, ginv, gam_v, gam_vv, op, None, 0.0)
        pot = out[:, self._pot:]  # [V, dV, d2V]
        grad = (ginv @ pot[:, 1: n + 1, None])[..., 0]
        if op is not None:
            # Hess V_ij = d_i d_j V - Gamma^m_ij d_m V = d_i d_j V - C_ij,m grad^m
            hess = pot[:, n + 1:].reshape(B, n, n)
            if not self.static:
                hess = hess - (grad[:, None, :] @ C[:, 0].reshape(B, n, n * n)
                               ).reshape(B, n, n)
            op = op + ginv @ hess
        return _Fields(g, ginv, gam_v, gam_vv, op, grad, pot[:, 0])


def _quadratic(vecs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """<vecs[k], vecs[k]> under g[k]; vecs (K, n), g (K, n, n)."""
    return (vecs[:, None, :] @ (g @ vecs[:, :, None]))[:, 0, 0]


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
        f = _FieldEval(self.metric, self.potential, need_curvature=False)(
            self.pos, self.vel)
        return 0.5 * _quadratic(self.vel, f.g) + f.v

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
        g = _FieldEval(self.path.metric, None, need_curvature=False)(
            self.path.pos, self.path.vel).g
        norms = np.sqrt(_quadratic(self.vectors, g))
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


def _step_maps(A: np.ndarray, h: float) -> np.ndarray:
    """The RK4 step maps of the linear system Y' = A(t) Y.

    ``A`` is (steps, 4, lanes, m, m), the coefficient at the four stage
    points of each step.  RK4 applied to a linear system is one matrix
    per step (Hairer, Nørsett and Wanner, *Solving ODEs I*, §II.1):
    Y_{k+1} = S_k Y_k with S = I + h/6 (T1 + 2 T2 + 2 T3 + T4), where
    T1 = A1, T2 = A2 (I + h/2 T1), T3 = A3 (I + h/2 T2) and
    T4 = A4 (I + h T3).  Returns S, (steps, lanes, m, m); every product
    is a matmul whose stack holds the steps and lanes.
    """
    eye = np.eye(A.shape[-1])
    t1 = A[:, 0]
    t2 = A[:, 1] @ (eye + (0.5 * h) * t1)
    t3 = A[:, 2] @ (eye + (0.5 * h) * t2)
    t4 = A[:, 3] @ (eye + h * t3)
    return eye + (h / 6.0) * (t1 + 2.0 * t2 + 2.0 * t3 + t4)


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
    """RK4 integration of the curve and of its transport and variation.

    ``x0`` and ``v0`` are (B, n): one lane per row.  Returns the final
    state of shape (B, size), the stored states (steps+1, B, size) or
    None, and the offset of the variation block in a lane's state.

    A lane's state is [x, v, Psi, Phi]: Psi (n x n, with ``transport``)
    transports a frame, Psi' = -Gv Psi, and Phi (2n x ncols) stacks the
    position and covariant-derivative rows [J; P] of the linearized
    flow, Phi' = [[-Gv, I], [-op, -Gv]] Phi, op = R(., v) v + raised
    Hess V.  variation="full" evolves the whole 2n x 2n fundamental
    matrix; "velocity" evolves only the n columns seeded by initial
    covariant-derivative perturbations, which is the endpoint Jacobian
    needed for shooting.  The curve is stepped alone, and after each
    block of steps Psi and Phi advance by the RK4 step maps of the
    block's recorded stage points (see the module docstring).
    """
    if steps < 1:
        raise DiscretizationError(f"steps must be at least 1, got {steps}")
    n = metric.dim
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if x0.ndim != 2 or x0.shape[1] != n or v0.shape != x0.shape:
        raise DimensionError("start point/velocity dimension mismatch")
    metric.matrix(x0)  # raises unless the metric is positive definite there
    lanes = x0.shape[0]

    ncols = 0
    if variation == "full":
        ncols = 2 * n
    elif variation == "velocity":
        ncols = n
    elif variation is not None:
        raise ValueError(f"unknown variation mode {variation!r}")
    ev = _FieldEval(metric, potential, need_curvature=False)
    if ncols:
        lin = _FieldEval(metric, potential, need_curvature=True)
    voff = 2 * n + (n * n if transport else 0)
    size = voff + 2 * n * ncols
    linear = []  # the blocks [columns in a lane's state, value] of Psi, Phi
    if transport:
        linear.append([slice(2 * n, voff), np.broadcast_to(np.eye(n), (lanes, n, n))])
    if ncols:  # "full" seeds every column, "velocity" the derivative columns
        linear.append([slice(voff, size), np.broadcast_to(
            np.eye(2 * n)[:, 2 * n - ncols:], (lanes, 2 * n, ncols))])

    h = 1.0 / steps
    block = max(1, STEP_MAP_BLOCK_POINTS // (4 * lanes))
    if linear:
        stages = np.empty((block, 4, lanes, 2 * n))  # [x, v] at each stage
    ginvs, gams = [], []  # with ``linear``, the curve's g^-1 and Gv per stage
    gs, xs = [], []  # unless g is constant, g and x per stage, not yet tested
    y = np.empty((lanes, 2 * n))
    y[:, 0:n] = x0
    y[:, n:] = v0
    arg = np.empty((4, lanes, 2 * n))  # the stage arguments of one step
    a0, a1, a2, a3 = arg
    k1, k2, k3, k4 = (np.empty((lanes, 2 * n)) for _ in range(4))
    # per stage, the views [x, v] of its argument and [dx, dv] of its slope
    views = [(a[:, 0:n], a[:, n:], k[:, 0:n], k[:, n:])
             for a, k in zip(arg, (k1, k2, k3, k4))]

    def state(out: np.ndarray) -> np.ndarray:
        """[x, v, Psi, Phi] of every lane, written into out (B, size)."""
        out[:, 0: 2 * n] = y
        for cols, Y in linear:
            out[:, cols] = Y.reshape(lanes, -1)
        return out

    def slope(i: int) -> None:
        """The curve's slope at stage i, into k_i."""
        x, v, dx, dv = views[i]
        f = ev(x, v)
        if not ev.static:  # a constant g passed the start test everywhere
            gs.append(f.g)
            xs.append(x.copy())
        if linear:
            ginvs.append(f.ginv)
            gams.append(f.gam_v)
        np.copyto(dx, v)
        np.negative(f.gam_vv, out=dv)
        if f.grad is not None:
            np.subtract(dv, f.grad, out=dv)

    def step() -> None:
        """One RK4 step of the curve, its stage arguments left in ``arg``."""
        np.copyto(a0, y)
        slope(0)
        np.multiply(k1, 0.5 * h, out=a1)
        np.add(y, a1, out=a1)
        slope(1)
        np.multiply(k2, 0.5 * h, out=a2)
        np.add(y, a2, out=a2)
        slope(2)
        np.multiply(k3, h, out=a3)
        np.add(y, a3, out=a3)
        slope(3)
        # y + h/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
        np.multiply(k2, 2.0, out=k2)
        np.add(k1, k2, out=k1)
        np.multiply(k3, 2.0, out=k3)
        np.add(k1, k3, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(k1, h / 6.0, out=k1)
        np.add(y, k1, out=y)

    def advance(k0: int, count: int) -> None:
        """Psi and Phi over the steps k0 .. k0 + count - 1, by the step
        maps of the recorded stage points, with the curve's g^-1 and Gv."""
        shape = (count, 4, lanes, n, n)
        gam_v = np.concatenate(gams).reshape(shape)
        gens = [np.negative(gam_v)] if transport else []
        if ncols:
            pts = stages[:count].reshape(-1, 2 * n)
            op = lin(pts[:, 0:n], pts[:, n:], np.concatenate(ginvs)).op
            gen = np.zeros(shape[:3] + (2 * n, 2 * n))
            gen[..., 0:n, n:] = np.eye(n)
            np.negative(gam_v, out=gen[..., 0:n, 0:n])
            gen[..., n:, n:] = gen[..., 0:n, 0:n]
            np.negative(op.reshape(shape), out=gen[..., n:, 0:n])
            gens.append(gen)
        ginvs.clear()
        gams.clear()
        for part, gen in zip(linear, gens):
            cols, Y = part
            for k, S in enumerate(_step_maps(gen, h), start=k0 + 1):
                Y = S @ Y
                if store:
                    traj[k, :, cols] = Y.reshape(lanes, -1)
            part[1] = Y

    def test_region() -> None:
        """Raise naming the first stage point, in step, stage and lane
        order, whose g is not positive definite, of those evaluated since
        the last test."""
        if gs:
            g, x = np.concatenate(gs), np.concatenate(xs)
            gs.clear()
            xs.clear()
            require_positive_definite(g, x)

    traj = np.empty((steps + 1, lanes, size)) if store else None
    if store:
        traj[0] = state(np.empty((lanes, size)))
    # 0 * y sums to 0 where every entry of y is finite and to nan elsewhere
    flat, zeros = y.reshape(-1), np.zeros(y.size)
    done = 0  # curve steps taken
    finite = True
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            while finite and done < steps:
                k0 = done
                for k in range(k0, min(k0 + block, steps)):
                    step()
                    if linear:
                        stages[k - k0] = arg
                    done += 1
                    if store:
                        traj[done, :, 0: 2 * n] = y
                    finite = math.isfinite(flat @ zeros)
                    if not finite:
                        break
                else:
                    test_region()
                    if linear:
                        advance(k0, done - k0)
        except (np.linalg.LinAlgError, MetricDegenerateError):
            test_region()  # the stages before the failing one
            raise
        test_region()
        metric.matrix(y[:, 0:n])  # the last point reached, evaluated by no stage
    if not finite:
        lane = int(np.flatnonzero(~np.isfinite(y).all(axis=1))[0])
        raise CurveOverflowError(
            f"curve state is not finite after step {done} of {steps} "
            f"(lane {lane}: {y[lane].tolist()})")
    return state(np.empty((lanes, size))), traj if store else None, voff


def _require_step(h: float, what: str) -> None:
    """Raise :class:`DiscretizationError` unless ``h`` is positive and finite."""
    if not 0.0 < h < np.inf:
        raise DiscretizationError(f"{what} must be positive and finite, got {h}")


def _one_lane(dim: int, **vectors) -> list[np.ndarray]:
    """Each named vector as the single row of a (1, dim) lane array;
    a wrong length raises :class:`DimensionError` naming it."""
    return [a[None, :] for a in as_vectors(dim, **vectors)]


def _unpack_path(metric, potential, x0, v0, steps, curve) -> CurvePath:
    """A CurvePath from one lane's stored states, curve (steps+1, >=2n)."""
    n = metric.dim
    tau = np.linspace(0.0, 1.0, steps + 1)
    return CurvePath(
        metric=metric,
        potential=potential if potential is not None else PotentialField.zero(n),
        x0=as_point(x0),
        v0=as_point(v0),
        steps=steps,
        tau=tau,
        pos=curve[:, 0:n].copy(),
        vel=curve[:, n: 2 * n].copy(),
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
    _, traj, _ = _integrate(metric, potential, *_one_lane(metric.dim, x=x, v0=v0),
                            steps, store=True)
    return _unpack_path(metric, potential, x, v0, steps, traj[:, 0])


def _endpoints(metric, potential, X, V, steps) -> np.ndarray:
    """Unit-time endpoints of the lanes with starts X and velocities V, (B, n)."""
    y, _, _ = _integrate(metric, potential, X, V, steps)
    return y[:, 0: metric.dim].copy()


def c_exp(
    metric: MetricField,
    potential: PotentialField | None,
    x: Sequence[float],
    v: Sequence[float],
    steps: int = DEFAULT_STEPS,
) -> np.ndarray:
    """Endpoint at unit time of the least-action curve with velocity ``v``."""
    return _endpoints(metric, potential, *_one_lane(metric.dim, x=x, v=v), steps)[0]


def parallel_transport(path: CurvePath, u: Sequence[float]) -> ParallelFrame:
    """Transport ``u`` along ``path`` (re-integrated at the path's step count)."""
    n = path.metric.dim
    (u,) = as_vectors(n, u=u)
    _, traj, _ = _integrate(
        path.metric, path.potential, *_one_lane(n, x0=path.x0, v0=path.v0), path.steps,
        transport=True, store=True,
    )
    Psi = traj[:, 0, 2 * n: 2 * n + n * n].reshape(-1, n, n)
    return ParallelFrame(path=path, u0=u, vectors=Psi @ u)


def _endpoint_solve(Phi1: np.ndarray, U: np.ndarray, what: str) -> np.ndarray:
    """Initial covariant derivatives P0[b] of the two-point fields with
    J_b(0) = U[b] and J_b(1) = 0, from the fundamental matrices Phi1[b]
    (2n x 2n) of each lane at time 1.  Raises ConjugatePointError(what)
    if an endpoint block is numerically singular."""
    n = U.shape[-1]
    B = Phi1[:, 0:n, n:]
    if np.any(np.linalg.cond(B) > CONJUGATE_COND_LIMIT):
        raise ConjugatePointError(what)
    return -np.linalg.solve(B, Phi1[:, 0:n, 0:n] @ U[:, :, None])[..., 0]


def _two_point_fields(Phi: np.ndarray, U: np.ndarray, what: str):
    """J and its covariant derivative, each (steps+1, B, n), with
    J_b(0) = U[b] and J_b(1) = 0, from the fundamental matrices Phi
    (steps+1, B, 2n, 2n) of each lane."""
    n = U.shape[-1]
    P0 = _endpoint_solve(Phi[-1], U, what)
    JP = Phi[..., 0:n] @ U[:, :, None] + Phi[..., n:] @ P0[:, :, None]
    return JP[..., 0:n, 0], JP[..., n:, 0]


def jacobi_bvp(path: CurvePath, u: Sequence[float]) -> JacobiSolution:
    """Solve the two-point variation problem J(0) = u, J(1) = 0 along ``path``.

    The general solution is superposed from fundamental columns; a
    singular endpoint block signals a conjugate point and raises.
    """
    n = path.metric.dim
    (u,) = as_vectors(n, u=u)
    _, traj, voff = _integrate(
        path.metric, path.potential, *_one_lane(n, x0=path.x0, v0=path.v0), path.steps,
        variation="full", store=True,
    )
    J, dJ = _two_point_fields(
        traj[:, :, voff:].reshape(-1, 1, 2 * n, 2 * n), u[None],
        "endpoint variation block is numerically singular "
        "(conjugate point on the curve)",
    )
    return JacobiSolution(path=path, u0=u, J=J[:, 0], dJ=dJ[:, 0])


def jacobi_residual(sol: JacobiSolution) -> float:
    """Max norm of the variation equation residual on interior grid points.

    The covariant time derivative of dJ is estimated with a five-point
    stencil so the check is limited by the integrator, not the stencil.
    """
    path = sol.path
    h = 1.0 / path.steps
    k = np.arange(2, path.steps - 1)
    dJ = sol.dJ
    ddJ = (-dJ[k + 2] + 8 * dJ[k + 1] - 8 * dJ[k - 1] + dJ[k - 2]) / (12 * h)
    f = _FieldEval(path.metric, path.potential, need_curvature=True)(
        path.pos[k], path.vel[k])
    res = ddJ + ((f.gam_v @ dJ[k][..., None]) + (f.op @ sol.J[k][..., None]))[..., 0]
    return float(np.max(np.abs(res), initial=0.0))


@dataclass
class CostResult:
    """Action cost with its convergence report."""

    value: float
    initial_velocity: np.ndarray
    iterations: int
    endpoint_error: float
    path: CurvePath


def _newton(metric, potential, X, Y, steps, tol, max_iter, V, lost=None):
    """Damped-Newton shooting of every lane at once on one grid, from the
    velocities V (not written).

    Lane b solves for the velocity taking X[b] to Y[b] at time 1 with
    its own line search, and drops out of the batch once it converges.
    A full Newton step is integrated with its endpoint Jacobian; halved
    trial steps integrate the curve alone, and the one accepted is
    integrated again with the Jacobian (the curve part of both runs is
    the same computation).  A trial whose curve leaves the region where
    the metric is positive definite, or overflows, fails its line-search
    test in the lanes that left, and the other lanes go on; a lane that
    then fails to converge raises the error of its first such trial, and
    the initial integration raises at once.  Given ``lost``, a boolean
    array over the lanes, nothing raises for a lane: a lane that fails,
    its initial curve leaving included, is marked there and dropped, and
    each lane's result is the same in any batch.  Returns (velocities,
    Newton iterations, endpoint errors, curves), the curves (steps+1, B,
    2n) being the positions and velocities of each lane's last accepted
    integration.
    """
    n = metric.dim
    V = V.copy()
    used = np.zeros(len(X), dtype=int)  # integrations per lane
    left = (MetricDegenerateError, CurveOverflowError)
    escaped = {}  # lane: the error of its first trial curve that left
    dropped = np.zeros(len(X), dtype=bool) if lost is None else lost

    def fail(lanes, message: str):
        """Raise for lanes that did not converge: the error of the first
        one's trial curve that left, if any, else ShootingError; given
        ``lost``, mark them there instead."""
        if lost is not None:
            lost[lanes] = True
            return
        raise next((escaped[b] for b in lanes if b in escaped), ShootingError(message))

    def run(lanes, Vl, jacobian):
        if not jacobian:
            return _endpoints(metric, potential, X[lanes], Vl, steps), None, None
        y, traj, voff = _integrate(metric, potential, X[lanes], Vl, steps,
                                   variation="velocity", store=True)
        jac = y[:, voff:].reshape(-1, 2 * n, n)[:, 0:n]
        return y[:, 0:n], jac, traj[:, :, 0: 2 * n]

    def integrate(lanes, Vl, jacobian=True, trial=False):
        """Endpoints of some lanes, with their Jacobians and curves; in a
        trial, NaN for each lane whose curve left the region, and given
        ``lost``, for each lane past its budget, which is not integrated."""
        spent = used[lanes] >= SHOOT_INTEGRATION_BUDGET
        if spent.any():
            fail(lanes[spent], f"shooting used its budget of {SHOOT_INTEGRATION_BUDGET} "
                               f"integrations without converging")
        used[lanes] += 1
        try:
            if not spent.any():
                return run(lanes, Vl, jacobian)
        except left:
            if not trial:
                raise
        # each lane alone, which gives the bits it has in a batch
        end = np.full((len(lanes), n), np.nan)
        jac = np.full((len(lanes), n, n), np.nan) if jacobian else None
        curves = np.full((steps + 1, len(lanes), 2 * n), np.nan) if jacobian else None
        for b, lane in enumerate(lanes):
            if spent[b]:
                continue
            try:
                e, j, c = run(lanes[b: b + 1], Vl[b: b + 1], jacobian)
            except left as error:
                escaped.setdefault(int(lane), error)
                continue
            end[b] = e[0]
            if jacobian:
                jac[b], curves[:, b] = j[0], c[:, 0]
        return end, jac, curves

    end, jac, curves = integrate(np.arange(len(X)), V, trial=lost is not None)
    err = np.linalg.norm(end - Y, axis=1)
    dropped |= np.isnan(err)  # only given ``lost``: an initial curve that left
    iters = np.zeros(len(X), dtype=int)
    strikes = np.zeros(len(X), dtype=int)
    for it in range(1, max_iter + 1):
        active = np.flatnonzero((err > tol) & ~dropped)
        if not active.size:
            break
        singular = np.linalg.cond(jac[active]) > CONJUGATE_COND_LIMIT
        if np.any(singular):
            if lost is None:
                raise ShootingError(
                    "endpoint Jacobian is numerically singular during shooting")
            lost[active[singular]] = True
            active = active[~singular]
        step = np.zeros_like(V)
        step[active] = np.linalg.solve(jac[active], (Y - end)[active][..., None])[..., 0]
        lam = 1.0  # every lane still searching has halved equally often
        search = active
        for trial in range(LINE_SEARCH_TRIALS):
            v_new = V[search] + lam * step[search]
            end_new, jac_new, curves_new = integrate(search, v_new, trial == 0,
                                                      trial=True)
            err_new = np.linalg.norm(end_new - Y[search], axis=1)
            ok = err_new < err[search]  # False where the curve left
            done = search[ok]
            if done.size:
                if trial:
                    end_new, jac_new, curves_new = integrate(done, v_new[ok])
                else:
                    end_new, jac_new, curves_new = (
                        end_new[ok], jac_new[ok], curves_new[:, ok])
                weak = err_new[ok] > STAGNATION_RATIO * err[done]
                strikes[done] = np.where(weak, strikes[done] + 1, 0)
                V[done], end[done], jac[done], err[done] = (
                    v_new[ok], end_new, jac_new, err_new[ok])
                curves[:, done] = curves_new
                iters[done] = it
            search = search[~ok & ~dropped[search]]
            lam *= 0.5
            if not search.size:
                break
        else:
            fail(search, f"shooting stagnated at endpoint error "
                         f"{np.max(err[search]):.3e} after {it} iterations")
        stuck = np.flatnonzero(strikes >= STAGNATION_STRIKES)
        if stuck.size:
            fail(stuck, f"shooting stagnated at endpoint error "
                        f"{np.max(err[stuck]):.3e}: "
                        f"{STAGNATION_STRIKES} Newton steps in a row each left more "
                        f"than {STAGNATION_RATIO:g} of the error")
    if np.any(err > tol):
        fail(np.flatnonzero(err > tol),
             f"shooting did not reach tolerance {tol:.1e} in {max_iter} iterations "
             f"(endpoint error {np.max(err):.3e})")
    return V, iters, err, curves


def _shoot(metric, potential, X, Y, steps, tol, max_iter, V_init):
    """Damped-Newton shooting of every lane at once, on two grids.

    Lane b solves for the velocity taking X[b] to Y[b] at time 1.  When
    steps // COARSE_FACTOR keeps at least COARSE_MIN_STEPS, every lane is
    first solved on that coarse grid to the looser of COARSE_TOL and
    ``tol``, and the solve on ``steps`` starts from the coarse velocities
    (usually one Newton step and its confirming integration).  A lane
    whose coarse solve fails keeps the caller's guess, bit-identical to a
    one-grid solve (the coarse :func:`_newton` drops it instead of
    raising); an error that escapes the coarse solve drops every lane's
    coarse start.  The fine solve alone decides convergence, the results
    and every error; each grid counts its own Newton iterations and
    SHOOT_INTEGRATION_BUDGET integrations per lane.  Returns what
    :func:`_newton` returns on ``steps``; unless ``tol`` is positive and
    finite and ``max_iter`` at least 1, SolverSettingsError is raised first.
    """
    if not 0.0 < tol < np.inf or not max_iter >= 1:
        raise SolverSettingsError(
            f"shooting needs a positive finite tol and max_iter >= 1, "
            f"got tol={tol}, max_iter={max_iter}")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    V = (Y - X) if V_init is None else np.array(V_init, dtype=float)
    coarse = steps // COARSE_FACTOR
    if coarse >= COARSE_MIN_STEPS:
        lost = np.zeros(len(X), dtype=bool)
        try:
            Vc = _newton(metric, potential, X, Y, coarse, max(tol, COARSE_TOL),
                         max_iter, V, lost)[0]
            V[~lost] = Vc[~lost]
        except (ShootingError, MetricDegenerateError, CurveOverflowError,
                ConjugatePointError):
            pass
    return _newton(metric, potential, X, Y, steps, tol, max_iter, V)


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
    involved.  For ``steps`` >= COARSE_FACTOR * COARSE_MIN_STEPS the solve
    first runs on a grid COARSE_FACTOR times coarser and then polishes on
    ``steps``; the iterations returned are those on ``steps``, and a
    failed coarse solve falls back to the guess ``v_init``, or y - x
    (see :func:`_shoot`).
    Raises on stagnation, a singular endpoint block or an exhausted
    integration budget (per grid), and on a ``tol`` that is not positive
    and finite or a ``max_iter`` below 1.
    """
    V, iters, err, _ = _shoot(
        metric, potential, *_one_lane(metric.dim, x=x, y=y), steps, tol, max_iter,
        None if v_init is None else _one_lane(metric.dim, v_init=v_init)[0])
    return V[0], int(iters[0]), float(err[0])


def _costs(
    metric: MetricField,
    potential: PotentialField | None,
    X: np.ndarray,
    Y: np.ndarray,
    steps: int = DEFAULT_STEPS,
    tol: float = 1e-10,
    max_iter: int = 50,
    V_init: np.ndarray | None = None,
) -> list[CostResult]:
    """:func:`cost` from X[b] to Y[b] for every lane b, shot as one batch.

    The action is integrated along the curve of each lane's last
    accepted shooting integration; its curve part is the plain
    integration of the returned velocity.
    """
    n = metric.dim
    V, iters, err, curves = _shoot(metric, potential, X, Y, steps, tol,
                                   max_iter, V_init)
    pos = curves[:, :, 0:n].reshape(-1, n)  # grid points, lanes inner
    vel = curves[:, :, n: 2 * n].reshape(-1, n)
    f = _FieldEval(metric, potential, need_curvature=False)(pos, vel)
    lag = (0.5 * _quadratic(vel, f.g) - f.v).reshape(curves.shape[:2])
    values = simpson(lag.T, 1.0 / steps)
    return [
        CostResult(
            value=float(values[b]),
            initial_velocity=V[b],
            iterations=int(iters[b]),
            endpoint_error=float(err[b]),
            path=_unpack_path(metric, potential, X[b], V[b], steps, curves[:, b]),
        )
        for b in range(len(V))
    ]


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

    The minimizing curve is found by shooting, first on a coarse grid
    and then on ``steps`` as in :func:`shoot_velocity`; ``iterations``
    and ``endpoint_error`` are those of the solve on ``steps``.  The
    action integral is accumulated with the trapezoid-free quadrature of
    the integrator grid (Simpson on the stored samples).
    """
    return _costs(
        metric, potential, *_one_lane(metric.dim, x=x, y=y), steps, tol, max_iter,
        None if v_init is None else _one_lane(metric.dim, v_init=v_init)[0])[0]


def simpson_weights(panels: int) -> np.ndarray:
    """Composite Simpson weights of ``panels`` + 1 samples at unit step;
    an odd panel count ends with one trapezoid panel."""
    m = panels - panels % 2  # the Simpson panels
    w = np.zeros(panels + 1)
    w[0:m:2] += 1.0
    w[1:m:2] += 4.0
    w[2:m + 1:2] += 1.0
    if panels % 2:
        w[m:] += 1.5  # the trapezoid's 1/2 in units of 1/3
    return w / 3.0


def simpson(samples: np.ndarray, h: float) -> np.ndarray:
    """Integral of each row of ``samples`` (rows, grid) at step h under
    :func:`simpson_weights`, as one dot product per row (the row axis is
    the matmul stack, so a row's value does not depend on the others)."""
    w = simpson_weights(samples.shape[-1] - 1) * h
    return (np.ascontiguousarray(samples)[:, None, :] @ w[:, None])[:, 0, 0]


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
    """Build the curve family with fields over the (s, t) grid, all
    members integrated as one batch."""
    n = metric.dim
    x, u, v, w = as_vectors(n, x=x, u=u, v=v, w=w)
    pot = potential if potential is not None else PotentialField.zero(n)
    fam = VariationFamily(
        metric=metric, potential=pot, x=x, u=u, v=v, w=w,
        s_values=tuple(float(s) for s in s_values),
        t_values=tuple(float(t) for t in t_values),
        steps=steps,
    )
    grid = [(i, j, s, t) for i, s in enumerate(fam.s_values)
            for j, t in enumerate(fam.t_values)]
    V0 = np.array([t * v + s * w for _, _, s, t in grid])
    _, traj, voff = _integrate(
        metric, pot, np.tile(x, (len(grid), 1)), V0, steps,
        transport=True, variation="full", store=True,
    )
    J, dJ = _two_point_fields(
        traj[:, :, voff:].reshape(steps + 1, len(grid), 2 * n, 2 * n),
        np.tile(u, (len(grid), 1)),
        "conjugate point inside a variation family member",
    )
    for b, (i, j, s, t) in enumerate(grid):
        lane = traj[:, b]
        Psi = lane[:, 2 * n: 2 * n + n * n].reshape(-1, n, n)
        fam.members[(i, j)] = FamilyMember(
            s=s, t=t, path=_unpack_path(metric, pot, x, V0[b], steps, lane),
            U=Psi @ u, J=J[:, b], dJ=dJ[:, b],
        )
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
    Richardson extrapolation.  ``geo`` is the geometry at the center
    point, a batch of one.
    """

    def __init__(self, family: VariationFamily, geo: GeometryBatch):
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
        if float(np.max(np.abs(geo.gamma[0]))) > 1e-10:
            raise PreconditionError(
                "center stencil requires vanishing Christoffel symbols "
                "at the family base point"
            )
        self.family = family
        self.dgamma = geo.dgamma[0]
        self.d2gamma = geo.d2gamma[0]
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
        dgam, d2gam = self.dgamma, self.d2gamma

        def dG(p, q, r):
            return contract(dgam, p, None, q, r)

        def d2G(p1, p2, q, r):
            return contract(d2gam, p1, p2, None, q, r)

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
    must be a critical point with Hess V <= 0); with none, the full
    Riemannian list is checked.
    """
    x, u, v, w = as_vectors(metric.dim, x=x, u=u, v=v, w=w)
    _require_step(h, "the family step h")
    grid = [round(tau * steps) for tau in taus]
    for tau, k in zip(taus, grid):
        if abs(k - tau * steps) > 1e-9 or not 0 <= k <= steps:
            raise DiscretizationError(
                f"tau={tau} is not on the integration grid with {steps} steps")
    pot = potential if potential is not None else PotentialField.zero(metric.dim)
    geo = GeometryBatch(metric, x[None], potential=None if pot.is_zero else pot)

    if float(np.max(np.abs(geo.gamma[0]))) > 1e-10:
        raise PreconditionError(
            "lemma suite requires vanishing Christoffel symbols at the base point"
        )
    mus, E, _ = geo.hessian_modes("the lemma suite")
    mus, E = mus[0], E[0]
    v_modes = E.T @ geo.g[0] @ v

    offs = [a * h / 2 for a in (-2, -1, 0, 1, 2)]
    fam = variation_family(metric, pot, x, u, v, w, offs, offs, steps)
    st = CenterStencil(fam, geo)

    rup = geo.riemann_raised[0]

    def Rop(a, b, c):
        return contract(rup, a, b, c)

    checks: list[LemmaCheck] = []

    def add(name, tau, est, tgt):
        est = np.asarray(est, dtype=float)
        tgt = np.asarray(tgt, dtype=float)
        checks.append(
            LemmaCheck(name=name, tau=tau, estimate=est, target=tgt,
                       error=float(np.max(np.abs(est - tgt))))
        )

    center = fam.member(2, 2)
    for tau, k in zip(taus, grid):
        zero = np.zeros(metric.dim)

        # stationarity of the center curve
        add("center-curve-velocity", tau, center.path.vel[k], zero)
        # first t-derivative of the curve follows the linearized modes
        add("curve-first-t", tau, st.estimate("pos", "t", k),
            E @ (mode_profile(mus, tau) * v_modes))
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

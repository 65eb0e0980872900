"""Curves, transports and linearized flows of the mechanical action.

The action of a path is the time integral of kinetic energy minus the
potential; its critical curves satisfy (covariantly) acceleration =
-grad V.  This module integrates those curves with fixed-step RK4,
solves endpoint problems by damped Newton shooting, transports frames,
and solves the two-point linearized-variation (Jacobi) problem by
fundamental-matrix superposition.  Everything is deterministic: fixed
step counts, no adaptive control.

The integrator advances a batch of curves ("lanes") at once; lane b
starts at x0[b] with velocity v0[b].  It returns a :class:`Flow` of
named arrays, time axis first and lane axis second: the curve [x, v],
the transported frame Psi and the variation Phi, over every grid point
or only the end.  The curve [x; v] is stepped alone, a row per
coordinate, as nothing in it reads the transport or the variation.
Each RK4 stage is one call of a straight-line function generated per
metric and potential: the DAG lines of the cached
degree-2 :class:`~mtwcheck.expr.TaylorPlan` of the metric entries and
the potential, then g^-1 by cofactors and Gamma(v, v) + grad V as
fixed-order sums over the nonzero partials.  It writes the stage's
slope and g.  It and the linearization generated from the same lines
are compiled once per plan and kept on the plan's entry in the plan
cache (:func:`~mtwcheck.geometry._curve_stage`).
Each line is one NumPy call whatever the lane count, so a batch of at
most SCALAR_LANES lanes in dimension n <= 3 runs the same lines as one
whole RK4 step of one lane in Python floats, kept with the kernel
(:func:`~mtwcheck.geometry._scalar_step`), lane by lane, each block's
records written into the same buffers.
A lane fails at a start, RK4 stage or last point where the metric is
not positive definite (:class:`~mtwcheck.errors.MetricDegenerateError`),
tested per block of at most STEP_MAP_BLOCK_POINTS stage points, and at
a state that is not finite (:class:`~mtwcheck.errors.CurveOverflowError`;
a singular or non-finite g leaves it so, without a NumPy warning).  A
failure is data: the :class:`Flow` keeps each lane's first, the others
step on, and :func:`_checked` raises the batch's first in step, stage
and lane order.
The transport Psi and the variation Phi solve linear equations
Y' = A(t) Y, on which RK4 is one matrix per step (:func:`_step_maps`).
The linear pass (:func:`_linear_pass`) is a function of recorded stage
points, a lane selection and the seed columns: per block, d_x F,
F = Gamma(v, v) + grad V, and Gamma v at the stage points are one call
of the generated linearization, the maps are batched matmuls, and they
apply in step order.  A stored integration keeps its stage points, so
the pass can also run afterwards, over some of its lanes, bit for bit.
Phi = (dx, dv) is the tangent of the discrete curve step: a
Runge-Kutta step's derivative is the same method on dy' = A dy, with
A = [[0, I], [-d_x F, -2 Gamma v]], the slope [v; -F]'s Jacobian, at
the step's stage values (Hairer, Nørsett and Wanner, *Solving ODEs I*,
§II).  The "full" columns start at [[I, 0], [-Gamma v0, I]], one per
covariant start datum (J0, P0), so dx is J, and D_tau J is
dv + Gamma(v, J) (:func:`_two_point_fields`).  Every operation is
elementwise or a matmul stacked over lanes, and the scalar step
repeats the vector step's operations and functions, so a lane's result
is bit-identical to the curve integrated alone.  The stencils of the
cross-curvature routes run as one batch each (the jacobi route's, one
per rung of its step ladder), the damped-Newton shoot
steps every lane with its own line search, first on a grid
COARSE_FACTOR times coarser and then on the caller's, each solve
keeping a lane's failure as a Flow does and the fine one's first raised
(:func:`_shoot`), each trial integrated once, as a plain stored curve,
whose stage points give the "velocity" pass only of the lanes it
leaves above tolerance, and the single-curve functions
(:func:`c_exp`, :func:`cost`, ...) are one-lane calls into the same
engine.  Quantities
along a stored curve read all grid points at once: energy, transported
norms and the action read the metric's and the potential's values,
D_tau J one call of the linearization, and the variation residual one
geometry batch.  Every two-point variation field comes from one
endpoint solve (:func:`_endpoint_solve`), and the action integral here
and the closed-form zeroth-order quadrature of :mod:`mtwcheck.mtw`
share one rule (:func:`simpson`).

A variation family bundles curves over an (s, t) grid of initial
velocities t*v + s*w around a common start point, together with the
transported frame of a reference vector and the two-point variation
field, all one batch whose lanes run s-major, so each field is one
(steps+1, S, T, n) array.  The lemma suite differences those arrays
at the grid's center, with Christoffel corrections, to recover
covariant (s, t)-derivatives of the fields, which is how the
integration-by-parts identities behind the curvature evaluators are
verified numerically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    ConjugatePointError,
    CurveOverflowError,
    DimensionError,
    DiscretizationError,
    PreconditionError,
    ShootingError,
    SolverSettingsError,
)
from .geometry import (
    GeometryBatch,
    MetricField,
    PotentialField,
    _curve_stage,
    _degenerate,
    _indefinite,
    as_point,
    as_vectors,
    contract,
    mode_profile,
)
from .jets import JetSpace

# Condition-number ceiling beyond which the endpoint variation block is
# treated as singular (conjugate endpoint).
CONJUGATE_COND_LIMIT = 1e12

DEFAULT_STEPS = 200

# Shooting gives up on a lane whose line search fails LINE_SEARCH_TRIALS
# times in a row, that takes STAGNATION_STRIKES consecutive Newton steps
# each leaving more than STAGNATION_RATIO of its endpoint error, or that
# would need more than SHOOT_INTEGRATION_BUDGET curve integrations (one per
# trial; the linear passes that give its Newton steps' Jacobians do not count).
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

# A batch of at most SCALAR_LANES lanes in dimension n <= 3 steps its curve
# by the stage kernel's scalar step (geometry._scalar_step), lane by lane in
# Python floats, and a larger one by the vector kernel, whose NumPy calls
# cost about the same at any lane count: the scalar path stays the faster up
# to 9-15 lanes on the sphere and a 3-D metric and 15-25 on conformal and
# flat metrics with a potential (BENCH_scalar_lanes.json).
SCALAR_LANES = 8

# Stage points per block of steps (see _integrate): a block holds at most
# this many, and at least one step.  Each block's points are tested for a
# positive-definite metric in one call, and with a linearized flow the
# stage kernel's linearization gives their transport and variation
# coefficients in one call, so the block bounds the memory of both.
STEP_MAP_BLOCK_POINTS = 512


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
        V = self.potential.jets(self.pos, JetSpace.get(self.metric.dim, 0))[:, 0]
        return 0.5 * _quadratic(self.vel, self.metric.matrix(self.pos)) + V

    def energy_drift(self) -> float:
        e = self.energy()
        return float(np.max(np.abs(e - e[0])) / max(1.0, abs(e[0])))


@dataclass
class ParallelFrame:
    """Parallel transport of a start vector along a curve."""

    path: CurvePath
    u0: np.ndarray
    vectors: np.ndarray  # (steps+1, n)

    def norm_drift(self) -> float:
        g = self.path.metric.matrix(self.path.pos)
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


def _linear_pass(lin, stages: np.ndarray, lanes, h: float, psi=None, phi=None,
                 out=(None, None)) -> list:
    """Psi and Phi of lanes ``lanes`` advanced over RK4 steps of h from
    their recorded stage arguments.

    ``stages`` (count, 4, 2n, B) holds the four stage arguments [x; v] of
    each step, a row per coordinate; ``psi`` (L, n, n) and ``phi``
    (L, 2n, ncols) are the values before the first step, None for a part
    not advanced.  d_x F, F = Gamma(v, v) + grad V, and Gamma v at the
    stage points are one call of the linearization ``lin``; the step maps
    (:func:`_step_maps`) of -Gamma v and of the slope's Jacobian
    [[0, I], [-d_x F, -2 Gamma v]] apply in step order, one stacked matmul
    per step.  Returns [Psi, Phi] after the last step; a (count, L, ...)
    array in ``out`` receives its part after each step.  A lane's values
    do not depend on the others, so a pass over some lanes of a stored
    integration afterwards gives the bits :func:`_integrate` gives."""
    count, _, m, _ = stages.shape
    n = m // 2
    pts = stages[..., lanes].transpose(2, 0, 1, 3)  # (2n, count, 4, L)
    L = pts.shape[-1]
    # [d_x F, Gamma v] at the stage points, in step, stage and lane order
    A = lin(np.ascontiguousarray(pts.reshape(m, -1))).reshape(count, 4, L, n, m)
    parts = [psi, phi]
    for i, Y in enumerate(parts):
        if Y is None:
            continue
        if i == 0:
            gen = np.negative(A[..., n:])
        else:  # the slope's Jacobian
            gen = np.zeros((count, 4, L, m, m))
            gen[..., 0:n, n:] = np.eye(n)
            np.negative(A[..., 0:n], out=gen[..., n:, 0:n])
            np.multiply(A[..., n:], -2.0, out=gen[..., n:, n:])
        for k, S in enumerate(_step_maps(gen, h)):
            Y = S @ Y
            if out[i] is not None:
                out[i][k] = Y
        parts[i] = Y
    return parts


@dataclass
class Flow:
    """What one integration returns: the curve [x, v] of every lane, its
    transported frame Psi and its variation Phi = [dx; dv], each with the
    time axis first and the lane axis second.  The time axis holds every
    grid point of a stored integration and only the end otherwise, so
    index -1 is the end in both cases.

    A stored integration also keeps ``stages``, the RK4 stage arguments
    [x; v] of its steps, one array per block of steps, from which
    :func:`_linear_pass` can advance a transport or a variation afterwards.

    ``failed`` maps each failed lane, whose arrays hold no meaning, to its
    first failure (key, error), keyed (0, 0) at the start point, (k, s) at
    stage s of step k, (k, 4) at the point step k reaches if it is the
    last or its state is not finite, and (k, 5) at that state."""

    curve: np.ndarray  # (T, B, 2n)
    psi: np.ndarray | None  # (T, B, n, n), with ``transport``
    phi: np.ndarray | None  # (T, B, 2n, ncols), with a ``variation``
    failed: dict = field(default_factory=dict)  # lane: (key, error)
    stages: list | None = None  # per block, (count, 4, 2n, B), with ``store``


def _raise_first(failed: dict) -> None:
    """Raise the first failure, by (key, lane), of failed: {lane: (key, error)}."""
    if failed:
        lane = min(failed, key=lambda b: (failed[b][0], b))
        raise failed[lane][1]


def _checked(flow: Flow) -> Flow:
    """``flow``, unless a lane failed: then :func:`_raise_first` raises."""
    _raise_first(flow.failed)
    return flow


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
) -> Flow:
    """RK4 integration of the curve and of its transport and variation.

    ``x0`` and ``v0`` are (B, n): one lane per row.  Returns a
    :class:`Flow` over the steps+1 grid points, with their stage points,
    with ``store``, else over the end alone, each lane that failed kept in
    ``Flow.failed``.  Psi (n x n, with ``transport``) transports a frame,
    and Phi (2n x ncols) stacks the rows [dx; dv] of the derivative of the
    discrete flow: variation="full" evolves the whole 2n x 2n fundamental
    matrix, a column per covariant start datum (J0, P0), and "velocity"
    the n columns of initial velocity perturbations, whose dx rows are the
    endpoint Jacobian of shooting.  The module docstring gives the scheme.
    """
    _require_steps(steps)
    n = metric.dim
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if x0.ndim != 2 or x0.shape[1] != n or v0.shape != x0.shape:
        raise DimensionError("start point/velocity dimension mismatch")
    lanes = x0.shape[0]

    ncols = {None: 0, "velocity": n, "full": 2 * n}.get(variation)
    if ncols is None:
        raise ValueError(f"unknown variation mode {variation!r}")
    times = steps + 1 if store else 1
    flow = Flow(curve=np.empty((times, lanes, 2 * n)),
                psi=np.empty((times, lanes, n, n)) if transport else None,
                phi=np.empty((times, lanes, 2 * n, ncols)) if ncols else None,
                stages=[] if store else None)
    failed = flow.failed

    def test(X: np.ndarray, where, g=None) -> None:
        """Keep as a lane's failure each point X[i] whose metric g[i], by
        default read as :meth:`MetricField.matrix` reads it, is not positive
        definite, at the (lane, key) that ``where(i)`` gives, unless the
        lane failed before."""
        if g is None:
            g = np.moveaxis(metric.jets(X, JetSpace.get(n, 0))[..., 0], -1, 0)
        bad, w = _indefinite(g)
        for i, wi in zip(bad.tolist(), w.tolist()):
            lane, key = where(i)
            if lane not in failed or key < failed[lane][0]:
                failed[lane] = (key, _degenerate(X[i], wi))

    test(x0, lambda i: (i, (0, 0)))
    if len(failed) == lanes:  # a constant g that fails compiles no kernel
        return flow
    kern, g_fill, scalar_step, lin = _curve_stage(metric, potential)
    if lanes > SCALAR_LANES:
        scalar_step = None
    psi = np.broadcast_to(np.eye(n), (lanes, n, n)) if transport else None
    phi = None
    if ncols:  # "full" seeds every column, "velocity" the derivative columns
        phi = _seeds(n, lanes, ncols)
        if ncols == 2 * n:  # a column per (J0, P0): dv = P0 - Gamma(v0, J0)
            phi = phi.copy()
            np.negative(lin(np.concatenate([x0.T, v0.T]))[..., n:], out=phi[:, n:, 0:n])

    h = 1.0 / steps
    block = max(1, STEP_MAP_BLOCK_POINTS // (4 * lanes))
    # per step of a block, its four stage arguments [x; v], a row per
    # coordinate (each block's kept in ``flow.stages`` with ``store``), and
    # unless g is constant the stage kernel's g at each
    stages = None if store else np.empty((block, 4, 2 * n, lanes))
    gs = None
    if g_fill is not None:
        gs = np.empty((block, 4, lanes, n, n))
        gs[...] = g_fill
    width = 10 * n + (0 if gs is None else 4 * n * n)  # a scalar step's record
    y = np.empty((2 * n, lanes))  # the curve's state [x; v]
    y[0:n] = x0.T
    y[n:] = v0.T
    ks = np.empty((4, 2 * n, lanes))  # the slopes k1-k4
    no_g = (None,) * 4

    def step(y, stage, g, ks) -> None:
        """One RK4 step of the curve y (2n, L) by the stage kernel, its
        stage arguments recorded in stage (4, 2n, L) and g in g (4, L, n, n)."""
        a0, a1, a2, a3 = stage
        g0, g1, g2, g3 = g
        k1, k2, k3, k4 = ks
        np.copyto(a0, y)
        kern(a0, k1, g0)
        np.multiply(k1, 0.5 * h, out=a1)
        np.add(y, a1, out=a1)
        kern(a1, k2, g1)
        np.multiply(k2, 0.5 * h, out=a2)
        np.add(y, a2, out=a2)
        kern(a2, k3, g2)
        np.multiply(k3, h, out=a3)
        np.add(y, a3, out=a3)
        kern(a3, k4, g3)
        # y + h/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
        np.multiply(k2, 2.0, out=k2)
        np.add(k1, k2, out=k1)
        np.multiply(k3, 2.0, out=k3)
        np.add(k1, k3, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(k1, h / 6.0, out=k1)
        np.add(y, k1, out=y)

    def vector_steps(k0: int, at: np.ndarray) -> None:
        """len(at) steps of every lane from step k0, their stage arguments
        recorded in ``at`` and their g in the block's buffer."""
        for j in range(len(at)):
            step(y, at[j], no_g if gs is None else gs[j], ks)
            if store:
                flow.curve[k0 + j + 1] = y.T

    def lane_step(r: tuple) -> tuple:
        """One step of one lane by the scalar step, or by the vector kernel
        where the scalar step divides by 0.0 or a power leaves the floats."""
        try:
            return scalar_step(h, r)
        except (ZeroDivisionError, OverflowError, ValueError):
            one, stage = np.array(r[0: 2 * n])[:, None], np.empty((4, 2 * n, 1))
            g = no_g if gs is None else np.tile(g_fill, (4, 1, 1, 1))
            step(one, stage, g, np.empty((4, 2 * n, 1)))
            rec = [one, stage] + ([] if gs is None else [g])
            return tuple(np.concatenate([a.ravel() for a in rec]).tolist())

    def scalar_steps(k0: int, at: np.ndarray) -> None:
        """As vector_steps, by the scalar step, step-major and lane by lane,
        its records written into ``at`` and the block's buffer at the end."""
        nonlocal lane_states
        count = len(at)
        recs = []
        for _ in range(count):
            lane_states = [lane_step(r) for r in lane_states]
            recs += lane_states
        rec = np.fromiter(itertools.chain.from_iterable(recs), float,
                          count * lanes * width).reshape(count, lanes, width)
        y[...] = rec[-1, :, 0: 2 * n].T
        at[...] = rec[:, :, 2 * n: 10 * n].reshape(
            count, lanes, 4, 2 * n).transpose(0, 2, 3, 1)
        if gs is not None:
            gs[:count] = rec[:, :, 10 * n:].reshape(count, lanes, 4, n, n).swapaxes(1, 2)
        if store:
            flow.curve[k0 + 1: k0 + count + 1] = rec[:, :, 0: 2 * n]

    def test_states(k0: int, at: np.ndarray) -> None:
        """Fail each lane whose state after a step of the block is not
        finite, at the first such step: as the point reached there if its
        g is not positive definite, else as a curve overflow."""
        # the state after each step: the next step's first stage, or y
        S = np.concatenate([at[1:, 0], y[None]])
        nonfinite = ~np.isfinite(S).all(axis=1)
        cols = np.flatnonzero(nonfinite.any(axis=0))
        done = k0 + 1 + nonfinite[:, cols].argmax(axis=0)
        states = S[done - k0 - 1, :, cols]
        test(states[:, 0:n], lambda i: (int(cols[i]), (int(done[i]), 4)))
        for lane, d, state in zip(cols.tolist(), done.tolist(), states.tolist()):
            # a failure kept before comes first: an earlier block's or (d, 4)
            failed.setdefault(lane, ((d, 5), CurveOverflowError(
                f"curve state is not finite after step {d} of {steps} "
                f"(lane {lane}: {state})")))

    records = (flow.psi, flow.phi) if store else (None, None)
    if store:
        flow.curve[0] = y.T
        for out, Y in zip(records, (psi, phi)):
            if Y is not None:
                out[0] = Y
    lane_states = y.T.tolist()  # each lane's [x; v], for the scalar step
    for k0 in range(0, steps, block):
        count = min(block, steps - k0)
        if store:
            at = np.empty((count, 4, 2 * n, lanes))
            flow.stages.append(at)
        else:
            at = stages[:count]
        (scalar_steps if scalar_step else vector_steps)(k0, at)
        if not np.isfinite(y).all():
            test_states(k0, at)
        if gs is not None:  # a constant g passed the start test everywhere
            # the stage points, in step, stage and lane order
            test(at.swapaxes(-1, -2).reshape(-1, 2 * n)[:, 0:n],
                 lambda i: (i % lanes, (k0 + 1 + i // (4 * lanes), i // lanes % 4)),
                 gs[:count].reshape(-1, n, n))
        if transport or ncols:
            psi, phi = _linear_pass(lin, at, slice(None), h, psi, phi, [
                None if out is None else out[k0 + 1: k0 + count + 1] for out in records])
    test(y[0:n].T, lambda i: (i, (steps, 4)))  # the last point, evaluated by no stage
    flow.curve[-1] = y.T  # stored already by the last step with ``store``
    for out, Y in ((flow.psi, psi), (flow.phi, phi)):
        if Y is not None:
            out[-1] = Y
    return flow


def _seeds(n: int, lanes: int, ncols: int) -> np.ndarray:
    """The last ``ncols`` columns of the 2n x 2n identity for each lane,
    (lanes, 2n, ncols): the seed of a variation, n columns for "velocity"."""
    return np.broadcast_to(np.eye(2 * n)[:, 2 * n - ncols:], (lanes, 2 * n, ncols))


def _require_steps(steps, least: int = 1) -> None:
    """Raise :class:`DiscretizationError` unless ``steps`` is an integer
    of at least ``least``."""
    if not isinstance(steps, (int, np.integer)):
        raise DiscretizationError(f"steps must be an integer, got {steps!r}")
    if steps < least:
        raise DiscretizationError(f"steps must be at least {least}, got {steps}")


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
    flow = _checked(_integrate(metric, potential, *_one_lane(metric.dim, x=x, v0=v0),
                               steps, store=True))
    return _unpack_path(metric, potential, x, v0, steps, flow.curve[:, 0])


def _endpoints(metric, potential, X, V, steps) -> np.ndarray:
    """Unit-time endpoints of the lanes with starts X and velocities V, (B, n)."""
    flow = _checked(_integrate(metric, potential, X, V, steps))
    return flow.curve[-1, :, 0: metric.dim].copy()


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
    flow = _checked(_integrate(
        path.metric, path.potential, *_one_lane(n, x0=path.x0, v0=path.v0), path.steps,
        transport=True, store=True,
    ))
    return ParallelFrame(path=path, u0=u, vectors=flow.psi[:, 0] @ u)


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


def _two_point_fields(metric: MetricField, potential: PotentialField | None,
                      flow: Flow, U: np.ndarray, what: str):
    """J and its covariant derivative, each (steps+1, B, n), with
    J_b(0) = U[b] and J_b(1) = 0, from a stored "full" integration:
    D_tau J = dv + Gamma(v, J)."""
    n = U.shape[-1]
    Phi = flow.phi
    P0 = _endpoint_solve(Phi[-1], U, what)
    J, dv = np.split(Phi[..., 0:n] @ U[:, :, None] + Phi[..., n:] @ P0[:, :, None], 2, -2)
    *_, lin = _curve_stage(metric, potential)
    gam_v = lin(np.ascontiguousarray(flow.curve.reshape(-1, 2 * n).T))[..., n:]
    return J[..., 0], (dv + gam_v.reshape(Phi.shape[:2] + (n, n)) @ J)[..., 0]


def jacobi_bvp(path: CurvePath, u: Sequence[float]) -> JacobiSolution:
    """Solve the two-point variation problem J(0) = u, J(1) = 0 along ``path``.

    The general solution is superposed from fundamental columns; a
    singular endpoint block signals a conjugate point and raises.
    """
    n = path.metric.dim
    (u,) = as_vectors(n, u=u)
    flow = _checked(_integrate(
        path.metric, path.potential, *_one_lane(n, x0=path.x0, v0=path.v0), path.steps,
        variation="full", store=True,
    ))
    J, dJ = _two_point_fields(
        path.metric, path.potential, flow, u[None],
        "endpoint variation block is numerically singular "
        "(conjugate point on the curve)",
    )
    return JacobiSolution(path=path, u0=u, J=J[:, 0], dJ=dJ[:, 0])


def jacobi_residual(sol: JacobiSolution) -> float:
    """Max norm of the variation equation residual on interior grid points.

    The covariant time derivative of dJ is estimated with a five-point
    stencil so the check is limited by the integrator, not the stencil.
    Gamma, R and Hess V come from a :class:`GeometryBatch` along the
    path, so the check shares no coefficient with the integrator.
    """
    path = sol.path
    h = 1.0 / path.steps
    k = np.arange(2, path.steps - 1)
    dJ, v = sol.dJ, path.vel[k]
    ddJ = (-dJ[k + 2] + 8 * dJ[k + 1] - 8 * dJ[k - 1] + dJ[k - 2]) / (12 * h)
    pot = None if path.potential.is_zero else path.potential
    geo = GeometryBatch(path.metric, path.pos[k], potential=pot, curvature_order=0)
    res = (ddJ + np.einsum("bkij,bi,bj->bk", geo.gamma, v, dJ[k])
           + np.einsum("blijk,bi,bj,bk->bl", geo.riemann_raised, v, sol.J[k], v))
    if pot is not None:
        res += (geo.g_inv @ (geo.hess_v @ sol.J[k][..., None]))[..., 0]
    return float(np.max(np.abs(res), initial=0.0))


@dataclass
class CostResult:
    """Action cost with its convergence report."""

    value: float
    initial_velocity: np.ndarray
    iterations: int
    endpoint_error: float
    path: CurvePath


def _velocity_jacobians(metric, potential, flow: Flow, lanes) -> np.ndarray:
    """The endpoint Jacobians d x(1) / d v0, (L, n, n), of lanes ``lanes``
    of the stored integration ``flow``: the dx rows of its "velocity"
    variation, advanced afterwards from its recorded stage points, block
    by block, bit for bit those of ``_integrate(..., variation="velocity")``."""
    n = metric.dim
    *_, lin = _curve_stage(metric, potential)
    phi = _seeds(n, len(lanes), n)
    for at in flow.stages:
        phi = _linear_pass(lin, at, lanes, 1.0 / (len(flow.curve) - 1), phi=phi)[1]
    return phi[:, 0:n]


def _newton(metric, potential, X, Y, steps, tol, max_iter, V):
    """Damped-Newton shooting of every lane at once on one grid, from the
    velocities V (not written).

    Lane b solves for the velocity taking X[b] to Y[b] at time 1 with
    its own line search, and drops out of the batch once it converges
    or fails.  Every trial step is one stored plain integration.  An
    accepted curve that leaves its lane above ``tol`` gives the endpoint
    Jacobian of the next Newton step by the "velocity" pass from its
    recorded stage points (:func:`_velocity_jacobians`), so the last
    curve of a lane that converges runs no variation and no accepted
    trial is integrated again.  A trial lane whose curve fails (see
    :class:`Flow`) fails its line-search test.  Nothing is raised: each
    failed lane keeps (key, error), as in ``Flow.failed``, keyed in the
    order failures happen (the initial curves' by Flow key, then by
    event, a lane with a failed trial curve first in its event).  The error is the initial
    curve's, a ShootingError for a singular Jacobian, else the first
    failed trial curve's, if any, or a ShootingError.  A converged lane's
    result is the same in any batch.  Returns (velocities, Newton
    iterations, endpoint errors, curves, failures), the curves
    (steps+1, B, 2n) of each lane's last accepted integration.
    """
    n = metric.dim
    V = V.copy()
    used = np.zeros(len(X), dtype=int)  # curve integrations per lane
    escaped = {}  # lane: the first failure (key, error) of its curves
    failed = {}  # lane: (key, error)
    out = np.zeros(len(X), dtype=bool)  # the lanes in ``failed``
    events = itertools.count(1)  # failing events after the initial curves, in order
    curves = np.full((steps + 1, len(X), 2 * n), np.nan)  # each lane's last accepted
    jac = np.empty((len(X), n, n))  # their endpoint Jacobians, where a step reads one

    def fail(lanes, message: str, trials=True) -> None:
        """Fail some lanes in one event: each with its first trial curve's
        failure, given ``trials``, else with ShootingError(message)."""
        event, error = next(events), ShootingError(message)
        for b in lanes.tolist():
            by_curve = trials and b in escaped
            failed[b] = ((event, 0), escaped[b][1]) if by_curve else ((event, 1), error)
        out[lanes] = True

    def integrate(lanes, Vl, bound):
        """Integrate some lanes from the velocities Vl, each a stored plain
        curve, and accept each whose endpoint error is below ``bound``
        (per lane) as its lane's last curve, with the endpoint Jacobian the
        next Newton step reads if that error is above tol.  Returns the
        endpoints, their errors and the accepted lanes' mask: NaN for each
        lane whose curve failed, kept in ``escaped``, and for each lane past
        its budget, which fails and is not integrated."""
        spent = used[lanes] >= SHOOT_INTEGRATION_BUDGET
        if spent.any():
            fail(lanes[spent], f"shooting used its budget of {SHOOT_INTEGRATION_BUDGET} "
                               f"integrations without converging")
        used[lanes] += 1
        end = np.full((len(lanes), n), np.nan)
        ran = np.flatnonzero(~spent)
        if ran.size:
            flow = _integrate(metric, potential, X[lanes[ran]], Vl[ran], steps, store=True)
            end[ran] = flow.curve[-1, :, 0:n]
            for b, failure in flow.failed.items():
                escaped.setdefault(int(lanes[ran[b]]), failure)
                end[ran[b]] = np.nan
        errs = np.linalg.norm(end - Y[lanes], axis=1)
        ok = errs < bound  # False where the curve failed
        if ok.any():
            cols = (np.cumsum(~spent) - 1)[ok]  # the accepted lanes' columns in flow
            curves[:, lanes[ok]] = flow.curve[:, cols]
            far = errs[ok] > tol
            if far.any():
                jac[lanes[ok][far]] = _velocity_jacobians(metric, potential, flow,
                                                          cols[far])
        return end, errs, ok

    end, err, _ = integrate(np.arange(len(X)), V, np.inf)
    failed.update((b, ((0, key), error)) for b, (key, error) in escaped.items())
    out[list(failed)] = True
    iters = np.zeros(len(X), dtype=int)
    strikes = np.zeros(len(X), dtype=int)
    for it in range(1, max_iter + 1):
        active = np.flatnonzero((err > tol) & ~out)
        if not active.size:
            break
        singular = np.linalg.cond(jac[active]) > CONJUGATE_COND_LIMIT
        fail(active[singular],
             "endpoint Jacobian is numerically singular during shooting", trials=False)
        active = active[~singular]
        step = np.zeros_like(V)
        step[active] = np.linalg.solve(jac[active], (Y - end)[active][..., None])[..., 0]
        lam = 1.0  # every lane still searching has halved equally often
        search = active
        for trial in range(LINE_SEARCH_TRIALS):
            v_new = V[search] + lam * step[search]
            end_new, err_new, ok = integrate(search, v_new, err[search])
            done = search[ok]
            if done.size:
                weak = err_new[ok] > STAGNATION_RATIO * err[done]
                strikes[done] = np.where(weak, strikes[done] + 1, 0)
                V[done], end[done], err[done] = v_new[ok], end_new[ok], err_new[ok]
                iters[done] = it
            search = search[~ok & ~out[search]]
            lam *= 0.5
            if not search.size:
                break
        else:
            fail(search, f"shooting stagnated at endpoint error "
                         f"{np.max(err[search]):.3e} after {it} iterations")
        stuck = np.flatnonzero((strikes >= STAGNATION_STRIKES) & ~out)
        if stuck.size:
            fail(stuck, f"shooting stagnated at endpoint error "
                        f"{np.max(err[stuck]):.3e}: "
                        f"{STAGNATION_STRIKES} Newton steps in a row each left more "
                        f"than {STAGNATION_RATIO:g} of the error")
    late = np.flatnonzero((err > tol) & ~out)
    if late.size:
        fail(late, f"shooting did not reach tolerance {tol:.1e} in {max_iter} iterations "
                   f"(endpoint error {np.max(err[late]):.3e})")
    return V, iters, err, curves, failed


def _shoot(metric, potential, X, Y, steps, tol, max_iter, V_init):
    """Damped-Newton shooting of every lane at once, on two grids.

    Lane b solves for the velocity taking X[b] to Y[b] at time 1.  When
    steps // COARSE_FACTOR keeps at least COARSE_MIN_STEPS, every lane is
    first solved on that coarse grid to the looser of COARSE_TOL and
    ``tol``, and the solve on ``steps`` starts from the coarse velocities
    (usually one Newton step: the variation of the start curve and the
    trial curve that converges).  A lane whose coarse solve fails keeps
    the caller's guess, bit-identical to a one-grid solve.  The fine
    solve alone decides convergence, the results and every error, raising
    its first failure (:func:`_newton`); each grid counts its own Newton
    iterations and SHOOT_INTEGRATION_BUDGET curve integrations per lane.
    Returns the fine solve's velocities, iterations, endpoint errors and
    curves; a bad ``tol``, ``max_iter`` or ``steps`` raises first
    (SolverSettingsError, DiscretizationError).
    """
    if not (0.0 < tol < np.inf and isinstance(max_iter, (int, np.integer))
            and max_iter >= 1):
        raise SolverSettingsError(
            f"shooting needs a positive finite tol and an integer max_iter >= 1, "
            f"got tol={tol}, max_iter={max_iter}")
    _require_steps(steps)
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    V = (Y - X) if V_init is None else np.array(V_init, dtype=float)
    coarse = steps // COARSE_FACTOR
    if coarse >= COARSE_MIN_STEPS:
        Vc, *_, failed = _newton(metric, potential, X, Y, coarse, max(tol, COARSE_TOL),
                                 max_iter, V)
        Vc[list(failed)] = V[list(failed)]  # a failed lane keeps the guess
        V = Vc
    *solved, failed = _newton(metric, potential, X, Y, steps, tol, max_iter, V)
    _raise_first(failed)
    return solved


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
    advanced from the curve's recorded stage points, so no extra finite
    differencing is involved.  For ``steps`` >= COARSE_FACTOR *
    COARSE_MIN_STEPS the solve first runs on a grid COARSE_FACTOR times
    coarser and then polishes on ``steps``; the iterations returned are
    those on ``steps``, and a failed coarse solve falls back to the guess
    ``v_init``, or y - x (see :func:`_shoot`).
    Raises the first failure on ``steps``: a curve that fails, stagnation,
    a singular endpoint block, an exhausted integration budget (per grid)
    or a missed ``tol``; bad settings raise before any integration
    (:func:`_shoot`).
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`cost` from X[b] to Y[b] for every lane b, shot as one batch:
    (actions, velocities, iterations, endpoint errors, curves).

    The curves (steps+1, B, 2n) are each lane's last accepted shooting
    integration, the plain integration of its velocity, along which its
    action is integrated.
    """
    n = metric.dim
    V, iters, err, curves = _shoot(metric, potential, X, Y, steps, tol,
                                   max_iter, V_init)
    pos = curves[:, :, 0:n].reshape(-1, n)  # grid points, lanes inner
    vel = curves[:, :, n: 2 * n].reshape(-1, n)
    pot = 0.0 if potential is None else potential.jets(pos, JetSpace.get(n, 0))[:, 0]
    lag = (0.5 * _quadratic(vel, metric.matrix(pos)) - pot).reshape(curves.shape[:2])
    return simpson(lag.T, 1.0 / steps), V, iters, err, curves


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
    and then on ``steps`` as in :func:`shoot_velocity`, raising alike;
    ``iterations`` and ``endpoint_error`` are those of the solve on
    ``steps``.  The action integral is accumulated with the trapezoid-free
    quadrature of the integrator grid (Simpson on the stored samples).
    """
    X, Y = _one_lane(metric.dim, x=x, y=y)
    values, V, iters, err, curves = _costs(
        metric, potential, X, Y, steps, tol, max_iter,
        None if v_init is None else _one_lane(metric.dim, v_init=v_init)[0])
    return CostResult(
        value=float(values[0]),
        initial_velocity=V[0],
        iterations=int(iters[0]),
        endpoint_error=float(err[0]),
        path=_unpack_path(metric, potential, X[0], V[0], steps, curves[:, 0]),
    )


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
class VariationFamily:
    """Curves with initial velocity t*v + s*w over an (s, t) grid.

    Each field is (steps+1, S, T, n): grid step, then the s and t
    indices, then the coordinate."""

    metric: MetricField
    potential: PotentialField
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    s_values: np.ndarray  # (S,)
    t_values: np.ndarray  # (T,)
    steps: int
    pos: np.ndarray
    vel: np.ndarray
    U: np.ndarray  # transported reference vector
    J: np.ndarray  # two-point variation field
    dJ: np.ndarray  # its covariant time derivative


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
    curves integrated as one batch in s-major lane order."""
    n = metric.dim
    x, u, v, w = as_vectors(n, x=x, u=u, v=v, w=w)
    pot = potential if potential is not None else PotentialField.zero(n)
    s = np.array(s_values, dtype=float)
    t = np.array(t_values, dtype=float)
    V0 = (t[None, :, None] * v + s[:, None, None] * w).reshape(-1, n)
    flow = _checked(_integrate(metric, pot, np.tile(x, (len(V0), 1)), V0, steps,
                               transport=True, variation="full", store=True))
    J, dJ = _two_point_fields(
        metric, pot, flow, np.tile(u, (len(V0), 1)),
        "conjugate point inside a variation family member",
    )
    grid = (steps + 1, len(s), len(t), n)
    curve = flow.curve.reshape(grid[:3] + (2 * n,))
    return VariationFamily(
        metric=metric, potential=pot, x=x, u=u, v=v, w=w, s_values=s, t_values=t,
        steps=steps, pos=curve[..., 0:n], vel=curve[..., n:],
        U=(flow.psi @ u).reshape(grid), J=J.reshape(grid), dJ=dJ.reshape(grid),
    )


class _Diffs:
    """Plain central differences at the center of a 5x5 (s, t) grid of
    one field, F (5, 5, n), at one level."""

    def __init__(self, F: np.ndarray, stride: int, delta: float):
        p, m = 2 + stride, 2 - stride
        c = F[2, 2]
        self.c = c
        self.d_s = (F[p, 2] - F[m, 2]) / (2 * delta)
        self.d_t = (F[2, p] - F[2, m]) / (2 * delta)
        self.d_ss = (F[p, 2] - 2 * c + F[m, 2]) / delta**2
        self.d_tt = (F[2, p] - 2 * c + F[2, m]) / delta**2
        self.d_ts = (F[p, p] - F[p, m] - F[m, p] + F[m, m]) / (4 * delta**2)
        self.d_tss = (
            (F[p, p] - 2 * F[2, p] + F[m, p])
            - (F[p, m] - 2 * F[2, m] + F[m, m])
        ) / (2 * delta**3)


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
    dgam, d2gam, rup = geo.dgamma[0], geo.d2gamma[0], geo.riemann_raised[0]

    def dG(p, q, r):
        return contract(dgam, p, None, q, r)

    def d2G(p1, p2, q, r):
        return contract(d2gam, p1, p2, None, q, r)

    def level(F, Y, which: str, stride: int, delta: float):
        L = _Diffs(F, stride, delta)
        if which == "s":
            return L.d_s
        if which == "t":
            return L.d_t
        P = _Diffs(Y, stride, delta)
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
        return (  # "tss"
            L.d_tss
            + d2G(P.d_s, P.d_s, P.d_t, A0)
            + dG(P.d_ss, P.d_t, A0)
            + 2.0 * dG(P.d_s, P.d_ts, A0)
            + 2.0 * dG(P.d_s, P.d_t, L.d_s)
            + dG(P.d_s, P.d_s, L.d_t)
        )

    def estimate(field: np.ndarray, which: str, k: int) -> np.ndarray:
        """The covariant (s, t)-derivative ``which`` of a family field at
        the grid center and grid step k, Richardson-extrapolated from the
        h and h/2 levels."""
        coarse = level(field[k], fam.pos[k], which, 2, h)
        fine = level(field[k], fam.pos[k], which, 1, h / 2)
        return (4.0 * fine - coarse) / 3.0

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

    for tau, k in zip(taus, grid):
        zero = np.zeros(metric.dim)

        # stationarity of the center curve
        add("center-curve-velocity", tau, fam.vel[k, 2, 2], zero)
        # first t-derivative of the curve follows the linearized modes
        add("curve-first-t", tau, estimate(fam.pos, "t", k),
            E @ (mode_profile(mus, tau) * v_modes))
        # transported frame is rigid to first order in s
        add("transport-first-s", tau, estimate(fam.U, "s", k), zero)

        if pot.is_zero:
            add("transport-second-t", tau, estimate(fam.U, "tt", k), zero)
            add("velocity-mixed-ts", tau, estimate(fam.vel, "ts", k), zero)
            add("velocity-mixed-tss", tau, estimate(fam.vel, "tss", k),
                tau**2 * Rop(v, w, w))
            add("transport-mixed-ts", tau, estimate(fam.U, "ts", k),
                0.5 * tau**2 * Rop(v, w, u))
            add("jacobi-first-s", tau, estimate(fam.J, "s", k), zero)
            add("jacobi-second-t", tau, estimate(fam.J, "tt", k),
                tau * (tau - 1.0) * (tau - 2.0) / 3.0 * Rop(v, u, v))
            add("jacobi-mixed-ts", tau, estimate(fam.J, "ts", k),
                tau * (tau - 1.0) / 3.0
                * ((tau - 2.0) * Rop(w, u, v) - (tau + 1.0) * Rop(v, w, u)))
        else:
            # with a potential the suite covers the flat-chart identities
            add("transport-second-s", tau, estimate(fam.U, "ss", k), zero)

    return checks

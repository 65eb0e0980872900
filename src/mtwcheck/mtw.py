"""Cross-curvature evaluators and the necessary-condition checker.

The central quantity is a fourth-order mixed derivative of the optimal
transport cost induced by a mechanical action: for a base point x,
vectors u, v, w, and the curve family used throughout,

    value(u, v, w) = -(3/2) d^2/dt^2 d^2/ds^2 cost(sigma(t), endpoint(v + s w))

evaluated at s = t = 0, where sigma is the geodesic through x with
velocity u.  Nonnegativity of this quantity over orthogonal (u, w) is a
necessary condition for smoothness of optimal transport maps.

Three independent evaluation routes are provided and cross-checked:

* closed-form tensor contractions of curvature and potential
  derivatives (Taylor coefficients in the v-variable),
* a linearized two-point method: second s-differences of a boundary
  value problem for the variation field (fast, general), and
* brute-force finite differencing of the cost itself (slow oracle).

The two differencing routes share one Richardson second difference
(:func:`_richardson_second`), and the two-point route chooses its RK4
step count per row on a step-doubling ladder (:func:`_jacobi`); its endpoint solve and
the Simpson rule come from :mod:`mtwcheck.dynamics`, and the
checker's Gram-Schmidt from :mod:`mtwcheck.geometry`, so each formula
has one implementation whichever route or condition reads it.

The overall normalization between the action-induced cost and the
closed forms is a single constant, determined empirically by
``calibrate_normalization`` and never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    CalibrationError,
    DimensionError,
    DiscretizationError,
    PreconditionError,
    SamplingError,
)
from .geometry import (
    GeometryBatch,
    MetricField,
    PotentialField,
    as_point,
    as_vectors,
    contract,
    euclidean_metric,
    mode_profile,
    orthonormalize,
    quarter_turn,
    quartic_potential,
    sectional_curvature,
    sphere_metric,
)
from . import dynamics as dyn

DEFAULT_FD_STEP = 1e-2
# The direct-cost route divides cost noise (from shooting and quadrature)
# by h^4; h = 1e-2 would amplify it to O(10), so the oracle runs at a
# coarser step where truncation and noise balance.  A shot cost carries
# its endpoint error to first order, so the stencil's shots converge to
# DIRECT_COST_SHOOT_TOL, below the shooting default of 1e-10, at which the
# route depends on the Newton path by up to 3e-5 relative.
DIRECT_COST_STEP = 1e-1
DIRECT_COST_STEPS = 100
DIRECT_COST_SHOOT_TOL = 1e-12

HESS_TOL = 1e-10
CURVATURE_LOCUS_TOL = 1e-8
ORTHO_TOL = 1e-8
INEQUALITY_SLACK = 1e-9

# Sample points per geometry batch of the region checker (see
# check_a3w_necessary): the chunk bounds the checker's peak memory.
CHECK_CHUNK_POINTS = 128
# Largest sampling plan in points x directions^2, which the checker's
# arrays grow with (about 5 bytes each: 0.5 GB at the bound); the largest
# run, 128^2 points x 32 directions in 2-D, is 16.8 million.
MAX_SAMPLING_SIZE = 10**8


@dataclass
class MtwEvaluation:
    """One cross-curvature evaluation with its numerical metadata."""

    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    method: str
    value: float
    h_s: float | None = None
    h_t: float | None = None
    steps: int | None = None
    error_estimate: float | None = None


# ---------------------------------------------------------------------------
# Route 1: linearized two-point (Jacobi) method
# ---------------------------------------------------------------------------


# The five-point stencil of the jacobi route: velocities v + k h w.
JACOBI_OFFSETS = (-2, -1, 0, 1, 2)

# The jacobi route's step ladder: each rung after the first integrates
# twice the steps of the one before, and a row is accepted at the first
# rung whose step-doubling estimate is at most JACOBI_ACCEPT of its
# Richardson defect (see _jacobi).  A row with v = 0 starts at the first
# rung and any other row at the second: from 10 steps the doubling
# estimate of a curve that moves can read below its error (a conformal
# a = -3 row with |v| = 1.15 accepted (10, 20) at 6.2 times its estimate).
JACOBI_RUNGS = (10, 20, 40, 80, 160, 320, 640)
JACOBI_ACCEPT = 0.25


def _jacobi_stencil(v, w, h) -> np.ndarray:
    dyn._require_step(h, "the finite-difference step h")
    return np.array([v + (k * h) * w for k in JACOBI_OFFSETS])


def _richardson_second(F, h, scale=1.0):
    """Richardson value and defect of scale * F'' at the stencil's center
    from F[..., k] = F((k - 2) h), k = 0..4: the (h, 2h) pair of
    second differences.  ``scale`` multiplies before the division by 3.
    The defect is the error of the plain second difference at h, which
    overstates the error of the extrapolated value."""
    d_h = (F[..., 3] - 2.0 * F[..., 2] + F[..., 1]) / h**2
    d_2h = (F[..., 4] - 2.0 * F[..., 2] + F[..., 0]) / (4.0 * h**2)
    return scale * (4.0 * d_h - d_2h) / 3.0, scale * np.abs(d_h - d_2h) / 3.0


def _jacobi(metric, potential, X, U, V, W, h, steps=None):
    """The jacobi route's values, error estimates and step counts at each
    row b of the (B, n) arrays.  The value is 3/2 the second s-derivative
    of F_b(s) = <U[b], covariant d/dtau J(0)>, J the two-point variation
    field with J(0) = U[b] and J(1) = 0 along the curve from X[b] with
    initial velocity V[b] + s W[b], on the stencil of :func:`_jacobi_stencil`.
    Both vectors of the pairing live at X[b], so it needs no transport.

    The step count is chosen per row on the ladder JACOBI_RUNGS, from
    its first rung for a row with V[b] = 0, whose stencil curves move at
    most 2 h |W[b]|, and from its second for any other: the stencil
    curves of the rows still climbing are one batch per rung.
    At a rung of N steps whose rung before has M, a row whose curves
    succeeded at both extrapolates each stencil point's pairing to
    F_N + (F_N - F_M) / (r^4 - 1), r = N / M, as RK4's error is
    O(N^-4) (Hairer, Nørsett and Wanner, *Solving ODEs I*, §II.4 and
    §II.9), and takes the Richardson value of that; the doubling
    estimate of its error is |D_N - D_M| / (r^4 - 1), D the Richardson
    value of the pairings at one step count.  The row is accepted with
    N steps and the error estimate defect + doubling estimate once the
    doubling estimate is at most JACOBI_ACCEPT of the defect, and at the
    last rung whatever it reads.  A curve failure below the last rung
    makes its row climb; a row not accepted at the last rung raises its
    failure there, else the one at the rung before.  A singular endpoint
    block raises at once, and so does a start point outside the region,
    which no step count moves, after the row's first rung.  An explicit
    ``steps``, an integer of at least 2, is the single pair
    (steps // 2, steps) for every row.  Each row's
    results are the ones it has alone.
    """
    B, n = X.shape
    if steps is None:
        rungs = JACOBI_RUNGS
        first = V.any(axis=1).astype(int)  # each row's first rung
    else:
        dyn._require_steps(steps, least=2)
        rungs = (steps // 2, steps)
        first = np.zeros(B, dtype=int)
    k = len(JACOBI_OFFSETS)
    stencils = np.stack([_jacobi_stencil(v, w, h) for v, w in zip(V, W)])
    value, error, taken = np.empty(B), np.empty(B), np.zeros(B, dtype=int)
    F = np.empty((B, k))  # each row's pairings at the rung before
    ok = np.zeros(B, dtype=bool)  # the rows whose curves succeeded there
    failed = {}  # the failures there, by lane b * k + j of row b
    for i, N in enumerate(rungs):
        rows = np.flatnonzero((first <= i) & (taken == 0))  # the rows climbing
        if not len(rows):
            continue
        flow = dyn._integrate(metric, potential, np.repeat(X[rows], k, axis=0),
                              stencils[rows].reshape(-1, n), N, variation="full")
        fails = {rows[b // k] * k + b % k: f for b, f in flow.failed.items()}
        lost = np.zeros(len(rows), dtype=bool)
        lost[[b // k for b in flow.failed]] = True
        good = rows[~lost]
        if len(good):
            P0 = dyn._endpoint_solve(
                flow.phi[-1][np.repeat(~lost, k)], np.repeat(U[good], k, axis=0),
                "conjugate point while evaluating the two-point variation pairing")
            gU = metric.matrix(X[good]) @ U[good][:, :, None]
            F_N = (P0.reshape(-1, k, 1, n) @ gU[:, None])[..., 0, 0]
            both = ok[good]  # the rows whose curves succeeded at the rung before too
            if both.any():
                fn, fm = F_N[both], F[good[both]]
                div = (N / rungs[i - 1]) ** 4 - 1.0
                d, defect = _richardson_second(fn + (fn - fm) / div, h, 1.5)
                est = np.abs(_richardson_second(fn, h, 1.5)[0]
                             - _richardson_second(fm, h, 1.5)[0]) / div
                take = (est <= JACOBI_ACCEPT * defect) | (N == rungs[-1])
                done = good[both][take]
                value[done], error[done], taken[done] = d[take], (defect + est)[take], N
            F[good] = F_N
        ok[rows] = False
        ok[good] = True
        if taken.all():
            return value, error, taken
        dyn._raise_first({b: f for b, f in fails.items() if f[0] == (0, 0)})
        failed, before = fails, failed
    # every row left failed at the last rung or at the one before
    for at in (failed, before):
        dyn._raise_first({b: f for b, f in at.items() if not taken[b // k]})


def mtw_jacobi(
    metric: MetricField,
    potential: PotentialField | None,
    x: Sequence[float],
    u: Sequence[float],
    v: Sequence[float],
    w: Sequence[float],
    h: float = DEFAULT_FD_STEP,
    steps: int | None = None,
) -> MtwEvaluation:
    """Cross-curvature via second s-differences of the two-point pairing.

    Evaluates F(s) = <u, d/dtau J(0)> along curves with initial velocity
    v + s w on the five-point stencil {-2h, -h, 0, h, 2h}, each F
    extrapolated over a step-doubling pair, applies the (h, 2h)
    Richardson pair to F'' and scales by 3/2.  The step count climbs
    the ladder JACOBI_RUNGS until the doubling estimate is at most
    JACOBI_ACCEPT of the Richardson defect; an explicit ``steps`` (an
    integer of at least 2) pins the pair (steps // 2, steps).  The
    reported ``steps`` is the accepted count and the error estimate the
    Richardson defect plus the doubling estimate (see :func:`_jacobi`).
    """
    x, u, v, w = as_vectors(metric.dim, x=x, u=u, v=v, w=w)
    value, err, taken = _jacobi(metric, potential, x[None], u[None], v[None], w[None],
                                h, steps)
    return MtwEvaluation(
        x=x, u=u, v=v, w=w, method="jacobi", value=float(value[0]),
        h_s=h, steps=int(taken[0]), error_estimate=float(err[0]),
    )


# ---------------------------------------------------------------------------
# Route 2: direct cost differencing (slow oracle)
# ---------------------------------------------------------------------------


def mtw_direct_cost(
    metric: MetricField,
    potential: PotentialField | None,
    x: Sequence[float],
    u: Sequence[float],
    v: Sequence[float],
    w: Sequence[float],
    h_s: float = DIRECT_COST_STEP,
    h_t: float = DIRECT_COST_STEP,
    steps: int = DIRECT_COST_STEPS,
) -> MtwEvaluation:
    """Cross-curvature by fourth mixed differencing of the cost itself.

    sigma(t) is the metric geodesic through x with velocity u (the
    potential does not move the first argument); the second argument is
    the action endpoint of v + s w.  A 5x5 stencil with Richardson
    pairs in both directions gives the mixed fourth derivative.
    """
    x, u, v, w = as_vectors(metric.dim, x=x, u=u, v=v, w=w)
    stencil = _jacobi_stencil(v, w, h_s)  # checks h_s before any integration
    dyn._require_step(h_t, "the finite-difference step h")
    starts = np.tile(x, (5, 1))
    sigma = dyn._endpoints(metric, None, starts,
                           np.array([(i * h_t) * u for i in JACOBI_OFFSETS]), steps)
    targets = dyn._endpoints(metric, potential, starts, stencil, steps)
    # C[a, b] = cost(sigma[a], targets[b]): all 25 shot as one batch
    C = dyn._costs(metric, potential, np.repeat(sigma, 5, axis=0), np.tile(targets, (5, 1)),
                   steps=steps, tol=DIRECT_COST_SHOOT_TOL)[0].reshape(5, 5)

    # s-direction first (per t-offset), then t-direction of the results
    d4, defect = _richardson_second(_richardson_second(C, h_s)[0], h_t)
    value = -1.5 * d4
    return MtwEvaluation(
        x=x, u=u, v=v, w=w, method="direct-cost", value=value,
        h_s=h_s, h_t=h_t, steps=steps, error_estimate=1.5 * defect,
    )


# ---------------------------------------------------------------------------
# Closed-form routes
# ---------------------------------------------------------------------------
#
# Each formula below is written once, over a GeometryBatch and vectors
# whose leading axes are batch axes, points first (geometry.contract):
# the checker runs it over (point, pair, direction), the one-point API
# on a batch of one.  Every operation is elementwise, or a matmul whose
# stack holds the batch axes, so a sample's value does not depend on
# its batch.  CONDITIONS holds the five conditions for both.


def _active_potential(potential: PotentialField | None) -> PotentialField | None:
    """The potential, or None when it is absent or identically zero."""
    return None if potential is None or potential.is_zero else potential


def _against(geo: GeometryBatch, *vecs) -> GeometryBatch:
    """``geo`` with a unit axis for each batch axis that the vectors
    (None for one not given) carry after the point axis."""
    return geo.expand(max(np.ndim(a) for a in vecs if a is not None) - 2)


def _require(holds, message: str, values) -> None:
    """Raise :class:`PreconditionError` with ``message`` formatted with
    the entry of ``values`` at the first sample where ``holds`` fails."""
    bad = ~np.asarray(holds)
    if np.any(bad):
        raise PreconditionError(
            message.format(np.broadcast_to(values, bad.shape)[bad].flat[0]))


def mtw_zeroth_simplified(
    metric: MetricField,
    potential: PotentialField | None,
    x: Sequence[float],
    u: Sequence[float],
    w: Sequence[float],
) -> float:
    """Closed-form value at v = 0 for a flat-Hessian critical point:

        <R(w, u) w, u> + (1/20) grad^4 V(w, w, u, u).

    Requires both the gradient and the Hessian of the potential to
    vanish at x (use the general evaluator otherwise).
    """
    u, w = as_vectors(metric.dim, u=u, w=w)
    geo = GeometryBatch(metric, as_point(x)[None], _active_potential(potential),
                        curvature_order=0)
    return float(_zeroth_simplified(geo, u[None], w[None])[0])


def _zeroth_simplified(geo: GeometryBatch, U, W) -> np.ndarray:
    """:func:`mtw_zeroth_simplified` at each point b of an order-0 ``geo``
    against U[b] and W[b], raising at the first point that fails."""
    value = contract(geo.riemann, W, U, W, U)
    if geo.hess_v is not None:
        geo.hessian_modes("the simplified zeroth-order evaluator")
        hnorm = np.max(np.abs(geo.hess_v), axis=(-2, -1))
        _require(~(hnorm > HESS_TOL), "the simplified zeroth-order evaluator requires "
                 "a vanishing potential Hessian (max |Hess V| = {:.3e})", hnorm)
        value = value + contract(geo.nabla4_v, W, W, U, U) / 20.0
    return value


def _cumulative_integral(G: np.ndarray, h: float) -> np.ndarray:
    """Prefix integral of samples on a uniform grid, O(h^4) accurate.

    Even nodes take composite Simpson panels, summed in node order;
    odd nodes add the half-panel rule through the next node.
    """
    P = np.zeros_like(G)
    panels = (h / 3.0) * (G[:-2:2] + 4.0 * G[1:-1:2] + G[2::2])
    P[::2] = np.cumsum(np.concatenate([P[:1], panels]), axis=0)
    P[1::2] = P[:-1:2] + (h / 12.0) * (5.0 * G[:-1:2] + 8.0 * G[1::2] - G[2::2])
    return P


def mtw_zeroth_general(
    metric: MetricField,
    potential: PotentialField | None,
    x: Sequence[float],
    u: Sequence[float],
    w: Sequence[float],
    quad_panels: int = 1024,
) -> float:
    """Closed-form value at v = 0 for a potential maximum.

    The two-point analysis reduces the value to a double time integral
    of curvature/potential contractions along mode profiles built from
    the eigendecomposition of the Hessian operator at x: for eigenvalue
    -mu^2 <= 0 the outgoing profile is sinh(mu t)/mu (t at mu = 0) and
    the returning profile is sinh(mu (1-t))/sinh(mu) (1-t at mu = 0).
    The inner integral is eliminated exactly (the integrand depends on
    one time variable), leaving int_0^1 (1-t) F(t) dt under composite
    Simpson quadrature with ``quad_panels`` subintervals; the running
    prefix integral in the middle term is accumulated at fourth order.
    Reduces to the simplified evaluator when the Hessian vanishes.
    """
    if quad_panels % 2 != 0 or quad_panels < 2:
        raise DiscretizationError(
            f"quad_panels must be an even integer of at least 2, got {quad_panels}")
    u, w = as_vectors(metric.dim, u=u, w=w)
    geo = GeometryBatch(metric, as_point(x)[None], _active_potential(potential),
                        curvature_order=0)
    return float(_zeroth_general(geo, u[None], w[None], quad_panels, strict=True)[0])


# Elements of the general zeroth-order evaluator's largest temporary,
# (quadrature nodes, points, pairs, n, n): it takes the maxima in slices
# of as many points as fit (at least one), so its memory does not grow
# with their number.  Larger slices measured no faster.
ZEROTH_SLICE_ELEMENTS = 2 ** 16


def _zeroth_general(geo: GeometryBatch, u, w, quad_panels: int = 1024,
                    strict: bool = False) -> np.ndarray:
    """The general zeroth-order value of the pairs (u, w) at every point
    that :meth:`~mtwcheck.geometry.GeometryBatch.hessian_modes` masks
    ok, 0 at the others, or with ``strict`` raising at them; ``u`` and
    ``w`` have the point axis first and may carry a pair axis."""
    mus, E, ok = geo.hessian_modes(
        "the general zeroth-order evaluator" if strict else None)
    u, w = np.broadcast_arrays(u, w)
    shape, n = u.shape[:-1], geo.dim
    u, w = u.reshape(len(u), -1, n), w.reshape(len(w), -1, n)
    out = np.zeros(u.shape[:2])
    tau = np.linspace(0.0, 1.0, quad_panels + 1)
    hq = 1.0 / quad_panels
    Eg = np.swapaxes(E, -1, -2) @ geo.g
    # batch axes (grid, point, pair); per-mode profiles are (grid, point,
    # 1, modes), and without a potential every mu is 0 and they are tau,
    # 1 and 1 - tau
    T = tau[:, None, None, None]
    maxima = np.flatnonzero(ok)
    step = max(1, ZEROTH_SLICE_ELEMENTS // (tau.size * u.shape[1] * n * n))
    for start in range(0, maxima.size, step):
        b = maxima[start: start + step]

        def lift(a):
            return a[b][None, :, None]

        m, ub, wb = lift(mus), u[b][None], w[b][None]
        cw = contract(lift(Eg), wb)
        cu = contract(lift(Eg), ub)
        El = lift(E)
        wbar = contract(El, mode_profile(m, T) * cw)
        dwbar = contract(El, np.cosh(m * T) * cw)
        ut = contract(El, mode_profile(m, 1.0 - T) / mode_profile(m, 1.0) * cu)

        F = 2.0 * contract(lift(geo.riemann), dwbar, ut, dwbar, ub)
        if geo.hess_v is not None:
            Gpref = contract(lift(geo.riemann_raised), dwbar, wbar, ub)
            P = _cumulative_integral(Gpref, hq)
            F = F + contract(lift(geo.hess_v), ut, P)
            F = F + contract(lift(geo.nabla4_v), wbar, wbar, ut, ub)
        rows = ((1.0 - tau)[:, None, None] * F).reshape(tau.size, -1).T
        out[b] = 1.5 * dyn.simpson(rows, hq).reshape(F.shape[1:])
    return out.reshape(shape)


def mtw_first(
    metric: MetricField,
    x: Sequence[float],
    u: Sequence[float],
    v: Sequence[float],
    w: Sequence[float],
) -> float:
    """First Taylor coefficient in the v-variable (pure metric case):

        (1/2) <(grad_w R)(w, u) v, u> + (1/4) <(grad_v R)(w, u) w, u>.
    """
    u, v, w = as_vectors(metric.dim, u=u, v=v, w=w)
    N = GeometryBatch(metric, as_point(x)[None], curvature_order=1).nabla_r[0]
    return (0.5 * float(contract(N, w, w, u, v, u))
            + 0.25 * float(contract(N, v, w, u, w, u)))


def _first_order_magnitude(geo, u, v, w, curvature_tol=None) -> np.ndarray:
    """|<(grad_w R)(w, u) v, u>|; the pair's slots are contracted before v."""
    N = _against(geo, u, v, w).nabla_r
    return np.abs(contract(contract(N, w, w, u, None, u), v))


def _gram(g: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^T g B for matrices whose columns are vectors, batch axes leading:
    the bilinear form <A v, B v'> in (v, v').

    Two product-sums over whole matrices, each in :func:`contract`'s
    order: (gB)[j, m] = sum_k g[m, k] B[k, j], then the entry (i, j) is
    sum_m (gB)[j, m] A[m, i]."""
    gB = contract(g[..., None, :, :], B.swapaxes(-1, -2))
    return contract(gB[..., None, :, :], A.swapaxes(-1, -2))


def _second_order_form(geo, u, w, *, full: bool) -> np.ndarray:
    """Matrix Q of the second v-coefficient as a quadratic form in v:
    the coefficient at v is ``contract(Q, v, v)``.

    ``full=True`` sums all eight lines of the second coefficient;
    ``full=False`` drops the two lines that vanish identically under
    the restricted variant's hypotheses (zero-curvature orthogonal
    planes force R(w,u)w = R(u,w)u = 0).  Each line is contracted with
    the pair (u, w), leaving its two v slots open.  Lines that start
    with the same slots share those contractions, which :func:`contract`
    runs last slot first: every line keeps its own order.
    """
    geo = _against(geo, u, w)
    N2, Rup, g = geo.nabla2_r, geo.riemann_raised, geo.g

    def cross(y, T):
        """<y, R(v, a) v> as a form, T the R(., a, .) slots (l, i, k)."""
        return contract(T, contract(g, y), None, None)

    # R(v, u) u, R(v, w) w, R(w, u) v, R(v, u) w and R(v, w) u as
    # matrices acting on v
    Ru, Rw = contract(Rup, u), contract(Rup, w)
    vuu = contract(Ru, None, u)
    vww = contract(Rw, None, w)
    wuv = contract(Rup, w, u, None)
    vuw = contract(Rw, None, u)
    vwu = contract(Ru, None, w)

    # N2 with slot 6, then slot 4, contracted with u
    N2u = contract(N2, u)
    N2uu = contract(N2u, u, None)
    Q = contract(N2uu, w, w, None, None) / 10.0
    Q = Q - _gram(g, vuu, vww) / 5.0
    if full:
        Q = Q + 4.0 / 15.0 * cross(contract(vuw, w), contract(Rup, None, u, None))
    Q = Q + 2.0 / 5.0 * contract(N2uu, None, w, w, None)
    Q = Q + contract(N2u, None, None, w, u, w) / 10.0
    if full:
        Q = Q - cross(contract(vuu, w), contract(Rup, None, w, None)) / 5.0
    Q = Q + 4.0 / 15.0 * (_gram(g, wuv, wuv) + _gram(g, vuw, wuv))
    Q = Q + (_gram(g, wuv, vwu) + _gram(g, vuw, vwu)) / 3.0
    return Q


def mtw_second(
    metric: MetricField,
    x: Sequence[float],
    u: Sequence[float],
    v: Sequence[float],
    w: Sequence[float],
) -> float:
    """Second Taylor coefficient in the v-variable (pure metric case)."""
    u, v, w = (a[None] for a in as_vectors(metric.dim, u=u, v=v, w=w))
    geo = GeometryBatch(metric, as_point(x)[None], curvature_order=2)
    return float(contract(_second_order_form(geo, u, w, full=True), v, v)[0])


def g_quantity(
    metric: MetricField,
    x: Sequence[float],
    u: Sequence[float],
    v: Sequence[float],
    w: Sequence[float],
    curvature_tol: float = CURVATURE_LOCUS_TOL,
) -> float:
    """Restricted second-order quantity whose nonnegativity is necessary.

    Defined for metric-orthogonal u, w spanning a plane of zero
    sectional curvature; under those hypotheses two curvature-square
    lines of the full second coefficient vanish and the remaining six
    lines form this quantity.
    """
    return evaluate_condition(metric, None, "g-nonneg", x, u, v, w, curvature_tol)


def _orthogonal(geo, u, w) -> np.ndarray:
    """Where <u, w> is negligible against |u| |w|."""
    uw = contract(geo.g, u, w)
    norms = np.sqrt(contract(geo.g, u, u)) * np.sqrt(contract(geo.g, w, w))
    return np.abs(uw) <= ORTHO_TOL * norms


def _g_value(geo, u, v, w, curvature_tol=None) -> np.ndarray:
    """The restricted second-order quantity at v of the pairs (u, w).

    Given ``curvature_tol``, raise unless every pair meets the
    quantity's hypotheses: u, w metric-orthogonal and spanning a plane
    of curvature at most ``curvature_tol``.
    """
    if curvature_tol is not None:
        pairs = _against(geo, u, w)
        _require(_orthogonal(pairs, u, w), "the restricted second-order "
                 "quantity needs <u, w> = 0 (got {:.3e})", contract(pairs.g, u, w))
        K = _sectional(geo, u, None, w, curvature_tol)
        _require(np.abs(K) <= curvature_tol, "the restricted second-order "
                 "quantity needs a zero-curvature plane (sectional = {:.3e}, "
                 f"tolerance {curvature_tol:.1e})", K)
    return contract(_second_order_form(geo, u, w, full=False), v, v)


def first_order_vanishing(
    metric: MetricField,
    x: Sequence[float],
    u: Sequence[float],
    w: Sequence[float],
) -> float:
    """Max over basis directions v of |<(grad_w R)(w, u) v, u>|.

    The contraction is linear in v, so the canonical basis bounds all
    directions up to a constant.
    """
    u, w = as_vectors(metric.dim, u=u, w=w)
    geo = GeometryBatch(metric, as_point(x)[None], curvature_order=1)
    return float(np.max(_first_order_magnitude(
        geo, u[None, None], np.eye(metric.dim)[None], w[None, None])))


@dataclass
class DiscriminantResult:
    """Two-dimensional discriminant comparison at a flat point."""

    lhs: float
    rhs: float
    satisfied: bool
    u: np.ndarray
    w: np.ndarray


def discriminant_2d(
    metric: MetricField,
    x: Sequence[float],
    u: Sequence[float],
    curvature_tol: float = CURVATURE_LOCUS_TOL,
) -> DiscriminantResult:
    """Necessary discriminant inequality in dimension two:

        3 <(grad_w grad_u R)(w,u)w,u>^2
            <= 2 <(grad_w^2 R)(w,u)w,u> <(grad_u^2 R)(w,u)w,u>

    with w the metric rotation of u by 90 degrees, at a point of
    vanishing Gauss curvature.  Mixed covariant derivatives of the
    curvature commute in the first two slots at such points, so the
    derivative order in the cross term is immaterial.
    """
    if metric.dim != 2:
        raise DimensionError("the discriminant check is specific to dimension 2")
    (u,) = as_vectors(2, u=u)
    geo = GeometryBatch(metric, as_point(x)[None], curvature_order=2)
    w, lhs, rhs = _discriminant_sides(geo, u[None], curvature_tol)
    lhs, rhs = float(lhs[0]), float(rhs[0])
    return DiscriminantResult(
        lhs=lhs, rhs=rhs, satisfied=bool(lhs <= rhs + INEQUALITY_SLACK),
        u=u, w=w[0],
    )


def _discriminant_sides(geo, u, curvature_tol=None):
    """(w, lhs, rhs) of the discriminant inequality for 2-vectors u, w
    their quarter turns; given ``curvature_tol``, raise unless every
    span(u, w) has curvature at most ``curvature_tol``."""
    at = _against(geo, u)
    w = quarter_turn(at.g, u)
    if curvature_tol is not None:
        K = _sectional(geo, u, None, w, curvature_tol)
        _require(np.abs(K) <= curvature_tol, "the discriminant check needs "
                 "zero curvature at x (sectional = {:.3e})", K)
    N2 = at.nabla2_r
    mixed = contract(N2, w, u, w, u, w, u)
    lhs = 3.0 * (mixed * mixed)
    rhs = 2.0 * contract(N2, w, w, w, u, w, u) * contract(N2, u, u, w, u, w, u)
    return w, lhs, rhs


def _sectional(geo, u, v, w, curvature_tol=None) -> np.ndarray:
    """Sectional curvature of span(u, w); given ``curvature_tol``, a
    degenerate plane raises, else it gets a meaningless value."""
    pairs = _against(geo, u, w)
    return sectional_curvature(pairs.g, pairs.riemann, u, w,
                               where=curvature_tol is not None)


def _zeroth_order(geo, u, v, w, curvature_tol=None) -> np.ndarray:
    """<R(w, u) w, u> without a potential; with one, the general
    evaluator (strict given ``curvature_tol``)."""
    if geo.hess_v is None:
        return contract(_against(geo, u, w).riemann, w, u, w, u)
    return _zeroth_general(geo, u, w, strict=curvature_tol is not None)


class _Condition(NamedTuple):
    """One necessary condition as a batch formula: ``value(geo, u, v, w,
    curvature_tol=None)``, its scalar at every sample (vectors not read
    may be None), on geometry built at curvature order ``order``.  Given
    ``curvature_tol`` it raises unless the condition's hypotheses hold
    at every sample; the checker calls it without and masks them, with
    tolerances relative to the sample."""

    value: Callable
    reads: str  # the vectors the condition reads, of "uvw"
    order: int  # the curvature order of the geometry it is evaluated on
    dim: int | None = None  # the only dimension it is defined in


# The conditions the checker reports, in report order.  Those of order 1
# read at most nabla R and run at every sample; those of order 2 read
# nabla^2 R and are stated only on the zero-curvature locus.
CONDITIONS = {
    "sectional-nonneg": _Condition(_sectional, "uw", 1),
    "zeroth-order": _Condition(_zeroth_order, "uw", 1),
    "first-order-vanishing": _Condition(_first_order_magnitude, "uvw", 1),
    "g-nonneg": _Condition(_g_value, "uvw", 2),
    "discriminant-2d": _Condition(
        lambda geo, u, v, w, curvature_tol=None:  # lhs - rhs
        np.subtract(*_discriminant_sides(geo, u, curvature_tol)[1:]), "u", 2, dim=2),
}


def evaluate_condition(
    metric: MetricField,
    potential: PotentialField | None,
    condition: str,
    point: Sequence[float],
    u: Sequence[float] | None = None,
    v: Sequence[float] | None = None,
    w: Sequence[float] | None = None,
    curvature_tol: float = CURVATURE_LOCUS_TOL,
) -> float:
    """Re-evaluate the scalar behind a checker witness: the checker's
    formula, from :data:`CONDITIONS`, on the point's geometry as a batch
    of one at the row's curvature order, so a reported witness
    reproduces its value exactly.

    Before any geometry is built, an unknown condition or a missing
    vector the condition reads raises ValueError, and a vector of the
    wrong length or a metric outside the condition's dimension
    :class:`DimensionError`; then the condition's hypotheses are checked.
    """
    row = CONDITIONS.get(condition)
    if row is None:
        raise ValueError(
            f"unknown condition {condition!r}; expected one of {list(CONDITIONS)}")
    if row.dim is not None and metric.dim != row.dim:
        raise DimensionError(
            f"condition {condition!r} is defined in dimension {row.dim} only, "
            f"not {metric.dim}")
    given = {"u": u, "v": v, "w": w}
    for name in row.reads:
        if given[name] is None:
            raise ValueError(f"condition {condition!r} reads vector {name}, "
                             "which was not given")
    vecs = dict(zip(row.reads, as_vectors(
        metric.dim, **{name: given[name] for name in row.reads})))
    geo = GeometryBatch(metric, as_point(point)[None], _active_potential(potential),
                        curvature_order=row.order)
    return float(row.value(geo, *(vecs[k][None] if k in vecs else None for k in "uvw"),
                           curvature_tol)[0])


@dataclass
class QuarticCheck:
    """Flat-space quartic-potential test of the zeroth-order condition."""

    mtw_value: float
    condition_value: float
    violates: bool


def quartic_potential_check(
    A: np.ndarray, u: Sequence[float], w: Sequence[float]
) -> QuarticCheck:
    """Zeroth-order value for V = -<Ax, x>^2 on flat space at the origin.

    For symmetric A the closed form gives
        mtw_value = -(2/5) [ <Aw,w><Au,u> + 2 <Au,w>^2 ],
    so the sign test is equivalent to (2<Au,w>)^2 + 2<Au,u><Aw,w> > 0,
    which is returned alongside for cross-checking.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError("quartic coefficient matrix must be square")
    if not np.allclose(A, A.T, atol=1e-12):
        raise PreconditionError(
            "quartic coefficient matrix must be symmetric for the sign "
            "equivalence to hold"
        )
    n = A.shape[0]
    u = as_point(u)
    w = as_point(w)
    metric = euclidean_metric(n)
    V = quartic_potential(A)
    value = mtw_zeroth_simplified(metric, V, np.zeros(n), u, w)
    cond = (2.0 * float(u @ A @ w)) ** 2 + 2.0 * float(u @ A @ u) * float(w @ A @ w)
    return QuarticCheck(
        mtw_value=value, condition_value=cond, violates=bool(value < 0.0)
    )


# ---------------------------------------------------------------------------
# Calibration between the action-induced cost and the closed forms
# ---------------------------------------------------------------------------

KAPPA_CANDIDATES = (0.5, 1.0, 2.0)
CALIBRATION_SPREAD_TOL = 1e-3


@dataclass
class CalibrationCase:
    """One oracle case: a two-point evaluation vs. its closed form."""

    label: str
    jacobi_value: float
    closed_value: float
    steps: int | None = None  # the jacobi route's accepted step count


@dataclass
class CalibrationResult:
    kappa: float
    fitted: float
    cases: list
    spread: float


def fit_kappa(cases: Sequence[CalibrationCase]) -> CalibrationResult:
    """Fit the single normalization constant from oracle pairs.

    Least-squares over all cases with a nonzero closed value, snapped
    to the nearest candidate in {1/2, 1, 2} by residual; raises if any
    per-case ratio deviates from the fit by more than 0.1% relative.
    """
    active = [c for c in cases if abs(c.closed_value) > 1e-6]
    if not active:
        raise CalibrationError("no calibration case constrains the constant")
    jac = np.array([c.jacobi_value for c in active])
    clo = np.array([c.closed_value for c in active])
    fitted = float(jac @ clo / (clo @ clo))
    resid = [float(np.sum((jac - k * clo) ** 2)) for k in KAPPA_CANDIDATES]
    kappa = KAPPA_CANDIDATES[int(np.argmin(resid))]
    ratios = jac / clo
    spread = float(np.max(np.abs(ratios - kappa)) / abs(kappa))
    if spread > CALIBRATION_SPREAD_TOL:
        raise CalibrationError(
            f"calibration cases disagree: worst relative deviation {spread:.3e} "
            f"from kappa = {kappa} (ratios {ratios.tolist()})"
        )
    return CalibrationResult(kappa=kappa, fitted=fitted, cases=list(cases),
                             spread=spread)


def _default_calibration_inputs():
    sph = sphere_metric()
    eq = np.array([np.pi / 2, 0.0])
    eq2 = np.array([np.pi / 2, 0.4])
    flat2 = euclidean_metric(2)
    vq1 = quartic_potential(np.eye(2))
    vq2 = quartic_potential(np.diag([1.0, -1.0]))
    z2 = np.zeros(2)
    return [
        ("sphere-orthonormal", sph, None, eq,
         np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        ("sphere-oblique", sph, None, eq,
         np.array([1.0, 0.0]), np.array([0.4, 0.9])),
        ("sphere-offset", sph, None, eq2,
         np.array([0.8, 0.2]), np.array([-0.3, 1.1])),
        ("flat-quartic-definite", flat2, vq1, z2,
         np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        ("flat-quartic-indefinite", flat2, vq2, z2,
         np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        ("flat-null", flat2, None, z2,
         np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    ]


def calibrate_normalization(
    cases: Sequence[CalibrationCase] | None = None,
    h: float = DEFAULT_FD_STEP,
    steps: int | None = None,
) -> CalibrationResult:
    """Determine the normalization constant from the built-in oracles.

    Runs the two-point method at v = 0 against the closed-form values
    on spheres and flat quartic-potential cases, each case on the jacobi
    route's step ladder, or on the pair (steps // 2, steps) when
    ``steps`` is given, and keeps its accepted step count.  Pre-built
    cases can be injected for testing the failure path.
    """
    if cases is None:
        inputs = _default_calibration_inputs()
        # the cases sharing a (metric, potential) run as one batch of
        # lanes and one geometry batch; each keeps the values
        # mtw_jacobi and mtw_zeroth_simplified give it alone
        groups: dict = {}
        for case in inputs:
            groups.setdefault((id(case[1]), id(case[2])), []).append(case)
        found = {}
        for group in groups.values():
            _, metric, pot, *_ = group[0]
            X, U, W = (np.array([c[i] for c in group]) for i in (3, 4, 5))
            values, _, taken = _jacobi(metric, pot, X, U, np.zeros_like(X), W, h, steps)
            closed = _zeroth_simplified(GeometryBatch(metric, X, _active_potential(pot),
                                                      curvature_order=0), U, W)
            for case, value, close, count in zip(group, values, closed, taken):
                found[case[0]] = float(value), float(close), int(count)
        cases = [CalibrationCase(label, *found[label]) for label, *_ in inputs]
    return fit_kappa(cases)


# ---------------------------------------------------------------------------
# Sampling-based necessary-condition checker
# ---------------------------------------------------------------------------


@dataclass
class SamplingSpec:
    """Deterministic sampling plan for the region checker.

    ``directions`` below the dimension is raised to it (the coordinate
    axes are always sampled); below 1, like ``points_per_axis`` below 1
    or a negative ``seed``, it raises :class:`SamplingError`, and
    :meth:`direction_set` raises :class:`DimensionError` in dimension 1.
    A plan above MAX_SAMPLING_SIZE raises before it forms any array.
    """

    box: tuple  # ((lo, hi), ...) per axis
    points_per_axis: int = 8
    directions: int = 16
    seed: int = 42

    def __post_init__(self):
        for name in ("points_per_axis", "directions"):
            value = getattr(self, name)
            if value < 1:
                raise SamplingError(f"{name} must be at least 1, got {value}")
        if self.seed < 0:
            raise SamplingError(f"seed must be non-negative, got {self.seed}")
        dim, D = len(self.box), max(self.directions, len(self.box))
        size = (self.points_per_axis ** dim + 1) * D**2  # + 1: the box centre
        if size > MAX_SAMPLING_SIZE:
            raise SamplingError(f"{self.points_per_axis}^{dim} points x {D}^2 directions is "
                                f"{size:.2e}, more than {MAX_SAMPLING_SIZE:.0e}")

    def points(self) -> np.ndarray:
        axes = [np.linspace(lo, hi, self.points_per_axis) for lo, hi in self.box]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        center = np.array([(lo + hi) / 2.0 for lo, hi in self.box])
        if not np.any(np.all(np.abs(pts - center) < 1e-12, axis=1)):
            pts = np.vstack([pts, center])
        return pts

    def direction_set(self, dim: int) -> np.ndarray:
        if dim < 2:
            raise DimensionError(
                f"sampled 2-planes need dimension at least 2, got {dim}")
        rng = np.random.default_rng(self.seed)
        dirs = [np.eye(dim)[i] for i in range(dim)]
        while len(dirs) < self.directions:
            d = rng.normal(size=dim)
            nrm = np.linalg.norm(d)
            if nrm > 1e-6:
                dirs.append(d / nrm)
        return np.array(dirs[: max(self.directions, dim)])


@dataclass
class Witness:
    """A re-evaluable extreme case found by the checker."""

    condition: str
    point: np.ndarray
    u: np.ndarray | None
    v: np.ndarray | None
    w: np.ndarray | None
    value: float


@dataclass
class ConditionVerdict:
    """One condition's verdict: ``passed`` holds when no sample violates
    it, vacuously when it was ``evaluated`` at no sample."""

    name: str
    evaluated: int
    passed: bool
    threshold: float
    worst: Witness | None


@dataclass
class CheckReport:
    """The verdicts; ``overall_pass`` holds when every condition passed at
    some sample, so a vacuous verdict does not count as a pass."""

    sampling: SamplingSpec
    conditions: list
    overall_pass: bool


def _worker_count() -> int:
    """Threads the checker computes on: it runs on the calling thread.

    Kept only for the benchmark's provenance line, which reads it; the
    benchmark change of ROADMAP item 5 stops reading it and deletes it.
    """
    return 1


def _orthonormal_pairs(geo, directions: np.ndarray):
    """Metric-orthonormal (u, w) pairs at every point of a batch, from
    consecutive raw directions (i, i + 1 mod m) by
    :func:`~mtwcheck.geometry.orthonormalize`.

    Returns U and W of shape (B, m, n) and the mask ``ok`` of shape
    (B, m), False where a pair is numerically dependent; such a pair
    holds meaningless finite vectors and is dropped by every condition.
    """
    directions = np.asarray(directions, dtype=float)
    n = geo.g.shape[-1]
    if directions.ndim != 2 or directions.shape[1] != n:
        raise ValueError(
            f"directions of shape {directions.shape} do not match dimension {n}"
        )
    # the pair axis after the point axis
    (u, w), ok = orthonormalize(
        geo.g[:, None], [directions[None], np.roll(directions, -1, axis=0)[None]])
    return u, w, ok


def _chunks(count: int):
    """Slices of ``count`` sample points (or indices of them) in
    consecutive chunks of CHECK_CHUNK_POINTS."""
    for start in range(0, count, CHECK_CHUNK_POINTS):
        yield slice(start, start + CHECK_CHUNK_POINTS)


@dataclass
class _Scan:
    """What the checker's first pass keeps of a chunk of sample points:
    the conditions of curvature order 1 and what places the
    zero-curvature locus (:func:`_locus_masks`), per point, per pair
    (reduced over the v-directions) and, in dimension 2, per
    discriminant direction.  Every field has the point axis first."""

    x: np.ndarray  # (B, n)
    U: np.ndarray  # (B, P, n) pair vectors
    W: np.ndarray
    ok: np.ndarray  # (B, P) pair is independent
    K: np.ndarray  # (B, P) sectional curvature
    grad: np.ndarray  # (B,) |grad V|
    zeroth_ok: np.ndarray  # (B,) the zeroth-order evaluator's preconditions hold
    zeroth: np.ndarray  # (B, P)
    fo_max: np.ndarray  # (B, P) largest first-order magnitude over v
    fo_arg: np.ndarray  # (B, P) its first v index
    ortho: np.ndarray  # (B, P) the pair passes the g-nonneg orthogonality test
    disc_K: np.ndarray | None  # (B, D) curvature of (v, quarter turn of v)
    disc_w: np.ndarray | None  # (B, D, 2) the quarter turns


def _locus_masks(k_scale: float, K, ok, ortho, disc_K):
    """The samples of the zero-curvature locus under the sample-wide
    curvature scale ``k_scale``, the largest |K| over the ok pairs:
    (on_locus, gmask, dmask).  ``on_locus`` (B, P) holds the pairs of
    relatively vanishing curvature, ``gmask`` those that also meet the
    g-quantity's hypotheses, and ``dmask`` (B, D), in dimension 2 (else
    None), the flat discriminant directions at points whose every pair
    is on the locus."""
    locus_tol = CURVATURE_LOCUS_TOL * max(k_scale, 1e-30)
    if k_scale == 0.0:
        locus_tol = 0.0
    flat_tol = max(locus_tol, 1e-15)
    on_locus = ok & (np.abs(K) <= locus_tol)
    gmask = on_locus & ortho & (np.abs(K) <= flat_tol)
    dmask = None
    if disc_K is not None:
        flat_point = np.all(on_locus | ~ok, axis=1)
        dmask = flat_point[:, None] & (np.abs(disc_K) <= flat_tol)
    return on_locus, gmask, dmask


def _scan_chunk(metric, potential, X, directions) -> _Scan:
    """The first pass over one chunk of sample points: one geometry
    batch at curvature order 1, and on it the conditions of that order
    from :data:`CONDITIONS` over (point, pair, direction), the batch
    axes leading."""
    geo = GeometryBatch(metric, X, potential, curvature_order=1)
    C = CONDITIONS
    pairs = geo.expand(1)  # against (point, pair)
    U, W, ok = _orthonormal_pairs(geo, directions)
    K = C["sectional-nonneg"].value(geo, U, None, W)
    mags = C["first-order-vanishing"].value(
        geo, U[:, :, None], directions[None, None], W[:, :, None])
    disc_K = disc_w = None
    if metric.dim == 2:
        d = directions[None]
        disc_w = quarter_turn(pairs.g, d)
        disc_K = C["sectional-nonneg"].value(geo, d, None, disc_w)
    # the general evaluator's points: the maxima of the potential
    zeroth_ok = (np.ones(len(X), dtype=bool) if potential is None
                 else geo.hessian_modes()[2])
    return _Scan(
        x=X, U=U, W=W, ok=ok, K=K, grad=geo.grad_norms(), zeroth_ok=zeroth_ok,
        zeroth=C["zeroth-order"].value(geo, U, None, W),
        fo_max=mags.max(axis=2), fo_arg=mags.argmax(axis=2),
        ortho=_orthogonal(pairs, U, W), disc_K=disc_K, disc_w=disc_w,
    )


def _scan_locus(metric, X, U, W, directions):
    """The second pass, at the points X with pairs (U, W): one geometry
    batch at curvature order 2 per chunk of them, and on it the
    conditions of that order.  The batch omits the potential, which
    neither reads; at order 2 the metric's stages run at the same Taylor
    degrees with or without one.  Returns per pair the smallest
    g-quantity over v, its first v index and the largest |g-quantity|
    over v, and in dimension 2 (else None) lhs - rhs of the discriminant
    per direction."""
    C = CONDITIONS
    g_min, g_abs = np.empty(U.shape[:2]), np.empty(U.shape[:2])
    g_arg = np.empty(U.shape[:2], dtype=np.intp)
    gap = np.empty((len(X), len(directions))) if metric.dim == 2 else None
    for b in _chunks(len(X)):
        geo = GeometryBatch(metric, X[b], curvature_order=2)
        gv = C["g-nonneg"].value(
            geo, U[b, :, None], directions[None, None], W[b, :, None])
        g_min[b], g_arg[b] = gv.min(axis=2), gv.argmin(axis=2)
        g_abs[b] = np.abs(gv).max(axis=2)
        if gap is not None:
            gap[b] = C["discriminant-2d"].value(geo, directions[None], None, None)
    return g_min, g_arg, g_abs, gap


def _join(scans: list) -> _Scan:
    """The chunk scans as one, points in sample order."""
    return _Scan(**{
        f.name: None if getattr(scans[0], f.name) is None
        else np.concatenate([getattr(s, f.name) for s in scans])
        for f in dc_fields(_Scan)
    })


def _first_extreme(values: np.ndarray, mask: np.ndarray, pick):
    """Index tuple of the first entry, in C order, where ``mask`` holds
    and ``values`` takes its smallest (pick=np.argmin) or largest
    (np.argmax) masked value; None when the mask is empty."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return None
    return np.unravel_index(idx[pick(values.ravel()[idx])], values.shape)


def _scale(values: np.ndarray, mask: np.ndarray) -> float:
    """Largest |value| where ``mask`` holds, 0.0 when it is empty."""
    return float(np.max(np.abs(values[mask]), initial=0.0))


def _verdict(name, values, mask, pick, slack, x, u, v, w, per_entry=1):
    """The verdict of one condition, by the rule every condition goes
    through: the first extreme of ``values`` under ``mask``
    (:func:`_first_extreme`), which passes when it is at least -slack
    for pick=np.argmin and at most slack for np.argmax, with the point
    x[at[0]] and the vectors u[at], v[at] and w[at] (None for a vector
    the condition does not read) as its witness.  Each masked entry
    stands for ``per_entry`` samples (the v-directions reduced into it)."""
    at = _first_extreme(values, mask, pick)
    worst = None if at is None else Witness(
        name, x[at[0]].copy(), *(None if a is None else a[at] for a in (u, v, w)),
        float(values[at]))
    passed = worst is None or (worst.value >= -slack if pick is np.argmin
                               else worst.value <= slack)
    return ConditionVerdict(name, int(mask.sum()) * per_entry, passed, slack, worst)


def check_a3w_necessary(
    metric: MetricField,
    potential: PotentialField | None,
    sampling: SamplingSpec,
) -> CheckReport:
    """Sample a region for violations of the necessary conditions.

    Conditions checked, each with a worst-case witness:

    * nonnegative sectional curvature over all sampled planes,
    * zeroth-order nonnegativity at critical points of the potential
      with Hess V <= 0 (every point when there is none),
    * first-order vanishing at zero-curvature orthogonal pairs,
    * nonnegativity of the restricted second-order quantity at those
      pairs, and
    * the two-dimensional discriminant inequality at zero-curvature
      points (dimension 2 only).

    The check runs in two passes by the curvature order each condition
    reads (:data:`CONDITIONS`), each in chunks of at most
    CHECK_CHUNK_POINTS points, one :class:`GeometryBatch` per chunk, so
    each point's geometry is built at most once per order and the peak
    memory is bounded by the chunk.  The first pass builds every point
    at order 1 and evaluates the conditions that read at most nabla R
    at every sample; the curvature scale of the whole sample then fixes
    the zero-curvature locus, and the second pass builds at order 2 only
    the points holding a locus sample, where ``g-nonneg`` and
    ``discriminant-2d``, the conditions stated on the locus, are read.
    Every condition is a few contractions over (point, pair, direction)
    tensors, a sample's value does not depend on the batch it fell in,
    and :func:`evaluate_condition` reproduces it as a batch of one.
    Zero-curvature detection and all violation thresholds are relative
    to the sampled magnitude of the corresponding quantity, so verdicts
    are invariant under uniform metric rescaling.
    """
    n = metric.dim
    potential = _active_potential(potential)
    directions = sampling.direction_set(n)
    D = len(directions)
    points = sampling.points()
    s = _join([_scan_chunk(metric, potential, points[b], directions)
               for b in _chunks(len(points))])
    k_scale = _scale(s.K, s.ok)
    on_locus, gmask, dmask = _locus_masks(k_scale, s.K, s.ok, s.ortho, s.disc_K)
    held = gmask.any(axis=1)
    if dmask is not None:
        held |= dmask.any(axis=1)
    # the points holding a locus sample, in sample order
    rows = np.flatnonzero(held)
    x, U, W = s.x[rows], s.U[rows], s.W[rows]
    g_min, g_arg, g_abs, gap = _scan_locus(metric, x, U, W, directions)

    # a critical point that is no maximum fails the zeroth-order
    # evaluator's own Hess V <= 0 precondition and is skipped like any other
    crit_tol = 1e-8 * max(float(np.max(s.grad, initial=0.0)), 1e-30)
    zmask = s.ok & ((s.grad <= crit_tol) & s.zeroth_ok)[:, None]
    conditions = [
        _verdict("sectional-nonneg", s.K, s.ok, np.argmin,
                 INEQUALITY_SLACK * k_scale, s.x, s.U, None, s.W),
        _verdict("zeroth-order", s.zeroth, zmask, np.argmin,
                 INEQUALITY_SLACK * _scale(s.zeroth, zmask), s.x, s.U, None, s.W),
        _verdict("first-order-vanishing", s.fo_max, on_locus, np.argmax,
                 1e-6 * _scale(s.fo_max, s.ok), s.x, s.U, directions[s.fo_arg],
                 s.W, D),
        _verdict("g-nonneg", g_min, gmask[rows], np.argmin,
                 INEQUALITY_SLACK * _scale(g_abs, gmask[rows]), x, U,
                 directions[g_arg], W, D),
    ]
    if n == 2:
        conditions.append(_verdict(
            "discriminant-2d", gap, dmask[rows], np.argmax, INEQUALITY_SLACK,
            x, np.broadcast_to(directions, gap.shape + (n,)), None,
            s.disc_w[rows]))
    return CheckReport(sampling=sampling, conditions=conditions,
                       overall_pass=all(c.passed and c.evaluated for c in conditions))

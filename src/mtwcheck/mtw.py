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

The overall normalization between the action-induced cost and the
closed forms is a single constant, determined empirically by
``calibrate_normalization`` and never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CalibrationError,
    DimensionError,
    PreconditionError,
)
from .geometry import (
    CRITICAL_GRAD_TOL,
    GeometryBatch,
    GeometryJet,
    MetricField,
    PotentialField,
    as_point,
    contract,
    euclidean_metric,
    mode_profile,
    quarter_turn,
    quartic_potential,
    sectional_curvature,
    sphere_metric,
)
from . import dynamics as dyn

DEFAULT_FD_STEP = 1e-2
# The direct-cost route divides cost noise (~1e-10 from shooting and
# quadrature) by h^4; h = 1e-2 would amplify it to O(10), so the oracle
# runs at a coarser step where truncation and noise balance.
DIRECT_COST_STEP = 1e-1
DIRECT_COST_STEPS = 100

HESS_TOL = 1e-10
CURVATURE_LOCUS_TOL = 1e-8
ORTHO_TOL = 1e-8
INEQUALITY_SLACK = 1e-9

# Sample points per geometry batch of the region checker (see
# check_a3w_necessary): the chunk bounds the checker's peak memory.
CHECK_CHUNK_POINTS = 128


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


def _variation_pairings(metric, potential, X, U, V0, steps) -> np.ndarray:
    """<U[b], covariant d/dtau J_b(0)> for the two-point variation field
    J_b along the curve from X[b] with initial velocity V0[b].

    J_b solves the linearized flow along the least-action curve, with
    J_b(0) = U[b] and J_b(1) = 0.  Both vectors live at X[b], so the
    pairing needs no transport.  The curves are integrated as one batch,
    and each lane's value is the one it has alone.
    """
    n = metric.dim
    X = np.asarray(X, dtype=float)
    U = np.asarray(U, dtype=float)
    state, _, voff = dyn._integrate(metric, potential, X, V0, steps, variation="full")
    Phi = state[:, voff:].reshape(-1, 2 * n, 2 * n)
    B = Phi[:, 0:n, n:]
    if np.any(np.linalg.cond(B) > dyn.CONJUGATE_COND_LIMIT):
        raise dyn.ConjugatePointError(
            "conjugate point while evaluating the two-point variation pairing"
        )
    P0 = -np.linalg.solve(B, Phi[:, 0:n, 0:n] @ U[:, :, None])[..., 0]
    gU = np.array([metric.matrix(x) @ u for x, u in zip(X, U)])
    return (P0[:, None, :] @ gU[:, :, None])[:, 0, 0]


# The five-point stencil of the jacobi route: velocities v + k h w.
JACOBI_OFFSETS = (-2, -1, 0, 1, 2)


def _jacobi_stencil(v, w, h) -> np.ndarray:
    return np.array([v + (k * h) * w for k in JACOBI_OFFSETS])


def _jacobi_value(pairings, h) -> tuple[float, float]:
    """Richardson value and defect of 3/2 F'' from F on the stencil."""
    F = dict(zip(JACOBI_OFFSETS, pairings.tolist()))
    d_h = (F[1] - 2.0 * F[0] + F[-1]) / h**2
    d_2h = (F[2] - 2.0 * F[0] + F[-2]) / (4.0 * h**2)
    return 1.5 * (4.0 * d_h - d_2h) / 3.0, 1.5 * abs(d_h - d_2h) / 3.0


def mtw_jacobi(
    metric: MetricField,
    potential: PotentialField | None,
    x: Sequence[float],
    u: Sequence[float],
    v: Sequence[float],
    w: Sequence[float],
    h: float = DEFAULT_FD_STEP,
    steps: int = dyn.DEFAULT_STEPS,
) -> MtwEvaluation:
    """Cross-curvature via second s-differences of the two-point pairing.

    Evaluates F(s) = <u, d/dtau J(0)> along curves with initial velocity
    v + s w on the five-point stencil {-2h, -h, 0, h, 2h}, applies the
    (h, 2h) Richardson pair to F'' and scales by 3/2.  The reported
    error estimate is the Richardson defect.
    """
    x = as_point(x)
    u = as_point(u)
    v = as_point(v)
    w = as_point(w)
    k = len(JACOBI_OFFSETS)
    value, err = _jacobi_value(_variation_pairings(
        metric, potential, np.tile(x, (k, 1)), np.tile(u, (k, 1)),
        _jacobi_stencil(v, w, h), steps), h)
    return MtwEvaluation(
        x=x, u=u, v=v, w=w, method="jacobi", value=value,
        h_s=h, steps=steps, error_estimate=err,
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
    x = as_point(x)
    u = as_point(u)
    v = as_point(v)
    w = as_point(w)
    offsets = (-2, -1, 0, 1, 2)
    starts = np.tile(x, (5, 1))
    sigma = dyn._endpoints(metric, None, starts,
                           np.array([(i * h_t) * u for i in offsets]), steps)
    targets = dyn._endpoints(metric, potential, starts,
                             np.array([v + (j * h_s) * w for j in offsets]), steps)
    # C[a, b] = cost(sigma[a], targets[b]): all 25 shot as one batch
    C = np.array([r.value for r in dyn._costs(
        metric, potential, np.repeat(sigma, 5, axis=0), np.tile(targets, (5, 1)),
        steps=steps)]).reshape(5, 5)

    def second_diff(row, hstep):
        d1 = (row[3] - 2.0 * row[2] + row[1]) / hstep**2
        d2 = (row[4] - 2.0 * row[2] + row[0]) / (4.0 * hstep**2)
        return (4.0 * d1 - d2) / 3.0, abs(d1 - d2) / 3.0

    # s-direction first (per t-offset), then t-direction of the results
    rich_s = np.empty(5)
    for a in range(5):
        rich_s[a], _ = second_diff(C[a], h_s)
    d4, defect = second_diff(rich_s, h_t)
    value = -1.5 * d4
    return MtwEvaluation(
        x=x, u=u, v=v, w=w, method="direct-cost", value=value,
        h_s=h_s, h_t=h_t, steps=steps, error_estimate=1.5 * defect,
    )


# ---------------------------------------------------------------------------
# Closed-form routes
# ---------------------------------------------------------------------------
#
# Each formula below is written once, over arrays whose leading axes are
# batch axes (geometry.contract): the checker runs it on a geometry
# batch expanded over (point, pair, direction), and the one-point API
# runs it on a GeometryJet with plain vectors.  Every operation is
# elementwise, or a matmul whose stack holds the batch axes, so a
# sample's value does not depend on the batch it was computed in.


def _active_potential(potential: PotentialField | None) -> PotentialField | None:
    """The potential, or None when it is absent or identically zero."""
    return None if potential is None or potential.is_zero else potential


def _point_jet(metric, potential, x) -> GeometryJet:
    """The geometry every condition at ``x`` reads: curvature through
    its second covariant derivative, plus the potential unless it is
    absent or zero."""
    return GeometryJet(metric, x, potential=_active_potential(potential),
                       curvature_order=2)


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
    return _zeroth_simplified(_point_jet(metric, potential, x),
                              as_point(u), as_point(w))


def _zeroth_simplified(jet: GeometryJet, u, w) -> float:
    value = jet.r4(w, u, w, u)
    if jet.hess_v is not None:
        jet.require_critical("the simplified zeroth-order evaluator")
        hnorm = float(np.max(np.abs(jet.hess_v)))
        if hnorm > HESS_TOL:
            raise PreconditionError(
                "the simplified zeroth-order evaluator requires a vanishing "
                f"potential Hessian (max |Hess V| = {hnorm:.3e})"
            )
        value += jet.fourth_contraction(w, u) / 20.0
    return value


def _cumulative_integral(G: np.ndarray, h: float) -> np.ndarray:
    """Prefix integral of samples on a uniform grid, O(h^4) accurate.

    Even nodes take composite Simpson panels; odd nodes add the
    half-panel rule through the next node.
    """
    m = len(G) - 1
    P = np.zeros_like(G, shape=(len(G),) + G.shape[1:])
    for k in range(2, m + 1, 2):
        P[k] = P[k - 2] + (h / 3.0) * (G[k - 2] + 4.0 * G[k - 1] + G[k])
    for k in range(1, m + 1, 2):
        P[k] = P[k - 1] + (h / 12.0) * (5.0 * G[k - 1] + 8.0 * G[k] - G[k + 1])
    return P


def _simpson_weights(panels: int) -> np.ndarray:
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


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
        raise ValueError("quad_panels must be a positive even integer")
    return float(_zeroth_general(_point_jet(metric, potential, x),
                                 as_point(u)[None], as_point(w)[None],
                                 quad_panels)[0])


def _zeroth_general(jet: GeometryJet, u, w, quad_panels: int = 1024) -> np.ndarray:
    """The general zeroth-order value of the pairs (u[p], w[p]) at the
    jet's point; ``u`` and ``w`` have shape (pairs, n)."""
    mus, E = jet.hessian_modes("the general zeroth-order evaluator")
    tau = np.linspace(0.0, 1.0, quad_panels + 1)
    hq = 1.0 / quad_panels
    # batch axes (grid, pair); per-mode profiles are (grid, 1, modes), and
    # without a potential every mu is 0 and they are tau, 1 and 1 - tau
    T = tau[:, None, None]
    u, w = u[None], w[None]

    def lift(a):
        return a[None, None]

    Eg = lift(E.T @ jet.g)
    cw = contract(Eg, w)
    cu = contract(Eg, u)
    El = lift(E)
    wbar = contract(El, mode_profile(mus, T) * cw)
    dwbar = contract(El, np.cosh(mus * T) * cw)
    ut = contract(El, mode_profile(mus, 1.0 - T) / mode_profile(mus, 1.0) * cu)

    F = 2.0 * contract(lift(jet.riemann), dwbar, ut, dwbar, u)
    if jet.hess_v is not None:
        Gpref = contract(lift(jet.riemann_raised), dwbar, wbar, u)
        P = _cumulative_integral(Gpref, hq)
        F = F + contract(lift(jet.hess_v), ut, P)
        F = F + contract(lift(jet.nabla4_v), wbar, wbar, ut, u)

    weights = _simpson_weights(quad_panels) * hq
    # one dot product per pair, the pair axis as the matmul stack
    integrand = np.ascontiguousarray(((1.0 - tau)[:, None] * F).T)
    return 1.5 * (integrand[:, None, :] @ weights[:, None])[:, 0, 0]


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
    x = as_point(x)
    u = as_point(u)
    v = as_point(v)
    w = as_point(w)
    jet = GeometryJet(metric, x, curvature_order=1)
    return 0.5 * jet.nr5(w, w, u, v, u) + 0.25 * jet.nr5(v, w, u, w, u)


def _first_order_magnitude(geo, u, v, w) -> np.ndarray:
    """|<(grad_w R)(w, u) v, u>|; the pair's slots are contracted before v."""
    return np.abs(contract(contract(geo.nabla_r, w, w, u, None, u), v))


def _gram(g: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^T g B for matrices whose columns are vectors, batch axes leading:
    the bilinear form <A v, B v'> in (v, v')."""
    n = g.shape[-1]
    gB = [contract(g, B[..., j]) for j in range(n)]
    return np.stack([np.stack([contract(gB[j], A[..., i]) for j in range(n)],
                              axis=-1) for i in range(n)], axis=-2)


def _second_order_form(geo, u, w, *, full: bool) -> np.ndarray:
    """Matrix Q of the second v-coefficient as a quadratic form in v:
    the coefficient at v is ``contract(Q, v, v)``.

    ``full=True`` sums all eight lines of the second coefficient;
    ``full=False`` drops the two lines that vanish identically under
    the restricted variant's hypotheses (zero-curvature orthogonal
    planes force R(w,u)w = R(u,w)u = 0).  Each line is contracted with
    the pair (u, w), leaving its two v slots open.
    """
    N2, Rup, g = geo.nabla2_r, geo.riemann_raised, geo.g

    def cross(y, T):
        """<y, R(v, a) v> as a form, T the R(., a, .) slots (l, i, k)."""
        return contract(T, contract(g, y), None, None)

    # R(v, u) u, R(v, w) w, R(w, u) v, R(v, u) w and R(v, w) u as
    # matrices acting on v
    vuu = contract(Rup, None, u, u)
    vww = contract(Rup, None, w, w)
    wuv = contract(Rup, w, u, None)
    vuw = contract(Rup, None, u, w)
    vwu = contract(Rup, None, w, u)

    Q = contract(N2, w, w, None, u, None, u) / 10.0
    Q = Q - _gram(g, vuu, vww) / 5.0
    if full:
        Q = Q + 4.0 / 15.0 * cross(contract(Rup, w, u, w), contract(Rup, None, u, None))
    Q = Q + 2.0 / 5.0 * contract(N2, None, w, w, u, None, u)
    Q = Q + contract(N2, None, None, w, u, w, u) / 10.0
    if full:
        Q = Q - cross(contract(Rup, w, u, u), contract(Rup, None, w, None)) / 5.0
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
    x = as_point(x)
    u = as_point(u)
    v = as_point(v)
    w = as_point(w)
    jet = GeometryJet(metric, x, curvature_order=2)
    return float(contract(_second_order_form(jet, u, w, full=True), v, v))


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
    jet = GeometryJet(metric, x, curvature_order=2)
    return _g_quantity(jet, as_point(u), as_point(v), as_point(w), curvature_tol)


def _g_quantity(jet: GeometryJet, u, v, w, curvature_tol: float) -> float:
    _g_preconditions(jet, u, w, curvature_tol)
    return float(contract(_second_order_form(jet, u, w, full=False), v, v))


def _orthogonal(geo, u, w) -> np.ndarray:
    """Where <u, w> is negligible against |u| |w|."""
    uw = contract(geo.g, u, w)
    norms = np.sqrt(contract(geo.g, u, u)) * np.sqrt(contract(geo.g, w, w))
    return np.abs(uw) <= ORTHO_TOL * norms


def _g_preconditions(jet: GeometryJet, u, w, curvature_tol: float) -> None:
    """Raise unless u, w are metric-orthogonal and span a zero-curvature
    plane, the hypotheses of the restricted second-order quantity."""
    if not _orthogonal(jet, u, w):
        raise PreconditionError(
            f"the restricted second-order quantity needs <u, w> = 0 "
            f"(got {jet.inner(u, w):.3e})"
        )
    K = jet.sectional(u, w)
    if abs(K) > curvature_tol:
        raise PreconditionError(
            "the restricted second-order quantity needs a zero-curvature "
            f"plane (sectional = {K:.3e}, tolerance {curvature_tol:.1e})"
        )


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
    u = as_point(u)
    w = as_point(w)
    jet = GeometryJet(metric, x, curvature_order=1)
    return max(float(_first_order_magnitude(jet, u, e, w))
               for e in np.eye(metric.dim))


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
    jet = GeometryJet(metric, x, curvature_order=2)
    return _discriminant_2d(jet, as_point(u), curvature_tol)


def _discriminant_terms(geo, u):
    """(w, K, lhs, rhs) of the discriminant inequality for 2-vectors u:
    w their quarter turns and K the curvature of span(u, w)."""
    w = quarter_turn(geo.g, u)
    K = sectional_curvature(geo.g, geo.riemann, u, w)
    N2 = geo.nabla2_r
    mixed = contract(N2, w, u, w, u, w, u)
    lhs = 3.0 * (mixed * mixed)
    rhs = 2.0 * contract(N2, w, w, w, u, w, u) * contract(N2, u, u, w, u, w, u)
    return w, K, lhs, rhs


def _discriminant_2d(jet: GeometryJet, u, curvature_tol: float) -> DiscriminantResult:
    w, K, lhs, rhs = _discriminant_terms(jet, u)
    if abs(K) > curvature_tol:
        raise PreconditionError(
            f"the discriminant check needs zero curvature at x "
            f"(sectional = {K:.3e})"
        )
    lhs, rhs = float(lhs), float(rhs)
    return DiscriminantResult(
        lhs=lhs, rhs=rhs, satisfied=bool(lhs <= rhs + INEQUALITY_SLACK),
        u=u, w=w,
    )


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
    steps: int = dyn.DEFAULT_STEPS,
) -> CalibrationResult:
    """Determine the normalization constant from the built-in oracles.

    Runs the two-point method at v = 0 against the closed-form values
    on spheres and flat quartic-potential cases.  Pre-built cases can
    be injected for testing the failure path.
    """
    if cases is None:
        inputs = _default_calibration_inputs()
        # the cases sharing a (metric, potential) run as one batch of
        # lanes; each keeps the value mtw_jacobi gives it alone
        groups: dict = {}
        for case in inputs:
            groups.setdefault((id(case[1]), id(case[2])), []).append(case)
        k = len(JACOBI_OFFSETS)
        jac = {}
        for group in groups.values():
            _, metric, pot, *_ = group[0]
            F = _variation_pairings(
                metric, pot,
                np.repeat([c[3] for c in group], k, axis=0),
                np.repeat([c[4] for c in group], k, axis=0),
                np.concatenate([_jacobi_stencil(np.zeros(metric.dim), c[5], h)
                                for c in group]),
                steps,
            )
            for case, pairings in zip(group, F.reshape(len(group), k)):
                jac[case[0]] = _jacobi_value(pairings, h)[0]
        cases = [
            CalibrationCase(label, jac[label],
                            mtw_zeroth_simplified(metric, pot, x, u, w))
            for label, metric, pot, x, u, w in inputs
        ]
    return fit_kappa(cases)


# ---------------------------------------------------------------------------
# Sampling-based necessary-condition checker
# ---------------------------------------------------------------------------


@dataclass
class SamplingSpec:
    """Deterministic sampling plan for the region checker."""

    box: tuple  # ((lo, hi), ...) per axis
    points_per_axis: int = 8
    directions: int = 16
    seed: int = 42

    def points(self) -> np.ndarray:
        axes = [np.linspace(lo, hi, self.points_per_axis) for lo, hi in self.box]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        center = np.array([(lo + hi) / 2.0 for lo, hi in self.box])
        if not np.any(np.all(np.abs(pts - center) < 1e-12, axis=1)):
            pts = np.vstack([pts, center])
        return pts

    def direction_set(self, dim: int) -> np.ndarray:
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
    name: str
    evaluated: int
    passed: bool
    threshold: float
    worst: Witness | None


@dataclass
class CheckReport:
    sampling: SamplingSpec
    conditions: list
    overall_pass: bool


def _worker_count() -> int:
    """Threads the checker computes on: it runs on the calling thread.

    Kept only for the benchmark's provenance line, which reads it; the
    benchmark change of ROADMAP item 3 stops reading it and deletes it.
    """
    return 1


def _orthonormal_pairs(geo, directions: np.ndarray):
    """Metric-orthonormal (u, w) pairs at every point of a batch, from
    consecutive raw directions (i, i + 1 mod m) by Gram-Schmidt with one
    re-orthogonalization pass.

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
    g = geo.g[:, None]  # against the pair axis
    d1 = directions[None]
    d2 = np.roll(directions, -1, axis=0)[None]
    s1 = np.sqrt(contract(g, d1, d1))
    s2 = np.sqrt(contract(g, d2, d2))
    ok = (s1 > 0.0) & (s2 > 0.0)
    u = d1 / np.where(ok, s1, 1.0)[..., None]
    v = d2
    for _ in range(2):  # second pass sharpens orthogonality to rounding level
        v = v - contract(g, u, v)[..., None] * u
    norm = np.sqrt(contract(g, v, v))
    ok = ok & (norm > 1e-10 * s2)
    return u, v / np.where(ok, norm, 1.0)[..., None], ok


def _sampled_planes(geo, directions: np.ndarray):
    """(U, W, ok, K): the orthonormal pairs of :func:`_orthonormal_pairs`
    at every point of a batch and their sectional curvatures K (B, m)."""
    U, W, ok = _orthonormal_pairs(geo, directions)
    pairs = geo.expand(1)
    K = sectional_curvature(pairs.g, pairs.riemann, U, W, where=ok)
    return U, W, ok, K


def _point_chunks(points: np.ndarray):
    """The sample points in consecutive chunks of CHECK_CHUNK_POINTS."""
    for start in range(0, len(points), CHECK_CHUNK_POINTS):
        yield points[start: start + CHECK_CHUNK_POINTS]


def _condition_value(
    jet: GeometryJet, condition: str, u, v, w,
    curvature_tol: float = CURVATURE_LOCUS_TOL,
) -> float:
    """The scalar behind ``condition`` at the jet's point.

    The map from condition names to formulas for one sample: each
    formula is the function the checker runs on its whole batch, here
    on a batch of one.
    """
    if condition == "sectional-nonneg":
        return jet.sectional(u, w)
    if condition == "zeroth-order":
        if jet.potential is None:
            return _zeroth_simplified(jet, u, w)
        return float(_zeroth_general(jet, u[None], w[None])[0])
    if condition == "first-order-vanishing":
        return float(_first_order_magnitude(jet, u, v, w))
    if condition == "g-nonneg":
        return _g_quantity(jet, u, v, w, curvature_tol)
    if condition == "discriminant-2d":
        res = _discriminant_2d(jet, u, curvature_tol)
        return res.lhs - res.rhs
    raise ValueError(f"unknown condition {condition!r}")


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
    """Re-evaluate the scalar behind a checker witness.

    Builds the witness point's geometry as a batch of one and runs the
    checker's formula on it, so a reported witness reproduces its
    value exactly.
    """
    u, v, w = (None if a is None else as_point(a) for a in (u, v, w))
    return _condition_value(_point_jet(metric, potential, point), condition,
                            u, v, w, curvature_tol)


@dataclass
class _Scan:
    """What the checker keeps of a chunk of sample points, before the
    sample-wide thresholds are known: per point, per pair (reduced over
    the v-directions) and, in dimension 2, per discriminant direction.
    Every field has the point axis first."""

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
    g_min: np.ndarray  # (B, P) smallest g-quantity over v
    g_arg: np.ndarray
    g_abs: np.ndarray  # (B, P) largest |g-quantity| over v
    disc_K: np.ndarray | None  # (B, D) curvature of (v, quarter turn of v)
    disc_gap: np.ndarray | None  # (B, D) lhs - rhs of the discriminant
    disc_w: np.ndarray | None  # (B, D, 2) the quarter turns


def _scan_chunk(metric, potential, X, directions) -> _Scan:
    """Every condition at every (point, pair, direction) of one geometry
    batch, as contractions with the batch axes leading."""
    geo = GeometryBatch(metric, X, potential, curvature_order=2)
    U, W, ok, K = _sampled_planes(geo, directions)
    pairs = geo.expand(1)  # against (point, pair)
    samples = geo.expand(2)  # against (point, pair, direction)
    u, w = U[:, :, None], W[:, :, None]
    v = directions[None, None]

    grad = geo.grad_norms()
    if potential is None:
        zeroth_ok = np.ones(len(X), dtype=bool)
        zeroth = contract(pairs.riemann, W, U, W, U)  # _zeroth_simplified
    else:
        # the general evaluator refuses a point that is no maximum of the
        # potential; the gradient test only spares it the refused points
        zeroth_ok = np.zeros(len(X), dtype=bool)
        zeroth = np.zeros_like(K)
        for b in np.flatnonzero(grad <= CRITICAL_GRAD_TOL):
            try:
                zeroth[b] = _zeroth_general(geo.point(b), U[b], W[b])
            except PreconditionError:
                continue
            zeroth_ok[b] = True

    mags = _first_order_magnitude(samples, u, v, w)
    gv = contract(_second_order_form(pairs, U, W, full=False)[:, :, None], v, v)
    disc = (None, None, None)
    if metric.dim == 2:
        wd, Kd, lhs, rhs = _discriminant_terms(pairs, directions[None])
        disc = (Kd, lhs - rhs, wd)
    return _Scan(
        x=X, U=U, W=W, ok=ok, K=K, grad=grad, zeroth_ok=zeroth_ok,
        zeroth=zeroth, fo_max=mags.max(axis=2), fo_arg=mags.argmax(axis=2),
        ortho=_orthogonal(pairs, U, W), g_min=gv.min(axis=2),
        g_arg=gv.argmin(axis=2), g_abs=np.abs(gv).max(axis=2),
        disc_K=disc[0], disc_gap=disc[1], disc_w=disc[2],
    )


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

    The sample points are processed in chunks of CHECK_CHUNK_POINTS:
    each chunk builds one :class:`GeometryBatch`, so each point's
    geometry is built exactly once and the peak memory is bounded by
    the chunk, and every condition is a few contractions over (point,
    pair, direction) tensors read from it.  A sample's value does not
    depend on the chunk it fell in, and :func:`evaluate_condition`
    reproduces it as a batch of one.  Zero-curvature detection and all
    violation thresholds are relative to the sampled magnitude of the
    corresponding quantity, so verdicts are invariant under uniform
    metric rescaling.
    """
    n = metric.dim
    potential = _active_potential(potential)
    directions = sampling.direction_set(n)
    s = _join([_scan_chunk(metric, potential, X, directions)
               for X in _point_chunks(sampling.points())])
    D = len(directions)

    def witness(name, at, u, v, w, value):
        return Witness(name, s.x[at[0]].copy(), u, v, w, float(value))

    conditions: list[ConditionVerdict] = []

    # -- sectional curvature ------------------------------------------------
    k_scale = _scale(s.K, s.ok)
    k_slack = INEQUALITY_SLACK * k_scale
    at = _first_extreme(s.K, s.ok, np.argmin)
    worst = at and witness("sectional-nonneg", at, s.U[at], None, s.W[at], s.K[at])
    sec_pass = worst is None or worst.value >= -k_slack
    conditions.append(ConditionVerdict(
        "sectional-nonneg", int(s.ok.sum()), sec_pass, k_slack, worst,
    ))

    # -- zeroth order at critical points (every point without a potential) --
    # a critical point that is no maximum fails the evaluator's own
    # Hess V <= 0 precondition and is skipped like any other
    crit_tol = 1e-8 * max(float(np.max(s.grad, initial=0.0)), 1e-30)
    zmask = s.ok & ((s.grad <= crit_tol) & s.zeroth_ok)[:, None]
    z_slack = INEQUALITY_SLACK * _scale(s.zeroth, zmask)
    at = _first_extreme(s.zeroth, zmask, np.argmin)
    worst = at and witness("zeroth-order", at, s.U[at], None, s.W[at], s.zeroth[at])
    zer_pass = worst is None or worst.value >= -z_slack
    conditions.append(ConditionVerdict(
        "zeroth-order", int(zmask.sum()), zer_pass, z_slack, worst,
    ))

    # -- zero-curvature locus ------------------------------------------------
    locus_tol = CURVATURE_LOCUS_TOL * max(k_scale, 1e-30)
    if k_scale == 0.0:
        locus_tol = 0.0
    flat_tol = max(locus_tol, 1e-15)
    on_locus = s.ok & (np.abs(s.K) <= locus_tol)

    # first-order vanishing on the locus pairs, every direction
    fo_slack = 1e-6 * _scale(s.fo_max, s.ok)
    at = _first_extreme(s.fo_max, on_locus, np.argmax)
    worst = at and witness("first-order-vanishing", at, s.U[at],
                           directions[s.fo_arg[at]], s.W[at], s.fo_max[at])
    fo_pass = worst is None or worst.value <= fo_slack
    conditions.append(ConditionVerdict(
        "first-order-vanishing", int(on_locus.sum()) * D, fo_pass, fo_slack, worst,
    ))

    # restricted second-order quantity on the locus pairs that meet its
    # hypotheses, every direction
    gmask = on_locus & s.ortho & (np.abs(s.K) <= flat_tol)
    gq_slack = INEQUALITY_SLACK * _scale(s.g_abs, gmask)
    at = _first_extreme(s.g_min, gmask, np.argmin)
    worst = at and witness("g-nonneg", at, s.U[at], directions[s.g_arg[at]],
                           s.W[at], s.g_min[at])
    g_pass = worst is None or worst.value >= -gq_slack
    conditions.append(ConditionVerdict(
        "g-nonneg", int(gmask.sum()) * D, g_pass, gq_slack, worst,
    ))

    # the discriminant at points whose every pair is on the locus
    if n == 2:
        flat_point = np.all(on_locus | ~s.ok, axis=1)
        dmask = flat_point[:, None] & (np.abs(s.disc_K) <= flat_tol)
        at = _first_extreme(s.disc_gap, dmask, np.argmax)
        worst = at and witness("discriminant-2d", at, directions[at[1]], None,
                               s.disc_w[at], s.disc_gap[at])
        d_pass = worst is None or worst.value <= INEQUALITY_SLACK
        conditions.append(ConditionVerdict(
            "discriminant-2d", int(dmask.sum()), d_pass, INEQUALITY_SLACK, worst,
        ))

    overall = all(c.passed for c in conditions)
    return CheckReport(sampling=sampling, conditions=conditions,
                       overall_pass=overall)

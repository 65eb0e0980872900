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

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import eigh

from .errors import (
    CalibrationError,
    DimensionError,
    PreconditionError,
    RankDeficiencyError,
)
from .geometry import (
    GeometryJet,
    MetricField,
    PotentialField,
    as_point,
    euclidean_metric,
    gram_schmidt,
    quartic_potential,
    rotate90,
    sphere_metric,
)
from . import dynamics as dyn

DEFAULT_FD_STEP = 1e-2
# The direct-cost route divides cost noise (~1e-10 from shooting and
# quadrature) by h^4; h = 1e-2 would amplify it to O(10), so the oracle
# runs at a coarser step where truncation and noise balance.
DIRECT_COST_STEP = 1e-1
DIRECT_COST_STEPS = 100

GRAD_TOL = 1e-10
HESS_TOL = 1e-10
CURVATURE_LOCUS_TOL = 1e-8
ORTHO_TOL = 1e-8
INEQUALITY_SLACK = 1e-9


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


def _variation_pairings(metric, potential, x, u, V0, steps) -> np.ndarray:
    """<u, covariant d/dtau J(0)> for the two-point variation field J
    along each curve from x with an initial velocity in the rows of V0.

    J solves the linearized flow along the least-action curve, with
    J(0) = u and J(1) = 0.  Both vectors live at x, so the pairing needs
    no transport.  The curves are integrated as one batch.
    """
    n = metric.dim
    state, _, voff = dyn._integrate(
        metric, potential, np.tile(x, (len(V0), 1)), V0, steps, variation="full"
    )
    Phi = state[voff:].reshape(2 * n, 2 * n, -1).transpose(2, 0, 1)
    B = Phi[:, 0:n, n:]
    if np.any(np.linalg.cond(B) > dyn.CONJUGATE_COND_LIMIT):
        raise dyn.ConjugatePointError(
            "conjugate point while evaluating the two-point variation pairing"
        )
    P0 = -np.linalg.solve(B, (Phi[:, 0:n, 0:n] @ u)[..., None])[..., 0]
    return P0 @ (metric.matrix(x) @ u)


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
    ks = (-2, -1, 0, 1, 2)
    F = dict(zip(ks, _variation_pairings(
        metric, potential, x, u, np.array([v + (k * h) * w for k in ks]), steps
    ).tolist()))
    d_h = (F[1] - 2.0 * F[0] + F[-1]) / h**2
    d_2h = (F[2] - 2.0 * F[0] + F[-2]) / (4.0 * h**2)
    value = 1.5 * (4.0 * d_h - d_2h) / 3.0
    err = 1.5 * abs(d_h - d_2h) / 3.0
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


def _point_jet(metric, potential, x) -> GeometryJet:
    """The geometry every condition at ``x`` reads: curvature through
    its second covariant derivative, plus the potential unless it is
    absent or zero."""
    if potential is not None and potential.is_zero:
        potential = None
    return GeometryJet(metric, x, potential=potential, curvature_order=2)


def _grad_norm(jet: GeometryJet) -> float:
    """|grad V| at the jet's point; zero without a potential."""
    if jet.grad_v_lower is None:
        return 0.0
    return float(np.sqrt(jet.grad_v_lower @ jet.g_inv @ jet.grad_v_lower))


def _require_critical(jet: GeometryJet, what: str) -> None:
    gnorm = _grad_norm(jet)
    if gnorm > GRAD_TOL:
        raise PreconditionError(
            f"{what} requires a critical point of the potential "
            f"(|grad V| = {gnorm:.3e})"
        )


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
        _require_critical(jet, "the simplified zeroth-order evaluator")
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
    return _zeroth_general(_point_jet(metric, potential, x),
                           as_point(u), as_point(w), quad_panels)


def _zeroth_general(jet: GeometryJet, u, w, quad_panels: int = 1024) -> float:
    tau = np.linspace(0.0, 1.0, quad_panels + 1)
    hq = 1.0 / quad_panels

    if jet.hess_v is None:
        # no potential: every mode is at mu = 0 and the profiles are
        # the plain polynomials tau and 1 - tau
        wbar = np.outer(tau, w)
        dwbar = np.tile(w, (quad_panels + 1, 1))
        ut = np.outer(1.0 - tau, u)
    else:
        _require_critical(jet, "the general zeroth-order evaluator")
        lam, Evec = eigh(jet.hess_v, jet.g)
        if np.any(lam > 1e-8 * max(1.0, float(np.max(np.abs(lam))))):
            raise PreconditionError(
                "the general zeroth-order evaluator requires Hess V <= 0 "
                f"(largest eigenvalue {np.max(lam):.3e})"
            )
        mus = np.sqrt(np.maximum(-lam, 0.0))
        cw = Evec.T @ jet.g @ w
        cu = Evec.T @ jet.g @ u
        small = mus <= 1e-8
        mu_safe = np.where(small, 1.0, mus)
        T = tau[:, None]
        # per-mode profiles over the grid, shape (grid, modes)
        wbar_prof = np.where(small, T, np.sinh(mu_safe * T) / mu_safe)
        dwbar_prof = np.where(small, 1.0, np.cosh(mu_safe * T))
        ut_prof = np.where(
            small, 1.0 - T, np.sinh(mu_safe * (1.0 - T)) / np.sinh(mu_safe)
        )
        wbar = (wbar_prof * cw) @ Evec.T
        dwbar = (dwbar_prof * cw) @ Evec.T
        ut = (ut_prof * cu) @ Evec.T

    F = 2.0 * np.einsum("ijkl,ti,tj,tk,l->t", jet.riemann, dwbar, ut, dwbar, u)
    if jet.hess_v is not None:
        Gpref = np.einsum("lijk,ti,tj,k->tl", jet.riemann_raised, dwbar, wbar, u)
        P = _cumulative_integral(Gpref, hq)
        F = F + np.einsum("ij,ti,tj->t", jet.hess_v, ut, P)
        F = F + np.einsum("abcd,ta,tb,tc,d->t", jet.nabla4_v, wbar, wbar, ut, u)

    weights = _simpson_weights(quad_panels) * hq
    return 1.5 * float(weights @ ((1.0 - tau) * F))


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


def _second_order_terms(jet: GeometryJet, u, v, w, *, full: bool) -> float:
    """Shared contraction list for the second v-coefficient and its
    restricted variant.

    ``full=True`` evaluates all eight lines of the second coefficient;
    ``full=False`` drops the two lines that vanish identically under
    the restricted variant's hypotheses (zero-curvature orthogonal
    planes force R(w,u)w = R(u,w)u = 0).
    """
    total = jet.n2r6(w, w, v, u, v, u) / 10.0
    total -= jet.inner(jet.curvature_op(v, u, u), jet.curvature_op(v, w, w)) / 5.0
    if full:
        total += 4.0 / 15.0 * jet.inner(
            jet.curvature_op(v, u, v), jet.curvature_op(w, u, w)
        )
    total += 2.0 / 5.0 * jet.n2r6(v, w, w, u, v, u)
    total += jet.n2r6(v, v, w, u, w, u) / 10.0
    if full:
        total -= jet.inner(jet.curvature_op(w, u, u), jet.curvature_op(v, w, v)) / 5.0
    rwuv = jet.curvature_op(w, u, v)
    rvuw = jet.curvature_op(v, u, w)
    rvwu = jet.curvature_op(v, w, u)
    total += 4.0 / 15.0 * (jet.inner(rwuv, rwuv) + jet.inner(rvuw, rwuv))
    total += (jet.inner(rwuv, rvwu) + jet.inner(rvuw, rvwu)) / 3.0
    return total


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
    return _second_order_terms(jet, u, v, w, full=True)


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
    return _second_order_terms(jet, u, v, w, full=False)


def _g_preconditions(jet: GeometryJet, u, w, curvature_tol: float) -> None:
    """Raise unless u, w are metric-orthogonal and span a zero-curvature
    plane, the hypotheses of the restricted second-order quantity."""
    uw = jet.inner(u, w)
    if abs(uw) > ORTHO_TOL * jet.norm(u) * jet.norm(w):
        raise PreconditionError(
            f"the restricted second-order quantity needs <u, w> = 0 "
            f"(got {uw:.3e})"
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
    x = as_point(x)
    u = as_point(u)
    w = as_point(w)
    jet = GeometryJet(metric, x, curvature_order=1)
    n = metric.dim
    return max(
        abs(jet.nr5(w, w, u, np.eye(n)[i], u)) for i in range(n)
    )


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


def _discriminant_2d(jet: GeometryJet, u, curvature_tol: float) -> DiscriminantResult:
    w = rotate90(jet.metric, jet.x, u)
    K = jet.sectional(u, w)
    if abs(K) > curvature_tol:
        raise PreconditionError(
            f"the discriminant check needs zero curvature at x "
            f"(sectional = {K:.3e})"
        )
    mixed = jet.n2r6(w, u, w, u, w, u)
    lhs = 3.0 * mixed**2
    rhs = 2.0 * jet.n2r6(w, w, w, u, w, u) * jet.n2r6(u, u, w, u, w, u)
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
        built = []
        for label, metric, pot, x, u, w in _default_calibration_inputs():
            jac = mtw_jacobi(metric, pot, x, u, np.zeros(metric.dim), w,
                             h=h, steps=steps).value
            closed = mtw_zeroth_simplified(metric, pot, x, u, w)
            built.append(CalibrationCase(label, jac, closed))
        cases = built
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
    env = os.environ.get("MTW_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(8, os.cpu_count() or 1)


def _orthonormal_pairs(jet: GeometryJet, directions: np.ndarray):
    """Metric-orthonormal (u, w) pairs from consecutive raw directions;
    a numerically dependent pair is dropped."""
    m = len(directions)
    pairs = []
    for i in range(m):
        d1 = directions[i]
        d2 = directions[(i + 1) % m]
        try:
            basis = gram_schmidt(jet.metric, jet.x, [d1, d2])
        except RankDeficiencyError:
            continue
        pairs.append((basis[0], basis[1]))
    return pairs


def _condition_value(
    jet: GeometryJet, condition: str, u, v, w,
    curvature_tol: float = CURVATURE_LOCUS_TOL,
) -> float:
    """The scalar behind ``condition`` at the jet's point.

    The one map from condition names to formulas: the checker and
    :func:`evaluate_condition` both read every value through it, except
    that the checker tests the ``g-nonneg`` hypotheses once per (u, w)
    pair and then reads the same :func:`_second_order_terms` for every v.
    """
    if condition == "sectional-nonneg":
        return jet.sectional(u, w)
    if condition == "zeroth-order":
        if jet.potential is None:
            return _zeroth_simplified(jet, u, w)
        return _zeroth_general(jet, u, w)
    if condition == "first-order-vanishing":
        return abs(jet.nr5(w, w, u, v, u))
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

    Builds the same point jet as the checker and reads the value
    through the same dispatch, so a reported witness reproduces its
    value exactly.
    """
    u, v, w = (None if a is None else as_point(a) for a in (u, v, w))
    return _condition_value(_point_jet(metric, potential, point), condition,
                            u, v, w, curvature_tol)


@dataclass
class _PointData:
    jet: GeometryJet
    pairs: list
    K: list  # sectional per pair


def _scan_point(metric, potential, x, directions) -> _PointData:
    jet = _point_jet(metric, potential, x)
    pairs = _orthonormal_pairs(jet, directions)
    K = [_condition_value(jet, "sectional-nonneg", u, None, w) for u, w in pairs]
    return _PointData(jet=jet, pairs=pairs, K=K)


def check_a3w_necessary(
    metric: MetricField,
    potential: PotentialField | None,
    sampling: SamplingSpec,
) -> CheckReport:
    """Sample a region for violations of the necessary conditions.

    Conditions checked, each with a worst-case witness:

    * nonnegative sectional curvature over all sampled planes,
    * zeroth-order nonnegativity at critical points of the potential
      (every point when there is none),
    * first-order vanishing at zero-curvature orthogonal pairs,
    * nonnegativity of the restricted second-order quantity at those
      pairs, and
    * the two-dimensional discriminant inequality at zero-curvature
      points (dimension 2 only).

    Each sample point builds one geometry jet, and every condition at
    that point reads its values from it.  Zero-curvature detection and
    all violation thresholds are relative to the sampled magnitude of
    the corresponding quantity, so verdicts are invariant under uniform
    metric rescaling.
    """
    n = metric.dim
    pts = sampling.points()
    directions = sampling.direction_set(n)

    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        data = list(
            pool.map(lambda x: _scan_point(metric, potential, x, directions), pts)
        )

    conditions: list[ConditionVerdict] = []

    # -- sectional curvature ------------------------------------------------
    all_K = [k for d in data for k in d.K]
    k_scale = max((abs(k) for k in all_K), default=0.0)
    k_slack = INEQUALITY_SLACK * k_scale
    worst = None
    for d in data:
        for (u, w), k in zip(d.pairs, d.K):
            if worst is None or k < worst.value:
                worst = Witness("sectional-nonneg", d.jet.x, u, None, w, k)
    sec_pass = worst is None or worst.value >= -k_slack
    conditions.append(ConditionVerdict(
        "sectional-nonneg", len(all_K), sec_pass, k_slack, worst,
    ))

    # -- zeroth order at critical points (every point without a potential) --
    grads = [_grad_norm(d.jet) for d in data]
    crit_tol = 1e-8 * max(max(grads, default=0.0), 1e-30)
    crit = []
    for d, gnorm in zip(data, grads):
        hmax = 0.0
        if d.jet.hess_v is not None:
            hmax = float(np.max(eigh(d.jet.hess_v, d.jet.g, eigvals_only=True)))
        if gnorm <= crit_tol and hmax <= crit_tol + 1e-12:
            crit.append(d)
    zer_vals = []
    worst = None
    for d in crit:
        for (u, w) in d.pairs:
            try:
                val = _condition_value(d.jet, "zeroth-order", u, None, w)
            except PreconditionError:
                continue
            zer_vals.append(val)
            if worst is None or val < worst.value:
                worst = Witness("zeroth-order", d.jet.x, u, None, w, val)
    z_scale = max((abs(z) for z in zer_vals), default=0.0)
    z_slack = INEQUALITY_SLACK * z_scale
    zer_pass = worst is None or worst.value >= -z_slack
    conditions.append(ConditionVerdict(
        "zeroth-order", len(zer_vals), zer_pass, z_slack, worst,
    ))

    # -- zero-curvature locus ------------------------------------------------
    locus_tol = CURVATURE_LOCUS_TOL * max(k_scale, 1e-30)
    if k_scale == 0.0:
        locus_tol = 0.0
    flat_tol = max(locus_tol, 1e-15)

    # first-order vanishing and restricted second-order quantity on the
    # locus pairs, the discriminant at points whose every pair is on it
    fo_vals = []
    fo_worst = None
    fo_all_scale = 0.0
    g_vals = []
    g_worst = None
    d_worst = None
    d_count = 0
    for d in data:
        x = d.jet.x
        on_locus = [abs(k) <= locus_tol for k in d.K]
        for (u, w), flat in zip(d.pairs, on_locus):
            mags = [_condition_value(d.jet, "first-order-vanishing", u, vdir, w)
                    for vdir in directions]
            fo_all_scale = max(fo_all_scale, *mags)
            if not flat:
                continue
            # the g-nonneg hypotheses do not involve v: test them once
            try:
                _g_preconditions(d.jet, u, w, flat_tol)
                g_ok = True
            except PreconditionError:
                g_ok = False
            for vdir, mag in zip(directions, mags):
                fo_vals.append(mag)
                if fo_worst is None or mag > fo_worst.value:
                    fo_worst = Witness("first-order-vanishing", x, u, vdir, w, mag)
                if not g_ok:
                    continue
                gv = _second_order_terms(d.jet, u, vdir, w, full=False)
                g_vals.append(gv)
                if g_worst is None or gv < g_worst.value:
                    g_worst = Witness("g-nonneg", x, u, vdir, w, gv)
        if n != 2 or not all(on_locus):
            continue
        for vdir in directions:
            try:
                gap = _condition_value(d.jet, "discriminant-2d", vdir, None, None,
                                       flat_tol)
            except PreconditionError:
                continue
            d_count += 1
            if d_worst is None or gap > d_worst.value:
                d_worst = Witness("discriminant-2d", x, vdir, None,
                                  rotate90(metric, x, vdir), gap)

    fo_slack = 1e-6 * fo_all_scale
    fo_pass = fo_worst is None or fo_worst.value <= fo_slack
    conditions.append(ConditionVerdict(
        "first-order-vanishing", len(fo_vals), fo_pass, fo_slack, fo_worst,
    ))
    gq_scale = max((abs(gv) for gv in g_vals), default=0.0)
    gq_slack = INEQUALITY_SLACK * gq_scale
    g_pass = g_worst is None or g_worst.value >= -gq_slack
    conditions.append(ConditionVerdict(
        "g-nonneg", len(g_vals), g_pass, gq_slack, g_worst,
    ))
    if n == 2:
        d_pass = d_worst is None or d_worst.value <= INEQUALITY_SLACK
        conditions.append(ConditionVerdict(
            "discriminant-2d", d_count, d_pass, INEQUALITY_SLACK, d_worst,
        ))

    overall = all(c.passed for c in conditions)
    return CheckReport(sampling=sampling, conditions=conditions,
                       overall_pass=overall)

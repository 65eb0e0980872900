"""Riemannian data on a single global chart.

Tensors are stored fully lowered in coordinate components as numpy
arrays.  The curvature array uses the convention

    R[i, j, k, l] = <R(e_i, e_j) e_k, e_l>

with the overall sign fixed so that on the round unit sphere the
sectional curvature computed as

    K(u, w) = R[w, u, w, u] / (|u|^2 |w|^2 - <u, w>^2)

equals +1.  The same array feeds the curve-variation identities (the
lemma suite and the variation residual of ``dynamics``) through the
raised operator ``(R(a, b) c)^l``; the sphere oracle in the test suite
pins the sign.

Derivative strategy: the Christoffel formula and the curvature formula
are written once, in :func:`_christoffel_from` and
:func:`_curvature_from`, and curvature is evaluated only on jets.
:class:`GeometryBatch` evaluates them on truncated Taylor jets at a
batch of points, each tensor product one
:func:`~mtwcheck.jets.jcontract`, which differentiates the whole
pipeline exactly, so covariant derivatives of curvature and of the
potential need no further formulas.  The trajectory engine in
``dynamics`` needs only the connection along a velocity v, and reads it
from two straight-line functions generated per metric and potential
from the degree-2 plan of their fields (:func:`_stage_kernel`): the RK4
stage's slope [v; -Gamma(v, v) - grad V], with one lane's whole RK4
step in Python floats generated from the same lines, and at a batch of
points the slope's x-derivative and Gamma v, from second partials of g
and V, not curvature.  Both lower by g, contracting v into the partials
of g, before the inverse metric lifts them.  The jets of the metric and
the potential at all points come from one generated function each
(:class:`~mtwcheck.expr.TaylorPlan`).  A plan is cached by its fields'
expression texts and the jet space alone, in the package's one cache
(:func:`_plan_of`, 32 plans), on whose entries the kernels of
``dynamics`` are kept: repeated checks of identical metric text in a
process compile one plan, however often the metric is parsed again.  A
metric that differs in any constant (each value of a family parameter)
builds its own plan, and a one-shot process still builds its plans
cold.
Each jet stage runs at the lowest Taylor degree that keeps the values
read from it exact: every derivative costs one degree, so at curvature
order 2 the metric runs at degree 4, the inverse metric and the
Christoffel symbols at 3, the curvature at 2, nabla R at 1 and nabla^2 R
at 0 (the table in :mod:`mtwcheck.jets`).  The same formulas run in
each smaller space.

Batches: :class:`GeometryBatch`, the only geometry type, holds every
array with the point axis first; a one-point evaluator builds a batch of
one and reads its point 0.  Its values are contracted with vectors by
:func:`contract`, whose leading batch axes (points, pairs, directions)
broadcast and whose sums run in a fixed order, so a value computed in a
batch equals the one computed alone.  The other shared formulas are
written the same way, once each: :func:`_indefinite` is the metric
test of every module (:func:`require_positive_definite` raises its
first failure as :class:`MetricDegenerateError`), :func:`orthonormalize` the
Gram-Schmidt of the checker and of :func:`gram_schmidt`, and
:meth:`GeometryBatch.hessian_modes` the per-point test for a maximum of
the potential.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .errors import (
    DegeneratePlaneError,
    DimensionError,
    MetricDegenerateError,
    PreconditionError,
    RankDeficiencyError,
)
from .expr import ScalarField, TaylorPlan
from .jets import JetSpace, jcontract, jgrad, jmatinv, jvalue

# Positive-definiteness floor for metric evaluation.
METRIC_EIGENVALUE_FLOOR = 1e-10
# Relative floor below which a 2-plane counts as degenerate.
PLANE_DEGENERACY_FLOOR = 1e-12
# Residual norm, relative to the input norm, below which Gram-Schmidt
# counts a vector as dependent on the ones before it.
DEPENDENCE_FLOOR = 1e-10
# Largest |grad V| at which a point counts as critical.
CRITICAL_GRAD_TOL = 1e-10
# Largest Hess V eigenvalue, relative to max(1, max |eigenvalue|), that
# still counts as nonpositive.
HESS_NONPOSITIVE_TOL = 1e-8
# Mode frequencies at or below this floor take the mu = 0 profile.
MODE_MU_FLOOR = 1e-8

Vector = np.ndarray
Point = np.ndarray


class RecentCache:
    """Values keyed by content, kept for the ``size`` most recently used
    keys: no key holds an object, so no metric is kept alive.  Lookups
    from several threads are safe and see one value per key."""

    def __init__(self, size: int):
        self.size = size
        self._entries: dict = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key, build: Callable):
        """The value for ``key``, calling ``build()`` on a miss."""
        with self._lock:
            value = self._entries.pop(key, None)
            if value is None:
                value = build()
            self._entries[key] = value  # insertion order is recency order
            if len(self._entries) > self.size:
                del self._entries[next(iter(self._entries))]
        return value


# Taylor plans of the most recently used (field contents, jet space)
# keys; the bound keeps the cache small, and a plan holds no field.  It
# holds the 11 keys of a calibration, the 16 of a whole benchmark pass
# over the calibration and the jacobi, general closed-form, direct-cost
# and sphere-cost routes, and a check's two.
_TAYLOR_PLAN_CACHE_SIZE = 32
_TAYLOR_PLANS = RecentCache(_TAYLOR_PLAN_CACHE_SIZE)


def _plan_of(fields: Sequence[ScalarField], space: JetSpace) -> TaylorPlan:
    """The Taylor plan of ``fields`` in ``space``, built on first use per
    content and then shared: a plan is a function of the fields' trees
    alone, so every metric parsed from the same text gets one plan, and
    fields that differ in any constant (0.0 and -0.0 too) or in their
    dimension never share one.  Only a degree-2 plan keeps its writer,
    for the stage kernel :func:`_curve_stage` may derive from it."""
    key = (space.nvars, space.degree, *((f.dim, f._source()) for f in fields))
    return _TAYLOR_PLANS.get(key, lambda: TaylorPlan(fields, space, space.degree == 2))


def _jets_of(fields: Sequence[ScalarField], x, space: JetSpace) -> np.ndarray:
    """Jets of ``fields`` about ``x``: (fields, size) for one point, or
    (fields, B, size) about each row of a (B, dim) array."""
    plan = _plan_of(fields, space)
    X = np.asarray(x, dtype=float)
    out = plan(np.atleast_2d(X))
    return out if X.ndim == 2 else out[:, 0]


def as_point(p: Sequence[float]) -> Point:
    return np.asarray(p, dtype=float)


def as_vectors(dim: int, **vectors) -> list[np.ndarray]:
    """The named vectors (or points) as float arrays, in the order
    given; raises :class:`DimensionError` naming the first whose shape
    is not (dim,).  Every one-point evaluator checks its input here."""
    for name, vec in vectors.items():
        if np.shape(vec) != (dim,):
            raise DimensionError(
                f"{name} has shape {np.shape(vec)}, expected ({dim},) in dimension {dim}")
    return [as_point(vec) for vec in vectors.values()]


def _indefinite(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices b, ascending, of the points whose metric g[b] is not
    positive definite, a non-finite eigenvalue counting as a failure, and
    the smallest eigenvalue of each; g is (B, n, n).

    A g whose Gershgorin bounds g_ii - sum_j!=i |g_ij| all clear the floor
    by more than their rounding passes without ``eigvalsh`` (a non-finite g
    never does).  A g that is not finite fails with eigenvalue nan, and is
    not handed to ``eigvalsh``, which may raise on it or return finite
    eigenvalues; the others are decided by their eigenvalues."""
    # 2 g_ii - sum_j |g_ij| is the bound where g_ii > 0 and at most g_ii
    # elsewhere; 4n eps of the row sum covers its rounding
    rows = (1.0 + 4 * g.shape[1] * 2.0**-52) * np.abs(g).sum(axis=2)
    sure = (2.0 * np.diagonal(g, axis1=1, axis2=2)
            > rows + METRIC_EIGENVALUE_FLOOR).all(axis=1)
    if sure.all():
        return np.empty(0, dtype=np.intp), np.empty(0)
    unsure = np.flatnonzero(~sure)
    finite = np.isfinite(g[unsure]).all(axis=(1, 2))
    w = np.linalg.eigvalsh(g[unsure[finite]])
    bad, low = ~finite, np.full(unsure.size, np.nan)
    bad[finite] = ~np.isfinite(w).all(axis=1) | (w[:, 0] <= METRIC_EIGENVALUE_FLOOR)
    low[finite] = w[:, 0]
    return unsure[bad], low[bad]


def _degenerate(x: np.ndarray, w: float) -> MetricDegenerateError:
    """The error of the point ``x`` whose metric's smallest eigenvalue is ``w``."""
    return MetricDegenerateError(
        f"metric not positive definite at {x.tolist()}: min eigenvalue {w:.3e}")


def require_positive_definite(g: np.ndarray, X: np.ndarray) -> None:
    """Raise :class:`MetricDegenerateError` naming the first point X[b]
    whose metric g[b] is not positive definite (:func:`_indefinite`);
    g is (B, n, n), X (B, n)."""
    bad, w = _indefinite(g)
    if bad.size:
        raise _degenerate(X[bad[0]], w[0])


# ---------------------------------------------------------------------------
# Field containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricField:
    """Symmetric positive-definite metric with expression-tree entries.

    ``entries`` is an n x n nested tuple of :class:`ScalarField`;
    symmetric slots share the same field object, so symmetry is exact
    by construction.
    """

    entries: tuple[tuple[ScalarField, ...], ...]
    dim: int

    @staticmethod
    def from_entries(entries: Sequence[Sequence[ScalarField]]) -> "MetricField":
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise DimensionError("metric entries must form a square array")
        sym: list[list[ScalarField]] = [[None] * n for _ in range(n)]  # type: ignore
        for i in range(n):
            for j in range(i, n):
                fij, fji = entries[i][j], entries[j][i]
                if fij.tree != fji.tree:
                    raise DimensionError(
                        f"metric entries ({i},{j}) and ({j},{i}) differ; "
                        "supply a symmetric array"
                    )
                if fij.dim != n:
                    raise DimensionError(
                        f"metric entry ({i},{j}) has dimension {fij.dim}, expected {n}"
                    )
                sym[i][j] = fij
                sym[j][i] = fij
        return MetricField(tuple(tuple(row) for row in sym), n)

    @staticmethod
    def from_upper(upper: Sequence[ScalarField], dim: int) -> "MetricField":
        """Build from row-major upper-triangle entries (length n(n+1)/2)."""
        need = dim * (dim + 1) // 2
        if len(upper) != need:
            raise DimensionError(
                f"expected {need} upper-triangle entries for dimension {dim}, "
                f"got {len(upper)}"
            )
        grid: list[list[ScalarField]] = [[None] * dim for _ in range(dim)]  # type: ignore
        it = iter(upper)
        for i in range(dim):
            for j in range(i, dim):
                f = next(it)
                grid[i][j] = f
                grid[j][i] = f
        return MetricField.from_entries(grid)

    def matrix(self, x) -> np.ndarray:
        """Metric matrix at ``x`` (n, n), or at each row of a (B, n) array
        (B, n, n), read from the degree-0 jets; raises unless positive
        definite."""
        X = np.atleast_2d(as_point(x))
        if X.shape[-1] != self.dim:
            raise DimensionError(
                f"point has {X.shape[-1]} coordinates, metric expects {self.dim}")
        g = np.moveaxis(self.jets(X, JetSpace.get(self.dim, 0))[..., 0], -1, 0)
        require_positive_definite(g, X)
        return g if np.ndim(x) == 2 else g[0]

    def inner(self, x: Sequence[float], u: Vector, v: Vector) -> float:
        g = self.matrix(x)
        return float(np.asarray(u) @ g @ np.asarray(v))

    def jets(self, x, space: JetSpace) -> np.ndarray:
        """Metric-entry jets about ``x``: (n, n, size) for one point, or
        (n, n, B, size) about each row of a (B, n) array."""
        n = self.dim
        upper = [(i, j) for i in range(n) for j in range(i, n)]
        rows = np.empty((n, n), dtype=np.intp)
        for k, (i, j) in enumerate(upper):
            rows[i, j] = rows[j, i] = k
        fields = [self.entries[i][j] for i, j in upper]
        return _jets_of(fields, x, space)[rows]


@dataclass(frozen=True)
class PotentialField:
    """Scalar potential entering the mechanical action."""

    field: ScalarField
    dim: int

    @staticmethod
    def zero(dim: int) -> "PotentialField":
        return PotentialField(ex.const(0.0, dim), dim)

    @property
    def is_zero(self) -> bool:
        return self.field.tree == ("c", 0.0)

    def jets(self, x, space: JetSpace) -> np.ndarray:
        """Jet of V about ``x``: (size,) for one point, or (B, size) about
        each row of a (B, n) array."""
        return _jets_of([self.field], x, space)[0]


# ---------------------------------------------------------------------------
# Connection and curvature formulas, on jets
# ---------------------------------------------------------------------------


def _first_kind(dg: np.ndarray) -> np.ndarray:
    """T[i, j, m] = d_i g_jm + d_j g_im - d_m g_ij from dg[m, i, j].

    T is twice the Christoffel symbols of the first kind; trailing axes
    (a jet axis, a batch of points) ride along.
    """
    return dg + dg.swapaxes(0, 1) - dg.swapaxes(0, 1).swapaxes(1, 2)


def _christoffel_from(space: JetSpace, ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Christoffel symbols G[k, i, j] from the inverse metric and dg[m, i, j],
    jets of ``space``."""
    return 0.5 * jcontract(space, "km,ijm->kij", ginv, _first_kind(dg))


def _curvature_from(space: JetSpace, gam: np.ndarray, dgam: np.ndarray) -> np.ndarray:
    """Raised curvature Rup[l, i, j, k]: component l of R(e_i, e_j) e_k,
    jets of ``space``.

    ``dgam[p, k, i, j]`` is d_p Gamma^k_ij.  Sign convention
    (sphere-calibrated, see the module docstring): Rup[l, i, j, k] =
    d_j Gamma^l_ik - d_i Gamma^l_jk + Gamma^l_jm Gamma^m_ik
    - Gamma^l_im Gamma^m_jk.
    """
    return (
        np.einsum("jlik...->lijk...", dgam)
        - np.einsum("iljk...->lijk...", dgam)
        + jcontract(space, "ljm,mik->lijk", gam, gam)
        - jcontract(space, "lim,mjk->lijk", gam, gam)
    )


# The curve's RK4 stage and the coefficients of its linearization as
# generated code: the formulas above along the velocity, unrolled for one
# metric and potential (see dynamics).


def _fields_of(metric: MetricField, potential: PotentialField | None) -> list:
    """The fields of the equations of motion: the metric entries row by
    row, then V unless it is zero."""
    R = range(metric.dim)
    fields = [metric.entries[i][j] for i in R for j in R]
    if potential is not None and not potential.is_zero:
        fields.append(potential.field)
    return fields


def _partial_rows(plan: TaylorPlan, n: int) -> np.ndarray:
    """The plan's rows, per field, of its value, of d_m for each m and of
    d_p d_m for each (p, m)."""
    e = np.eye(n, dtype=int)
    monos = [0 * e[0], *e] + [p + m for p in e for m in e]
    return plan.rows[:, [plan.space.index[tuple(m)] for m in monos]]


def _inv_or_nan(g: np.ndarray) -> np.ndarray:
    """g^-1 of a stack of matrices, NaN throughout if one is singular: the
    lanes stop there, and the region test names the point."""
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError:
        return np.full(g.shape, np.nan)


def _stage_kernel(plan: TaylorPlan, n: int, has_potential: bool
                  ) -> tuple[Callable, np.ndarray | None, Callable | None, Callable]:
    """Two straight-line functions of the degree-2 plan of the equations'
    fields, the curve's slope at a stage and its linearization, with the
    constant entries of g, (n, n) with 0 elsewhere (None if all are), and
    for n <= 3 the same values as one RK4 step of one lane in Python
    floats (:func:`_scalar_step`; None for n >= 4): (fn, fill, step, lin).
    All three are written by one writer that continues from the plan's
    (:class:`~mtwcheck.expr._Writer`), and each runs only the lines its
    statements read, so each partial is the plan's value; a constant
    partial is a literal, and a zero one drops out.

    ``fn(a, k, g)`` reads the stage argument a (2n, lanes), a row per
    coordinate [x; v], and writes the slope [v; -Gamma(v, v) - grad V]
    into k (2n, lanes) and the entries of g that are not constant into g
    (lanes, n, n).  With the partials lowered by g,

        f_m = sum_ij d_m g_ij v^i v^j / 2 - sum_j (D_v g_jm) v^j - d_m V,

    D_v g_jm = sum_i v^i d_i g_jm, the slope is dv = g^-1 f: g^-1 is
    cofactors over det for n <= 3 (each entry that is not structurally
    0) and one stacked inverse for n >= 4 (NaN if g is singular there),
    each sum runs in a fixed order over its nonzero terms, grouped by the
    plan row they read (a conformal g shares |v|^2 and D_v g across m),
    and every operation is elementwise over lanes or, for n >= 4, a
    matmul stacked over them.

    ``lin(a)`` returns [d_x F, Gamma v] at each column of a, (columns, n,
    2n), F = Gamma(v, v) + grad V = -dv, so the slope's Jacobian is
    [[0, I], [-d_x F, -2 Gamma v]].  Lowered by g, column p of d_x F is
    -d_p f_m, f_m with every partial shifted by d_p, minus sum_a d_p g_ma
    F^a, and column j of Gamma v is (D_v g_jm + sum_i v^i (d_j g_im -
    d_m g_ij)) / 2; the slope's g^-1 lifts both, by cofactors for n <= 3
    and one stacked matmul for n >= 4.
    """
    part = _partial_rows(plan, n)
    code, value = ex._Writer(plan.code), plan.partials.__getitem__
    vel = [code.input(f"c[{n + i}]") for i in range(n)]

    def by_row(pairs):
        """The sum of value(r) * t over the pairs (r, t) with a row r, the
        terms of a row summed first, rows in order of first appearance."""
        groups: dict = {}
        for r, t in pairs:
            if r is not None:
                groups.setdefault(r, []).append(t)
        return code.sum(code.mul(value(r), code.sum(ts)) for r, ts in groups.items())

    def col(m, p):  # the column of d_m, or of d_p d_m
        return 1 + m if p is None else 1 + n + n * p + m

    def dg(m, i, j, p=None):  # the row of d_m g_ij (d_p d_m g_ij), None where it is 0
        r = part[i * n + j, col(m, p)]
        return None if value(r) == 0.0 else r

    def d_v(i, j, p=None):  # D_v g_ij (d_p D_v g_ij)
        return by_row((dg(m, i, j, p), vel[m]) for m in range(n))

    def force(m, p=None):  # f_m (d_p f_m); a v^i v^j no term reads is not bound
        half = by_row((dg(m, i, j, p), code.mul(0.5, code.mul(vel[i], vel[i])) if i == j
                       else code.mul(vel[i], vel[j]))
                      for i in range(n) for j in range(i, n) if dg(m, i, j, p) is not None)
        fm = code.sub(half, code.sum(code.mul(d, vel[j]) for j in range(n)
                                     if (d := d_v(j, m, p)) != 0.0))
        return code.sub(fm, value(part[n * n, col(m, p)])) if has_potential else fm

    G = [[value(part[i * n + j, 0]) for j in range(n)] for i in range(n)]
    g_set = [(f"g[:, {i}, {j}]", x) for i, row in enumerate(G)
             for j, x in enumerate(row) if not isinstance(x, float)]
    constant = not g_set
    f = [force(m) for m in range(n)]
    if n <= 3:
        gi = code.inverse(G)
        dv = [code.sum(code.mul(gi[k][m], f[m]) for m in range(n)) for k in range(n)]
        out = [(f"k[{n + k}]", x) for k, x in enumerate(dv)]
        slope = []
    else:  # dv = g^-1 f, one matmul stacked over lanes, read by lin as dv0, dv1, ...
        dv = [code.input(f"dv{a}") for a in range(n)]
        out = [f"    k[{n}:] = (gi @ f[..., None])[..., 0].T"]
        slope = ["    gi = _gi" if constant else "    gi = _inv(g)",
                 ("f", f"_empty((c.shape[1], {n}))"),
                 *((f"f[:, {m}]", x) for m, x in enumerate(f))]
    body = g_set + [(f"k[0:{n}]", f"c[{n}:]")] + slope + out

    def twist(j, m):  # sum_i v^i (d_j g_im - d_m g_ij), 0 where j = m
        if j == m:
            return 0.0
        return code.sub(by_row((dg(j, i, m), vel[i]) for i in range(n)),
                        by_row((dg(m, i, j), vel[i]) for i in range(n)))

    # the linearization lowered by g: [m, p] = (g d_p F)_m, [m, n + j] = (g Gamma v)_mj
    low = [[code.sub(by_row((dg(p, m, a), dv[a]) for a in range(n)), force(m, p))
            for p in range(n)]
           + [code.mul(0.5, code.add(d_v(j, m), twist(j, m))) for j in range(n)]
           for m in range(n)]
    if n <= 3:
        lifted = [[code.sum(code.mul(gi[k][m], low[m][q]) for m in range(n))
                   for q in range(2 * n)] for k in range(n)]
        lin_body = [("A", f"_empty((c.shape[1], {n}, {2 * n}))"),
                    *((f"A[:, {k}, {q}]", x) for k, row in enumerate(lifted)
                      for q, x in enumerate(row)), "    return A"]
    else:
        lin_body = ([] if constant else [f"    g = _empty((c.shape[1], {n}, {n}))",
                                         "    g[:] = _fill", *g_set]) + slope + [
            f"    {', '.join(f'dv{a}' for a in range(n))} = (gi @ f[..., None])[..., 0].T",
            ("low", f"_empty((c.shape[1], {n}, {2 * n}))"),
            *((f"low[:, {m}, {q}]", x) for m, row in enumerate(low)
              for q, x in enumerate(row)), "    return gi @ low"]
    fill = None if constant else np.array(
        [[x if isinstance(x, float) else 0.0 for x in row] for row in G])
    scope = {"_inv": _inv_or_nan, "_fill": fill,
             "_gi": np.linalg.inv(G) if constant and n > 3 else None}
    step = _scalar_step(code, n, None if constant else G, dv) if n <= 3 else None
    return (plan.function("k, g", body, scope, code), fill, step,
            plan.function("", lin_body, scope, code))


def _scalar_step(code: ex._Writer, n: int, G: list | None, dv: list) -> Callable:
    """The values of ``code`` that are g ``G`` (None if constant) and the
    slope ``dv`` (n <= 3) as one whole RK4 step of one lane in Python
    floats, the lines that they read rendered once per stage.

    ``step(h, r)`` reads [x; v] from r[0:2n] and returns one flat tuple:
    [x; v] after the step, the four stage arguments and, unless g is
    constant, their g (n x n).  Each value is the vector step's for that
    lane, bit for bit (expr's _SCALAR_GLOBALS), but x / 0.0 and a power
    out of range raise where NumPy returns inf or nan.
    """
    m = 2 * n
    entries = [] if G is None else [x for row in G for x in row]

    def k(s, i):  # the slope of coordinate i at stage s
        return f"a{s}_{n + i}" if i < n else f"k{s}_{i}"

    src = ["def _step(h, r):", *(f"    a0_{i} = r[{i}]" for i in range(m)),
           "    hh = 0.5*h", "    h6 = h/6.0"]
    for s in range(4):
        if s:
            src += [f"    a{s}_{i} = a0_{i} + {k(s - 1, i)}*{'h' if s == 3 else 'hh'}"
                    for i in range(m)]
        src += code.render([(f"g{s}_{e}", x) for e, x in enumerate(entries)
                            if not isinstance(x, float)]
                           + [(f"k{s}_{n + i}", x) for i, x in enumerate(dv)],
                           inputs={f"c[{i}]": f"a{s}_{i}" for i in range(m)})
    # y + h/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
    out = [f"a0_{i} + ((({k(0, i)} + {k(1, i)}*2.0) + {k(2, i)}*2.0) + {k(3, i)})*h6"
           for i in range(m)]
    out += [f"a{s}_{i}" for s in range(4) for i in range(m)]
    out += [repr(x) if isinstance(x, float) else f"g{s}_{e}"
            for s in range(4) for e, x in enumerate(entries)]
    src.append(f"    return ({', '.join(out)})")
    return ex._compile("\n".join(src), "_step", ex._SCALAR_GLOBALS)


def _curve_stage(metric: MetricField, potential: PotentialField | None):
    """The curve's stage kernel, constant g, scalar step and linearization
    (:func:`_stage_kernel`), compiled on first use and kept on their
    plan's entry in the plan cache."""
    n = metric.dim
    fields = _fields_of(metric, potential)
    plan = _plan_of(fields, JetSpace.get(n, 2))
    if plan.kernel is None:
        plan.kernel = _stage_kernel(plan, n, len(fields) > n * n)
    return plan.kernel


def christoffel(metric: MetricField, x: Sequence[float]) -> np.ndarray:
    """Christoffel symbols G[k, i, j] of the metric at ``x``."""
    return GeometryBatch(metric, as_point(x)[None], curvature_order=0).gamma[0]


def riemann(metric: MetricField, x: Sequence[float]) -> np.ndarray:
    """Fully lowered curvature array R[i, j, k, l] at ``x``."""
    return GeometryBatch(metric, as_point(x)[None], curvature_order=0).riemann[0]


def sectional(metric: MetricField, x: Sequence[float], u: Vector, w: Vector) -> float:
    """Sectional curvature of span(u, w) at ``x``."""
    u, w = as_vectors(metric.dim, u=u, w=w)
    geo = GeometryBatch(metric, as_point(x)[None], curvature_order=0)
    return float(sectional_curvature(geo.g[0], geo.riemann[0], u, w))


def gram_schmidt(
    metric: MetricField, x: Sequence[float], vectors: Sequence[Vector]
) -> list[np.ndarray]:
    """Metric-orthonormalize ``vectors`` at ``x`` (:func:`orthonormalize`);
    raises :class:`RankDeficiencyError` if they are dependent."""
    x, *vectors = as_vectors(metric.dim, x=x, **{
        f"vectors[{i}]": vec for i, vec in enumerate(vectors)})
    out, ok = orthonormalize(metric.matrix(x), vectors)
    if not ok:
        raise RankDeficiencyError(
            "vectors are zero or numerically linearly dependent at this point"
        )
    return out


def contract(T: np.ndarray, *vecs) -> np.ndarray:
    """T(..., vecs[0], ..., vecs[-1]): the last ``len(vecs)`` slots of T
    against vectors, a ``None`` leaving its slot open.

    Every operand carries the same number of leading batch axes (points,
    pairs, directions, ...), which broadcast; T's slots and each
    vector's components follow them.  The last given slot is contracted
    first, and each sum is one elementwise product per index added in
    index order, so an entry's value does not depend on the batch shape.
    """
    open_after = 0
    for v in reversed(vecs):
        if v is None:
            open_after += 1
            continue
        v = np.asarray(v, dtype=float)
        n = v.shape[-1]
        v = v.reshape(v.shape[:-1] + (1,) * (T.ndim - v.ndim - open_after) + (n,)
                      + (1,) * open_after)
        tail = (slice(None),) * open_after
        out = T[(..., 0) + tail] * v[(..., 0) + tail]
        for k in range(1, n):
            out = out + T[(..., k) + tail] * v[(..., k) + tail]
        T = out
    return T


def orthonormalize(g: np.ndarray, vectors) -> tuple[list[np.ndarray], np.ndarray]:
    """Metric-orthonormal vectors from ``vectors`` by Gram-Schmidt with one
    re-orthogonalization pass, batch axes leading as in :func:`contract`.

    Returns the vectors and the mask ``ok``, False where they are zero or
    numerically dependent; there the output holds meaningless finite
    vectors.
    """
    out: list[np.ndarray] = []
    ok = np.True_
    for d in vectors:
        d = np.asarray(d, dtype=float)
        scale = np.sqrt(contract(g, d, d))
        v = d
        for _ in range(2):  # second pass sharpens orthogonality to rounding level
            for e in out:
                v = v - contract(g, e, v)[..., None] * e
        norm = np.sqrt(contract(g, v, v)) if out else scale
        ok = ok & (norm > DEPENDENCE_FLOOR * scale)
        out.append(v / np.where(ok, norm, 1.0)[..., None])
    return out, ok


def sectional_curvature(g: np.ndarray, R: np.ndarray, u, w, where=True) -> np.ndarray:
    """Sectional curvature of span(u, w) from the metric and the lowered
    curvature, batch axes as in :func:`contract`.

    Raises :class:`DegeneratePlaneError` for a degenerate plane where
    ``where`` holds; elsewhere such a plane gets a meaningless value.
    """
    uu = contract(g, u, u)
    ww = contract(g, w, w)
    uw = contract(g, u, w)
    denom = uu * ww - uw * uw
    flat = denom <= PLANE_DEGENERACY_FLOOR * uu * ww
    bad = flat & where
    if np.any(bad):
        area2 = np.broadcast_to(denom, np.shape(bad))[bad].flat[0]
        raise DegeneratePlaneError(
            f"2-plane spanned by u, w is degenerate (area^2 = {area2:.3e})"
        )
    return contract(R, w, u, w, u) / np.where(flat, 1.0, denom)


def quarter_turn(g: np.ndarray, u) -> np.ndarray:
    """Metric rotation of 2-vectors ``u`` by a quarter turn, batch axes
    leading on both operands: w with <u, w> = 0 and |w| = |u|."""
    u = np.asarray(u, dtype=float)
    s = np.sqrt(g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0])
    return np.stack(
        [
            (-g[..., 1, 0] * u[..., 0] - g[..., 1, 1] * u[..., 1]) / s,
            (g[..., 0, 0] * u[..., 0] + g[..., 0, 1] * u[..., 1]) / s,
        ],
        axis=-1,
    )


def rotate90(metric: MetricField, x: Sequence[float], u: Vector) -> np.ndarray:
    """Metric rotation of ``u`` by a quarter turn (dimension 2 only).

    Returns w with <u, w> = 0 and |w| = |u|; on the Euclidean plane
    u = (u1, u2) maps to (-u2, u1).
    """
    if metric.dim != 2:
        raise DimensionError("quarter-turn rotation requires dimension 2")
    (u,) = as_vectors(2, u=u)
    return quarter_turn(metric.matrix(x), u)


def _generalized_eigh(H: np.ndarray, g: np.ndarray):
    """Eigenpairs of H e = lam g e for symmetric H and positive-definite g.

    Cholesky reduction (Golub and Van Loan, *Matrix Computations*,
    section 8.7): with g = L L^T, the eigenvectors y of L^-1 H L^-T give
    e = L^-T y.  The eigenvalues ascend and the columns of E are
    g-orthonormal.  Leading axes of H and g are batch axes.
    """
    Linv = np.linalg.inv(np.linalg.cholesky(g))
    LinvT = np.swapaxes(Linv, -1, -2)
    lam, Y = np.linalg.eigh(Linv @ H @ LinvT)
    return lam, LinvT @ Y


def mode_profile(mus: np.ndarray, t) -> np.ndarray:
    """Outgoing profile sinh(mu t) / mu of each mode, t where mu vanishes.

    ``mus`` broadcasts against ``t``.
    """
    small = mus <= MODE_MU_FLOOR
    mu_safe = np.where(small, 1.0, mus)
    return np.where(small, t, np.sinh(mu_safe * t) / mu_safe)


# ---------------------------------------------------------------------------
# Jet pipeline: covariant derivatives and the geometry of a batch of points
# ---------------------------------------------------------------------------


def _covariant_derivative_jets(
    space: JetSpace, T: np.ndarray, gam: np.ndarray
) -> np.ndarray:
    """Covariant derivative of a fully lowered jet-valued tensor.

    ``T`` has shape (n,)*r + (B, size) with jets at least one degree
    above ``space`` and ``gam`` at least at its degree; the result, jets
    of ``space``, prepends the new derivative index:

        out[m, I] = d_m T[I] - sum_s sum_p Gamma^p_{m, I_s} T[I | I_s -> p].
    """
    idx = "abcdefgh"[: T.ndim - 2]
    out = jgrad(space, T)
    T, gam = T[..., : space.size], gam[..., : space.size]
    for s, q in enumerate(idx):
        out = out - jcontract(
            space, f"{idx[:s]}p{idx[s + 1:]},pm{q}->m{idx}", T, gam
        )
    return out


def _values(J: np.ndarray) -> np.ndarray:
    """Values of a jet array with the point axis before the jet axis,
    as a new array with the point axis first."""
    v = jvalue(J)
    return v.transpose((v.ndim - 1, *range(v.ndim - 1))).copy()


# Per-point arrays of GeometryBatch, in build order.
_FIELDS = (
    "g", "g_inv", "gamma", "dgamma", "d2gamma", "riemann", "riemann_raised",
    "nabla_r", "nabla2_r", "grad_v_lower", "grad_v", "hess_v", "nabla3_v",
    "nabla4_v",
)


class GeometryBatch:
    """Point-local tensor data at a batch of points, point axis first.

    Built once per (metric, potential, batch of points); exposes the
    metric, Christoffel symbols and their coordinate derivatives,
    lowered curvature with up to two covariant derivatives and covariant
    potential derivatives through fourth order, each array with a
    leading point axis: ``g[b]`` is the metric at ``x[b]``.
    ``d2gamma``, ``nabla_r`` and ``nabla2_r`` are ``None`` below the
    curvature order that needs them, the potential's arrays ``None``
    without a potential.  The geometry at one point is a batch of one,
    ``GeometryBatch(metric, x[None], ...)``, read at index 0.

    The metric and potential jets at all points come from one generated
    function each (:meth:`MetricField.jets`).  In the jet pipeline the
    point axis sits just before the jet axis, so the connection and
    curvature formulas, written once, run on a batch unchanged, and
    every jet product is a matmul per point (:func:`~mtwcheck.jets.jcontract`):
    point b of a batch equals the same point built alone, bit for bit.
    Each stage runs in the smallest jet space that keeps its values
    exact (the stage-degree table of :mod:`mtwcheck.jets`); a jet of
    lower degree is a prefix slice of a higher one.  Memory grows
    linearly with the number of points, so large samples are built in
    chunks.
    """

    def __init__(
        self,
        metric: MetricField,
        x,
        potential: PotentialField | None = None,
        curvature_order: int = 2,
    ):
        n = metric.dim
        X = np.asarray(x, dtype=float)
        if X.ndim != 2 or X.shape[1] != n:
            raise DimensionError(f"expected points of shape (B, {n}), got {X.shape}")
        if potential is not None and potential.dim != n:
            raise DimensionError(
                f"potential dimension {potential.dim} != metric dimension {n}"
            )
        self.metric = metric
        self.x = X
        self.potential = potential
        self.dim = n
        at = partial(JetSpace.get, n)  # at(d): the jet space of degree d

        # nabla^k R is read at degree 0, so R runs at degree k and the
        # Christoffel symbols one above; the potential's Hessian reads them
        # at degree 2, and so does d2gamma from order 1 on.
        k = curvature_order
        gam_deg = max(k + 1, 1 if potential is None else 2)
        G = metric.jets(X, at(gam_deg + 1))  # [i, j, b, :]
        self.g = _values(G)
        require_positive_definite(self.g, X)
        space = at(gam_deg)
        Ginv = jmatinv(space, G[..., : space.size])
        gam = _christoffel_from(space, Ginv, jgrad(space, G))
        dgam = jgrad(at(gam_deg - 1), gam)  # [m, k, i, j, b, :]

        self.g_inv = _values(Ginv)
        self.gamma = _values(gam)
        self.dgamma = _values(dgam)
        self.d2gamma: np.ndarray | None = None
        if k >= 1:
            # d2gamma[p, q, k, i, j] = d_p d_q Gamma^k_ij
            self.d2gamma = _values(jgrad(at(0), dgam))

        r_space = at(k)
        size = r_space.size
        rup = _curvature_from(r_space, gam[..., :size], dgam[..., :size])
        Rlow = jcontract(r_space, "mijk,lm->ijkl", rup, G[..., :size])
        self.riemann = _values(Rlow)
        self.riemann_raised = _values(rup)

        self.nabla_r: np.ndarray | None = None
        self.nabla2_r: np.ndarray | None = None
        if k >= 1:
            nr = _covariant_derivative_jets(at(k - 1), Rlow, gam)
            self.nabla_r = _values(nr)
            if k >= 2:
                nr2 = _covariant_derivative_jets(at(k - 2), nr, gam)
                self.nabla2_r = _values(nr2)

        self.grad_v: np.ndarray | None = None
        self.grad_v_lower: np.ndarray | None = None
        self.hess_v: np.ndarray | None = None
        self.nabla3_v: np.ndarray | None = None
        self.nabla4_v: np.ndarray | None = None
        if potential is not None:
            dv = jgrad(at(3), potential.jets(X, at(4)))
            hess = _covariant_derivative_jets(at(2), dv, gam)
            n3 = _covariant_derivative_jets(at(1), hess, gam)
            n4 = _covariant_derivative_jets(at(0), n3, gam)
            self.grad_v_lower = _values(dv)
            self.grad_v = (self.g_inv @ self.grad_v_lower[..., None])[..., 0]
            self.hess_v = _values(hess)
            self.nabla3_v = _values(n3)
            self.nabla4_v = _values(n4)

    def __len__(self) -> int:
        return len(self.x)

    def grad_norms(self) -> np.ndarray:
        """|grad V| at every point; zeros without a potential."""
        if self.grad_v_lower is None:
            return np.zeros(len(self))
        return np.sqrt(contract(self.g_inv, self.grad_v_lower, self.grad_v_lower))

    def expand(self, axes: int) -> "GeometryBatch":
        """The same batch with ``axes`` unit axes after the point axis of
        every per-point array, to broadcast (:func:`contract`) against
        vectors that carry further batch axes such as pairs and
        directions."""
        out = copy.copy(self)
        for name in _FIELDS:
            val = getattr(self, name)
            if val is not None:
                setattr(out, name, val.reshape(val.shape[:1] + (1,) * axes
                                               + val.shape[1:]))
        return out

    def hessian_modes(self, what: str | None = None):
        """Modes of Hess V relative to g at every point: (mus, E, ok) with
        Hess V E = -g E diag(mus^2) and g-orthonormal columns of E.

        ``ok`` masks the maxima of the potential, the critical points
        with Hess V <= 0, about which the modes linearize the flow; given
        ``what``, the first other point raises :class:`PreconditionError`
        naming it.  Without a potential every point is ok, every mu is 0
        and E is a g-orthonormal frame.
        """
        gnorm = self.grad_norms()
        H = np.zeros_like(self.g) if self.hess_v is None else self.hess_v
        lam, E = _generalized_eigh(H, self.g)
        top = lam[:, -1]
        critical = gnorm <= CRITICAL_GRAD_TOL
        ok = critical & (top <= HESS_NONPOSITIVE_TOL
                         * np.maximum(1.0, np.max(np.abs(lam), axis=-1)))
        bad = np.flatnonzero(~ok)
        if what is not None and bad.size:
            b = bad[0]
            raise PreconditionError(
                f"{what} requires a critical point of the potential "
                f"(|grad V| = {gnorm[b]:.3e})" if not critical[b] else
                f"{what} requires Hess V <= 0 (largest eigenvalue {top[b]:.3e})")
        return np.sqrt(np.maximum(-lam, 0.0)), E, ok


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def euclidean_metric(dim: int) -> MetricField:
    if dim < 1:
        raise DimensionError(f"dimension must be at least 1, got {dim}")
    entries = [
        [ex.const(1.0 if i == j else 0.0, dim) for j in range(dim)] for i in range(dim)
    ]
    return MetricField.from_entries(entries)


def sphere_metric() -> MetricField:
    """Round unit 2-sphere in polar chart: diag(1, sin(x)^2)."""
    one = ex.const(1.0, 2)
    zero = ex.const(0.0, 2)
    s2 = ex.power(ex.sin(ex.var(0, 2)), 2)
    return MetricField.from_entries([[one, zero], [zero, s2]])


def scale_metric(metric: MetricField, factor: float) -> MetricField:
    """Uniformly scaled metric factor * g."""
    if factor <= 0:
        raise PreconditionError("metric scale factor must be positive")
    entries = [
        [ex.scale(factor, metric.entries[i][j]) for j in range(metric.dim)]
        for i in range(metric.dim)
    ]
    return MetricField.from_entries(entries)


def quartic_potential(A: np.ndarray) -> PotentialField:
    """Potential V(x) = -(x^T A x)^2 for a symmetric matrix A."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionError("quartic potential matrix must be square")
    if not np.allclose(A, A.T, atol=1e-12):
        raise PreconditionError("quartic potential matrix must be symmetric")
    q = ex.fsum(
        (
            ex.scale(A[i, j], ex.mul(ex.var(i, n), ex.var(j, n)))
            for i in range(n)
            for j in range(n)
            if A[i, j] != 0.0
        ),
        n,
    )
    return PotentialField(ex.neg(ex.power(q, 2)), n)


def harmonic_potential(dim: int, omega: float = 1.0) -> PotentialField:
    """Concave quadratic potential V(x) = -(omega^2 / 2) |x|^2."""
    q = ex.fsum((ex.power(ex.var(i, dim), 2) for i in range(dim)), dim)
    return PotentialField(ex.neg(ex.scale(0.5 * omega**2, q)), dim)

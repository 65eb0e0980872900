"""Riemannian data on a single global chart.

Tensors are stored fully lowered in coordinate components as numpy
arrays.  The curvature array uses the convention

    R[i, j, k, l] = <R(e_i, e_j) e_k, e_l>

with the overall sign fixed so that on the round unit sphere the
sectional curvature computed as

    K(u, w) = R[w, u, w, u] / (|u|^2 |w|^2 - <u, w>^2)

equals +1.  The same array feeds the curve-variation equation through
the raised operator ``(R(a, b) c)^l``, keeping the two uses mutually
consistent; the sphere oracle in the test suite pins the sign.

Derivative strategy: the Christoffel formula and the curvature formula
are written once, in :func:`_christoffel_from` and
:func:`_curvature_from`, with the tensor product passed in.
``dynamics`` evaluates them on batches of point values with
``np.einsum``, the batch riding along as a trailing axis (the metric
partials come from exact expression-tree differentiation);
:class:`GeometryJet` evaluates them on truncated Taylor jets with
:func:`~mtwcheck.jets.jcontract`, which differentiates the whole
pipeline exactly, so covariant derivatives of curvature and of the
potential need no further formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import expr as ex
from .errors import (
    DegeneratePlaneError,
    DimensionError,
    MetricDegenerateError,
    PreconditionError,
    RankDeficiencyError,
)
from .expr import ScalarField, taylor_coefficients
from .jets import JetSpace, jcontract, jderiv, jmatinv, jvalue

# Positive-definiteness floor for metric evaluation.
METRIC_EIGENVALUE_FLOOR = 1e-10
# Relative floor below which a 2-plane counts as degenerate.
PLANE_DEGENERACY_FLOOR = 1e-12
# Orthonormality target for Gram-Schmidt output.
ORTHONORMALITY_TOL = 1e-12

Vector = np.ndarray
Point = np.ndarray


def as_point(p: Sequence[float]) -> Point:
    return np.asarray(p, dtype=float)


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

    def matrix(self, x: Sequence[float]) -> np.ndarray:
        """Metric matrix at ``x``; raises if not positive definite."""
        x = as_point(x)
        g = np.empty((self.dim, self.dim))
        for i in range(self.dim):
            for j in range(i, self.dim):
                g[i, j] = g[j, i] = self.entries[i][j](x)
        w = np.linalg.eigvalsh(g)
        if w[0] <= METRIC_EIGENVALUE_FLOOR:
            raise MetricDegenerateError(
                f"metric not positive definite at {x.tolist()}: min eigenvalue {w[0]:.3e}"
            )
        return g

    def inner(self, x: Sequence[float], u: Vector, v: Vector) -> float:
        g = self.matrix(x)
        return float(np.asarray(u) @ g @ np.asarray(v))

    def jets(self, x: Sequence[float], space: JetSpace) -> np.ndarray:
        """(n, n, size) array of metric-entry jets about ``x``."""
        n = self.dim
        G = np.empty((n, n, space.size))
        for i in range(n):
            for j in range(i, n):
                c = taylor_coefficients(self.entries[i][j], as_point(x), space)
                G[i, j] = c
                G[j, i] = c
        return G


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

    def __call__(self, x: Sequence[float]) -> float:
        return self.field(x)


# ---------------------------------------------------------------------------
# Connection and curvature formulas, for point values and for jets
# ---------------------------------------------------------------------------


def _first_kind(dg: np.ndarray) -> np.ndarray:
    """T[i, j, m] = d_i g_jm + d_j g_im - d_m g_ij from dg[m, i, j].

    T is twice the Christoffel symbols of the first kind; trailing axes
    (a jet axis, a batch of points) ride along.
    """
    return dg + dg.swapaxes(0, 1) - dg.swapaxes(0, 1).swapaxes(1, 2)


def _christoffel_from(product, ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Christoffel symbols G[k, i, j] from the inverse metric and dg[m, i, j].

    ``product`` is an ``np.einsum`` on (batches of) point values or a
    bound :func:`~mtwcheck.jets.jcontract` on jets.
    """
    return 0.5 * product("km,ijm->kij", ginv, _first_kind(dg))


def _curvature_from(product, gam: np.ndarray, dgam: np.ndarray) -> np.ndarray:
    """Raised curvature Rup[l, i, j, k]: component l of R(e_i, e_j) e_k.

    ``dgam[p, k, i, j]`` is d_p Gamma^k_ij; ``product`` as in
    :func:`_christoffel_from`.  Sign convention (sphere-calibrated, see
    the module docstring): Rup[l, i, j, k] = d_j Gamma^l_ik
    - d_i Gamma^l_jk + Gamma^l_jm Gamma^m_ik - Gamma^l_im Gamma^m_jk.
    """
    return (
        np.einsum("jlik...->lijk...", dgam)
        - np.einsum("iljk...->lijk...", dgam)
        + product("ljm,mik->lijk", gam, gam)
        - product("lim,mjk->lijk", gam, gam)
    )


def christoffel(metric: MetricField, x: Sequence[float]) -> np.ndarray:
    """Christoffel symbols G[k, i, j] of the metric at ``x``."""
    return GeometryJet(metric, x, curvature_order=0).gamma


def riemann(metric: MetricField, x: Sequence[float]) -> np.ndarray:
    """Fully lowered curvature array R[i, j, k, l] at ``x``."""
    return GeometryJet(metric, x, curvature_order=0).riemann


def sectional(metric: MetricField, x: Sequence[float], u: Vector, w: Vector) -> float:
    """Sectional curvature of span(u, w) at ``x``."""
    jet = GeometryJet(metric, x, curvature_order=0)
    return jet.sectional(np.asarray(u, dtype=float), np.asarray(w, dtype=float))


def gram_schmidt(
    metric: MetricField, x: Sequence[float], vectors: Sequence[Vector]
) -> list[np.ndarray]:
    """Metric-orthonormalize ``vectors`` at ``x`` (with re-orthogonalization)."""
    g = metric.matrix(x)
    out: list[np.ndarray] = []
    for v in vectors:
        v = np.asarray(v, dtype=float).copy()
        scale0 = float(np.sqrt(v @ g @ v))
        if scale0 == 0.0:
            raise RankDeficiencyError("zero vector passed to orthonormalization")
        for _ in range(2):  # second pass sharpens orthogonality to rounding level
            for e in out:
                v = v - float(e @ g @ v) * e
        norm = float(np.sqrt(v @ g @ v))
        if norm <= 1e-10 * scale0:
            raise RankDeficiencyError(
                "vectors are numerically linearly dependent at this point"
            )
        out.append(v / norm)
    return out


def rotate90(metric: MetricField, x: Sequence[float], u: Vector) -> np.ndarray:
    """Metric rotation of ``u`` by a quarter turn (dimension 2 only).

    Returns w with <u, w> = 0 and |w| = |u|; on the Euclidean plane
    u = (u1, u2) maps to (-u2, u1).
    """
    if metric.dim != 2:
        raise DimensionError("quarter-turn rotation requires dimension 2")
    u = np.asarray(u, dtype=float)
    g = metric.matrix(x)
    s = float(np.sqrt(np.linalg.det(g)))
    return np.array(
        [
            (-g[1, 0] * u[0] - g[1, 1] * u[1]) / s,
            (g[0, 0] * u[0] + g[0, 1] * u[1]) / s,
        ]
    )


# ---------------------------------------------------------------------------
# Jet pipeline: covariant derivatives and the point geometry object
# ---------------------------------------------------------------------------


def _covariant_derivative_jets(
    space: JetSpace, T: np.ndarray, gam: np.ndarray
) -> np.ndarray:
    """Covariant derivative of a fully lowered jet-valued tensor.

    ``T`` has shape (n,)*r + (size,); the result prepends the new
    derivative index:

        out[m, I] = d_m T[I] - sum_s sum_p Gamma^p_{m, I_s} T[I | I_s -> p].
    """
    n = gam.shape[0]
    idx = "abcdefgh"[: T.ndim - 1]
    out = np.stack([jderiv(space, T, m) for m in range(n)])
    for s, q in enumerate(idx):
        out = out - jcontract(
            space, f"{idx[:s]}p{idx[s + 1:]},pm{q}->m{idx}", T, gam
        )
    return out


class GeometryJet:
    """Point-local tensor data needed by the curvature evaluators.

    Built once per (metric, potential, point); exposes the metric,
    Christoffel symbols and their coordinate derivatives, lowered
    curvature with up to two covariant derivatives, covariant potential
    derivatives through fourth order, and common contractions.
    """

    def __init__(
        self,
        metric: MetricField,
        x: Sequence[float],
        potential: PotentialField | None = None,
        curvature_order: int = 2,
    ):
        self.metric = metric
        self.x = as_point(x)
        self.potential = potential
        n = metric.dim
        self.dim = n

        space = JetSpace.get(n, 4)
        self._space = space

        G = metric.jets(self.x, space)
        g0 = jvalue(G)
        w = np.linalg.eigvalsh(g0)
        if w[0] <= METRIC_EIGENVALUE_FLOOR:
            raise MetricDegenerateError(
                f"metric not positive definite at {self.x.tolist()}: "
                f"min eigenvalue {w[0]:.3e}"
            )
        Ginv = jmatinv(space, G)
        product = partial(jcontract, space)
        gam = _christoffel_from(
            product, Ginv, np.stack([jderiv(space, G, m) for m in range(n)])
        )

        self.g = g0
        self.g_inv = jvalue(Ginv)
        self.gamma = jvalue(gam)
        dgam = np.stack([jderiv(space, gam, m) for m in range(n)])  # [m, k, i, j, :]
        self.dgamma = jvalue(dgam)
        self.d2gamma = np.stack(
            [jvalue(jderiv(space, dgam, p)) for p in range(n)]
        )  # d2gamma[p, q, k, i, j] = d_p d_q Gamma^k_ij

        rup = _curvature_from(product, gam, dgam)
        Rlow = product("lm,mijk->ijkl", G, rup)
        self.riemann = jvalue(Rlow)
        self.riemann_raised = jvalue(rup)

        self.nabla_r: np.ndarray | None = None
        self.nabla2_r: np.ndarray | None = None
        if curvature_order >= 1:
            # copies, so a kept jet does not hold the Taylor arrays
            nr = _covariant_derivative_jets(space, Rlow, gam)
            self.nabla_r = jvalue(nr).copy()
            if curvature_order >= 2:
                nr2 = _covariant_derivative_jets(space, nr, gam)
                self.nabla2_r = jvalue(nr2).copy()

        self.grad_v: np.ndarray | None = None
        self.grad_v_lower: np.ndarray | None = None
        self.hess_v: np.ndarray | None = None
        self.nabla3_v: np.ndarray | None = None
        self.nabla4_v: np.ndarray | None = None
        if potential is not None:
            if potential.dim != n:
                raise DimensionError(
                    f"potential dimension {potential.dim} != metric dimension {n}"
                )
            vjet = taylor_coefficients(potential.field, self.x, space)
            dv = np.stack([jderiv(space, vjet, m) for m in range(n)])
            hess = _covariant_derivative_jets(space, dv, gam)
            n3 = _covariant_derivative_jets(space, hess, gam)
            n4 = _covariant_derivative_jets(space, n3, gam)
            self.grad_v_lower = jvalue(dv)
            self.grad_v = self.g_inv @ self.grad_v_lower
            self.hess_v = jvalue(hess)
            self.nabla3_v = jvalue(n3)
            self.nabla4_v = jvalue(n4)

    # -- contractions ------------------------------------------------------

    def inner(self, u: Vector, v: Vector) -> float:
        return float(np.asarray(u) @ self.g @ np.asarray(v))

    def norm(self, u: Vector) -> float:
        return float(np.sqrt(self.inner(u, u)))

    def curvature_op(self, a: Vector, b: Vector, c: Vector) -> np.ndarray:
        """Vector (R(a, b) c)^l."""
        return np.einsum("lijk,i,j,k->l", self.riemann_raised, a, b, c)

    def r4(self, a: Vector, b: Vector, c: Vector, d: Vector) -> float:
        """<R(a, b) c, d>."""
        return float(np.einsum("ijkl,i,j,k,l->", self.riemann, a, b, c, d))

    def nr5(self, m: Vector, a: Vector, b: Vector, c: Vector, d: Vector) -> float:
        """<(nabla_m R)(a, b) c, d>."""
        if self.nabla_r is None:
            raise PreconditionError("curvature_order >= 1 required")
        return float(np.einsum("mijkl,m,i,j,k,l->", self.nabla_r, m, a, b, c, d))

    def n2r6(
        self, p: Vector, q: Vector, a: Vector, b: Vector, c: Vector, d: Vector
    ) -> float:
        """<(nabla_p nabla_q R)(a, b) c, d>."""
        if self.nabla2_r is None:
            raise PreconditionError("curvature_order >= 2 required")
        return float(
            np.einsum("pqijkl,p,q,i,j,k,l->", self.nabla2_r, p, q, a, b, c, d)
        )

    def sectional(self, u: Vector, w: Vector) -> float:
        uu = self.inner(u, u)
        ww = self.inner(w, w)
        uw = self.inner(u, w)
        denom = uu * ww - uw * uw
        if denom <= PLANE_DEGENERACY_FLOOR * uu * ww:
            raise DegeneratePlaneError(
                f"2-plane spanned by u, w is degenerate (area^2 = {denom:.3e})"
            )
        return self.r4(w, u, w, u) / denom

    def hess_op(self, j: Vector) -> np.ndarray:
        """Raised Hessian operator applied to a vector."""
        if self.hess_v is None:
            raise PreconditionError("geometry jet was built without a potential")
        return self.g_inv @ (self.hess_v @ np.asarray(j))

    def fourth_contraction(self, w: Vector, u: Vector) -> float:
        """Fourth covariant potential derivative contracted (w, w, u, u)."""
        if self.nabla4_v is None:
            raise PreconditionError("geometry jet was built without a potential")
        return float(np.einsum("abcd,a,b,c,d->", self.nabla4_v, w, w, u, u))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def euclidean_metric(dim: int) -> MetricField:
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
    return PotentialField(ex.sub(ex.const(0.0, n), ex.power(q, 2)), n)


def harmonic_potential(dim: int, omega: float = 1.0) -> PotentialField:
    """Concave quadratic potential V(x) = -(omega^2 / 2) |x|^2."""
    q = ex.fsum((ex.power(ex.var(i, dim), 2) for i in range(dim)), dim)
    return PotentialField(ex.sub(ex.const(0.0, dim), ex.scale(0.5 * omega**2, q)), dim)

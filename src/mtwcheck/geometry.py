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

Derivative strategy: values of the metric and its partials come from
exact expression-tree differentiation.  First-order objects
(Christoffel symbols, curvature values) use direct coordinate
formulas; covariant derivatives of curvature and third/fourth
potential derivatives run the same formulas in truncated Taylor (jet)
arithmetic, which differentiates the whole pipeline exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .jets import JetSpace, jderiv, jmatinv, jmul, jvalue

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

    def partials(self, x: Sequence[float], order: int) -> list[np.ndarray]:
        """[g, dg, d2g, ...] with dg[m, i, j] = d_m g_ij and so on.

        Derivative axes come first and are symmetrized (mixed partials
        commute exactly in the expression layer).
        """
        x = as_point(x)
        n = self.dim
        out = [np.empty((n,) * r + (n, n)) for r in range(order + 1)]
        counts = [0] * n

        def fill(remaining: int, start: int, prefix: tuple[int, ...]):
            if remaining == 0:
                for i in range(n):
                    for j in range(i, n):
                        val = self.entries[i][j].partial(counts)(x)
                        out[len(prefix)][prefix + (i, j)] = val
                        out[len(prefix)][prefix + (j, i)] = val
                return
            for m in range(start, n):
                counts[m] += 1
                fill(remaining - 1, m, prefix + (m,))
                counts[m] -= 1

        for r in range(order + 1):
            fill(r, 0, ())
        for r in range(2, order + 1):
            arr = out[r]
            for combo in np.ndindex(*(n,) * r):
                arr[combo] = arr[tuple(sorted(combo))]
        w = np.linalg.eigvalsh(out[0])
        if w[0] <= METRIC_EIGENVALUE_FLOOR:
            raise MetricDegenerateError(
                f"metric not positive definite at {x.tolist()}: "
                f"min eigenvalue {w[0]:.3e}"
            )
        return out

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
# Direct (value-level) formulas
# ---------------------------------------------------------------------------


def _christoffel_from(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Christoffel symbols from g and dg[m, i, j] = d_m g_ij."""
    ginv = np.linalg.inv(g)
    # T[i, j, m] = d_i g_jm + d_j g_im - d_m g_ij
    T = dg + np.einsum("jim->ijm", dg) - np.einsum("mij->ijm", dg)
    return 0.5 * np.einsum("km,ijm->kij", ginv, T)


def christoffel(metric: MetricField, x: Sequence[float]) -> np.ndarray:
    """Christoffel symbols G[k, i, j] of the metric at ``x``."""
    g, dg = metric.partials(x, 1)
    return _christoffel_from(g, dg)


def _riemann_raised_from(g: np.ndarray, dg: np.ndarray, d2g: np.ndarray) -> np.ndarray:
    """Raised curvature Rup[l, i, j, k]: component l of R(e_i, e_j) e_k.

    Sign convention: Rup[l, i, j, k] = d_j Gamma^l_ik - d_i Gamma^l_jk
    + Gamma^l_jm Gamma^m_ik - Gamma^l_im Gamma^m_jk (sphere-calibrated,
    see module docstring).
    """
    ginv = np.linalg.inv(g)
    gam = _christoffel_from(g, dg)
    dginv = -np.einsum("ka,mab,bl->mkl", ginv, dg, ginv)
    T = dg + np.einsum("jim->ijm", dg) - np.einsum("mij->ijm", dg)
    # dT[p, i, j, m] = d_p T[i, j, m]
    dT = (
        d2g
        + np.einsum("pjim->pijm", d2g)
        - np.einsum("pmij->pijm", d2g)
    )
    # dgam[p, k, i, j] = d_p Gamma^k_ij
    dgam = 0.5 * (
        np.einsum("pkm,ijm->pkij", dginv, T) + np.einsum("km,pijm->pkij", ginv, dT)
    )
    return (
        np.einsum("jlik->lijk", dgam)
        - np.einsum("iljk->lijk", dgam)
        + np.einsum("ljm,mik->lijk", gam, gam)
        - np.einsum("lim,mjk->lijk", gam, gam)
    )


def riemann_raised(metric: MetricField, x: Sequence[float]) -> np.ndarray:
    g, dg, d2g = metric.partials(x, 2)
    return _riemann_raised_from(g, dg, d2g)


def riemann(metric: MetricField, x: Sequence[float]) -> np.ndarray:
    """Fully lowered curvature array R[i, j, k, l] at ``x``."""
    g, dg, d2g = metric.partials(x, 2)
    rup = _riemann_raised_from(g, dg, d2g)
    return np.einsum("lm,mijk->ijkl", g, rup)


def sectional(metric: MetricField, x: Sequence[float], u: Vector, w: Vector) -> float:
    """Sectional curvature of span(u, w) at ``x``."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    g = metric.matrix(x)
    R = riemann(metric, x)
    uu = float(u @ g @ u)
    ww = float(w @ g @ w)
    uw = float(u @ g @ w)
    denom = uu * ww - uw * uw
    if denom <= PLANE_DEGENERACY_FLOOR * uu * ww:
        raise DegeneratePlaneError(
            f"2-plane spanned by u, w is degenerate (area^2 = {denom:.3e})"
        )
    num = float(np.einsum("ijkl,i,j,k,l->", R, w, u, w, u))
    return num / denom


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
# Jet pipeline: curvature derivatives and potential jets
# ---------------------------------------------------------------------------


def _christoffel_jets(space: JetSpace, G: np.ndarray, Ginv: np.ndarray) -> np.ndarray:
    """Jet-valued Christoffel symbols, shape (k, i, j, size)."""
    n = G.shape[0]
    dG = np.stack([jderiv(space, G, m) for m in range(n)])  # [m, i, j, :]
    # T[i, j, m] = d_i g_jm + d_j g_im - d_m g_ij  (jet-valued)
    T = dG + np.einsum("jimz->ijmz", dG) - np.einsum("mijz->ijmz", dG)
    out = np.zeros((n, n, n, space.size))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                acc = np.zeros(space.size)
                for m in range(n):
                    acc += jmul(space, Ginv[k, m], T[i, j, m])
                out[k, i, j] = 0.5 * acc
    return out


def _covariant_derivative_jets(
    space: JetSpace, T: np.ndarray, gam: np.ndarray
) -> np.ndarray:
    """Covariant derivative of a fully lowered jet-valued tensor.

    ``T`` has shape (n,)*r + (size,); the result prepends the new
    derivative index:

        out[m, I] = d_m T[I] - sum_s sum_p Gamma^p_{m, I_s} T[I | I_s -> p].
    """
    n = gam.shape[0]
    r = T.ndim - 1
    out = np.stack([jderiv(space, T, m) for m in range(n)])
    for s in range(r):
        Tp = np.moveaxis(T, s, 0)  # [p, rest..., size]
        rest = Tp.shape[1:-1]
        gam_b = gam.reshape((n, n * n) + (1,) * len(rest) + (space.size,))
        # one (m, q) at a time keeps the product temporaries n^2 times
        # smaller; the checker builds jets on pool threads, whose
        # allocators each keep their largest temporaries
        corr = np.stack([jmul(space, gam_b[:, mq], Tp).sum(axis=0)
                         for mq in range(n * n)])
        corr = corr.reshape((n, n) + rest + (space.size,))  # [m, q, rest..., size]
        out = out - np.moveaxis(corr, 1, s + 1)
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
        gam = _christoffel_jets(space, G, Ginv)

        self.g = g0
        self.g_inv = jvalue(Ginv)
        self.gamma = jvalue(gam)
        self.dgamma = np.stack([jvalue(jderiv(space, gam, m)) for m in range(n)])
        self.d2gamma = np.stack(
            [
                np.stack(
                    [jvalue(jderiv(space, jderiv(space, gam, q), p)) for q in range(n)]
                )
                for p in range(n)
            ]
        )  # d2gamma[p, q, k, i, j] = d_p d_q Gamma^k_ij

        # Curvature jets (same sign convention as _riemann_raised_from).
        dgam = np.stack([jderiv(space, gam, m) for m in range(n)])  # [m, k, i, j, :]
        rup = np.zeros((n, n, n, n, space.size))
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        acc = dgam[j, l, i, k] - dgam[i, l, j, k]
                        for m in range(n):
                            acc = acc + jmul(space, gam[l, j, m], gam[m, i, k])
                            acc = acc - jmul(space, gam[l, i, m], gam[m, j, k])
                        rup[l, i, j, k] = acc
        Rlow = np.zeros((n, n, n, n, space.size))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        acc = np.zeros(space.size)
                        for m in range(n):
                            acc += jmul(space, G[l, m], rup[m, i, j, k])
                        Rlow[i, j, k, l] = acc

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


def nabla_riemann(metric: MetricField, x: Sequence[float]) -> np.ndarray:
    """First covariant derivative of lowered curvature: out[m, i, j, k, l]."""
    return GeometryJet(metric, x, curvature_order=1).nabla_r


def nabla2_riemann(metric: MetricField, x: Sequence[float]) -> np.ndarray:
    """Second covariant derivative of lowered curvature: out[p, q, i, j, k, l]."""
    return GeometryJet(metric, x, curvature_order=2).nabla2_r


@dataclass(frozen=True)
class PotentialJet:
    """Covariant potential derivatives at a point."""

    grad: np.ndarray  # raised gradient
    hess: np.ndarray  # lowered Hessian
    nabla3: np.ndarray
    nabla4: np.ndarray

    def fourth_contraction(self, w: Vector, u: Vector) -> float:
        return float(np.einsum("abcd,a,b,c,d->", self.nabla4, w, w, u, u))


def potential_jets(
    metric: MetricField, potential: PotentialField, x: Sequence[float]
) -> PotentialJet:
    jet = GeometryJet(metric, x, potential=potential, curvature_order=0)
    return PotentialJet(jet.grad_v, jet.hess_v, jet.nabla3_v, jet.nabla4_v)


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

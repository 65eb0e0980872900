"""Truncated multivariate Taylor-series ("jet") arithmetic.

A jet is the array of Taylor coefficients of a smooth function about a
point, truncated at a fixed total degree.  Sums, products and matrix
inverses of jets propagate derivative information through arbitrary
algebraic formulas without finite-difference truncation error, which is
how the geometry layer obtains exact coordinate derivatives of
Christoffel symbols and curvature tensors from exact derivatives of the
metric entries.

Representation: a jet in ``n`` variables truncated at degree ``d`` is a
float array whose last axis enumerates the monomials of total degree
<= ``d`` (graded-lexicographic order, constant term first).  Tensors of
jets are plain ndarrays with the jet axis last.  The jets of a batch of
points carry a point axis just before the jet axis, so formulas written
for the tensor axes run on a batch unchanged, and :func:`jcontract`,
:func:`jgrad` and :func:`jmatinv` all accept it.  A whole tensor
contraction of jets is one :func:`jcontract` call: the jets of one
operand become multiplication matrices, and the contraction is one
batched matmul, transposed to (point, free, contracted) with the points
as the stack (Taylor-mode differentiation as batched tensor
contractions, after Griewank and Walther, *Evaluating Derivatives*).
Every product of a point is then the same matrix product whatever the
batch, so a point of a batch gets the bits it gets alone.

Accuracy bookkeeping: if two jets carry exact coefficients through
degree ``k``, their sum/product does too, while a derivative
(:func:`jderiv`, :func:`jgrad`) lowers the guarantee by one degree.
:func:`jgrad`, every first derivative at once, is one gather and one
product from a table per jet space, the products :func:`jderiv` makes.
The monomial order is graded, so the degree-``k`` jet of a function is
the first ``JetSpace.get(n, k).size`` coefficients of any
higher-degree jet of it, and a stage can run in the smallest space
that keeps the values read from it exact.  The geometry pipeline reads
every tensor at its value (degree 0), so each stage runs at the degree
below for curvature order 0, 1 or 2 (in parentheses: with a potential,
whose Hessian reads the Christoffel symbols at degree 2):

===============================  =======  =======  =======
stage                            order 0  order 1  order 2
===============================  =======  =======  =======
metric G                         2 (3)    3        4
inverse metric, Christoffel Γ    1 (2)    2        3
dΓ                               0 (1)    1        2
d²Γ                              --       0        0
curvature, raised and lowered    0        1        2
∇R                               --       0        1
∇²R                              --       --       0
===============================  =======  =======  =======

The potential V and its covariant derivatives ∇V, Hess V, ∇³V and ∇⁴V
run at degrees 4, 3, 2, 1 and 0 at every order.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache

import numpy as np


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent multi-indices with total degree <= degree, graded order."""
    out: list[tuple[int, ...]] = []
    for total in range(degree + 1):
        # lexicographic within a fixed total degree
        for combo in itertools.product(range(total + 1), repeat=nvars):
            if sum(combo) == total:
                out.append(combo)
    return out


class JetSpace:
    """Precomputed index tables for jets in ``nvars`` variables at ``degree``."""

    def __init__(self, nvars: int, degree: int):
        self.nvars = nvars
        self.degree = degree
        self.monomials = _monomials(nvars, degree)
        self.size = len(self.monomials)
        self.index = {m: i for i, m in enumerate(self.monomials)}

        # Multiplication table: coefficient pairs (ia, ib) accumulate into ic.
        ia, ib, ic = [], [], []
        for i, ma in enumerate(self.monomials):
            for j, mb in enumerate(self.monomials):
                tot = tuple(a + b for a, b in zip(ma, mb))
                if sum(tot) <= degree:
                    ia.append(i)
                    ib.append(j)
                    ic.append(self.index[tot])
        self._mul_a = np.asarray(ia, dtype=np.intp)
        self._mul_b = np.asarray(ib, dtype=np.intp)
        self._mul_c = np.asarray(ic, dtype=np.intp)

        # Derivative tables, one per variable: dst <- src * fac.
        self._dsrc, self._ddst, self._dfac = [], [], []
        for v in range(nvars):
            src, dst, fac = [], [], []
            for i, m in enumerate(self.monomials):
                if m[v] > 0:
                    lower = tuple(e - (1 if k == v else 0) for k, e in enumerate(m))
                    src.append(i)
                    dst.append(self.index[lower])
                    fac.append(float(m[v]))
            self._dsrc.append(np.asarray(src, dtype=np.intp))
            self._ddst.append(np.asarray(dst, dtype=np.intp))
            self._dfac.append(np.asarray(fac))

        # factorial(alpha) per monomial, for converting partials <-> coefficients
        fact = []
        for m in self.monomials:
            f = 1.0
            for e in m:
                for k in range(2, e + 1):
                    f *= k
            fact.append(f)
        self.factorials = np.asarray(fact)

    @cached_property
    def _mul_yz(self) -> np.ndarray:
        """Flat (y, z) slots of the multiplication matrices: monomial
        y times monomial x is z for x = ``_mul_b``."""
        return self._mul_a * self.size + self._mul_c

    @cached_property
    def _grad(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, fac), each (nvars, size): slot x^m of d_v a is a's slot
        ``src[v, m]`` of the space one degree up, x^(m + e_v), times
        ``fac[v, m]`` = m_v + 1.  Every slot has a source, so no slot
        is computed as 0 * x (which would be -0.0 or NaN)."""
        up = JetSpace.get(self.nvars, self.degree + 1)
        src = np.empty((self.nvars, self.size), dtype=np.intp)
        fac = np.empty((self.nvars, self.size))
        for v in range(self.nvars):
            for j, m in enumerate(self.monomials):
                raised = tuple(e + (k == v) for k, e in enumerate(m))
                src[v, j] = up.index[raised]
                fac[v, j] = float(raised[v])
        return src, fac

    @staticmethod
    @lru_cache(maxsize=None)
    def get(nvars: int, degree: int) -> "JetSpace":
        return JetSpace(nvars, degree)


def jvalue(a: np.ndarray) -> np.ndarray:
    """Degree-zero (point value) part of a jet array."""
    return a[..., 0]


@lru_cache(maxsize=256)
def _contract_plan(subscripts: str, a_shape: tuple, b_shape: tuple, size: int):
    """All of a jet contraction but its arithmetic, per subscripts,
    operand shapes and jet size, as the tuple (swap, flat, square,
    a_axes, a_shape, b_axes, b_shape, shape, out_axes) that turns it
    into one batched matmul.  ``swap``: the operands trade places, so
    that ``a`` is the larger.  The expanded ``b`` is made ``flat``, then
    viewed as ``square`` (y, z), transposed by ``b_axes`` to (point,
    contracted, jet, free, jet) and reshaped to ``b_shape``; ``a`` goes
    by ``a_axes`` to (point, free, contracted, jet) and ``a_shape``; the
    product is reshaped to ``shape``, (point, free of a, free of b,
    jet), and transposed by ``out_axes`` to the output labels followed
    by (point, jet)."""
    ins, out = subscripts.split("->")
    sa, sb = ins.split(",")
    swap = math.prod(a_shape) < math.prod(b_shape)
    if swap:
        sa, sb, a_shape, b_shape = sb, sa, b_shape, a_shape
    con = [c for c in sa if c in sb]
    fa = [c for c in sa if c not in con]
    fb = [c for c in sb if c not in con]
    if sorted(fa + fb) != sorted(out) or len({*sa}) < len(sa) or len({*sb}) < len(sb):
        raise ValueError(
            f"jcontract needs a plain two-operand contraction, got {sa},{sb}->{out}")
    pa, pb = len(sa), len(sb)  # the first axis after the labels
    points = len(a_shape) - 1 - pa
    a_axes = (*range(pa, pa + points), *map(sa.index, fa + con), pa + points)
    y = pb + points  # b's jet axis, expanded into (y, z)
    b_axes = (*range(pb, y), *map(sb.index, con), y, *map(sb.index, fb), y + 1)
    out_axes = tuple(points + (fa + fb).index(c) for c in out)
    out_axes += (*range(points), points + len(fa + fb))
    dims = dict(zip(sa, a_shape)) | dict(zip(sb, b_shape))
    lead = a_shape[pa: pa + points]
    k = math.prod(dims[c] for c in con) * size
    return (swap, b_shape[:-1] + (size * size,), b_shape[:-1] + (size, size),
            a_axes, lead + (-1, k), b_axes, lead + (k, -1),
            lead + tuple(dims[c] for c in fa + fb) + (size,), out_axes)


def jcontract(space: JetSpace, subscripts: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jet-valued ``np.einsum(subscripts, a, b)``.

    ``subscripts`` names the tensor axes only (for example
    ``"ik,kj->ij"``), each label appearing in exactly two of the
    operands and the output.  Both operands and the result carry the
    jet axis last; they may also carry one point axis just before it,
    the same on both, which the result keeps in the same place.

    The jets of the smaller operand are expanded into multiplication
    matrices (monomial y times monomial x is z, ``size`` times its
    floats), so the contraction is one matmul per point over
    (contracted labels, jet) with the point axis as the stack.  Each
    point's product has the same shape and summation order whatever the
    number of points, so a point's result does not depend on the batch
    it rides in.
    """
    (swap, flat, square, a_axes, a_shape, b_axes, b_shape, shape,
     out_axes) = _contract_plan(subscripts, a.shape, b.shape, space.size)
    if swap:
        a, b = b, a
    bm = np.zeros(flat)
    bm[..., space._mul_yz] = b[..., space._mul_b]
    A = a.transpose(a_axes).reshape(a_shape)
    Bm = bm.reshape(square).transpose(b_axes).reshape(b_shape)
    return (A @ Bm).reshape(shape).transpose(out_axes)


def jderiv(space: JetSpace, a: np.ndarray, v: int) -> np.ndarray:
    """Coordinate derivative of a jet array (loses one degree of accuracy)."""
    out = np.zeros_like(a)
    out[..., space._ddst[v]] = a[..., space._dsrc[v]] * space._dfac[v]
    return out


def jgrad(space: JetSpace, a: np.ndarray) -> np.ndarray:
    """All first coordinate derivatives of a jet array, one degree down.

    ``a`` carries jets of degree at least ``space.degree + 1``; the
    result stacks d_v a for every variable v in front, as jets of
    ``space``.  A derivative is exact one degree below its operand, so
    the result drops no exact coefficient.  It is one gather and one
    product from the space's table, the same products as
    :func:`jderiv`'s, into a new C-ordered array.
    """
    src, fac = space._grad
    d = a[..., src]  # (..., nvars, size)
    lead = d.ndim - 2
    fac = fac.reshape(fac.shape[:1] + (1,) * lead + fac.shape[1:])
    return np.multiply(d.transpose((lead, *range(lead), lead + 1)), fac, order="C")


def jmatinv(space: JetSpace, G: np.ndarray) -> np.ndarray:
    """Inverse of an (n, n, size) jet matrix with invertible value part,
    or of an (n, n, B, size) batch of them (one per point).

    Newton iteration X <- X(2I - GX) doubles the correct degree each
    step, so ceil(log2(degree + 1)) steps reach the truncation order.
    """
    n, lead = G.shape[0], G.ndim - 3  # lead: 1 with a point axis, else 0
    x0 = np.linalg.inv(jvalue(G).transpose((*range(2, 2 + lead), 0, 1)))
    X = np.zeros_like(G)
    X[..., 0] = x0.transpose((lead, lead + 1, *range(lead)))
    two_i = np.zeros(G.shape[:2] + (1,) * lead + (space.size,))
    two_i[np.arange(n), np.arange(n), ..., 0] = 2.0
    steps = max(1, int(np.ceil(np.log2(space.degree + 1))))
    for _ in range(steps):
        GX = jcontract(space, "ik,kj->ij", G, X)
        X = jcontract(space, "ik,kj->ij", X, two_i - GX)
    return X

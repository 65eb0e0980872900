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
jets are plain ndarrays with the jet axis last.  A whole tensor
contraction of jets is one :func:`jcontract` call: an einsum whose
scalar products are jet products through the space's dense 0/1
multiplication tensor (Taylor-mode differentiation as batched tensor
contractions, after Griewank and Walther, *Evaluating Derivatives*).

Accuracy bookkeeping: if two jets carry exact coefficients through
degree ``k``, their sum/product does too, while a derivative
(:func:`jderiv`, :func:`jgrad`) lowers the guarantee by one degree.
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
    def mul_tensor(self) -> np.ndarray:
        """Dense 0/1 table M[a, b, c]: monomial a times monomial b is c.

        Built on first use, so importing the package builds none.
        """
        M = np.zeros((self.size,) * 3)
        M[self._mul_a, self._mul_b, self._mul_c] = 1.0
        return M

    @staticmethod
    @lru_cache(maxsize=None)
    def get(nvars: int, degree: int) -> "JetSpace":
        return JetSpace(nvars, degree)


def jconst(space: JetSpace, value: float, shape: tuple[int, ...] = ()) -> np.ndarray:
    """Constant jet (optionally an array of them)."""
    out = np.zeros(shape + (space.size,))
    out[..., 0] = value
    return out


def jvalue(a: np.ndarray) -> np.ndarray:
    """Degree-zero (point value) part of a jet array."""
    return a[..., 0]


def jcontract(space: JetSpace, subscripts: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jet-valued ``np.einsum(subscripts, a, b)``.

    ``subscripts`` names the tensor axes only (for example
    ``"ik,kj->ij"``); both operands and the result carry the jet axis
    last.  The jets of ``b`` are expanded into multiplication matrices
    through :attr:`JetSpace.mul_tensor`, so every jet product of the
    contraction is part of one einsum; the expansion holds ``size``
    times the floats of ``b``, so the smaller operand should go second.
    """
    ins, out = subscripts.split("->")
    sa, sb = ins.split(",")
    # bm[..., y, z] = b[..., z - y]: each jet of b as a multiplication matrix
    bm = np.tensordot(b, space.mul_tensor, axes=(-1, 1))
    return np.einsum(f"{sa}Y,{sb}YZ->{out}Z", a, bm, optimize=True)


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
    the result drops no exact coefficient.
    """
    up = JetSpace.get(space.nvars, space.degree + 1)
    a = a[..., : up.size]
    return np.stack(
        [jderiv(up, a, v)[..., : space.size] for v in range(space.nvars)]
    )


def jmatinv(space: JetSpace, G: np.ndarray) -> np.ndarray:
    """Inverse of an (n, n, size) jet matrix with invertible value part.

    Newton iteration X <- X(2I - GX) doubles the correct degree each
    step, so ceil(log2(degree + 1)) steps reach the truncation order.
    """
    n = G.shape[0]
    g0 = jvalue(G)
    x0 = np.linalg.inv(g0)
    X = np.zeros_like(G)
    X[..., 0] = x0
    two_i = jconst(space, 0.0, (n, n))
    two_i[np.arange(n), np.arange(n), 0] = 2.0
    steps = max(1, int(np.ceil(np.log2(space.degree + 1))))
    for _ in range(steps):
        GX = jcontract(space, "ik,kj->ij", G, X)
        X = jcontract(space, "ik,kj->ij", X, two_i - GX)
    return X


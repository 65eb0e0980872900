"""Truncated Taylor (jet) arithmetic against exact expression-tree derivatives."""

import numpy as np
import pytest

from mtwcheck import parse_field
from mtwcheck.expr import ScalarField
from mtwcheck.jets import JetSpace, jcontract, jderiv, jgrad, jmatinv

from conftest import reference_diff, reference_jet

DEGREE = 4

# Mostly non-polynomial entries, so the products mix Taylor coefficients
# of every degree through the truncation degree.
FIELDS = {
    2: ["exp(x*y) + sin(y)", "cos(x) * (1 + y^2)", "x^3 - x*y + 2", "exp(0.5*y) * x"],
    3: ["exp(x*y*z) + sin(y)", "cos(x + z) * (1 + y^2)", "x^3 - x*y*z + 2",
        "exp(0.5*y) * z", "sin(x*y) + z^2", "1 + x*z"],
}
POINTS = {2: [0.3, -0.2], 3: [0.3, -0.2, 0.15]}


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_lower_degree_space_is_a_prefix(dim):
    # the graded order lets a stage truncate a jet by slicing it
    top = JetSpace.get(dim, DEGREE)
    for d in range(DEGREE + 1):
        space = JetSpace.get(dim, d)
        assert space.monomials == top.monomials[: space.size]


def _jet(expr: str, dim: int) -> np.ndarray:
    space = JetSpace.get(dim, DEGREE)
    return reference_jet(parse_field(expr, dim), POINTS[dim], space)


def _close(got: np.ndarray, want: np.ndarray) -> None:
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("dim", [2, 3])
def test_jcontract_product_matches_product_field(dim):
    space = JetSpace.get(dim, DEGREE)
    f, g = FIELDS[dim][:2]
    got = jcontract(space, ",->", _jet(f, dim), _jet(g, dim))
    _close(got, _jet(f"({f}) * ({g})", dim))


@pytest.mark.parametrize("dim", [2, 3])
def test_jcontract_tensor_contraction_matches_product_fields(dim):
    # C[k, i, j] = sum_m A[k, m] B[i, j, m]: the broadcast shape of the
    # Christoffel contraction, with entries drawn from FIELDS.
    space = JetSpace.get(dim, DEGREE)
    fields = FIELDS[dim]
    a = [[fields[(k + m) % len(fields)] for m in range(dim)] for k in range(dim)]
    b = [[[fields[(i + 2 * j + 3 * m) % len(fields)] for m in range(dim)]
          for j in range(dim)] for i in range(dim)]
    A = np.array([[_jet(e, dim) for e in row] for row in a])
    B = np.array([[[_jet(e, dim) for e in r2] for r2 in r1] for r1 in b])
    got = jcontract(space, "km,ijm->kij", A, B)
    for k in range(dim):
        for i in range(dim):
            for j in range(dim):
                exact = " + ".join(f"({a[k][m]}) * ({b[i][j][m]})"
                                   for m in range(dim))
                _close(got[k, i, j], _jet(exact, dim))


@pytest.mark.parametrize("dim", [2, 3])
def test_jmatinv_times_matrix_is_identity(dim):
    space = JetSpace.get(dim, DEGREE)
    fields = FIELDS[dim]
    # diagonally dominant, so the value part is invertible
    G = np.array([[_jet(f"{3 * dim} + {fields[i]}" if i == j else
                        f"0.5 * ({fields[(i + j) % len(fields)]})", dim)
                   for j in range(dim)] for i in range(dim)])
    prod = jcontract(space, "ik,kj->ij", jmatinv(space, G), G)
    ident = np.zeros_like(G)
    ident[np.arange(dim), np.arange(dim), 0] = 1.0
    assert np.allclose(prod, ident, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_jderiv_matches_field_derivative(dim):
    space = JetSpace.get(dim, DEGREE)
    # a derivative is exact through one degree less than the jet
    exact = np.array([sum(m) < DEGREE for m in space.monomials])
    for expr in FIELDS[dim][:3]:
        f = parse_field(expr, dim)
        for v in range(dim):
            got = jderiv(space, _jet(expr, dim), v)
            want = reference_jet(ScalarField(reference_diff(f.tree, v), dim),
                                 POINTS[dim], space)
            _close(got[exact], want[exact])
            assert np.all(got[~exact] == 0.0)
        # jgrad stacks the same derivatives, truncated to the exact degrees
        lower = JetSpace.get(dim, DEGREE - 1)
        stacked = np.stack([jderiv(space, _jet(expr, dim), v) for v in range(dim)])
        assert np.array_equal(jgrad(lower, _jet(expr, dim)),
                              stacked[:, : lower.size])


@pytest.mark.parametrize("dim", [2, 3])
def test_point_axis_matches_points_alone(dim):
    # a point axis before the jet axis rides through jcontract and
    # jmatinv: each point's result equals the same point computed alone
    space = JetSpace.get(dim, 3)
    rng = np.random.default_rng(7)
    B = 5
    A = rng.normal(size=(dim, dim, B, space.size))
    T = rng.normal(size=(dim, dim, dim, B, space.size))
    G = A + 3.0 * dim * np.eye(dim)[:, :, None, None] * (np.arange(space.size) == 0)
    C = jcontract(space, "km,ijm->kij", A, T)
    inv = jmatinv(space, G)
    for b in range(B):
        assert np.array_equal(C[..., b, :], jcontract(space, "km,ijm->kij",
                                                      A[..., b, :], T[..., b, :]))
        assert np.array_equal(inv[..., b, :], jmatinv(space, G[..., b, :]))

"""Scalar-field parsing and exact differentiation."""

import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtwcheck import eval_partial, eval_partial_seq, parse_field
from mtwcheck import expr as ex
from mtwcheck.errors import (DerivativeOrderError, DimensionError, FieldSyntaxError,
                             MtwError)
from mtwcheck.jets import JetSpace

from conftest import (MATH_FUNCS, NUMPY_FUNCS, reference_diff, reference_partial,
                      reference_value)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_quartic_factor_with_constant():
    f = parse_field("x^3*y + a*x^2*y^2 + x*y^3", 2, constants={"a": -3.0})
    for x, y in [(0.3, -0.7), (1.0, 1.0), (-0.2, 0.5)]:
        expected = x**3 * y - 3.0 * x**2 * y**2 + x * y**3
        assert eval_partial(f, (x, y), (0, 0)) == pytest.approx(expected, abs=1e-14)


def test_parse_zero_field():
    f = parse_field("0", 2)
    assert eval_partial(f, (0.4, -1.2), (0, 0)) == 0.0


def test_parse_functions():
    f = parse_field("exp(x)*sin(y) + cos(x*y)", 2)
    x, y = 0.3, 0.9
    assert eval_partial(f, (x, y), (0, 0)) == pytest.approx(
        math.exp(x) * math.sin(y) + math.cos(x * y), abs=1e-14
    )


def test_syntax_error_position():
    with pytest.raises(FieldSyntaxError) as e:
        parse_field("x*+y", 2)
    assert e.value.position == 2


@pytest.mark.parametrize(
    "text",
    ["x +", "2 ** x", "x / y", "-x", "x^2.5", "x^(2)", "(x", "x)"],
)
def test_malformed_inputs_rejected(text):
    with pytest.raises(FieldSyntaxError):
        parse_field(text, 2)


@pytest.mark.parametrize("text, constants, position", [
    ("1 + 1e400*x", {}, 4),  # a literal past the float range
    ("x + a", {"a": math.inf}, 4),  # a binding
    ("x*a", {"a": math.nan}, 2),
    ("1e308*10", {}, 5),  # a product folded at parse time
    ("1e308 + 1e308 + x", {}, 6),  # a sum
    ("0 - 10^400*x^2", {}, 6),  # a power whose folding overflows
])
def test_constant_that_is_not_finite_rejected(text, constants, position):
    # generated code cannot name inf or nan, and no field is meant to
    # hold one: the parser refuses it where it appears
    with pytest.raises(FieldSyntaxError) as e:
        parse_field(text, 2, constants=constants)
    assert e.value.position == position


def test_derivative_constant_past_float_range_evaluates():
    # a parsed field's constants are finite, but a derivative folds its
    # own: d^3/dx^3 of 1e308*x^3*y is 6e308*y, whose constant is inf
    f = parse_field("1e308*x^3*y", 2)
    assert eval_partial(f, (0.5, 2.0), (3, 0)) == math.inf
    plan = ex.TaylorPlan([f], JetSpace.get(2, 3))
    with np.errstate(over="ignore"):
        jet = plan(np.array([[0.5, 2.0]]))[0, 0]
    assert jet[JetSpace.get(2, 3).monomials.index((3, 0))] == math.inf


def test_zero_times_overflowed_derivative_constant_is_zero():
    # d^4/dx^4 of 1e308*x^3*y is exactly 0, though the product rule meets
    # the overflowed constant 6e308 of d^3/dx^3 times d y / dx = 0
    f = parse_field("1e308*x^3*y", 2)
    assert eval_partial(f, (0.5, 2.0), (4, 0)) == 0.0
    space = JetSpace.get(2, 4)
    with np.errstate(over="ignore"):
        jet = ex.TaylorPlan([f], space)(np.array([[0.5, 2.0]]))[0, 0]
    assert jet[space.monomials.index((4, 0))] == 0.0
    assert jet[space.monomials.index((3, 1))] == math.inf
    assert not np.isnan(jet).any()
    # a finite product folds as before, the sign of a zero included
    assert math.copysign(1.0, ex._mk_mul(("c", -0.0), ("c", 3.0))[1]) == -1.0


def test_unknown_identifier():
    with pytest.raises(FieldSyntaxError) as e:
        parse_field("foo(x)", 2)
    assert "foo" in str(e.value)


def test_variable_out_of_dimension():
    with pytest.raises(FieldSyntaxError):
        parse_field("x3", 2)
    # ...but fine in dimension 3
    f = parse_field("x3^2", 3)
    assert eval_partial(f, (0, 0, 2.0), (0, 0, 0)) == 4.0


# ---------------------------------------------------------------------------
# Exact partial derivatives
# ---------------------------------------------------------------------------


def test_polynomial_mixed_partial_constant():
    f = parse_field("x^3*y", 2)
    for pt in [(0.0, 0.0), (2.0, -1.0), (0.3, 0.7)]:
        assert eval_partial(f, pt, (3, 1)) == pytest.approx(6.0, abs=1e-13)


def test_quartic_gradient_vanishes_at_origin():
    f = parse_field("x^3*y + a*x^2*y^2 + x*y^3", 2, constants={"a": -3.0})
    assert eval_partial(f, (0, 0), (1, 0)) == 0.0
    assert eval_partial(f, (0, 0), (0, 1)) == 0.0


def test_laplacian_closed_form():
    a = -3.0
    f = parse_field("x^3*y + a*x^2*y^2 + x*y^3", 2, constants={"a": a})
    for x, y in [(0.2, 0.5), (-1.0, 0.3), (0.7, -0.7)]:
        lap = eval_partial(f, (x, y), (2, 0)) + eval_partial(f, (x, y), (0, 2))
        assert lap == pytest.approx(2 * a * x**2 + 12 * x * y + 2 * a * y**2,
                                    abs=1e-12)


def test_zero_multi_index_is_plain_evaluation():
    f = parse_field("exp(x)*cos(y) + x^2", 2)
    pt = (0.4, -0.9)
    expected = math.exp(0.4) * math.cos(-0.9) + 0.4**2
    assert eval_partial(f, pt, (0, 0)) == pytest.approx(expected, abs=1e-15)


def test_order_cap_enforced():
    # the one-point plan derives every partial up to the order, so an order
    # above MAX_PARTIAL_ORDER (4) is refused before any derivation
    f = parse_field("x^2*y", 2)
    for idx in [(5, 0), (3, 3), (0, 8), (6, 3)]:
        with pytest.raises(DerivativeOrderError, match="exceeds supported maximum 4"):
            eval_partial(f, (1.0, 1.0), idx)


@pytest.mark.parametrize("point, idx, error", [
    ((1.0, 1.0), (1, -1), DerivativeOrderError),
    ((1.0, 1.0), (1, 0, 0), DimensionError),
    ((1.0,), (1, 0), DimensionError),
])
def test_eval_partial_rejects_bad_input(point, idx, error):
    with pytest.raises(error):
        eval_partial(parse_field("x^2*y", 2), point, idx)


# ---------------------------------------------------------------------------
# Finite-difference cross-check
# ---------------------------------------------------------------------------


def _central_partial(fn, pt, idx, h):
    """Nested central differences for a mixed partial given by counts."""
    if not any(idx):
        return fn(pt)
    i = next(k for k, c in enumerate(idx) if c)
    lower = list(idx)
    lower[i] -= 1
    up = list(pt)
    dn = list(pt)
    up[i] += h
    dn[i] -= h
    return (_central_partial(fn, tuple(up), tuple(lower), h)
            - _central_partial(fn, tuple(dn), tuple(lower), h)) / (2 * h)


def _richardson_partial(fn, pt, idx, h=1e-3):
    c = _central_partial(fn, pt, idx, h)
    f = _central_partial(fn, pt, idx, h / 2)
    return (4 * f - c) / 3


def test_partials_match_finite_differences(rng):
    texts = [
        "x^3*y + c0*x^2*y^2 + x*y^3",
        "c0*x^4 + c1*x^2*y^2 + y^4 + c2*x*y",
        "c0*x^2 + c1*y^3 + c2*x*y^2",
    ]
    for text in texts:
        consts = {f"c{i}": float(rng.uniform(-2, 2)) for i in range(3)}
        f = parse_field(text, 2, constants=consts)
        fn = lambda p: eval_partial(f, p, (0, 0))
        for _ in range(5):
            pt = tuple(rng.uniform(-0.8, 0.8, 2))
            idx = tuple(int(k) for k in rng.integers(0, 2, 2))
            if not any(idx):
                idx = (1, 0)
            exact = eval_partial(f, pt, idx)
            approx = _richardson_partial(fn, pt, idx)
            scale = max(1.0, abs(exact))
            assert abs(approx - exact) / scale < 1e-7


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------

_coeff = st.floats(min_value=-3, max_value=3, allow_nan=False,
                   allow_infinity=False)
_coord = st.floats(min_value=-1, max_value=1, allow_nan=False,
                   allow_infinity=False)


@st.composite
def _poly_field(draw):
    c = [draw(_coeff) for _ in range(4)]
    consts = {f"c{i}": c[i] for i in range(4)}
    text = "c0*x^3*y + c1*x^2*y^2 + c2*x*y + c3*y^4"
    return parse_field(text, 2, constants=consts)


@settings(max_examples=100, deadline=None)
@given(field=_poly_field(), x=_coord, y=_coord,
       dirs=st.lists(st.integers(0, 1), min_size=1, max_size=4),
       data=st.data())
def test_mixed_partials_commute_bit_exact(field, x, y, dirs, data):
    perm = data.draw(st.permutations(dirs))
    a = eval_partial_seq(field, (x, y), dirs)
    b = eval_partial_seq(field, (x, y), perm)
    assert a == b  # bit-exact, not approx


@settings(max_examples=50, deadline=None)
@given(c1=_coeff, c2=_coeff, x=_coord, y=_coord,
       dx=st.integers(0, 2), dy=st.integers(0, 2))
def test_differentiation_is_linear(c1, c2, x, y, dx, dy):
    f = parse_field("c*x^3*y^2", 2, constants={"c": c1})
    g = parse_field("c*x*y^3", 2, constants={"c": c2})
    s = parse_field("a*x^3*y^2 + b*x*y^3", 2, constants={"a": c1, "b": c2})
    idx = (dx, dy)
    lhs = eval_partial(s, (x, y), idx)
    rhs = eval_partial(f, (x, y), idx) + eval_partial(g, (x, y), idx)
    assert lhs == pytest.approx(rhs, abs=1e-10, rel=1e-10)


# ---------------------------------------------------------------------------
# Derivatives on the shared DAG against plain recursion
# ---------------------------------------------------------------------------


_TREE_DIM = 3
_tree_leaves = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, -0.5]).map(lambda c: ex.const(c, _TREE_DIM)),
    st.integers(0, _TREE_DIM - 1).map(lambda i: ex.var(i, _TREE_DIM)),
)


def _tree_nodes(children):
    return st.one_of(
        st.builds(lambda op, a, b: op(a, b),
                  st.sampled_from([ex.add, ex.sub, ex.mul]), children, children),
        st.builds(ex.power, children, st.integers(0, 3)),
        st.builds(lambda op, a: op(a), st.sampled_from([ex.exp, ex.sin, ex.cos]),
                  children),
    )


# random fields over the whole primitive set (sub(0, a) gives 'neg')
_random_fields = st.recursive(_tree_leaves, _tree_nodes, max_leaves=6)


def _sorted_operands(node: tuple) -> tuple:
    """``node`` with the operands of each + and * in the order of their
    reprs: two trees map to one repr exactly when they are equal up to the
    order of those operands, constants compared by repr."""
    kind = node[0]
    if kind in ("c", "x"):
        return node
    if kind == "^":
        return ("^", _sorted_operands(node[1]), node[2])
    kids = [_sorted_operands(k) for k in node[1:]]
    if kind in ("+", "*"):
        kids.sort(key=repr)
    return (kind, *kids)


@settings(max_examples=40, deadline=None)
@given(fields=st.lists(_random_fields, min_size=1, max_size=3),
       degree=st.integers(0, 4))
def test_plan_partials_equal_plain_recursive_derivatives(fields, degree):
    space = JetSpace.get(_TREE_DIM, degree)
    # the derivation the plan runs, on one DAG for all fields, is the plain
    # recursive one up to the operand order of + and * (a x*y and a y*x
    # are one node, the first one met), constants' signs of zero included
    dag = ex._Dag()
    refs = []
    for f in fields:
        root = dag.tree(f.tree)
        assert repr(_sorted_operands(root)) == repr(_sorted_operands(f.tree))
        for m in space.monomials:
            want = _sorted_operands(reference_partial(f.tree, m))
            assert repr(_sorted_operands(dag.partial(root, m))) == repr(want)
            refs.append(want)
    # one row per distinct partial: trees equal up to operand order share
    # a row, and only constants of equal value but different sign of zero
    # share more
    plan = ex.TaylorPlan(fields, space)
    assert len(set(refs)) <= plan.distinct <= len(set(map(repr, refs)))
    X = np.random.default_rng(5).uniform(-0.5, 0.5, (4, _TREE_DIM))
    with np.errstate(all="ignore"):
        got = plan.values(X)[plan.rows.ravel()]
        want = _per_field_values([ex.ScalarField(r, _TREE_DIM) for r in refs], X.T)
    assert np.array_equal(got, want, equal_nan=True)
    # a partial that is not a constant has the sign of zero of its tree too
    live = [r[0] != "c" for r in refs]
    assert np.array_equal(np.signbit(got[live]) | np.isnan(got[live]),
                          np.signbit(want[live]) | np.isnan(want[live]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(f=_random_fields, degree=st.integers(0, ex.MAX_PARTIAL_ORDER))
def test_eval_partial_equals_plain_recursive_derivative(f, degree):
    # the one-point partial equals the plain recursive derivative evaluated
    # node by node with NumPy's exp, sin and cos, bit for bit (repr tells
    # -0.0 from 0.0 and shows nan), or both raise the same error, and
    # nothing is kept on the field
    x = np.array([0.3, -0.2, 0.15])

    def outcome(fn):
        try:
            with np.errstate(all="ignore"):
                return repr(float(fn()))
        except (ArithmeticError, ValueError, MtwError) as e:
            return type(e)

    for m in JetSpace.get(_TREE_DIM, degree).monomials:
        want = reference_partial(f.tree, m)
        assert outcome(lambda: eval_partial(f, x, m)) == outcome(
            lambda: reference_value(want, x, NUMPY_FUNCS))
    assert not f._cache


def test_plan_arrays_are_read_only():
    # one plan serves every equal metric and thread: no caller may write it
    plan = ex.TaylorPlan([parse_field("x*y + 2", 2), parse_field("3", 2)],
                         JetSpace.get(2, 2))
    assert plan._consts.size
    with pytest.raises(ValueError):
        plan.rows[0, 0] = 0
    with pytest.raises(ValueError):
        plan._consts[0] = 1.0


def _reached(code, k):
    """The lines of a writer that line k reads, k included."""
    out = {k}
    for a in code.lines[k][1:]:
        if type(a) is int:
            out |= _reached(code, a)
    return out


def test_plan_function_reads_each_partial_as_the_plan_computes_it():
    # a function derived from the plan runs the plan's lines its body
    # reads, in their order, so each row it reads is the plan's value bit
    # for bit, and a line no statement reads costs no line
    from mtwcheck import conformal as cf

    m = cf.conformal_metric(cf.ConformalSpec(a=-3.0))
    fields = [m.entries[0][0], m.entries[0][1], parse_field("0 - x^2*y - 0.3*y^4", 2)]
    plan = ex.TaylorPlan(fields, JetSpace.get(2, 2))
    X = np.random.default_rng(4).uniform(-0.4, 0.4, (5, 2))
    vals = plan.values(X)
    c = np.ascontiguousarray(X.T)
    for r, value in enumerate(plan.partials):
        fn = plan.function("out", [("out[...]", value)])
        out = np.empty(len(X))
        fn(c, out)
        assert np.array_equal(out, vals[r])
    sources = []
    compile_ = ex._compile
    try:
        ex._compile = lambda src, name, scope=None: sources.append(src) or compile_(
            src, name, scope)
        plan.function("out", [("out[...]", plan.partials[0])])
    finally:
        ex._compile = compile_
    bound = [int(t) for t in re.findall(r"^    t(\d+) = ", sources[0], re.MULTILINE)]
    assert bound == sorted(_reached(plan.code, plan.partials[0][0]))
    assert len(bound) < len(plan.code.lines)


def test_commuted_sums_and_products_share_one_plan_row():
    # x*y and y*x are one DAG node, and so are their partials and the sums
    # that hold them in either order
    fields = [parse_field(t, 3) for t in ("x*y", "y*x", "x*y + z", "z + y*x")]
    plan = ex.TaylorPlan(fields, JetSpace.get(3, 2))
    assert np.array_equal(plan.rows[0], plan.rows[1])
    assert np.array_equal(plan.rows[2], plan.rows[3])
    assert plan.distinct == ex.TaylorPlan(fields[::2], JetSpace.get(3, 2)).distinct


def _negation_forms():
    """Each identity the writer carries a sign by, and the places it binds
    one, as fields over x, y and their negations -x, -y."""
    x, y = ex.var(0, 2), ex.var(1, 2)
    nx, ny = ex.neg(x), ex.neg(y)
    return [ex.mul(nx, y), ex.mul(x, ny), ex.mul(nx, ny), ex.add(x, ny), ex.add(nx, y),
            ex.add(nx, ny), ex.sub(x, ny), ex.sub(nx, y), ex.sub(nx, ny),
            ex.neg(ex.mul(nx, y)), ex.exp(nx), ex.power(nx, 3), nx]


_SIGNED_VALUES = [0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan]


def test_emitted_negations_are_exact_at_signed_zeros():
    # at every pair of signed zeros, infinities, NaN and finite values each
    # form's line equals its tree evaluated node by node, the sign of zero
    # included
    fields = _negation_forms()
    plan = ex.TaylorPlan(fields, JetSpace.get(2, 0))
    X = np.array([(a, b) for a in _SIGNED_VALUES for b in _SIGNED_VALUES])
    with np.errstate(all="ignore"):
        got = plan.values(X)[plan.rows[:, 0]]
        want = _per_field_values(fields, X.T)
    assert np.array_equal(got, want, equal_nan=True)
    finite = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[finite]), np.signbit(want[finite]))
    # one negation line, -x, which exp, the power and the one line of
    # (-x) + (-y) and (-x) - y read; the roots -(x y) and -x are
    # negated where they are written, and the other forms fold theirs
    # into lines x y, x - y, y - x and x + y
    x = plan.partials[-1]
    assert x == (0, True) and plan.code.lines[x[0]] == ("in", "c[0]")
    assert [line for line in plan.code.lines if line[0] == "neg"] == [("neg", 0)]
    assert len(plan.code.lines) == 10


def test_written_zero_minus_x_is_zero_minus_x():
    # the text 0 - x means 0.0 - x, which is +0.0 at x = +0 and at x = -0,
    # where the negation -x reads -0.0 at x = +0; both differentiate to -1
    written, negated = parse_field("0 - x", 1), ex.neg(ex.var(0, 1))
    assert written.tree == ("-", ("c", 0.0), ("x", 0))
    assert negated.tree == ("neg", ("x", 0))
    X = np.array([[0.0], [-0.0], [1.5]])
    jets = ex.TaylorPlan([written, negated], JetSpace.get(1, 1))(X)
    assert jets[:, :, 0].tolist() == [[0.0, 0.0, -1.5]] * 2
    assert np.signbit(jets[:, :, 0]).tolist() == [[False, False, True], [True, False, True]]
    assert jets[:, :, 1].tolist() == [[-1.0] * 3] * 2
    assert math.copysign(1.0, eval_partial(written, [0.0], [0])) == 1.0
    # only a written 0.0 is kept: -0.0 - x is -x at every x
    assert ex.sub(ex.const(-0.0, 1), ex.var(0, 1)).tree == negated.tree


def test_derived_arithmetic_carries_signs_exactly():
    # the writer's arithmetic on values with pending signs equals the same
    # operations on negated arrays, the sign of zero included
    code = ex._Writer()
    x, y = code.input("c[0]"), code.input("c[1]")
    nx, ny = code.neg(x), code.neg(y)
    forms = [code.mul(nx, y), code.mul(x, ny), code.mul(nx, ny), code.div(nx, y),
             code.div(x, ny), code.div(nx, ny), code.add(x, ny), code.add(nx, y),
             code.add(nx, ny), code.sub(nx, y), code.sub(nx, ny), code.sub(x, ny),
             code.mul(2.5, nx), code.add(1.5, nx), code.sub(nx, 1.5),
             code.call("exp", nx), code.neg(code.neg(nx))]
    src = "\n".join(["def _plan(c, out):", *code.render(
        [(f"out[{i}]", v) for i, v in enumerate(forms)], repr)])
    fn = ex._compile(src, "_plan")
    a, b = np.array([(p, q) for p in _SIGNED_VALUES for q in _SIGNED_VALUES]).T
    with np.errstate(all="ignore"):
        got = np.empty((len(forms), a.size))
        fn(np.array([a, b]), got)
        na, nb = -a, -b
        want = [na * b, a * nb, na * nb, na / b, a / nb, na / nb, a + nb, na + b,
                na + nb, na - b, na - nb, a - nb, 2.5 * na, 1.5 + na, na - 1.5,
                np.exp(na), na]
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)
        finite = ~np.isnan(w)
        assert np.array_equal(np.signbit(g[finite]), np.signbit(w[finite]))
    # a negation is a line only where nothing folds it: under exp and in
    # (-x) + (-y), and one line serves both
    assert [line for line in code.lines if line[0] == "neg"] == [("neg", 0)]


def test_code_negation_of_a_negation_is_its_operand():
    code = ex._Writer()
    x = code.input("c[0]")
    assert code.neg(code.neg(x)) == x
    assert code.sub(0.0, code.neg(x)) == x
    assert code.mul(-1.0, code.neg(x)) == x
    assert code.neg(2.0) == -2.0 and code.lines == [("in", "c[0]")]
    # a pending negation is written where it is read, once, and no line
    # negates a negation line; a run of statements follows the lines it reads
    e = code.call("sin", code.neg(x))
    src = code.render([("a", code.neg(x)), ("b", e), ("c", code.neg(code.neg(x)))])
    assert src == ["    t0 = c[0]", "    t1 = -t0", "    t2 = _sin(t1)", "    a = -t0",
                   "    b = t2", "    c = t0"]


def test_writer_binds_a_commuted_line_once():
    code = ex._Writer()
    x, y = code.input("c[0]"), code.input("c[1]")
    assert code.mul(x, y) == code.mul(y, x) == code.neg(code.mul(code.neg(y), x))
    assert code.add(x, y) == code.add(y, x)
    assert code.sub(x, y) != code.sub(y, x)
    assert code.mul(0.5, x) == code.mul(x, 0.5) != code.mul(-0.5, x)
    assert code.add(x, -0.0) == x and code.add(x, 0.0) == x
    assert len(code.lines) == 8


# ---------------------------------------------------------------------------
# Fused batch evaluator
# ---------------------------------------------------------------------------


def _per_field_values(fields, X, funcs=NUMPY_FUNCS):
    """Each field's tree evaluated node by node (``reference_value``) at the
    points X[:, b], with NumPy's exp, sin and cos unless ``funcs`` says
    otherwise: an array of shape (fields, B)."""
    return np.array([[reference_value(f.tree, tuple(X[:, b]), funcs)
                      for b in range(X.shape[1])] for f in fields],
                    dtype=float).reshape(len(fields), X.shape[1])


def _fields_through_second_order(fields, dim):
    """Each field followed by its first and its second partials."""
    out = []
    for f in fields:
        first = [reference_diff(f.tree, m) for m in range(dim)]
        out.append(f)
        out += [ex.ScalarField(d, dim) for d in first]
        out += [ex.ScalarField(reference_diff(first[m], p), dim)
                for m in range(dim) for p in range(m, dim)]
    return out


def _interned_batch(fields):
    """The fields' values from the generated function of their TaylorPlan
    at degree 0: a function of points of shape (dim, B) returning an
    array of shape (fields, B)."""
    plan = ex.TaylorPlan(fields, JetSpace.get(fields[0].dim, 0))
    return lambda X: plan.values(X.T)[plan.rows[:, 0]]


def _batch_case(name):
    """(fields, points of shape (dim, 7), whether the trees contain exp)."""
    from mtwcheck import conformal as cf
    from mtwcheck.geometry import MetricField, quartic_potential, sphere_metric

    rng = np.random.default_rng(17)
    if name == "quartic":
        A = np.array([[0.6, 0.1, 0.2], [0.1, 0.9, -0.3], [0.2, -0.3, 0.5]])
        fields = [quartic_potential(A).field]
        return fields, 3, rng.uniform(-1.0, 1.0, (3, 7)), False
    if name == "sphere":
        metric = sphere_metric()
        pts = np.stack([rng.uniform(0.4, 2.7, 7), rng.uniform(-1.5, 1.5, 7)])
        has_exp = False
    elif name == "conformal":
        metric = cf.conformal_metric(cf.ConformalSpec(a=-3.0))
        pts = rng.uniform(-0.4, 0.4, (2, 7))
        has_exp = True
    else:
        e = parse_field("exp(2*x*y*z)", 3)
        zero = parse_field("0", 3)
        metric = MetricField.from_upper([e, zero, zero, e, zero, e], 3)
        pts = rng.uniform(-0.4, 0.4, (3, 7))
        has_exp = True
    n = metric.dim
    entries = [metric.entries[i][j] for i in range(n) for j in range(i, n)]
    return entries, n, pts, has_exp


@pytest.mark.parametrize("name", ["sphere", "conformal", "inline3d", "quartic"])
def test_batch_evaluator_matches_scalar_fields(name):
    # The generated function repeats the per-point expression code on
    # arrays with shared subtrees computed once.  The one routine it does
    # not share is exp (NumPy's against math.exp), so: exp-free fields
    # agree bit for bit; with exp, they agree bit for bit once the
    # per-point code runs NumPy's exp too, and the two exps differ by at
    # most one ulp.
    base, dim, pts, has_exp = _batch_case(name)
    fields = _fields_through_second_order(base, dim)
    fn = _interned_batch(fields)
    np_exp = dict(MATH_FUNCS, exp=np.exp)
    for X in (pts[:, :1], pts):
        got = fn(X)
        assert got.shape == (len(fields), X.shape[1])
        scalar = _per_field_values(fields, X, MATH_FUNCS)
        assert np.array_equal(got, _per_field_values(fields, X, np_exp))
        if not has_exp:
            assert np.array_equal(got, scalar)
        else:
            # the metric entries are the exponentials themselves
            per_field = len(fields) // len(base)
            entry_rows = list(range(0, len(fields), per_field))
            ulps = np.abs(got[entry_rows] - scalar[entry_rows]) / np.spacing(
                np.abs(scalar[entry_rows]))
            assert np.max(ulps) <= 1.0


@settings(max_examples=40, deadline=None)
@given(fields=st.lists(_random_fields, min_size=1, max_size=3),
       degree=st.integers(0, 2))
def test_batch_evaluator_matches_scalar_fields_on_dag_roots(fields, degree):
    # roots of one DAG share their subtrees (a field's partials share the
    # field's, and each other's); with the same elementary routines the
    # batch equals every field's own expression bit for bit
    space = JetSpace.get(_TREE_DIM, degree)
    dag = ex._Dag()
    roots = [dag.partial(dag.tree(f.tree), m) for f in fields for m in space.monomials]
    plan = ex.TaylorPlan(fields, space)
    X = np.random.default_rng(9).uniform(-0.5, 0.5, (_TREE_DIM, 5))
    with np.errstate(all="ignore"):
        got = plan.values(X.T)[plan.rows.ravel()]
        want = _per_field_values([ex.ScalarField(r, _TREE_DIM) for r in roots], X)
    assert np.array_equal(got, want, equal_nan=True)


def test_batch_evaluator_constant_and_variable_roots():
    fields = [parse_field("0", 2), parse_field("y", 2), parse_field("x*y + 2", 2)]
    X = np.array([[0.5, -1.0, 2.0], [3.0, 0.25, -0.5]])
    got = _interned_batch(fields)(X)
    assert np.array_equal(got, [[0.0, 0.0, 0.0], X[1], X[0] * X[1] + 2.0])


@pytest.mark.parametrize("text, message", [
    ("1" + "+0.001*x" * 1500, "expression nests 1502 levels deep"),
    ("x*" * 151 + "y", "expression nests 152 levels deep"),
    ("(" * 400 + "x" + ")" * 400, "parentheses and calls nest more than 150 deep"),
    ("exp(" * 151 + "x" + ")" * 151, "parentheses and calls nest more than 150 deep"),
], ids=["long-sum", "long-product", "parentheses", "calls"])
def test_over_deep_text_is_a_syntax_error(text, message):
    # the parser and the recursive walks of a tree raised RecursionError
    with pytest.raises(FieldSyntaxError, match=re.escape(message)):
        parse_field(text, 2)


# the accepted texts that nest their derivatives deepest; product-of-affine
# is the 148-factor product 1*(1+0.1*x)*..., whose order-4 partial written
# out as one tree grew past a gigabyte
_DEEPEST_TEXTS = pytest.mark.parametrize("text", [
    "1" + "*(x+y)" * (ex.MAX_NESTING - 1), "1" + "*(1+0.1*x)" * (ex.MAX_NESTING - 2),
    "(" * (ex.MAX_NESTING - 3) + "x" + "*(y+x))" * (ex.MAX_NESTING - 3),
    "sin(" * (ex.MAX_NESTING - 2) + "x*y" + ")" * (ex.MAX_NESTING - 2),
    "(" * ex.MAX_NESTING + "x" + ")" * ex.MAX_NESTING],
    ids=["product-of-sums", "product-of-affine", "nested-products", "calls", "parentheses"])


@_DEEPEST_TEXTS
def test_deepest_accepted_text_derives_to_order_four(text):
    # at the bound, the shapes that nest their derivatives deepest parse,
    # key a plan, derive and write their order-4 partials within Python's
    # default recursion limit, under this test's own stack
    f = parse_field(text, 2)
    f._source()
    plan = ex.TaylorPlan([f], JetSpace.get(2, 4))
    assert np.all(np.isfinite(plan(np.array([[0.1, 0.2]]))))


@_DEEPEST_TEXTS
def test_eval_partial_of_the_deepest_text_is_bounded_work(text):
    # eval_partial reads a one-point plan, which derives on a shared DAG,
    # so each partial up to order 4 is finite and quick; order 5 is refused
    f = parse_field(text, 2)
    for k in range(ex.MAX_PARTIAL_ORDER + 1):
        for idx in {(k, 0), (k - k // 2, k // 2)}:
            start = time.perf_counter()
            value = eval_partial(f, (0.3, 0.2), idx)
            assert time.perf_counter() - start < 2.0
            assert math.isfinite(value)
    with pytest.raises(DerivativeOrderError):
        eval_partial(f, (0.3, 0.2), (3, 2))

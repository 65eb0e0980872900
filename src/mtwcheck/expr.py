"""Scalar fields on a chart as exact, differentiable expression trees.

Fields are built from a deliberately small primitive set — addition,
subtraction, multiplication, non-negative integer powers, ``exp``,
``sin`` and ``cos`` — which is closed under differentiation.  Partial
derivatives of any order are therefore produced symbolically (no
finite-difference truncation): differentiating a tree yields another
tree in the same primitive set.

Two construction routes exist: :func:`parse_field` for textual input
(grammar below) and the small combinator helpers (:func:`const`,
:func:`var`, :func:`add`, ...) for programmatic assembly.

Grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := number | ident | '(' expr ')' | func '(' expr ')'
    func   := 'exp' | 'sin' | 'cos'

Identifiers name chart variables (``x``/``y``/``z`` or ``x1``..``xn``)
or constants supplied at parse time, which are bound to their decimal
values immediately.  There is no division, no unary minus and no
non-integer power; negative constants enter through bindings or as
``0 - ...``.

Mixed partials commute bit-exactly because every derivative request is
canonicalized to a fixed differentiation order (variable 0 first).

Derivatives are taken on a DAG that one build makes for itself and
drops when it ends (:class:`_Dag`, hash-consing): its nodes are interned
by kind and by their children's identities, the operands of ``+`` and
``*`` in either order, so subtrees equal up to that order are one
object, and :func:`_diff` derives each (node, variable) pair once.  A
:class:`TaylorPlan` derives all partials of all its fields on one DAG
and evaluates them through one generated NumPy function, which binds
each distinct node's line once (:func:`_emit`), so both cost one step
per distinct node; the plan keeps those lines, and a function derived
from it (:meth:`TaylorPlan.function`) starts with the ones it reads,
its own lines written by :class:`_Code`, which folds constants.
:func:`_emit` folds a negation into the line that reads it where an
identity exact in IEEE 754 allows (-(-a) = a, (-a) b = -(a b),
a + (-b) = a - b, a - (-b) = a + b), :class:`_Code` negates a negation
to its operand, and a generated batch function reads each float literal
from a read-only 0-d array (:func:`_bind_literals`), so each value is
computed bit for bit as its tree gives it in fewer and cheaper NumPy
calls.
:func:`eval_partial` derives one partial on a DAG of its own and
evaluates it with the scalar evaluator (:func:`_codegen`); it stores
nothing on the field.  No table
outlives its build: the one cache that does, of plans keyed by their
fields' texts (``ScalarField._source``), is kept by
:mod:`mtwcheck.geometry`.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DerivativeOrderError, DimensionError, FieldSyntaxError
from .jets import JetSpace

# Highest total derivative order served by eval_partial: it bounds the
# work one request can ask for, since derivative trees grow
# combinatorially with the order.  The tensor pipeline needs order 4.
MAX_PARTIAL_ORDER = 8

# ---------------------------------------------------------------------------
# Expression trees: immutable nested tuples.
#   ('c', value)   constant
#   ('x', index)   chart variable
#   ('+', a, b) | ('-', a, b) | ('*', a, b)
#   ('^', a, k)    integer power, k >= 2
#   ('neg', a) | ('exp', a) | ('sin', a) | ('cos', a)
# Smart constructors fold constants and drop algebraic no-ops so that
# derivative trees stay small.
# ---------------------------------------------------------------------------

Node = tuple

_ZERO = ("c", 0.0)
_ONE = ("c", 1.0)


def _is_const(n: Node, v: float | None = None) -> bool:
    return n[0] == "c" and (v is None or n[1] == v)


def _mk_add(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return ("c", a[1] + b[1])
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return ("+", a, b)


def _mk_sub(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return ("c", a[1] - b[1])
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _mk_neg(b)
    return ("-", a, b)


def _mk_neg(a: Node) -> Node:
    if _is_const(a):
        return ("c", -a[1])
    if a[0] == "neg":
        return a[1]
    return ("neg", a)


def _mk_mul(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        # a zero times a derivative constant that overflowed is an exact
        # zero, not the nan of folding 0 * inf
        if (a[1] == 0.0 and not math.isfinite(b[1])
                or b[1] == 0.0 and not math.isfinite(a[1])):
            return _ZERO
        return ("c", a[1] * b[1])
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return ("*", a, b)


def _mk_pow(a: Node, k: int) -> Node:
    if k == 0:
        return _ONE
    if k == 1:
        return a
    if _is_const(a):
        return ("c", a[1] ** k)
    return ("^", a, k)


class _Dag:
    """The derivative DAG of one build: hash-consed nodes and memoized
    derivatives (Filliâtre and Conchon, "Type-safe modular hash-consing",
    2006).

    A node is interned by its kind and its children's identities: a
    constant by its repr, the text the evaluators emit (so 0.0 and -0.0
    stay apart), a variable by its index, ``^`` by its base's identity
    and its exponent, and ``+`` and ``*`` by the set of their operands'
    identities, since a + b and a b commute exactly (so do the
    derivatives :func:`_diff` takes of them).  Subtrees equal up to the
    order of those operands are therefore one object, x*y and y*x one
    node, the first one met, and :func:`_diff` derives each (node,
    variable) pair once.

    No other identity rewrites a node.  The negation identities exact
    in IEEE 754, signed zeros included (-(-a) = a, (-a) b = a (-b) =
    -(a b), a + (-b) = a - b, (-a) + b = b - a, a - (-b) = a + b), are
    applied where the code is written (:func:`_emit`): on the DAG they
    would move derivatives, since the derivative of -(x y) is not the
    tree of (-x) y's, and d2/dx2 of (-x) y would turn from 0.0 into -0.0.
    Identities that are not exact stay out everywhere: -(a - b) = b - a
    gives -0 where a = b, and merging 1.1*(x + x) into 2.2*x changes the
    rounding.

    The tables keep every node alive, which keeps the identities valid;
    they live as long as the build that made them and are not shared.
    """

    def __init__(self):
        self.nodes: dict = {("c", repr(0.0)): _ZERO, ("c", repr(1.0)): _ONE}
        self.derivs: dict = {}  # (id(node), v) -> derivative node
        self._imported: dict = {}  # id of an outside node -> interned node

    def node(self, n: Node) -> Node:
        """The interned node equal to ``n``, whose children are interned."""
        kind = n[0]
        if kind == "c":
            key = ("c", repr(n[1]))
        elif kind == "x":
            key = n
        elif kind == "^":
            key = ("^", id(n[1]), n[2])
        elif kind in ("+", "*"):  # one node for both operand orders
            key = (kind, *sorted((id(n[1]), id(n[2]))))
        elif len(n) == 3:
            key = (kind, id(n[1]), id(n[2]))
        else:
            key = (kind, id(n[1]))
        return self.nodes.setdefault(key, n)

    def tree(self, n: Node) -> Node:
        """The interned copy of a tree built outside the DAG (which must
        stay alive while the DAG is in use)."""
        out = self._imported.get(id(n))
        if out is None:
            kind = n[0]
            if kind in ("c", "x"):
                out = self.node(n)
            elif kind == "^":
                out = self.node(("^", self.tree(n[1]), n[2]))
            else:
                out = self.node((kind, *map(self.tree, n[1:])))
            self._imported[id(n)] = out
        return out

    def partial(self, node: Node, counts: Sequence[int]) -> Node:
        """The partial of an interned node for per-variable counts, in
        the canonical order (variable 0 first)."""
        for v, k in enumerate(counts):
            for _ in range(k):
                node = _diff(node, v, self)
        return node


def _diff(node: Node, v: int, dag: _Dag) -> Node:
    """d node / d x_v for an interned node of ``dag``, derived once per
    (node, v) and built through the ``_mk_*`` constructors."""
    key = (id(node), v)
    out = dag.derivs.get(key)
    if out is not None:
        return out
    mk = dag.node
    kind = node[0]
    if kind == "c":
        out = _ZERO
    elif kind == "x":
        out = _ONE if node[1] == v else _ZERO
    elif kind == "+":
        out = mk(_mk_add(_diff(node[1], v, dag), _diff(node[2], v, dag)))
    elif kind == "-":
        out = mk(_mk_sub(_diff(node[1], v, dag), _diff(node[2], v, dag)))
    elif kind == "neg":
        out = mk(_mk_neg(_diff(node[1], v, dag)))
    elif kind == "*":
        a, b = node[1], node[2]
        out = mk(_mk_add(mk(_mk_mul(_diff(a, v, dag), b)),
                         mk(_mk_mul(a, _diff(b, v, dag)))))
    elif kind == "^":
        a, k = node[1], node[2]
        out = mk(_mk_mul(mk(_mk_mul(mk(("c", float(k))), mk(_mk_pow(a, k - 1)))),
                         _diff(a, v, dag)))
    elif kind == "exp":
        out = mk(_mk_mul(node, _diff(node[1], v, dag)))
    elif kind == "sin":
        out = mk(_mk_mul(mk(("cos", node[1])), _diff(node[1], v, dag)))
    elif kind == "cos":
        out = mk(_mk_mul(mk(_mk_neg(mk(("sin", node[1])))), _diff(node[1], v, dag)))
    else:
        raise AssertionError(f"unknown node kind {kind!r}")
    dag.derivs[key] = out
    return out


def _codegen(node: Node) -> str:
    kind = node[0]
    if kind == "c":
        return repr(node[1])
    if kind == "x":
        return f"c[{node[1]}]"
    if kind == "+":
        return f"({_codegen(node[1])}+{_codegen(node[2])})"
    if kind == "-":
        return f"({_codegen(node[1])}-{_codegen(node[2])})"
    if kind == "neg":
        return f"(-{_codegen(node[1])})"
    if kind == "*":
        return f"({_codegen(node[1])}*{_codegen(node[2])})"
    if kind == "^":
        return f"({_codegen(node[1])}**{node[2]})"
    if kind in ("exp", "sin", "cos"):
        return f"_{kind}({_codegen(node[1])})"
    raise AssertionError(f"unknown node kind {kind!r}")


# A parsed field's constants are finite, but a derivative folds its
# own (2 * 1e308 is inf), so the generated code names inf and nan.
_EVAL_GLOBALS = {"_exp": math.exp, "_sin": math.sin, "_cos": math.cos,
                 "inf": math.inf, "nan": math.nan}

# Integer powers go through np.float_power (libm pow), the routine the
# scalar path reaches, so polynomial fields agree bit for bit.  A batch
# function reads no float literal: TaylorPlan.function binds each, the
# exponents of _pow and the inf and nan a derivative folds included, to
# a read-only 0-d array (_bind_literals), which NumPy takes in an
# elementwise call for less than a Python float.
_BATCH_GLOBALS = {"_exp": np.exp, "_sin": np.sin, "_cos": np.cos,
                  "_pow": np.float_power, "_empty": np.empty}

# The same functions on one lane's Python floats, returning floats: NumPy's
# exp, sin and cos round a float as they round an array (math.exp differs by
# an ulp at some inputs), and math.pow is the libm pow of np.float_power.
# The scalar step keeps its literals as Python floats.
_SCALAR_GLOBALS = {"_exp": lambda x: float(np.exp(x)), "_sin": lambda x: float(np.sin(x)),
                   "_cos": lambda x: float(np.cos(x)), "_pow": math.pow,
                   "inf": math.inf, "nan": math.nan}


def _emit(roots: Sequence[Node]) -> tuple[list[str], list[str]]:
    """The straight-line source evaluating interned roots of one
    :class:`_Dag` at the coordinate rows ``c``: its lines, and each
    root's expression (a temporary's name, or a literal for a constant).

    The source is built in one pass over the DAG and computes each node's
    value bit for bit, the sign of a NaN aside.  A negation is carried to
    the lines that read it by identities exact in IEEE 754, signed zeros
    included: -(-a) = a, (-a) b = a (-b) = -(a b), a + (-b) = a - b,
    (-a) + b = b - a, a - (-b) = a + b and (-a) - (-b) = b - a.  It is
    bound as a line of its own only where nothing folds it: at a root, a
    power, exp, sin or cos, and in (-a) + (-b) = (-a) - b and (-a) - b
    (-(a + b) would turn a + b = +0 into -0).  A line is bound once, the
    operands of + and * in either order, so each distinct subtree across
    all roots, a coordinate row included, costs at most one line and its
    negation one more.
    """
    signed: dict = {}  # id(node) -> (name or literal x, s): the node is x, negated if s
    temps: dict = {}  # a line's key -> its temporary
    lines: list[str] = []

    def bind(src: str, key=None) -> str:
        name = temps.get(src if key is None else key)
        if name is None:
            name = temps[src if key is None else key] = f"t{len(temps)}"
            lines.append(f"    {name} = {src}")
        return name

    def value(node: Node) -> str:
        """The node's value, its negation bound as a line."""
        x, neg = emit(node)
        return bind(f"-{x}") if neg else x

    def emit(node: Node) -> tuple[str, bool]:
        kind = node[0]
        if kind == "c":
            return f"({node[1]!r})", False
        out = signed.get(id(node))
        if out is not None:
            return out
        if kind == "x":
            out = bind(f"c[{node[1]}]"), False
        elif kind == "neg":
            x, neg = emit(node[1])
            out = x, not neg
        elif kind == "*":
            (a, sa), (b, sb) = emit(node[1]), emit(node[2])
            out = bind(f"{a}*{b}", ("*", *sorted((a, b)))), sa != sb
        elif kind in ("+", "-"):
            (a, sa), (b, sb) = emit(node[1]), emit(node[2])
            sb ^= kind == "-"  # a - b = a + (-b)
            if sa and sb:
                a = bind(f"-{a}")
            if sb:
                out = bind(f"{a}-{b}"), False
            elif sa:
                out = bind(f"{b}-{a}"), False
            else:
                out = bind(f"{a}+{b}", ("+", *sorted((a, b)))), False
        elif kind == "^":
            out = bind(f"_pow({value(node[1])}, ({float(node[2])!r}))"), False
        else:
            out = bind(f"_{kind}({value(node[1])})"), False
        signed[id(node)] = out
        return out

    out = [value(r) for r in roots]
    del emit, value  # the recursive closures are reference cycles
    return lines, out


# a temporary of the generated code (see _emit), a DAG line that binds
# one as the negation of another, and a float literal as _emit and
# _Code.text write it: the repr of a float in parentheses
_TEMP = re.compile(r"\bt\d+\b")
_NEGATION = re.compile(r"^    (t\d+) = -(t\d+)$", re.MULTILINE)
_LITERAL = re.compile(r"\((-?(?:inf|nan|\d+\.\d*(?:e[-+]\d+)?|\d+e[-+]\d+))\)")


def _compile(src: str, name: str, scope: dict | None = None) -> Callable:
    """The function ``name`` defined by generated ``src``, run with the
    batch evaluator's globals and ``scope``."""
    scope = dict(_BATCH_GLOBALS, **(scope or {}))
    exec(compile(src, "<batch-field>", "exec"), scope)
    return scope.pop(name)  # a function in its own globals is a cycle


def _bind_literals(src: str) -> tuple[str, dict]:
    """``src`` with each distinct float literal read from a name, and the
    names' values: read-only 0-d float64 arrays, one per literal."""
    names: dict = {}
    src = _LITERAL.sub(lambda m: names.setdefault(m[1], f"_k{len(names)}"), src)
    arrays = {}
    for text, name in names.items():
        arrays[name] = np.array(float(text))
        arrays[name].flags.writeable = False
    return src, arrays


def _gather(exprs: Sequence[str]) -> list[str]:
    """Generated lines returning the rows ``exprs`` as one (len, B) array."""
    return ([f"    out = _empty(({len(exprs)},) + c.shape[1:])"]
            + [f"    out[{k}] = {r}" for k, r in enumerate(exprs)] + ["    return out"])


_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class _Code:
    """Generated straight-line NumPy code, folded as it is written: a
    value is a float known at generation or the name of an array.
    Operations on two floats run at generation (Python's float arithmetic
    is NumPy's IEEE double), 0 and 1 fold away, 0 / x is a structural 0,
    a line written twice is bound once, and the negation of a name bound
    as -x, by these lines or by the ``negations`` of a plan's DAG lines
    ({name: x}), is x."""

    def __init__(self, negations: dict | None = None):
        self.lines, self._names = [], {}
        self._negated = dict(negations or {})

    def bind(self, src: str) -> str:
        if src not in self._names:
            self._names[src] = name = f"s{len(self._names)}"
            self.lines.append(f"    {name} = {src}")
        return self._names[src]

    @staticmethod
    def text(a) -> str:
        """A value as generated code."""
        return f"({a!r})" if isinstance(a, float) else a

    def _op(self, a, sym: str, b):
        if isinstance(a, float) and isinstance(b, float):
            return _FOLD[sym](a, b)
        return self.bind(f"{self.text(a)}{sym}{self.text(b)}")

    def neg(self, a):
        if isinstance(a, float):
            return -a
        if a in self._negated:
            return self._negated[a]
        name = self.bind(f"-{a}")
        self._negated[name] = a
        return name

    def add(self, a, b):
        return b if a == 0.0 else a if b == 0.0 else self._op(a, "+", b)

    def sub(self, a, b):
        return a if b == 0.0 else self.neg(b) if a == 0.0 else self._op(a, "-", b)

    def mul(self, a, b):
        for x, y in ((a, b), (b, a)):
            if x in (0.0, 1.0, -1.0):  # False for a name
                return 0.0 if x == 0.0 else y if x == 1.0 else self.neg(y)
        return self._op(a, "*", b)

    def div(self, a, b):
        return 0.0 if a == 0.0 else self._op(a, "/", b)

    def sum(self, terms):
        """The terms summed left to right."""
        out = 0.0
        for t in terms:
            out = self.add(out, t)
        return out

    def inverse(self, G: list) -> list:
        """The inverse of a symmetric n x n matrix of values, n <= 3, as
        its cofactors over its determinant (expanded along row 0)."""
        n = len(G)

        def cofactor(i, j):
            r, c = [a for a in range(n) if a != i], [b for b in range(n) if b != j]
            m = (1.0 if n == 1 else G[r[0]][c[0]] if n == 2 else
                 self.sub(self.mul(G[r[0]][c[0]], G[r[1]][c[1]]),
                          self.mul(G[r[0]][c[1]], G[r[1]][c[0]])))
            return m if (i + j) % 2 == 0 else self.neg(m)

        cof = [[cofactor(min(i, j), max(i, j)) for j in range(n)] for i in range(n)]
        det = self.sum(self.mul(G[0][j], cof[0][j]) for j in range(n))
        return [[self.div(x, det) for x in row] for row in cof]


@dataclass(frozen=True)
class ScalarField:
    """A smooth scalar function of ``dim`` chart coordinates.

    Instances are immutable and hashable; the expression text and the
    compiled scalar evaluator are memoized on first use, and nothing
    else is kept on a field.
    """

    tree: Node
    dim: int
    _cache: dict = dc_field(default_factory=dict, compare=False, repr=False, hash=False)

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"field dimension must be >= 1, got {self.dim}")

    # -- evaluation --------------------------------------------------------

    def _source(self) -> str:
        """The expression text the scalar evaluator runs, memoized.  Two
        fields of one dimension have equal texts exactly when their trees
        are equal with constants compared by repr, as on a :class:`_Dag`
        (0.0 and -0.0 differ), so the text keys what is built from a tree."""
        src = self._cache.get("src")
        if src is None:
            src = self._cache["src"] = _codegen(self.tree)
        return src

    def _fn(self) -> Callable:
        fn = self._cache.get("fn")
        if fn is None:
            src = f"lambda c: {self._source()}"
            fn = eval(compile(src, "<scalar-field>", "eval"), dict(_EVAL_GLOBALS))
            self._cache["fn"] = fn
        return fn

    def __call__(self, point: Sequence[float]) -> float:
        if len(point) != self.dim:
            raise DimensionError(
                f"point has {len(point)} coordinates, field expects {self.dim}"
            )
        return self._fn()(tuple(point))


def eval_partial(f: ScalarField, point: Sequence[float], idx: Sequence[int]) -> float:
    """Exact mixed partial of ``f`` at ``point``.

    ``idx`` gives per-variable derivative counts, e.g. ``(3, 1)`` for
    three derivatives in the first coordinate and one in the second.
    The partial is derived on a :class:`_Dag` of its own in the
    canonical order (variable 0 first) and evaluated by the scalar
    evaluator; neither is kept.
    """
    counts = tuple(int(k) for k in idx)
    if len(counts) != f.dim:
        raise DimensionError(
            f"multi-index has {len(counts)} entries, field dimension is {f.dim}"
        )
    if any(k < 0 for k in counts):
        raise DerivativeOrderError(f"negative derivative count in {counts}")
    order = sum(counts)
    if order > MAX_PARTIAL_ORDER:
        raise DerivativeOrderError(
            f"derivative order {order} exceeds supported maximum {MAX_PARTIAL_ORDER}"
        )
    dag = _Dag()
    return ScalarField(dag.partial(dag.tree(f.tree), counts), f.dim)(point)


def eval_partial_seq(f: ScalarField, point: Sequence[float], dirs: Iterable[int]) -> float:
    """Mixed partial specified as a sequence of variable indices.

    ``dirs=(0, 0, 1)`` differentiates twice in variable 0 and once in
    variable 1.  The sequence is canonicalized to per-variable counts,
    so permutations of ``dirs`` return bit-identical values.
    """
    counts = [0] * f.dim
    for d in dirs:
        if not 0 <= d < f.dim:
            raise DimensionError(f"direction {d} out of range for dim {f.dim}")
        counts[d] += 1
    return eval_partial(f, point, counts)


class TaylorPlan:
    """Jets of several fields at a batch of points from one generated function.

    Every (field, monomial) coefficient is a partial derivative.  The
    plan derives them all on one :class:`_Dag` of its own, dropped when
    the build ends: equal trees (a repeated metric entry, the shared
    subtrees of its partials) are one node there, so each distinct
    (node, variable) pair is differentiated once across all fields and
    monomials, and commuted derivatives end at one node.  Each distinct
    partial is evaluated once, constant partials are filled in without
    evaluation, and the remaining ones come from one generated function
    (:meth:`function`).  :meth:`values` returns each distinct
    partial once, and ``rows[f, k]`` is the row holding field f's
    partial at monomial k of the space.
    """

    def __init__(self, fields: Sequence[ScalarField], space: JetSpace):
        for f in fields:
            if f.dim != space.nvars:
                raise DimensionError(
                    f"jet space has {space.nvars} variables, field dimension is {f.dim}"
                )
        dag = _Dag()
        roots = [dag.tree(f.tree) for f in fields]
        parts = [dag.partial(r, m) for r in roots for m in space.monomials]
        # distinct partials by identity, constants by value (0.0 and
        # -0.0 are equal trees and share a row)
        keys = [p if p[0] == "c" else id(p) for p in parts]
        first: dict = {}
        for k, p in zip(keys, parts):
            first.setdefault(k, p)
        live = [k for k, p in first.items() if p[0] != "c"]
        consts = [k for k, p in first.items() if p[0] == "c"]
        row = {k: r for r, k in enumerate(live + consts)}
        self.space = space
        self.rows = np.array([row[k] for k in keys], dtype=np.intp).reshape(
            len(fields), space.size)
        self.distinct = len(first)
        self._live = len(live)
        self._consts = np.array([first[k][1] for k in consts])
        # a plan is shared by every equal field and thread that asks for it
        self.rows.flags.writeable = False
        self._consts.flags.writeable = False
        self._lines, names = _emit([first[k] for k in live])
        # {t: x} for each DAG line t = -x, for the _Code of a derived function
        self.negations = dict(_NEGATION.findall("\n".join(self._lines)))
        # the expression of each distinct partial in generated code
        self.exprs = tuple(names) + tuple(f"({float(c)!r})" for c in self._consts)
        self._fn = self.function("", _gather(names)) if live else None
        # the kernels a user derives from this plan (the RK4 curve stage of
        # dynamics and its linearization), kept with the plan so that they
        # are compiled once
        self.kernel = None

    def lines(self, body: Sequence[str]) -> list[str]:
        """The plan's DAG lines that ``body`` reads, in their order."""
        used = set(_TEMP.findall("\n".join(body)))
        lines = []
        for line in reversed(self._lines):  # a line reads only earlier ones
            name, src = line.split(" = ", 1)
            if name.strip() in used:
                used.update(_TEMP.findall(src))
                lines.append(line)
        return lines[::-1]

    def function(self, params: str, body: Sequence[str],
                 scope: dict | None = None) -> Callable:
        """A generated function of the coordinate rows ``c`` (dim, B) and
        ``params`` whose first lines are the plan's DAG lines that ``body``
        reads (:meth:`lines`), then ``body``, in which distinct partial r
        reads as ``exprs[r]``; ``scope`` adds to its globals, and each
        float literal reads a read-only 0-d array (:func:`_bind_literals`)."""
        head = f"def _plan(c{', ' if params else ''}{params}):"
        src, arrays = _bind_literals("\n".join([head, *self.lines(body), *body]))
        return _compile(src, "_plan", {**(scope or {}), **arrays})

    def values(self, X: np.ndarray) -> np.ndarray:
        """The distinct partials, not divided by factorials, at the points
        X[b], X of shape (B, dim): an array of shape (distinct, B)."""
        vals = np.empty((self.distinct, len(X)))
        if self._fn is not None:
            vals[: self._live] = self._fn(np.ascontiguousarray(X.T))
        vals[self._live:] = self._consts[:, None]
        return vals

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Jets about the points X[b], X of shape (B, dim): an array of
        shape (fields, B, size)."""
        return self.values(X)[self.rows].swapaxes(1, 2) / self.space.factorials


# ---------------------------------------------------------------------------
# Programmatic constructors
# ---------------------------------------------------------------------------


def const(value: float, dim: int) -> ScalarField:
    return ScalarField(("c", float(value)), dim)


def var(index: int, dim: int) -> ScalarField:
    if not 0 <= index < dim:
        raise DimensionError(f"variable index {index} out of range for dim {dim}")
    return ScalarField(("x", index), dim)


def _binary(op, a: ScalarField, b: ScalarField) -> ScalarField:
    if a.dim != b.dim:
        raise DimensionError(f"operand dimensions differ: {a.dim} vs {b.dim}")
    return ScalarField(op(a.tree, b.tree), a.dim)


def add(a: ScalarField, b: ScalarField) -> ScalarField:
    return _binary(_mk_add, a, b)


def sub(a: ScalarField, b: ScalarField) -> ScalarField:
    return _binary(_mk_sub, a, b)


def mul(a: ScalarField, b: ScalarField) -> ScalarField:
    return _binary(_mk_mul, a, b)


def scale(k: float, a: ScalarField) -> ScalarField:
    return ScalarField(_mk_mul(("c", float(k)), a.tree), a.dim)


def power(a: ScalarField, k: int) -> ScalarField:
    if k < 0:
        raise DerivativeOrderError("negative powers are not in the primitive set")
    return ScalarField(_mk_pow(a.tree, int(k)), a.dim)


def exp(a: ScalarField) -> ScalarField:
    return ScalarField(("exp", a.tree), a.dim)


def sin(a: ScalarField) -> ScalarField:
    return ScalarField(("sin", a.tree), a.dim)


def cos(a: ScalarField) -> ScalarField:
    return ScalarField(("cos", a.tree), a.dim)


def fsum(terms: Iterable[ScalarField], dim: int) -> ScalarField:
    """Sum of a (possibly empty) iterable of fields."""
    total = const(0.0, dim)
    for t in terms:
        total = add(total, t)
    return total


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*^()])
    """,
    re.VERBOSE,
)

_FUNCS = ("exp", "sin", "cos")
_XYZ = {"x": 0, "y": 1, "z": 2}


class _Parser:
    def __init__(self, text: str, dim: int, constants: dict[str, float]):
        self.text = text
        self.dim = dim
        self.constants = constants
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, position)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise FieldSyntaxError(f"unexpected character {text[pos]!r}", pos)
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), pos))
            pos = m.end()
        self.i = 0

    def _peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise FieldSyntaxError("unexpected end of expression", len(self.text))
        self.i += 1
        return tok

    def _expect_op(self, op: str):
        tok = self._peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            pos = tok[2] if tok else len(self.text)
            raise FieldSyntaxError(f"expected {op!r}", pos)
        self.i += 1

    def parse(self) -> Node:
        node = self._expr()
        tok = self._peek()
        if tok is not None:
            raise FieldSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
        return node

    def _expr(self) -> Node:
        node = self._term()
        while True:
            tok = self._peek()
            if tok is not None and tok[0] == "op" and tok[1] in "+-":
                self.i += 1
                rhs = self._term()
                node = self._fold(tok[2], _mk_add if tok[1] == "+" else _mk_sub,
                                  node, rhs)
            else:
                return node

    def _term(self) -> Node:
        node = self._factor()
        while True:
            tok = self._peek()
            if tok is not None and tok[0] == "op" and tok[1] == "*":
                self.i += 1
                node = self._fold(tok[2], _mk_mul, node, self._factor())
            else:
                return node

    def _factor(self) -> Node:
        node = self._base()
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self.i += 1
            exp_tok = self._peek()
            if exp_tok is None or exp_tok[0] != "number" or not exp_tok[1].isdigit():
                pos = exp_tok[2] if exp_tok else len(self.text)
                raise FieldSyntaxError("exponent must be an unsigned integer", pos)
            self.i += 1
            node = self._fold(tok[2], _mk_pow, node, int(exp_tok[1]))
        return node

    def _base(self) -> Node:
        kind, value, pos = self._next()
        if kind == "number":
            return self._constant(float(value), pos)
        if kind == "ident":
            if value in _FUNCS:
                self._expect_op("(")
                inner = self._expr()
                self._expect_op(")")
                return (value, inner)
            idx = self._var_index(value)
            if idx is not None:
                if idx >= self.dim:
                    raise FieldSyntaxError(
                        f"variable {value!r} out of range for dimension {self.dim}", pos
                    )
                return ("x", idx)
            if value in self.constants:
                return self._constant(float(self.constants[value]), pos)
            raise FieldSyntaxError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            inner = self._expr()
            self._expect_op(")")
            return inner
        raise FieldSyntaxError(f"unexpected token {value!r}", pos)

    @staticmethod
    def _constant(value: float, pos: int) -> Node:
        """A literal's or binding's constant, refused at ``pos`` unless it
        is finite: no field holds inf or nan."""
        if not math.isfinite(value):
            raise FieldSyntaxError(f"constant {value!r} is not finite", pos)
        return ("c", value)

    @classmethod
    def _fold(cls, pos: int, mk: Callable, *args) -> Node:
        """``mk(*args)`` for the operator at ``pos``, refused there if it
        folds its operands to a constant that is not finite."""
        try:
            node = mk(*args)
        except OverflowError:  # a float ** int past the float range
            raise FieldSyntaxError("constant overflows the float range", pos) from None
        return cls._constant(node[1], pos) if node[0] == "c" else node

    @staticmethod
    def _var_index(name: str) -> int | None:
        if name in _XYZ:
            return _XYZ[name]
        m = re.fullmatch(r"x([1-9]\d*)", name)
        if m:
            return int(m.group(1)) - 1
        return None


def parse_field(
    text: str, dim: int, constants: dict[str, float] | None = None
) -> ScalarField:
    """Parse an expression into a :class:`ScalarField` of dimension ``dim``.

    ``constants`` maps identifier names to decimal values bound at parse
    time.  Syntax errors carry the character offset of the failure.
    """
    if dim < 1:
        raise DimensionError(f"dimension must be >= 1, got {dim}")
    tree = _Parser(text, dim, dict(constants or {})).parse()
    return ScalarField(tree, dim)

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
``*`` in either order, and :func:`_diff` derives each (node, variable)
pair once.  A :class:`TaylorPlan` derives all partials of all its fields
on one DAG and evaluates them through one generated NumPy function.  One
writer (:class:`_Writer`) writes all generated code: a plan's DAG lines,
and continuing from them the RK4 stage kernel, its linearization and
scalar step of :mod:`mtwcheck.geometry`.  Its lines are records, each
bound once, its values carry a pending sign, folded by identities exact
in IEEE 754, and a function runs only the lines its statements read, so
each value is computed bit for bit as its tree gives it.
This is the package's one evaluator: :func:`eval_partial` reads a row
of a one-point plan, and a field is not callable.  No table outlives its
build but the cache of plans keyed by their fields' texts
(``ScalarField._source``, the trees' reprs), kept by
:mod:`mtwcheck.geometry`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dc_field
from functools import reduce
from itertools import groupby
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DerivativeOrderError, DimensionError, FieldSyntaxError
from .jets import JetSpace

# Highest total derivative order served by eval_partial, the order the
# tensor pipeline needs and MAX_NESTING's recursion budget is sized for:
# the plan eval_partial builds derives every partial up to it.
MAX_PARTIAL_ORDER = 4

# Deepest nesting parse_field accepts, in tree levels (a sum of k terms is
# k deep) and parentheses or calls: the tree walks (_Dag.tree, _diff,
# _Writer.tree) recurse once per level of an order-k derivative,
# which nests up to k + 1 per level, and the parser 4 times per parenthesis,
# so at order 4 a text 150 deep takes about 750 of the default 1000 frames.
# A flat sum of 900 terms, which ran before, is refused; grouped, it passes.
MAX_NESTING = 150

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
    if _is_const(a, 0.0) and math.copysign(1.0, a[1]) < 0:
        return _mk_neg(b)  # -0.0 - b is -b exactly, but 0.0 - 0.0 is +0.0
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

    No other identity rewrites a node: the negation identities that
    :class:`_Writer` applies would move derivatives here, since d2/dx2 of
    (-x) y is 0.0 and that of -(x y) is -0.0.

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
        da, db = _diff(node[1], v, dag), _diff(node[2], v, dag)
        # a derivative's structural zero carries no sign of its own, so a
        # zero minuend differentiates to the negation -db, which the writer
        # folds into the line that reads it, not to a line 0.0 - db
        out = mk(_mk_neg(db) if _is_const(da, 0.0) and not _is_const(db)
                 else _mk_sub(da, db))
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


# Integer powers go through np.float_power (libm pow), the routine a
# float's ** reaches, so a power is computed as its tree gives it.  A batch
# function reads no float literal: TaylorPlan.function binds each, the
# exponents of _pow and the inf and nan a derivative folds included, to
# a read-only 0-d array, which NumPy takes in an elementwise call for
# less than a Python float.
_BATCH_GLOBALS = {"_exp": np.exp, "_sin": np.sin, "_cos": np.cos,
                  "_pow": np.float_power, "_empty": np.empty}

# The same functions on one lane's Python floats, returning floats: NumPy's
# exp, sin and cos round a float as they round an array (math.exp differs by
# an ulp at some inputs), and math.pow is the libm pow of np.float_power.
# The scalar step keeps its literals as Python floats.
_SCALAR_GLOBALS = {"_exp": lambda x: float(np.exp(x)), "_sin": lambda x: float(np.sin(x)),
                   "_cos": lambda x: float(np.cos(x)), "_pow": math.pow,
                   "inf": math.inf, "nan": math.nan}


def _compile(src: str, name: str, scope: dict | None = None) -> Callable:
    """The function ``name`` defined by generated ``src``, run with the
    batch evaluator's globals and ``scope``."""
    scope = dict(_BATCH_GLOBALS, **(scope or {}))
    exec(compile(src, "<batch-field>", "exec"), scope)
    return scope.pop(name)  # a function in its own globals is a cycle


class _Writer:
    """Straight-line code as line records, folded as it is written; a
    writer made from ``base`` continues from its lines.

    Line k, named ``t<k>``, is a record (operation, *operands): an earlier
    line's index or a float literal, or an input's text (``c[0]``).  A
    value is a float known at generation or a pair (k, neg), line k
    negated if neg: the sign stays pending until a line that cannot fold
    it reads the value, and a statement writes it as ``-t<k>``.  Each line
    computes its value bit for bit, the sign of a NaN aside: two floats
    fold at generation (Python's float arithmetic is NumPy's IEEE double),
    a record written twice, the operands of + and * in either order, is
    one line, and signs are carried by identities exact in IEEE 754, signed
    zeros included: -(-a) = a, (-a) b = -(a b) and so a / b, a + (-b) = a -
    b, (-a) + b = b - a and a - (-b) = a + b.  A negation is a line only
    under pow, exp, sin or cos and in (-a) + (-b) = (-a) - b (-(a + b)
    turns +0 into -0); -(a - b) = b - a and 1.1*(x + x) = 2.2*x are not
    exact and not used.  :meth:`tree` writes a DAG as it is; :meth:`add`
    and the others also fold structural zeros and ones, as _mk_* does.
    """

    def __init__(self, base: "_Writer | None" = None):
        self.lines: list = [] if base is None else list(base.lines)
        self._index: dict = {} if base is None else dict(base._index)  # key -> line

    def _line(self, op: str, *args) -> tuple:
        keys = tuple([("k", repr(a)) if isinstance(a, float) else a for a in args])
        key = (op, frozenset(keys)) if op in ("+", "*") else (op, *keys)
        if key not in self._index:
            self._index[key] = len(self.lines)
            self.lines.append((op, *args))
        return self._index[key], False

    def _operand(self, a):
        """A value as an operand: its float, or a line holding it."""
        return a if isinstance(a, float) else self._line("neg", a[0])[0] if a[1] else a[0]

    @staticmethod
    def _sign(a) -> bool:
        return not isinstance(a, float) and a[1]

    def _sum(self, a, b):
        """a + b, exactly."""
        if isinstance(a, float) and isinstance(b, float):
            return a + b
        if self._sign(a) and not self._sign(b):  # (-a) + b = b - a
            a, b = b, a
        if self._sign(b):
            return self._line("-", self._operand(a), self._operand(self.neg(b)))
        return self._line("+", self._operand(a), self._operand(b))

    def _product(self, op: str, a, b):
        """a op b for op * or /, exactly: the operands' signs carried out."""
        if isinstance(a, float) and isinstance(b, float):
            return a * b if op == "*" else a / b
        k, _ = self._line(op, a if isinstance(a, float) else a[0],
                          b if isinstance(b, float) else b[0])
        return k, self._sign(a) != self._sign(b)

    def input(self, text: str) -> tuple:
        """The value an input reads: a row of an array, or a name."""
        return self._line("in", text)

    def neg(self, a):
        return -a if isinstance(a, float) else (a[0], not a[1])

    def add(self, a, b):
        return b if a == 0.0 else a if b == 0.0 else self._sum(a, b)  # no line == 0.0

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        for x, y in ((a, b), (b, a)):
            if x in (0.0, 1.0, -1.0):  # False for a line's value
                return 0.0 if x == 0.0 else y if x == 1.0 else self.neg(y)
        return self._product("*", a, b)

    def div(self, a, b):
        return 0.0 if a == 0.0 else self._product("/", a, b)

    def call(self, fn: str, a, *args) -> tuple:
        """fn(a) for fn exp, sin or cos, or pow(a, k) for pow and a float k."""
        return self._line(fn, self._operand(a), *args)

    def sum(self, terms):
        """The terms summed left to right."""
        return reduce(self.add, terms, 0.0)

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

    def tree(self, node: Node, seen: dict):
        """The value of an interned node of a :class:`_Dag`, whose
        coordinate x_i is the input ``c[i]``; ``seen`` maps the id of each
        node written to its value, so a node is written once."""
        kind = node[0]
        if kind == "c":
            return node[1]
        out = seen.get(id(node))
        if out is None:
            if kind == "x":
                out = self.input(f"c[{node[1]}]")
            elif kind == "neg":
                out = self.neg(self.tree(node[1], seen))
            elif kind == "^":
                out = self.call("pow", self.tree(node[1], seen), float(node[2]))
            elif kind in _FUNCS:
                out = self.call(kind, self.tree(node[1], seen))
            else:
                a, b = self.tree(node[1], seen), self.tree(node[2], seen)
                out = (self._product("*", a, b) if kind == "*" else
                       self._sum(a, self.neg(b) if kind == "-" else b))
            seen[id(node)] = out
        return out

    def render(self, body: Sequence, literal: Callable = "({!r})".format,
               inputs: dict | None = None) -> list[str]:
        """The source of ``body``: lines of source, and runs of pairs (target,
        value or source text), each run after the lines it reads that no
        earlier run reads, in record order (stores after the lines run
        faster than between them).  ``literal`` writes a float, ``inputs``
        renames inputs, and an input reading a name is read in place."""
        names: dict = {}  # a rendered line's index -> its name
        src = []
        for source, run in groupby(body, key=lambda st: isinstance(st, str)):
            if source:
                src += run
                continue
            run = list(run)
            new, stack = set(), [v[0] for _, v in run if isinstance(v, tuple)]
            while stack:  # the lines the run reads and no earlier one did
                k = stack.pop()
                if k not in names and k not in new:
                    new.add(k)
                    stack += [a for a in self.lines[k][1:] if type(a) is int]
            for k in sorted(new):
                op, *args = self.lines[k]
                if op == "in":
                    text = (inputs or {}).get(args[0], args[0])
                    if text.isidentifier():
                        names[k] = text
                        continue
                else:
                    x, *y = [literal(a) if isinstance(a, float) else names[a] for a in args]
                    text = (f"-{x}" if op == "neg" else f"_pow({x}, {y[0]})" if op == "pow"
                            else f"{x}{op}{y[0]}" if y else f"_{op}({x})")
                names[k] = f"t{k}"
                src.append(f"    t{k} = {text}")
            for target, v in run:
                text = v if isinstance(v, str) else literal(v) if isinstance(v, float) else (
                    "-" if v[1] else "") + names[v[0]]
                src.append(f"    {target} = {text}")
        return src


@dataclass(frozen=True)
class ScalarField:
    """A smooth scalar function of ``dim`` chart coordinates.

    Instances are immutable and hashable; the tree's text is memoized on
    first use, and nothing else is kept on a field.  A field is not
    callable: ``eval_partial(f, x, (0,) * f.dim)`` is its value at x.
    """

    tree: Node
    dim: int
    _cache: dict = dc_field(default_factory=dict, compare=False, repr=False, hash=False)

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"field dimension must be >= 1, got {self.dim}")

    def _source(self) -> str:
        """The tree's text, ``repr(tree)``, memoized.  Two fields of one
        dimension have equal texts exactly when their trees are equal with
        constants compared by repr, as on a :class:`_Dag` (0.0 and -0.0
        differ), so the text keys what is built from a tree."""
        src = self._cache.get("src")
        if src is None:
            src = self._cache["src"] = repr(self.tree)
        return src


def eval_partial(f: ScalarField, point: Sequence[float], idx: Sequence[int]) -> float:
    """Exact mixed partial of ``f`` at ``point``.

    ``idx`` gives per-variable derivative counts, e.g. ``(3, 1)`` for
    three derivatives in the first coordinate and one in the second, of
    total order at most MAX_PARTIAL_ORDER.  The partial is the row of a
    one-point :class:`TaylorPlan` of ``f`` whose degree is the order,
    which is built for the call and not kept: its value is bit for bit
    the one every plan holding this partial computes.  Arithmetic is
    IEEE 754's: an overflow gives inf and an invalid operation nan,
    without a warning.
    """
    counts = tuple(int(k) for k in idx)
    if len(counts) != f.dim:
        raise DimensionError(
            f"multi-index has {len(counts)} entries, field dimension is {f.dim}"
        )
    if len(point) != f.dim:
        raise DimensionError(
            f"point has {len(point)} coordinates, field expects {f.dim}"
        )
    if any(k < 0 for k in counts):
        raise DerivativeOrderError(f"negative derivative count in {counts}")
    order = sum(counts)
    if order > MAX_PARTIAL_ORDER:
        raise DerivativeOrderError(
            f"derivative order {order} exceeds supported maximum {MAX_PARTIAL_ORDER}"
        )
    space = JetSpace.get(f.dim, order)
    plan = TaylorPlan([f], space, continued=False)
    with np.errstate(all="ignore"):
        values = plan.values(np.array([point], dtype=float))
    return float(values[plan.rows[0, space.index[counts]], 0])


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
    partial at monomial k of the space.  A plan built with ``continued``
    false drops its writer once its own function is compiled, so no
    function can be derived from it afterwards.
    """

    def __init__(self, fields: Sequence[ScalarField], space: JetSpace,
                 continued: bool = True):
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
        self.code, seen = _Writer(), {}  # which derived functions continue
        self.partials = tuple([self.code.tree(first[k], seen) for k in live]
                              + [first[k][1] for k in consts])
        self._fn = self.function("", [
            ("out", f"_empty(({len(live)},) + c.shape[1:])"),
            *((f"out[{r}]", self.partials[r]) for r in range(len(live))),
            "    return out"]) if live else None
        if not continued:
            self.code = None
        # the kernels a user derives from this plan (the RK4 curve stage of
        # dynamics and its linearization), kept with the plan so that they
        # are compiled once
        self.kernel = None

    def function(self, params: str, body: Sequence, scope: dict | None = None,
                 code: _Writer | None = None) -> Callable:
        """A generated function of the coordinate rows ``c`` (dim, B) and
        ``params`` that runs ``body`` (:meth:`_Writer.render`) of ``code``,
        a writer continuing the plan's (the plan's own by default), in
        which distinct partial r is ``partials[r]``; ``scope`` adds to its
        globals, and each float literal reads a read-only 0-d array."""
        names: dict = {}  # a literal's repr -> its name
        lines = (code or self.code).render(
            body, lambda v: names.setdefault(repr(v), f"_k{len(names)}"))
        arrays = {name: np.array(float(text)) for text, name in names.items()}
        for a in arrays.values():
            a.flags.writeable = False
        src = "\n".join([f"def _plan(c{', ' if params else ''}{params}):", *lines])
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


def neg(a: ScalarField) -> ScalarField:
    return ScalarField(_mk_neg(a.tree), a.dim)


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
        self.depth = 0  # parentheses and calls open at the current token

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
        depth, stack = 0, [(node, 1)]
        while stack:  # the tree's depth, without recursion
            n, d = stack.pop()
            depth = max(depth, d)
            stack += [(a, d + 1) for a in n[1:] if isinstance(a, tuple)]
        if depth > MAX_NESTING:
            raise FieldSyntaxError(
                f"expression nests {depth} levels deep, more than {MAX_NESTING}", 0)
        return node

    def _nested(self, pos: int) -> Node:
        """The expression in the parenthesis or call opened at ``pos``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FieldSyntaxError(
                f"parentheses and calls nest more than {MAX_NESTING} deep", pos)
        inner = self._expr()
        self._expect_op(")")
        self.depth -= 1
        return inner

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
                return (value, self._nested(pos))
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
            return self._nested(pos)
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
    time.  Syntax errors, text nested deeper than MAX_NESTING included,
    carry the character offset of the failure.
    """
    if dim < 1:
        raise DimensionError(f"dimension must be >= 1, got {dim}")
    tree = _Parser(text, dim, dict(constants or {})).parse()
    return ScalarField(tree, dim)

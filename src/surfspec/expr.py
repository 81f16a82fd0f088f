"""Small symbolic expression engine: parse, evaluate, differentiate.

The grammar covers exactly what the metric and distance-function inputs
need: decimal literals, named variables, ``+ - * / ^`` with the usual
precedence (``^`` binds tighter than unary minus, which binds tighter
than ``*``/``/``), parentheses, and the function set ``exp``, ``log``,
``sqrt``, ``sin``, ``cos``, ``sinh``, ``cosh``, ``tanh``.

Conventions that callers rely on:

* ``^`` requires a constant exponent.  Integer exponents stay power
  nodes; a non-integer exponent ``b`` rewrites ``a^b`` to
  ``exp(b*log(a))`` at construction time, so differentiation needs a
  single power rule.  The rewrite restricts the domain to ``a > 0``,
  which is documented rather than checked symbolically.
* Constants fold one way: ``_fold`` rebuilds a node through the smart
  constructors only when every operand has folded to a constant.  The
  parser folds each ``^`` exponent, and folds each ``^`` and function
  call it builds only to refuse a closed subtree that overflows, such
  as ``exp(1000)`` or ``cosh(700)^2.5``: a :class:`ParseError` at that
  ``^`` or at the function's name (at the ``^`` when the call sits in
  an exponent).  The tree keeps those nodes as written.  A literal that
  overflows, such as ``1e400``, is refused at the literal.
* Nesting deeper than :data:`MAX_DEPTH`, or a tree taller than it, is a
  :class:`ParseError`, so the recursive walkers stay inside Python's
  default recursion limit.
* ``differentiate`` returns an exact symbolic derivative with constant
  subtrees folded.  No other simplification is attempted.
* ``str()`` emits a canonical form: ``parse(str(e))`` reproduces an
  equal tree and re-serializes to the same text.

Evaluation accepts plain floats or numpy arrays as variable bindings so
assembly loops can evaluate expressions over a whole batch of
quadrature points.  :func:`evaluate` plans one or several expressions
as a single DAG: structurally equal subtrees share one node, computed
once per call.  Array bindings are broadcast together and walked in
chunks of ``_CHUNK`` points, and each intermediate is dropped after its
last use, so memory stays near the size of the results.  Every node
applies the same numpy operation to the same operands as a node-by-node
walk over whole arrays, so the values are bit-identical to it.

Domain errors (log of a non-positive value, sqrt of a negative value,
division by zero, zero to a negative power) are checked once per unique
node and chunk.  An unbound variable is reported before anything is
computed.  When several nodes would fail, the error raised is that of
the first failing node in post-order within the first chunk that holds
a failing point; a node that depends on no array binding belongs to the
first chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Neg",
    "Call",
    "BinOp",
    "ExprError",
    "ParseError",
    "EvalError",
    "parse",
    "evaluate",
    "differentiate",
]

Number = Union[float, np.ndarray]

_NUMPY_FN = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
}
FUNCTIONS = tuple(_NUMPY_FN)

# The deepest nesting, and the tallest tree, that parse admits.  Under
# pytest, 33 frames deep, a run crashed at 240 nested parentheses (the
# parser's own recursion) and at 208 links of the chain y*y/y*y/y...,
# whose second derivatives are the tallest trees the checks walk.
MAX_DEPTH = 100


class ExprError(ValueError):
    """Base class for expression failures."""


class ParseError(ExprError):
    """Syntax or grammar violation; ``position`` is the byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class EvalError(ExprError):
    """Unbound variable or domain violation during evaluation."""


class _CallOverflow(ParseError):
    """A function of a constant overflows; in an exponent it is the ``^``'s error."""


# ---------------------------------------------------------------------------
# AST


class Expr:
    """Base node.  Subclasses are immutable and compare structurally."""

    __slots__ = ()

    # Operator sugar so other modules can build expressions directly.
    def __add__(self, other):
        return _add(self, _coerce(other))

    def __radd__(self, other):
        return _add(_coerce(other), self)

    def __sub__(self, other):
        return _sub(self, _coerce(other))

    def __rsub__(self, other):
        return _sub(_coerce(other), self)

    def __mul__(self, other):
        return _mul(self, _coerce(other))

    def __rmul__(self, other):
        return _mul(_coerce(other), self)

    def __truediv__(self, other):
        return _div(self, _coerce(other))

    def __rtruediv__(self, other):
        return _div(_coerce(other), self)

    def __neg__(self):
        return _neg(self)

    def __pow__(self, other):
        return _pow(self, _coerce(other))

    def eval(self, bindings: Mapping[str, Number]) -> Number:
        """Evaluate with the given variable bindings; see :func:`evaluate`.

        Values may be floats or numpy arrays (broadcast together).  The
        result is a float when the expression depends on no array
        binding.  Raises :class:`EvalError` on unbound variables, log of a
        non-positive value, sqrt of a negative value, division by zero,
        or a negative-power of zero.
        """
        out = evaluate((self,), bindings)[0]
        if np.ndim(out) == 0:
            return float(out)
        return out

    def diff(self, var: str) -> "Expr":
        return differentiate(self, var)

    def variables(self) -> frozenset:
        return frozenset(e.name for e in _plan((self,))[0] if isinstance(e, Var))

    def __str__(self) -> str:
        return _serialize(self, 0)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


@dataclass(frozen=True, eq=True, repr=False)
class Const(Expr):
    value: float

    __slots__ = ("value",)

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True, eq=True, repr=False)
class Var(Expr):
    name: str

    __slots__ = ("name",)


@dataclass(frozen=True, eq=True, repr=False)
class Neg(Expr):
    operand: Expr

    __slots__ = ("operand",)


@dataclass(frozen=True, eq=True, repr=False)
class Call(Expr):
    func: str
    operand: Expr

    __slots__ = ("func", "operand")


@dataclass(frozen=True, eq=True, repr=False)
class BinOp(Expr):
    op: str  # one of + - * / ^
    lhs: Expr
    rhs: Expr

    __slots__ = ("op", "lhs", "rhs")


def _coerce(obj) -> Expr:
    if isinstance(obj, Expr):
        return obj
    if isinstance(obj, (int, float)):
        return Const(float(obj))
    raise TypeError(f"cannot build an expression from {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Smart constructors.  These fold constants; they are used by the parser
# (through _fold), by differentiate, and by the operator sugar.


def _const_value(e: Expr):
    return e.value if isinstance(e, Const) else None


def _add(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_value(a), _const_value(b)
    if ca is not None and cb is not None:
        return Const(ca + cb)
    if ca == 0.0:
        return b
    if cb == 0.0:
        return a
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_value(a), _const_value(b)
    if ca is not None and cb is not None:
        return Const(ca - cb)
    if cb == 0.0:
        return a
    if ca == 0.0:
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_value(a), _const_value(b)
    if ca is not None and cb is not None:
        return Const(ca * cb)
    if ca == 0.0 or cb == 0.0:
        return Const(0.0)
    if ca == 1.0:
        return b
    if cb == 1.0:
        return a
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_value(a), _const_value(b)
    if cb == 0.0:
        raise ExprError("division by constant zero")
    if ca is not None and cb is not None:
        return Const(ca / cb)
    if ca == 0.0:
        return Const(0.0)
    if cb == 1.0:
        return a
    return BinOp("/", a, b)


def _neg(a: Expr) -> Expr:
    ca = _const_value(a)
    if ca is not None:
        return Const(-ca)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def _call(func: str, a: Expr) -> Expr:
    ca = _const_value(a)
    if ca is not None:
        try:
            return Const(getattr(math, func)(ca))
        except ValueError:
            pass  # leave the node; the domain error surfaces at eval
    return Call(func, a)


def _pow(base: Expr, exponent: Expr) -> Expr:
    """Power with a constant exponent.

    Integer exponents keep a power node (valid for any base, except the
    usual 0 to a negative power).  Non-integer exponents rewrite to
    exp(b*log(base)), valid for base > 0.
    """
    c = _const_value(exponent)
    if c is None:
        raise ExprError("exponent must be a constant")
    if not math.isfinite(c):
        raise ExprError("exponent must be finite")
    if abs(c) < 1e15 and c == float(int(c)):
        n = float(int(c))
        if n == 0.0:
            return Const(1.0)
        if n == 1.0:
            return base
        cb = _const_value(base)
        if cb is not None and not (cb == 0.0 and n < 0):
            return Const(cb ** n)
        return BinOp("^", base, Const(n))
    return _call("exp", _mul(Const(c), _call("log", base)))


# ---------------------------------------------------------------------------
# Parsing (recursive descent)


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # levels open at pos; see parse

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def read_number(self) -> float:
        start = self.pos
        text = self.text
        n = len(text)
        i = self.pos
        while i < n and text[i].isdigit():
            i += 1
        if i < n and text[i] == ".":
            i += 1
            while i < n and text[i].isdigit():
                i += 1
        if i < n and text[i] in "eE":
            j = i + 1
            if j < n and text[j] in "+-":
                j += 1
            if j < n and text[j].isdigit():
                i = j
                while i < n and text[i].isdigit():
                    i += 1
        token = text[start:i]
        try:
            value = float(token)
        except ValueError:
            raise ParseError("malformed number", start) from None
        if math.isinf(value):
            raise ParseError("constant overflows a float", start)
        self.pos = i
        return value

    def read_ident(self) -> str:
        start = self.pos
        text = self.text
        i = self.pos
        while i < len(text) and (text[i].isalnum() or text[i] == "_"):
            i += 1
        self.pos = i
        return text[start:i]


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    The tree mirrors the input (no folding), except that a ``^``
    exponent is constant-folded so the power-node invariant holds.
    Each parenthesis, call, unary minus and ``^`` operand opens a level
    of nesting, and each operator, negation and call adds a level to
    the tree; either past :data:`MAX_DEPTH` is refused at the token that
    crosses it.  Errors carry the byte offset of the offending token.
    """
    if not isinstance(text, str):
        raise TypeError("expression source must be a string")
    tok = _Tokenizer(text)
    if tok.peek() == "":
        raise ParseError("empty input", 0)
    node, _ = _parse_chain(tok)
    if tok.peek() != "":
        raise ParseError("trailing input", tok.pos)
    return node


def _level(depth: int, position: int) -> int:
    """``depth``, refused at ``position`` when it exceeds :data:`MAX_DEPTH`."""
    if depth > MAX_DEPTH:
        raise ParseError(f"expression deeper than {MAX_DEPTH} levels", position)
    return depth


def _parse_chain(tok: _Tokenizer, ops: str = "+-") -> Tuple[Expr, int]:
    """A left-associative chain: of ``+ -`` over chains of ``* /``, and of
    ``* /`` over factors.  Returns the tree and its height; each parse
    function returns both."""
    node = op = None
    while True:
        rhs, h = _parse_chain(tok, "*/") if ops == "+-" else _parse_factor(tok)
        if node is None:
            node, height = rhs, h
        else:
            node, height = BinOp(op, node, rhs), _level(max(height, h) + 1, at)
        op, at = tok.peek(), tok.pos
        if op == "" or op not in ops:
            return node, height
        tok.pos += 1


def _parse_factor(tok: _Tokenizer) -> Tuple[Expr, int]:
    """A negation, or an atom with an optional ``^`` exponent."""
    if tok.peek() == "-":
        minus = tok.pos
        tok.pos += 1
        tok.depth = _level(tok.depth + 1, minus)
        operand, height = _parse_factor(tok)
        tok.depth -= 1
        # "-3" is the literal -3, not a negation node, so that the
        # canonical form of a negative constant reparses to itself.
        if isinstance(operand, Const):
            return Const(-operand.value), height
        return Neg(operand), _level(height + 1, minus)
    base, height = _parse_atom(tok)
    if tok.peek() != "^":
        return base, height
    caret = tok.pos
    tok.pos += 1
    tok.depth = _level(tok.depth + 1, caret)
    try:
        exponent, _ = _parse_factor(tok)
    except _CallOverflow:
        raise ParseError("constant overflows a float", caret) from None
    tok.depth -= 1
    try:
        node = _pow(base, _fold(exponent))
    except ExprError as exc:
        raise ParseError(str(exc), caret) from None
    except OverflowError:
        raise ParseError("constant overflows a float", caret) from None
    return _refuse_overflow(node, caret, ParseError), _level(height + 1, caret)


def _parse_atom(tok: _Tokenizer) -> Tuple[Expr, int]:
    ch = tok.peek()
    if ch == "":
        raise ParseError("unexpected end of input", tok.pos)
    if ch == "(":
        tok.depth = _level(tok.depth + 1, tok.pos)
        tok.pos += 1
        node, height = _parse_chain(tok)
        tok.expect(")")
        tok.depth -= 1
        return node, height
    if ch.isdigit() or ch == ".":
        return Const(tok.read_number()), 0
    if not (ch.isalpha() or ch == "_"):
        raise ParseError(f"unexpected character {ch!r}", tok.pos)
    start = tok.pos
    name = tok.read_ident()
    if tok.peek() != "(":
        return Var(name), 0
    if name not in FUNCTIONS:
        raise ParseError(f"unknown function '{name}'", start)
    tok.pos += 1
    tok.depth = _level(tok.depth + 1, start)
    arg, height = _parse_chain(tok)
    tok.expect(")")
    tok.depth -= 1
    height = _level(height + 1, start)
    return _refuse_overflow(Call(name, arg), start, _CallOverflow), height


_FOLDS = {"+": _add, "-": _sub, "*": _mul, "/": _div, "^": _pow}


def _fold(e: Expr) -> Expr:
    """``e`` with its closed subtrees folded by the smart constructors.

    A node is rebuilt only when every operand has folded to a
    :class:`Const`, so no identity shortcut applies: ``0*sqrt(-1)``
    keeps its node.  A constructor's ``OverflowError`` or
    :class:`ExprError` propagates.
    """
    if isinstance(e, (Neg, Call)):
        a = _fold(e.operand)
        if isinstance(a, Const):
            return _neg(a) if isinstance(e, Neg) else _call(e.func, a)
    elif isinstance(e, BinOp):
        a, b = _fold(e.lhs), _fold(e.rhs)
        if isinstance(a, Const) and isinstance(b, Const):
            return _FOLDS[e.op](a, b)
    return e


def _refuse_overflow(e: Expr, position: int, error: type) -> Expr:
    """``e``, refused at ``position`` when a closed subtree overflows."""
    try:
        _fold(e)
    except OverflowError:
        raise error("constant overflows a float", position) from None
    except ExprError:
        pass  # a division by constant zero surfaces at evaluation
    return e


# ---------------------------------------------------------------------------
# Evaluation


_CHUNK = 16384  # points per chunk: each float64 intermediate is 128 KB


def _plan(roots) -> Tuple[list, list, list]:
    """Intern the nodes of ``roots`` into one DAG.

    Returns ``(nodes, children, root_slots)``: the unique nodes in
    first-visit post-order, the child slots of each, and the slot of
    each root.  Two nodes share a slot when they have the same type, the
    same op, function, value or name, and the same child slots, so the
    interning never hashes a whole subtree.  Each node object is interned
    once, however many paths reach it; the roots keep every id alive.
    """
    state: tuple = ([], [], {}, {})  # nodes, children, slot of key, slot of id
    slots = [_intern(r, state) for r in roots]
    return state[0], state[1], slots


def _intern(e: Expr, state: tuple) -> int:
    """Slot of ``e``, interning its children first.  A module function, as
    a recursive closure would be a reference cycle left for the collector."""
    nodes, children, slot_of, by_id = state
    slot = by_id.get(id(e))
    if slot is not None:
        return slot
    if isinstance(e, Const):
        kids, key = (), ("const", e.value.hex())  # keeps -0.0 apart from 0.0
    elif isinstance(e, Var):
        kids, key = (), ("var", e.name)
    elif isinstance(e, Neg):
        kids = (_intern(e.operand, state),)
        key = ("neg", kids)
    elif isinstance(e, Call):
        kids = (_intern(e.operand, state),)
        key = (e.func, kids)
    elif isinstance(e, BinOp):
        kids = (_intern(e.lhs, state), _intern(e.rhs, state))
        key = (e.op, kids)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    slot = slot_of.get(key)
    if slot is None:
        slot = slot_of[key] = len(nodes)
        nodes.append(e)
        children.append(kids)
    by_id[id(e)] = slot
    return slot


def _apply(e: Expr, args: list) -> Number:
    """One node's value from its children's values, domain checks first."""
    if isinstance(e, Neg):
        return -args[0]
    if isinstance(e, Call):
        arg = args[0]
        if e.func == "log" and not np.all(np.asarray(arg) > 0):
            raise EvalError("log of a non-positive value")
        if e.func == "sqrt" and not np.all(np.asarray(arg) >= 0):
            raise EvalError("sqrt of a negative value")
        return _NUMPY_FN[e.func](arg)
    a, b = args
    op = e.op
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if not np.all(np.asarray(b) != 0):
            raise EvalError("division by zero")
        return a / b
    n = b  # "^": constant, integral by construction
    if n < 0 and not np.all(np.asarray(a) != 0):
        raise EvalError("zero raised to a negative power")
    try:
        return a ** n
    except OverflowError:  # a float base; an array base gives inf instead
        raise EvalError("power overflows a float") from None


def evaluate(exprs: Sequence[Expr], bindings: Mapping[str, Number]) -> tuple:
    """Evaluate several expressions on the same bindings in one pass.

    Subtrees shared across ``exprs`` are computed once per chunk, and
    nodes that depend on no array binding once (see the module
    docstring).  Returns one value per expression: an array of the
    broadcast shape of the array bindings if the expression depends on
    one, else its scalar value.
    """
    nodes, children, roots = _plan(exprs)
    arrays = {}
    for e in nodes:
        if isinstance(e, Var):
            if e.name not in bindings:
                raise EvalError(f"unbound variable '{e.name}'")
            if isinstance(bindings[e.name], np.ndarray):
                arrays[e.name] = bindings[e.name]
    shape = np.broadcast_shapes(*(a.shape for a in arrays.values()))
    flat = {k: np.broadcast_to(a, shape).reshape(-1) for k, a in arrays.items()}
    size = math.prod(shape)

    depends = []
    for e, kids in zip(nodes, children):
        depends.append(
            e.name in arrays if isinstance(e, Var) else any(depends[k] for k in kids)
        )
    keep = set(roots)
    last_use = {}
    for i, kids in enumerate(children):
        for k in kids:
            last_use[k] = i
    drops = [[] for _ in nodes]
    for k, i in last_use.items():
        if depends[k] and k not in keep:
            drops[i].append(k)
    varying = [i for i in range(len(nodes)) if depends[i]]

    vals: list = [None] * len(nodes)
    outs = {}
    # one pass even when size is 0, so scalar nodes and empty results exist
    for start in range(0, max(size, 1), _CHUNK):
        stop = start + _CHUNK
        for i in varying if start else range(len(nodes)):
            e = nodes[i]
            if isinstance(e, Const):
                vals[i] = e.value
            elif isinstance(e, Var):
                vals[i] = flat[e.name][start:stop] if depends[i] else bindings[e.name]
            else:
                vals[i] = _apply(e, [vals[k] for k in children[i]])
            for k in drops[i]:
                vals[k] = None
        for r in roots:
            if not depends[r]:
                continue
            if size <= _CHUNK:
                outs[r] = vals[r]
                continue
            if r not in outs:
                outs[r] = np.empty(size, dtype=vals[r].dtype)
            outs[r][start:stop] = vals[r]
    return tuple(outs[r].reshape(shape) if depends[r] else vals[r] for r in roots)


# ---------------------------------------------------------------------------
# Differentiation


def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic derivative of ``e`` with respect to ``var``.

    Constant subtrees in the result are folded; an expression without
    any occurrence of ``var`` differentiates to the zero constant.
    """
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0) if e.name == var else Const(0.0)
    if isinstance(e, Neg):
        return _neg(differentiate(e.operand, var))
    if isinstance(e, Call):
        u = e.operand
        du = differentiate(u, var)
        if _const_value(du) == 0.0:
            return Const(0.0)
        f = e.func
        if f == "exp":
            outer = _call("exp", u)
        elif f == "log":
            return _div(du, u)
        elif f == "sqrt":
            return _div(du, _mul(Const(2.0), _call("sqrt", u)))
        elif f == "sin":
            outer = _call("cos", u)
        elif f == "cos":
            outer = _neg(_call("sin", u))
        elif f == "sinh":
            outer = _call("cosh", u)
        elif f == "cosh":
            outer = _call("sinh", u)
        elif f == "tanh":
            outer = _sub(Const(1.0), _pow(_call("tanh", u), Const(2.0)))
        else:  # pragma: no cover - the parser only admits FUNCTIONS
            raise ExprError(f"unknown function '{f}'")
        return _mul(outer, du)
    if isinstance(e, BinOp):
        op = e.op
        if op == "^":
            n = e.rhs.value
            du = differentiate(e.lhs, var)
            return _mul(_mul(Const(n), _pow(e.lhs, Const(n - 1.0))), du)
        da = differentiate(e.lhs, var)
        db = differentiate(e.rhs, var)
        if op == "+":
            return _add(da, db)
        if op == "-":
            return _sub(da, db)
        if op == "*":
            return _add(_mul(da, e.rhs), _mul(e.lhs, db))
        if op == "/":
            num = _sub(_mul(da, e.rhs), _mul(e.lhs, db))
            return _div(num, _pow(e.rhs, Const(2.0)))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Serialization

_PREC_SUM = 1
_PREC_TERM = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _precedence(e: Expr) -> int:
    if isinstance(e, BinOp):
        if e.op in "+-":
            return _PREC_SUM
        if e.op in "*/":
            return _PREC_TERM
        return _PREC_POW
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Const) and e.value < 0:
        return _PREC_NEG
    return _PREC_ATOM


def _format_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _serialize(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Const):
        text = _format_const(e.value)
    elif isinstance(e, Var):
        text = e.name
    elif isinstance(e, Call):
        text = f"{e.func}({_serialize(e.operand, 0)})"
        return text  # self-delimiting
    elif isinstance(e, Neg):
        text = "-" + _serialize(e.operand, _PREC_NEG)
    elif isinstance(e, BinOp):
        prec, right = _precedence(e), e.op == "^"  # ^ is right associative
        lhs = _serialize(e.lhs, prec + right)
        rhs = _serialize(e.rhs, prec + (not right))
        text = f"{lhs}{e.op}{rhs}"
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if _precedence(e) < parent_prec:
        return f"({text})"
    return text

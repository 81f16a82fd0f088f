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
  which is documented rather than checked symbolically.  A literal that
  overflows a float, such as ``1e400``, is a :class:`ParseError` at the
  literal; a constant that overflows while a ``^`` is folded is one at
  that ``^``.  So is a function of a constant that overflows, such
  as ``exp(1000)``, at the function's name (at the ``^`` when it sits
  in an exponent); the tree keeps the call as written.
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

FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos", "sinh", "cosh", "tanh")

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
        acc: set = set()
        _collect_vars(self, acc)
        return frozenset(acc)

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
# (for ^ exponents), by differentiate, and by the operator sugar.


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
    Errors carry the byte offset of the offending token.
    """
    if not isinstance(text, str):
        raise TypeError("expression source must be a string")
    tok = _Tokenizer(text)
    if tok.peek() == "":
        raise ParseError("empty input", 0)
    node = _parse_sum(tok)
    if tok.peek() != "":
        raise ParseError("trailing input", tok.pos)
    return node


def _parse_sum(tok: _Tokenizer) -> Expr:
    node = _parse_term(tok)
    while True:
        ch = tok.peek()
        if ch == "+":
            tok.pos += 1
            node = BinOp("+", node, _parse_term(tok))
        elif ch == "-":
            tok.pos += 1
            node = BinOp("-", node, _parse_term(tok))
        else:
            return node


def _parse_term(tok: _Tokenizer) -> Expr:
    node = _parse_factor(tok)
    while True:
        ch = tok.peek()
        if ch == "*":
            tok.pos += 1
            node = BinOp("*", node, _parse_factor(tok))
        elif ch == "/":
            tok.pos += 1
            node = BinOp("/", node, _parse_factor(tok))
        else:
            return node


def _parse_factor(tok: _Tokenizer) -> Expr:
    if tok.peek() == "-":
        tok.pos += 1
        operand = _parse_factor(tok)
        # "-3" is the literal -3, not a negation node, so that the
        # canonical form of a negative constant reparses to itself.
        if isinstance(operand, Const):
            return Const(-operand.value)
        return Neg(operand)
    return _parse_power(tok)


def _parse_power(tok: _Tokenizer) -> Expr:
    base = _parse_atom(tok)
    if tok.peek() == "^":
        caret = tok.pos
        tok.pos += 1
        try:
            exponent = _parse_factor(tok)
        except _CallOverflow:
            raise ParseError("constant overflows a float", caret) from None
        try:
            folded = _try_fold(exponent)
            if folded is None:
                raise ExprError("exponent must be a constant")
            return _pow(base, Const(folded))
        except ExprError as exc:
            raise ParseError(str(exc), caret) from None
        except OverflowError:
            raise ParseError("constant overflows a float", caret) from None
    return base


def _parse_atom(tok: _Tokenizer) -> Expr:
    ch = tok.peek()
    if ch == "":
        raise ParseError("unexpected end of input", tok.pos)
    if ch == "(":
        tok.pos += 1
        node = _parse_sum(tok)
        tok.expect(")")
        return node
    if ch.isdigit() or ch == ".":
        return Const(tok.read_number())
    if ch.isalpha() or ch == "_":
        start = tok.pos
        name = tok.read_ident()
        if tok.peek() == "(":
            if name not in FUNCTIONS:
                raise ParseError(f"unknown function '{name}'", start)
            tok.pos += 1
            arg = _parse_sum(tok)
            tok.expect(")")
            value = _try_fold(arg)
            if value is not None and math.isfinite(value):
                try:
                    getattr(math, name)(value)
                except OverflowError:
                    raise _CallOverflow("constant overflows a float", start) from None
                except ValueError:
                    pass  # a domain error surfaces at evaluation
            return Call(name, arg)
        return Var(name)
    raise ParseError(f"unexpected character {ch!r}", tok.pos)


def _try_fold(e: Expr):
    """Evaluate a closed (variable-free) subtree, or return None."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return None
    if isinstance(e, Neg):
        v = _try_fold(e.operand)
        return None if v is None else -v
    if isinstance(e, Call):
        v = _try_fold(e.operand)
        if v is None:
            return None
        try:
            return float(getattr(math, e.func)(v))
        except ValueError:
            return None
    if isinstance(e, BinOp):
        a = _try_fold(e.lhs)
        b = _try_fold(e.rhs)
        if a is None or b is None:
            return None
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            return None if b == 0.0 else a / b
        if e.op == "^":
            try:
                return float(a ** b)
            except (ValueError, ZeroDivisionError, OverflowError):
                return None
    return None


# ---------------------------------------------------------------------------
# Evaluation


_CHUNK = 16384  # points per chunk: each float64 intermediate is 128 KB


def _plan(roots) -> Tuple[list, list, list]:
    """Intern the nodes of ``roots`` into one DAG.

    Returns ``(nodes, children, root_slots)``: the unique nodes in
    first-visit post-order, the child slots of each, and the slot of
    each root.  Two nodes share a slot when they have the same type, the
    same op, function, value or name, and the same child slots, so the
    interning never hashes a whole subtree.
    """
    nodes: list = []
    children: list = []
    slot_of: dict = {}
    slots = [_intern(r, nodes, children, slot_of) for r in roots]
    return nodes, children, slots


def _intern(e: Expr, nodes: list, children: list, slot_of: dict) -> int:
    """Slot of ``e``, interning its children first.  A module function, as
    a recursive closure would be a reference cycle left for the collector."""
    if isinstance(e, Const):
        kids, key = (), ("const", e.value.hex())  # keeps -0.0 apart from 0.0
    elif isinstance(e, Var):
        kids, key = (), ("var", e.name)
    elif isinstance(e, Neg):
        kids = (_intern(e.operand, nodes, children, slot_of),)
        key = ("neg", kids)
    elif isinstance(e, Call):
        kids = (_intern(e.operand, nodes, children, slot_of),)
        key = (e.func, kids)
    elif isinstance(e, BinOp):
        kids = (
            _intern(e.lhs, nodes, children, slot_of),
            _intern(e.rhs, nodes, children, slot_of),
        )
        key = (e.op, kids)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    slot = slot_of.get(key)
    if slot is None:
        slot = slot_of[key] = len(nodes)
        nodes.append(e)
        children.append(kids)
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


def _collect_vars(e: Expr, acc: set):
    if isinstance(e, Var):
        acc.add(e.name)
    elif isinstance(e, Neg):
        _collect_vars(e.operand, acc)
    elif isinstance(e, Call):
        _collect_vars(e.operand, acc)
    elif isinstance(e, BinOp):
        _collect_vars(e.lhs, acc)
        _collect_vars(e.rhs, acc)


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
        op = e.op
        if op in "+-":
            prec = _PREC_SUM
            lhs = _serialize(e.lhs, prec)
            rhs = _serialize(e.rhs, prec + 1)  # left associative
        elif op in "*/":
            prec = _PREC_TERM
            lhs = _serialize(e.lhs, prec)
            rhs = _serialize(e.rhs, prec + 1)
        else:
            prec = _PREC_POW
            lhs = _serialize(e.lhs, prec + 1)
            rhs = _serialize(e.rhs, prec)
        text = f"{lhs}{op}{rhs}"
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if _precedence(e) < parent_prec:
        return f"({text})"
    return text

"""Expression engine tests.

The derivative oracle is a central finite difference with step 1e-5,
computed here from eval() alone so it cannot share a code path with
differentiate().  The evaluation oracle is :func:`reference_eval`, a
recursive walk of the tree over whole arrays that applies each node's
numpy operation in the same operand order as the planned, chunked
evaluator, so the two must agree bit for bit.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from surfspec import expr
from surfspec.expr import (
    _CHUNK,
    _NUMPY_FN,
    _plan,
    MAX_DEPTH,
    BinOp,
    Call,
    Const,
    EvalError,
    Neg,
    ParseError,
    Var,
    differentiate,
    evaluate,
    parse,
)

FD_STEP = 1e-5
FD_RTOL = 1e-6


def reference_eval(e, env):
    """Evaluate ``e`` by walking the tree, every node over whole arrays."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound variable '{e.name}'") from None
    if isinstance(e, Neg):
        return -reference_eval(e.operand, env)
    if isinstance(e, Call):
        arg = reference_eval(e.operand, env)
        if e.func == "log" and not np.all(np.asarray(arg) > 0):
            raise EvalError("log of a non-positive value")
        if e.func == "sqrt" and not np.all(np.asarray(arg) >= 0):
            raise EvalError("sqrt of a negative value")
        return _NUMPY_FN[e.func](arg)
    a = reference_eval(e.lhs, env)
    b = reference_eval(e.rhs, env)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    if e.op == "/":
        if not np.all(np.asarray(b) != 0):
            raise EvalError("division by zero")
        return a / b
    if b < 0 and not np.all(np.asarray(a) != 0):
        raise EvalError("zero raised to a negative power")
    return a ** b


def fd_derivative(e, var, point):
    hi = dict(point)
    lo = dict(point)
    hi[var] = point[var] + FD_STEP
    lo[var] = point[var] - FD_STEP
    return (e.eval(hi) - e.eval(lo)) / (2 * FD_STEP)


def check_derivative(text, var, points):
    e = parse(text)
    de = differentiate(e, var)
    for p in points:
        got = de.eval(p)
        want = fd_derivative(e, var, p)
        scale = max(abs(got), abs(want))
        if scale < 1e-8:
            assert abs(got - want) < 1e-8
        else:
            assert abs(got - want) <= FD_RTOL * scale, (text, p, got, want)


# ---------------------------------------------------------------------------
# parsing


def test_parse_division_tree_and_eval():
    e = parse("1/(y*y)")
    assert isinstance(e, BinOp) and e.op == "/"
    assert e.eval({"y": 2.0}) == pytest.approx(0.25)


def test_parse_sum_of_powers():
    e = parse("r^2 + c^2")
    assert isinstance(e, BinOp) and e.op == "+"
    assert isinstance(e.lhs, BinOp) and e.lhs.op == "^"
    assert isinstance(e.rhs, BinOp) and e.rhs.op == "^"
    assert e.eval({"r": 3.0, "c": 4.0}) == pytest.approx(25.0)


def test_parse_precedence():
    assert parse("1+2*3").eval({}) == 7.0
    assert parse("2*3^2").eval({}) == 18.0
    assert parse("-3^2").eval({}) == -9.0  # ^ binds tighter than unary -
    assert parse("(1+2)*3").eval({}) == 9.0
    assert parse("2-1-1").eval({}) == 0.0  # left associative


def test_parse_whitespace_insensitive():
    assert parse(" 1 + 2\t*x ") == parse("1+2*x")


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError) as err:
        parse("1+*2")
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError) as err:
        parse("frob(x)")
    assert "unknown function" in str(err.value)
    with pytest.raises(ParseError):
        parse("1+2)")
    with pytest.raises(ParseError):
        parse("x^y")  # exponent must be constant


@pytest.mark.parametrize(
    "text,caret",
    [("2^10000*x", 1), ("x^exp(1000)", 1), ("1000^1000.5*x", 4),
     # an overflowing literal is refused at the literal, in an exponent too
     ("1e400*x+x", 0), ("x+2*1e400", 4), ("x^1e400", 2), ("-1e400*x", 1)],
)
def test_overflowing_constant_is_parse_error(text, caret):
    with pytest.raises(ParseError, match="overflows") as err:
        parse(text)
    assert err.value.position == caret


@pytest.mark.parametrize(
    "text,name_at",
    [("exp(1000)*x", 0), ("x*cosh(800)", 2), ("sinh(1e3)+y", 0), ("exp(exp(10))*x", 0)],
)
def test_overflowing_constant_call_is_parse_error(text, name_at):
    with pytest.raises(ParseError, match="overflows") as err:
        parse(text)
    assert err.value.position == name_at


@pytest.mark.parametrize("func,arg", [("sqrt", 2.0), ("exp", 1.0)])
def test_finite_constant_call_keeps_its_tree(func, arg):
    text = f"{func}({arg:g})*x"
    e = parse(text)
    assert e == BinOp("*", Call(func, Const(arg)), Var("x"))
    assert str(e) == text


@pytest.mark.parametrize(
    "exponent,value",
    [("1/3", 1 / 3), ("2*3-1", 2 * 3 - 1), ("-(2)", -2.0),
     ("log(2)", math.log(2)), ("sqrt(2)", math.sqrt(2)),
     # 2^0.5 is itself rewritten to exp(0.5*log(2)) before it folds
     ("2^0.5", math.exp(0.5 * math.log(2)))],
)
def test_exponent_folds_bit_for_bit(exponent, value):
    e, value = parse(f"x^({exponent})"), float(value)
    if value == int(value):
        assert e == BinOp("^", Var("x"), Const(value))
    else:
        assert e == Call("exp", BinOp("*", Const(value), Call("log", Var("x"))))
    assert (e.rhs if isinstance(e, BinOp) else e.operand.lhs).value.hex() == value.hex()


@pytest.mark.parametrize("text", ["sin(cosh(700)^2.5)", "1/(cosh(700)^2)", "x+(1+1e200)^2"])
def test_closed_power_that_overflows_is_refused_at_its_caret(text):
    with pytest.raises(ParseError, match="overflows") as err:
        parse(text)
    assert err.value.position == text.index("^")


def test_folding_keeps_other_refusals_and_trees():
    # no identity shortcut: 0*sqrt(-1) does not fold to 0
    with pytest.raises(ParseError, match="exponent must be a constant") as err:
        parse("x^(0*sqrt(-1))")
    assert err.value.position == 1
    with pytest.raises(ParseError, match="division by constant zero"):
        parse("x^(1/0)")
    # a call or closed power keeps its tree; division by zero fails at evaluation
    assert parse("sin(1/0)") == Call("sin", BinOp("/", Const(1.0), Const(0.0)))
    assert parse("(1/0)^2") == BinOp("^", BinOp("/", Const(1.0), Const(0.0)), Const(2.0))
    assert parse("cosh(2)^2") == BinOp("^", Call("cosh", Const(2.0)), Const(2.0))


# shape -> (text of depth n, offset of the token that reaches depth n)
DEPTH_SHAPES = {
    "parentheses": (lambda n: "(" * n + "x" + ")" * n, lambda n: n - 1),
    "unary minus": (lambda n: "-" * n + "x", lambda n: n - 1),
    "calls": (lambda n: "sin(" * n + "x" + ")" * n, lambda n: 4 * (n - 1)),
    "^ operands": (lambda n: "1" + "^1" * n, lambda n: 2 * n - 1),
    "chain": (lambda n: "x" + "+x" * n, lambda n: 2 * n - 1),
    "call over a chain": (lambda n: "sin(x" + "*x" * (n - 1) + ")", lambda n: 0),
}


@pytest.mark.parametrize("shape", sorted(DEPTH_SHAPES))
def test_depth_past_the_bound_is_refused_where_it_crosses(shape):
    text, offset = DEPTH_SHAPES[shape]
    parse(text(MAX_DEPTH))
    with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels") as err:
        parse(text(MAX_DEPTH + 1))
    assert err.value.position == offset(MAX_DEPTH + 1)


@pytest.mark.parametrize(
    "text",
    ["(" * 197 + "x" + ")" * 197, "--" * 492 + "x",
     "sqrt(" * 195 + "x" + "^2)" * 195, "+".join(["x"] * 980)],
    ids=["197 parentheses", "492 -- pairs", "195 sqrt(...^2)", "980-term sum"],
)
def test_inputs_that_overflowed_the_stack_are_parse_errors(text):
    with pytest.raises(ParseError, match="deeper than"):
        parse(text)


def test_variables_read_off_the_plan():
    assert parse("sin(x)*y + x^2 - c").variables() == {"x", "y", "c"}
    assert parse("exp(2)").variables() == frozenset()


def test_scientific_notation():
    assert parse("1e-3").eval({}) == 1e-3
    assert parse("2.5e2").eval({}) == 250.0


def test_noninteger_power_rewrites_to_exp_log():
    e = parse("r^2.5")
    assert isinstance(e, Call) and e.func == "exp"
    assert e.eval({"r": 2.0}) == pytest.approx(2.0 ** 2.5, rel=1e-14)


def test_integer_power_stays_power_node():
    e = parse("r^3")
    assert isinstance(e, BinOp) and e.op == "^"
    assert e.eval({"r": -2.0}) == -8.0


# ---------------------------------------------------------------------------
# evaluation


def test_eval_domain_errors():
    with pytest.raises(EvalError):
        parse("log(x)").eval({"x": -1.0})
    with pytest.raises(EvalError):
        parse("log(x)").eval({"x": 0.0})
    with pytest.raises(EvalError):
        parse("sqrt(x)").eval({"x": -0.5})
    with pytest.raises(EvalError):
        parse("1/x").eval({"x": 0.0})
    with pytest.raises(EvalError):
        parse("x^-2").eval({"x": 0.0})
    with pytest.raises(EvalError):
        parse("x+y").eval({"x": 1.0})


def test_eval_array_bindings():
    e = parse("sin(x)*cosh(y)")
    x = np.linspace(0, 1, 7)
    y = np.linspace(-1, 1, 7)
    out = e.eval({"x": x, "y": y})
    assert np.allclose(out, np.sin(x) * np.cosh(y))


def test_eval_returns_python_float():
    out = parse("2*x").eval({"x": 3.0})
    assert isinstance(out, float) and out == 6.0


# every function, "/" and "^" (integer and exp-log), with shared subtrees
EVERY_OP = (
    "exp(x/3)*log(y+2) - sqrt(x*x+1)/sin(y+0.5)^2"
    " + cos(x)*sinh(y/4) - cosh(x/5)/tanh(y+1.5)"
    " + (x+c)^-2*y^3 - x^2.5 + -(sqrt(x*x+1)*c)"
)


def _points(n):
    rng = np.random.default_rng(n)
    return {
        "x": rng.uniform(0.5, 2.0, n),
        "y": rng.uniform(0.1, 1.3, n),
        "c": 0.75,
    }


@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_planned_evaluation_is_bit_equal_to_tree_walk(n):
    e = parse(EVERY_OP)
    roots = (e, e.diff("x"), e.diff("y"), parse("x*c"), parse("c^2"))
    env = _points(n)
    got = evaluate(roots, env)
    assert len(got) == len(roots)
    for root, value in zip(roots, got):
        want = reference_eval(root, env)
        assert np.shape(value) == np.shape(want)
        assert np.array_equal(value, want), str(root)
    assert np.array_equal(e.eval(env), reference_eval(e, env))


def test_domain_error_in_last_chunk_only():
    x = np.ones(3 * _CHUNK + 5)
    x[-1] = -1.0
    with pytest.raises(EvalError, match="^log of a non-positive value$"):
        parse("x + log(x)").eval({"x": x})
    with pytest.raises(EvalError, match="^log of a non-positive value$"):
        reference_eval(parse("x + log(x)"), {"x": x})


def test_constant_root_with_array_bindings_is_float():
    env = {"x": np.linspace(0.0, 1.0, 5), "c": 2.0}
    out = parse("3").eval(env)
    assert isinstance(out, float) and out == 3.0
    out = parse("c*4").eval(env)
    assert isinstance(out, float) and out == 8.0
    const, varying = evaluate((parse("c*4"), parse("x*c")), env)
    assert const == 8.0 and np.array_equal(varying, env["x"] * 2.0)


def test_zero_size_binding_gives_empty_array():
    out = parse("x*y + log(c)").eval({"x": np.empty((0, 3)), "y": 1.0, "c": 2.0})
    assert isinstance(out, np.ndarray) and out.shape == (0, 3)


def test_shared_subtree_runs_once_per_chunk(monkeypatch):
    calls = []

    def counting_sqrt(a):
        calls.append(np.size(a))
        return np.sqrt(a)

    monkeypatch.setitem(_NUMPY_FN, "sqrt", counting_sqrt)
    n = 3 * _CHUNK + 5
    x = np.linspace(0.0, 1.0, n)
    s = "sqrt(x+1)"
    roots = (parse(f"{s}*{s} + {s}/(x+1)"), parse(f"{s}*x"))
    evaluate(roots, {"x": x})
    assert calls == [_CHUNK, _CHUNK, _CHUNK, 5]


def test_plan_interns_structurally_equal_subtrees():
    nodes, _, roots = _plan(
        (parse("sin(x)*sin(x) + 0*x - -0*x"), parse("sin(x)"))
    )
    assert [str(n) for n in nodes].count("sin(x)") == 1
    assert roots[1] == [str(n) for n in nodes].index("sin(x)")
    # 0.0 and -0.0 compare equal but are different constants
    assert sum(isinstance(n, Const) for n in nodes) == 2


def test_plan_interns_each_node_object_once(monkeypatch):
    # derivative trees share subtrees, so paths far outnumber node objects:
    # 69,093 _intern calls reach these 3,331 objects when each path is walked
    f = parse("-log(y)" + "*y/y" * 20)
    d1 = differentiate(f, "y")
    roots = (f, d1, differentiate(d1, "y"))
    seen, stack = set(), list(roots)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen.add(id(e))
            stack += [getattr(e, a) for a in ("operand", "lhs", "rhs") if hasattr(e, a)]
    calls = []
    intern = expr._intern

    def counted(*args):
        calls.append(1)
        return intern(*args)

    monkeypatch.setattr(expr, "_intern", counted)
    _plan(roots)
    assert len(calls) <= 2 * len(seen) + len(roots)


# ---------------------------------------------------------------------------
# differentiation


def test_derivative_of_absent_variable_is_zero():
    d = differentiate(parse("sin(x)*exp(y)"), "z")
    assert d == Const(0.0)


def test_frozen_value_log_sqrt():
    # d^2/dt^2 log(sqrt(t^2+1)) = (1-t^2)/(1+t^2)^2, which is -0.12 at t=2.
    e = parse("log(sqrt(t^2+1))")
    d2 = differentiate(differentiate(e, "t"), "t")
    assert d2.eval({"t": 2.0}) == pytest.approx(-0.12, abs=1e-12)


def test_collar_profile_second_derivative():
    # (log cosh r)'' == 1/cosh^2 r, pointwise to 1e-12.
    d2 = differentiate(differentiate(parse("log(cosh(r))"), "r"), "r")
    for r in np.linspace(-3.0, 3.0, 64):
        want = 1.0 / math.cosh(r) ** 2
        assert abs(d2.eval({"r": float(r)}) - want) <= 1e-12


SAFE_DOMAINS = {
    "exp": (-2.0, 2.0),
    "log": (0.3, 4.0),
    "sqrt": (0.3, 4.0),
    "sin": (-3.0, 3.0),
    "cos": (-3.0, 3.0),
    "sinh": (-2.0, 2.0),
    "cosh": (-2.0, 2.0),
    "tanh": (-2.0, 2.0),
}


@pytest.mark.parametrize("func", sorted(SAFE_DOMAINS))
def test_each_function_against_finite_differences(func):
    lo, hi = SAFE_DOMAINS[func]
    rng = random.Random(hash(func) & 0xFFFF)
    points = [{"x": rng.uniform(lo, hi)} for _ in range(100)]
    check_derivative(f"{func}(x)", "x", points)


def test_product_quotient_chain_rules():
    rng = random.Random(7)
    points = [{"x": rng.uniform(0.4, 2.0)} for _ in range(50)]
    check_derivative("x^3/(1+x^2)", "x", points)
    check_derivative("sin(x)*cos(x)", "x", points)
    check_derivative("exp(-x^2)", "x", points)
    check_derivative("x^-2", "x", points)
    check_derivative("x^0.5", "x", points)
    check_derivative("tanh(x*x)", "x", points)


def test_constant_folding_in_derivatives():
    d = differentiate(parse("2*x+3"), "x")
    assert d == Const(2.0)
    d = differentiate(parse("x^2"), "x")
    # 2*x^1 folds the power away
    assert d == BinOp("*", Const(2.0), Var("x"))


# ---------------------------------------------------------------------------
# serialization round trips


ROUND_TRIP_CASES = [
    "1/(y*y)",
    "r^2+c^2",
    "-x^2",
    "x^-3",
    "a-(b+c)",
    "a/(b*c)",
    "-(x*y)",
    "exp(2.5*log(r))",
    "l0*cosh(r)",
    "sin(x)*sinh(y)-cos(x)/tanh(y)",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_serialize_parse_round_trip(text):
    e = parse(text)
    s1 = str(e)
    e2 = parse(s1)
    assert e2 == e
    assert str(e2) == s1


def test_round_trip_of_derivative_trees():
    e = parse("log(cosh(r))")
    d2 = differentiate(differentiate(e, "r"), "r")
    assert parse(str(d2)) == d2


def test_negation_round_trip():
    e = Neg(parse("x+1"))
    assert parse(str(e)) == e
    e = parse("-3*x")
    assert parse(str(e)) == e

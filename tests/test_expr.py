"""Expression engine tests.

The derivative oracle is a central finite difference with step 1e-5,
computed here from eval() alone so it cannot share a code path with
differentiate().
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from surfspec.expr import (
    BinOp,
    Call,
    Const,
    EvalError,
    Neg,
    ParseError,
    Var,
    differentiate,
    parse,
)

FD_STEP = 1e-5
FD_RTOL = 1e-6


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
    "text,caret", [("2^10000*x", 1), ("x^exp(1000)", 1), ("1000^1000.5*x", 4)]
)
def test_overflowing_constant_is_parse_error(text, caret):
    with pytest.raises(ParseError, match="overflows") as err:
        parse(text)
    assert err.value.position == caret


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

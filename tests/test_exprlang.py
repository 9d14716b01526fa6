import math
import re

import numpy as np
import pytest

from finslerlab import jets
from finslerlab.exprlang import (
    BinOp,
    Call,
    ExprSyntaxError,
    Neg,
    Num,
    Var,
    compile_expr,
    evaluate,
    parse_expr,
    pretty_print,
)

from oracles import central_diff


def test_parse_function_call():
    assert parse_expr("exp(x1)") == Call("exp", Var())


def test_parse_precedence():
    ast = parse_expr("1 + x1^2 / 4")
    assert ast == BinOp(
        "+", Num(1.0), BinOp("/", BinOp("^", Var(), Num(2.0)), Num(4.0))
    )


def test_parse_left_and_right_associativity():
    assert parse_expr("1 - 2 - 3") == BinOp(
        "-", BinOp("-", Num(1.0), Num(2.0)), Num(3.0)
    )
    assert parse_expr("2 ^ 3 ^ 2") == BinOp(
        "^", Num(2.0), BinOp("^", Num(3.0), Num(2.0))
    )


def test_parse_unary_minus_binds_into_power_base():
    # per the grammar the base of '^' is a unary, so -x1^2 is (-x1)^2
    assert parse_expr("-x1^2") == BinOp("^", Neg(Var()), Num(2.0))
    assert parse_expr("2 * -3") == BinOp("*", Num(2.0), Neg(Num(3.0)))


def test_unclosed_call_reports_offset_and_expected():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("exp(x1")
    assert err.value.offset == 7
    assert ")" in err.value.expected


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("exp(x2)")
    assert "x2" in str(err.value)


def test_empty_and_trailing():
    with pytest.raises(ExprSyntaxError):
        parse_expr("   ")
    with pytest.raises(ExprSyntaxError):
        parse_expr("1 + 2 )")
    with pytest.raises(ExprSyntaxError):
        parse_expr("1 $ 2")


def test_evaluate_matches_python():
    space = jets.jet_space(1, 0, 1, 0)
    for src, fn in [
        ("1 + x1^2 / 4", lambda t: 1 + t**2 / 4),
        ("exp(x1) * cos(x1)", lambda t: math.exp(t) * math.cos(t)),
        ("sqrt(x1 + 2) - ln(x1 + 3)", lambda t: math.sqrt(t + 2) - math.log(t + 3)),
        ("-x1 + 2^-2", lambda t: -t + 0.25),
        ("x1^0 + (x1 + 2)^0", lambda t: 2.0),
    ]:
        f = compile_expr(src)
        for t in (-0.4, 0.0, 0.3):
            got = f(space.seed_x(0, t)).value
            assert got == pytest.approx(fn(t), rel=1e-14)


# random AST generation for round-trip and derivative properties


def random_ast(rng, depth):
    if depth <= 0:
        return rng.choice([Num(round(float(rng.uniform(0.2, 3.0)), 3)), Var()])
    kind = rng.integers(0, 8)
    if kind <= 3:
        op = "+-*/"[int(rng.integers(0, 4))]
        return BinOp(op, random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if kind == 4:
        return Neg(random_ast(rng, depth - 1))
    if kind == 5:
        # keep exponents literal so domains stay tame
        return BinOp("^", random_ast(rng, depth - 1), Num(float(rng.integers(1, 4))))
    fn = ("exp", "ln", "sqrt", "sin", "cos")[int(rng.integers(0, 5))]
    return Call(fn, random_ast(rng, depth - 1))


def test_roundtrip_on_generated_expressions():
    rng = np.random.default_rng(77)
    done = 0
    while done < 500:
        ast = random_ast(rng, int(rng.integers(1, 5)))
        assert parse_expr(pretty_print(ast)) == ast
        done += 1


def _safe_eval(f, t):
    space = jets.jet_space(1, 0, 1, 1)
    try:
        out = f(space.seed_x(0, t))
    except (jets.SingularPointError, ZeroDivisionError, OverflowError):
        return None
    if not np.all(np.isfinite(out.coeffs)) or np.abs(out.coeffs).max() > 1e6:
        return None
    return out


def test_derivative_matches_central_difference():
    rng = np.random.default_rng(78)
    checked = 0
    while checked < 20:
        ast = random_ast(rng, int(rng.integers(1, 4)))
        f = compile_expr(pretty_print(ast))
        t0 = float(rng.uniform(-0.4, 0.4))
        cols = [_safe_eval(f, t) for t in (t0 - 2e-6, t0, t0 + 2e-6)]
        if any(c is None for c in cols):
            continue
        jet = cols[1]
        got = jet.extract((1,))
        ref = central_diff(
            lambda z: _safe_eval(f, float(z[0])).value, [t0], 0, 1e-6
        )
        if abs(ref) > 1e4:  # too steep for a meaningful relative check
            continue
        checked += 1
        assert abs(got - ref) <= 1e-8 * max(1.0, abs(got), abs(ref))


def test_a_syntax_error_names_its_offset_and_the_expected_tokens():
    with pytest.raises(ExprSyntaxError, match=re.escape(
            "unexpected '*' at offset 1, expected one of "
            "['(', 'function', 'number', 'x1']")) as err:
        parse_expr("*")
    assert err.value.offset == 1
    assert err.value.expected == ("(", "function", "number", "x1")


def test_trailing_blanks_parse():
    assert parse_expr("x1  ") == parse_expr("x1") == Var()


@pytest.mark.parametrize(
    "src, offset", [("1e400", 1), ("x1^1e400", 4), ("2 + 1e309", 5)]
)
def test_non_finite_literal_is_a_syntax_error(src, offset):
    with pytest.raises(ExprSyntaxError, match="not finite") as err:
        parse_expr(src)
    assert err.value.offset == offset

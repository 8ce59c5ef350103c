"""Expression language: parsing, precedence, evaluation, exact round-trips.

``eval_expr`` below is a plain tree walk over the AST.  It is the reference
that the package's only evaluator, ``compile_expr``, is checked against.
"""

import random
from typing import Mapping

import pytest

from edgeavail import expr as ex
from edgeavail.errors import DivisionByZero, ParseError, UnknownIdentifier
from edgeavail.expr import (BinOp, Call, Cond, Expr, Neg, Not, Num, Param,
                            TokenCount, parse_expression, to_text)


def eval_expr(e: Expr, marking: Mapping[str, float] | None, params: Mapping[str, float]) -> float:
    """Evaluate ``e`` against a marking and a parameter set.

    Booleans come back as 0.0/1.0.  Division by zero raises rather than
    producing infinity.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Param):
        try:
            return float(params[e.name])
        except KeyError:
            raise UnknownIdentifier(e.name, "parameter") from None
    if isinstance(e, TokenCount):
        if marking is None:
            raise UnknownIdentifier(e.place, "place (no marking supplied)")
        try:
            return float(marking[e.place])
        except KeyError:
            raise UnknownIdentifier(e.place, "place") from None
    if isinstance(e, Neg):
        return -eval_expr(e.operand, marking, params)
    if isinstance(e, Not):
        return 0.0 if eval_expr(e.operand, marking, params) != 0.0 else 1.0
    if isinstance(e, Cond):
        taken = e.if_true if eval_expr(e.test, marking, params) != 0.0 else e.if_false
        return eval_expr(taken, marking, params)
    if isinstance(e, Call):
        fn = min if e.func == "min" else max
        return fn(eval_expr(a, marking, params) for a in e.args)
    if isinstance(e, BinOp):
        op = e.op
        if op == "and":
            if eval_expr(e.left, marking, params) == 0.0:
                return 0.0
            return 1.0 if eval_expr(e.right, marking, params) != 0.0 else 0.0
        if op == "or":
            if eval_expr(e.left, marking, params) != 0.0:
                return 1.0
            return 1.0 if eval_expr(e.right, marking, params) != 0.0 else 0.0
        a = eval_expr(e.left, marking, params)
        b = eval_expr(e.right, marking, params)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0.0:
                raise DivisionByZero(to_text(e))
            return a / b
        if op == "<":
            return 1.0 if a < b else 0.0
        if op == "<=":
            return 1.0 if a <= b else 0.0
        if op == ">":
            return 1.0 if a > b else 0.0
        if op == ">=":
            return 1.0 if a >= b else 0.0
        if op == "=":
            return 1.0 if a == b else 0.0
        if op == "!=":
            return 1.0 if a != b else 0.0
    raise TypeError(f"not an expression node: {e!r}")


def ev(text, marking=None, params=None):
    """Evaluate with ``compile_expr``, checked against the tree walk."""
    e = parse_expression(text)
    marking, params = marking or {}, params or {}
    place_index = {name: i for i, name in enumerate(marking)}
    value = ex.compile_expr(e, place_index, params)(tuple(marking.values()))
    assert value == eval_expr(e, marking, params)
    return value


def test_arithmetic_basics():
    assert ev("2*3+1") == 7.0
    assert ev("2+3*4") == 14.0
    assert ev("(2+3)*4") == 20.0
    assert ev("10/4") == 2.5
    assert ev("-3 + 5") == 2.0
    assert ev("2 - 3 - 4") == -5.0  # left associative
    assert ev("1.5e2 + 1e-2") == 150.01


def test_marking_and_parameter_references():
    assert ev("#Working * lambda_Hi", {"Working": 10}, {"lambda_Hi": 0.5}) == 5.0
    assert ev("x + #P", {"P": 3}, {"x": 1.0}) == 4.0


def test_comparisons_and_booleans():
    assert ev("3 >= 3") == 1.0
    assert ev("3 > 3") == 0.0
    assert ev("2 = 2") == 1.0
    assert ev("2 != 2") == 0.0
    assert ev("1 < 2 and 3 < 4") == 1.0
    assert ev("1 < 2 and 3 > 4") == 0.0
    assert ev("0 or 1") == 1.0
    assert ev("not 0") == 1.0
    assert ev("not 1 < 2") == 0.0       # not binds looser than comparison
    assert ev("not (1 < 2)") == 0.0
    assert ev("not 0 and not 0") == 1.0


def test_conditional_and_minmax():
    assert ev("if 1 then 10 else 20") == 10.0
    assert ev("if 0 then 10 else 20") == 20.0
    assert ev("min(3, 7)") == 3.0
    assert ev("max(3, 7, 2)") == 7.0
    assert ev("1 + (if 1 then 2 else 3)") == 3.0


def test_conditional_is_lazy():
    # untaken branch may not be evaluated (guards division by zero)
    assert ev("if #P > 0 then 6 / #P else 42", {"P": 0}) == 42.0
    assert ev("#P > 0 and 6 / #P > 1", {"P": 0}) == 0.0


def test_cluster_software_rate_expression():
    # per-instance software intensity: alpha * lam * M / M_w above the
    # threshold, alpha * lam * M below; at M = M_w the quotient is 1
    text = "if #Working >= K then alpha_S * lambda_SW * M / #Working else alpha_S * lambda_SW * M"
    e = parse_expression(text)
    assert isinstance(e, ex.Cond)
    params = {"K": 9.0, "alpha_S": 1.0, "lambda_SW": 1 / 730, "M": 10.0}
    assert ev(text, {"Working": 10}, params) == pytest.approx(1 / 730, abs=0, rel=1e-15)
    assert ev(text, {"Working": 5}, params) == pytest.approx(10 / 730, rel=1e-15)


def test_division_by_zero_is_an_error():
    with pytest.raises(DivisionByZero):
        ev("x / #P", {"P": 0}, {"x": 1.0})
    with pytest.raises(DivisionByZero):
        ev("1 / 0")


def test_unknown_identifiers():
    with pytest.raises(UnknownIdentifier):
        ev("nope")
    with pytest.raises(UnknownIdentifier):
        ev("#Nope", {"P": 1})


def test_syntax_error_carries_location_and_expectations():
    with pytest.raises(ParseError) as err:
        parse_expression("1 + * 2")
    assert err.value.line == 1
    assert err.value.column == 5
    assert err.value.expected


@pytest.mark.parametrize("bad", ["", "1 +", "(1", "min(1)", "if 1 then 2",
                                 "1 2", "#", "a @ b", '"unterminated'])
def test_malformed_inputs_raise_parse_error(bad):
    with pytest.raises(ParseError):
        parse_expression(bad)


def test_parser_never_crashes_on_garbage_bytes():
    rng = random.Random(20240917)
    alphabet = "abcdef#()+-*/<>=!., \t\n\"0123456789_ifthenelseandornot{};"
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
        try:
            parse_expression(text)
        except ParseError:
            pass  # the only acceptable failure mode


def _random_expr(rng, depth):
    """Grammar-directed random expression over a small namespace."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([
            ex.Num(float(rng.randint(0, 50))),
            ex.Num(rng.random() * 10),
            ex.Param(rng.choice("abc")),
            ex.TokenCount(rng.choice(["P", "Q"])),
        ])
    kind = rng.randrange(6)
    if kind == 0:
        op = rng.choice(["+", "-", "*", "and", "or", "<", "<=", ">", ">=", "=", "!="])
        return ex.BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == 1:  # division by a literal, now and then zero
        return ex.BinOp("/", _random_expr(rng, depth - 1),
                        ex.Num(float(rng.randint(0, 9))))
    if kind == 2:
        inner = _random_expr(rng, depth - 1)
        if isinstance(inner, ex.Num):  # parser folds -literal; mirror that
            return ex.Num(-inner.value)
        return ex.Neg(inner)
    if kind == 3:
        return ex.Not(_random_expr(rng, depth - 1))
    if kind == 4:
        return ex.Cond(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1),
                       _random_expr(rng, depth - 1))
    return ex.Call(rng.choice(["min", "max"]),
                   tuple(_random_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))))


def test_print_parse_round_trip_is_identity():
    rng = random.Random(7)
    marking = {"P": 3, "Q": 0}
    params = {"a": 1.25, "b": -2.0, "c": 7.0}
    for _ in range(500):
        e = _random_expr(rng, 4)
        text = to_text(e)
        back = parse_expression(text)
        assert back == e, f"round-trip changed {text!r}"
        assert _outcome(eval_expr, back, marking, params) == \
            _outcome(eval_expr, e, marking, params)


def _outcome(evaluate, *args):
    """The value, or the message of the division by zero that was raised."""
    try:
        return evaluate(*args)
    except DivisionByZero as exc:
        return str(exc)


def test_compiled_evaluation_agrees_with_tree_walk():
    # a division by zero must raise in both, naming the same expression
    rng = random.Random(11)
    params = {"a": 0.5, "b": 3.0, "c": -1.5}
    place_index = {"P": 0, "Q": 1}
    raised = 0
    for _ in range(300):
        e = _random_expr(rng, 4)
        fn = ex.compile_expr(e, place_index, params)
        for vec in [(0, 0), (1, 4), (7, 2)]:
            marking = {"P": vec[0], "Q": vec[1]}
            got = _outcome(fn, vec)
            assert got == _outcome(eval_expr, e, marking, params)
            raised += isinstance(got, str)
    assert raised > 0


def test_nested_division_by_zero_names_the_inner_division_first():
    with pytest.raises(DivisionByZero, match=r"^division by zero in 1 / 0$"):
        ev("(1 / 0) / 0")


def test_keywords_are_not_identifiers():
    with pytest.raises(ParseError):
        parse_expression("then + 1")


def test_number_formats():
    assert ev("1e3") == 1000.0
    assert ev(".5 + 0.5") == 1.0
    assert ev("2E-2") == 0.02

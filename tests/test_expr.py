"""Expression language: parsing, precedence, evaluation, exact round-trips.

``eval_expr`` below is a plain tree walk over the AST.  It is the reference
that the package's only evaluator, ``compile_expr``, is checked against.
``reference_parse`` is a recursive-descent cascade, one function per
precedence level; it is the reference for the package's precedence-climbing
parser.
"""

import random
from typing import Mapping

import pytest

from edgeavail import expr as ex
from edgeavail.errors import (DivisionByZero, ParseError, SemanticError,
                              UnknownIdentifier)
from edgeavail.expr import (KEYWORDS, BinOp, Call, Cond, Expr, Neg, Not, Num,
                            Param, TokenCount, TokenCursor, parse_expression,
                            to_text, tokenize)


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


# ── reference parser: one function per precedence level ─────────────────────

def reference_parse(text: str) -> Expr:
    cur = TokenCursor(tokenize(text))
    e = _conditional(cur)
    if not cur.at("EOF"):
        raise cur.fail({"end of input", "an operator"})
    return e


def _conditional(cur):
    if cur.at("IDENT", "if"):
        cur.next()
        test = _conditional(cur)
        cur.expect("IDENT", "then", {"'then'"})
        if_true = _conditional(cur)
        cur.expect("IDENT", "else", {"'else'"})
        if_false = _conditional(cur)
        return Cond(test, if_true, if_false)
    return _or(cur)


def _or(cur):
    left = _and(cur)
    while cur.at("IDENT", "or"):
        cur.next()
        left = BinOp("or", left, _and(cur))
    return left


def _and(cur):
    left = _not(cur)
    while cur.at("IDENT", "and"):
        cur.next()
        left = BinOp("and", left, _not(cur))
    return left


def _not(cur):
    if cur.at("IDENT", "not"):
        cur.next()
        return Not(_not(cur))
    return _comparison(cur)


def _comparison(cur):
    left = _additive(cur)
    if cur.peek().kind in ("<", "<=", ">", ">=", "=", "!="):
        op = cur.next().kind
        return BinOp(op, left, _additive(cur))
    return left


def _additive(cur):
    left = _term(cur)
    while cur.peek().kind in ("+", "-"):
        op = cur.next().kind
        left = BinOp(op, left, _term(cur))
    return left


def _term(cur):
    left = _factor(cur)
    while cur.peek().kind in ("*", "/"):
        op = cur.next().kind
        left = BinOp(op, left, _factor(cur))
    return left


def _factor(cur):
    if cur.at("-"):
        cur.next()
        operand = _factor(cur)
        if isinstance(operand, Num):
            return Num(-operand.value)
        return Neg(operand)
    return _atom(cur)


def _atom(cur):
    t = cur.peek()
    if t.kind == "NUMBER":
        cur.next()
        return Num(float(t.text))
    if t.kind == "REF":
        cur.next()
        return TokenCount(t.text)
    if t.kind == "(":
        cur.next()
        inner = _conditional(cur)
        cur.expect(")", expected={"')'"})
        return inner
    if t.kind == "IDENT":
        if t.text in ("min", "max"):
            cur.next()
            cur.expect("(", expected={"'('"})
            args = [_conditional(cur)]
            while cur.at(","):
                cur.next()
                args.append(_conditional(cur))
            cur.expect(")", expected={"')'", "','"})
            if len(args) < 2:
                raise ParseError(f"{t.text} needs at least two arguments", t.line, t.column)
            return Call(t.text, tuple(args))
        if t.text in KEYWORDS:
            raise cur.fail({"a value"})
        cur.next()
        return Param(t.text)
    raise cur.fail({"a number", "an identifier", "'#place'", "'('"})


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
    alphabet = ("abcdef#()+-*/<>=!., \t\n\"0123456789_ifthenelseandornot{};"
                "\u00e9\u03bc\u00b2\u00a0")
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


def _result(parse, text):
    """The parsed tree, or everything a ``ParseError`` reports."""
    try:
        return parse(text)
    except ParseError as err:
        return str(err), err.line, err.column, err.expected


_TOKENS = ("if", "then", "else", "and", "or", "not", "min", "max", "(", ")",
           ",", "-", "+", "*", "/", "<", "<=", ">", ">=", "=", "!=", "1",
           "2.5", "a", "b", "#P", "#Q")


def test_parser_agrees_with_reference_cascade():
    rng = random.Random(2026)
    parsed = 0
    for _ in range(20_000):
        text = " ".join(rng.choice(_TOKENS) for _ in range(rng.randint(1, 14)))
        got = _result(parse_expression, text)
        assert got == _result(reference_parse, text), text
        parsed += not isinstance(got, tuple)
    assert parsed > 300   # enough of the strings are expressions


@pytest.mark.parametrize("text, where", [
    ("\u03bc + 1", (1, 1)),
    ("x + \u00e9", (1, 5)),
    ("#\u00e9", (1, 2)),          # neither a place reference nor a comment
    ("#\u03bc_up >= 1", (1, 2)),
    ("2\u00b2", (1, 2)),
    ("1 +\n  \u00a0", (2, 3)),
])
def test_non_ascii_character_is_a_parse_error(text, where):
    with pytest.raises(ParseError, match=r"^unexpected character ") as err:
        parse_expression(text)
    assert (err.value.line, err.value.column) == where


def test_non_ascii_word_characters_continue_identifiers():
    assert parse_expression("r\u00e9sum\u00e9 + #P\u00b2") == \
        BinOp("+", Param("r\u00e9sum\u00e9"), TokenCount("P\u00b2"))


def _positions(text):
    return [(t.kind, t.line, t.column) for t in tokenize(text)]


def test_column_after_place_reference():
    assert _positions("#Up + 1") == [("REF", 1, 1), ("+", 1, 5), ("NUMBER", 1, 7),
                                     ("EOF", 1, 8)]


def test_column_after_string():
    assert _positions('"ab" x') == [("STRING", 1, 1), ("IDENT", 1, 6), ("EOF", 1, 7)]


def test_carriage_return_counts_as_a_column():
    assert _positions("a\r\nb \rc") == [("IDENT", 1, 1), ("IDENT", 2, 1),
                                         ("IDENT", 2, 4), ("EOF", 2, 5)]


def test_end_of_input_after_trailing_comment_stays_at_the_comment():
    assert _positions("x # note") == [("IDENT", 1, 1), ("EOF", 1, 3)]
    assert _positions("x\n  # note") == [("IDENT", 1, 1), ("EOF", 2, 3)]
    assert _positions("x  ") == [("IDENT", 1, 1), ("EOF", 1, 4)]


def test_lines_advance_inside_a_string():
    tokens = tokenize('"a\n  b" c\nd')
    assert [(t.text, t.line, t.column) for t in tokens[1:3]] == [("c", 2, 6), ("d", 3, 1)]


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_number_has_no_text(value):
    with pytest.raises(SemanticError, match=f"non-finite number {value!r}"):
        to_text(Num(value))


def test_negative_zero_keeps_its_sign():
    assert to_text(Num(-0.0)) == "-0" and to_text(Num(0.0)) == "0"
    assert repr(parse_expression(to_text(Num(-0.0))).value) == "-0.0"
    e = BinOp("-", Num(1.0), Num(-0.0))
    assert repr(parse_expression(to_text(e)).right.value) == "-0.0"

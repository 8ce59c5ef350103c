"""Expression language for rates, gate predicates, marking effects and rewards.

One expression type serves every numeric slot in a model.  Booleans are the
reals 0/1 and any nonzero value counts as true.  Grammar, loosest binding
first::

    if c then a else b
    or
    and
    not
    <  <=  >  >=  =  !=      (non-chaining)
    +  -
    *  /
    unary -
    NUMBER | IDENT | #IDENT | min(e, ...) | max(e, ...) | ( e )

``IDENT`` is a parameter reference, ``#IDENT`` the token count of a place.
A ``#`` *not* immediately followed by an identifier character starts a
comment running to end of line (the model-document format relies on this).
Number literals accept scientific notation.  Conditionals and ``and``/``or``
evaluate lazily, so ``if #P > 0 then x / #P else y`` never divides by zero.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import DivisionByZero, ParseError, UnknownIdentifier

KEYWORDS = frozenset({"if", "then", "else", "and", "or", "not", "min", "max"})


# ── AST nodes ────────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class TokenCount:
    place: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / < <= > >= = != and or
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Cond:
    test: "Expr"
    if_true: "Expr"
    if_false: "Expr"


@dataclass(frozen=True)
class Call:
    func: str  # min | max
    args: tuple


# a types.UnionType: isinstance(x, Expr) is one C-level check
Expr = Num | Param | TokenCount | Neg | Not | BinOp | Cond | Call


def identifiers(e: Expr):
    """Return (parameter names, place names) referenced by ``e``."""
    params, places = set(), set()

    def walk(node):
        if isinstance(node, Param):
            params.add(node.name)
        elif isinstance(node, TokenCount):
            places.add(node.place)
        elif isinstance(node, (Neg, Not)):
            walk(node.operand)
        elif isinstance(node, BinOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Cond):
            walk(node.test)
            walk(node.if_true)
            walk(node.if_false)
        elif isinstance(node, Call):
            for a in node.args:
                walk(a)

    walk(e)
    return params, places


# ── Tokenizer (shared with the model-document parser) ────────────────────────

@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER IDENT REF STRING a literal symbol, or EOF
    text: str
    line: int
    column: int


_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_]\w*")
_SYMBOLS = ("<=", ">=", "!=", "+=", "-=", "<", ">", "=", "+", "-", "*", "/",
            "(", ")", ",", "{", "}", ";")


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            if i + 1 < n and (text[i + 1].isalpha() or text[i + 1] == "_"):
                m = _IDENT_RE.match(text, i + 1)
                tokens.append(Token("REF", m.group(), line, col))
                col += m.end() - i
                i = m.end()
                continue
            # comment to end of line
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated string", line, col)
            tokens.append(Token("STRING", text[i + 1:j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            m = _NUMBER_RE.match(text, i)
            tokens.append(Token("NUMBER", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        if c.isalpha() or c == "_":
            m = _IDENT_RE.match(text, i)
            tokens.append(Token("IDENT", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(sym, sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class TokenCursor:
    """Sequential reader over a token list, shared by all parsers."""

    def __init__(self, tokens: Sequence[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def at_keyword(self, word: str) -> bool:
        return self.at("IDENT", word)

    def expect(self, kind: str, text: str | None = None, expected=None) -> Token:
        t = self.peek()
        if not self.at(kind, text):
            raise ParseError(
                f"unexpected {t.kind or 'token'} {t.text!r}",
                t.line, t.column,
                expected or {text or kind},
            )
        return self.next()

    def fail(self, expected) -> "ParseError":
        t = self.peek()
        return ParseError(
            f"unexpected {t.kind} {t.text!r}" if t.kind != "EOF" else "unexpected end of input",
            t.line, t.column, expected,
        )


# ── Recursive-descent parser ─────────────────────────────────────────────────

_CMP_OPS = ("<", "<=", ">", ">=", "=", "!=")


def parse_expr(cur: TokenCursor) -> Expr:
    """Parse one expression from the cursor, leaving trailing tokens in place."""
    return _conditional(cur)


def _conditional(cur):
    if cur.at_keyword("if"):
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
    while cur.at_keyword("or"):
        cur.next()
        left = BinOp("or", left, _and(cur))
    return left


def _and(cur):
    left = _not(cur)
    while cur.at_keyword("and"):
        cur.next()
        left = BinOp("and", left, _not(cur))
    return left


def _not(cur):
    if cur.at_keyword("not"):
        cur.next()
        return Not(_not(cur))
    return _comparison(cur)


def _comparison(cur):
    left = _additive(cur)
    if cur.peek().kind in _CMP_OPS:
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
        if isinstance(operand, Num):  # fold so printing round-trips exactly
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


def parse_expression(text: str) -> Expr:
    """Parse ``text`` as a single expression; the whole input must be consumed."""
    cur = TokenCursor(tokenize(text))
    e = parse_expr(cur)
    if not cur.at("EOF"):
        raise cur.fail({"end of input", "an operator"})
    return e


# ── Printing (exact round-trip: parse(to_text(e)) == e) ─────────────────────

_PREC = {"cond": 1, "or": 2, "and": 3, "not": 4, "cmp": 5, "add": 6, "mul": 7,
         "neg": 8, "atom": 9}
_OP_PREC = {"or": "or", "and": "and",
            "<": "cmp", "<=": "cmp", ">": "cmp", ">=": "cmp", "=": "cmp", "!=": "cmp",
            "+": "add", "-": "add", "*": "mul", "/": "mul"}


def format_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_text(e: Expr) -> str:
    return _print(e, 0)


def _print(e, min_prec):
    if isinstance(e, Num):
        text, prec = format_number(e.value), _PREC["atom" if e.value >= 0 else "neg"]
    elif isinstance(e, Param):
        text, prec = e.name, _PREC["atom"]
    elif isinstance(e, TokenCount):
        text, prec = "#" + e.place, _PREC["atom"]
    elif isinstance(e, Call):
        text = f"{e.func}({', '.join(_print(a, 0) for a in e.args)})"
        prec = _PREC["atom"]
    elif isinstance(e, Neg):
        prec = _PREC["neg"]
        text = "-" + _print(e.operand, prec)
    elif isinstance(e, Not):
        prec = _PREC["not"]
        text = "not " + _print(e.operand, prec)
    elif isinstance(e, BinOp):
        prec = _PREC[_OP_PREC[e.op]]
        # comparisons do not chain, so both sides need parens at equal level
        left_min = prec + 1 if e.op in _CMP_OPS else prec
        text = f"{_print(e.left, left_min)} {e.op} {_print(e.right, prec + 1)}"
    elif isinstance(e, Cond):
        prec = _PREC["cond"]
        text = (f"if {_print(e.test, prec)} then {_print(e.if_true, prec)} "
                f"else {_print(e.if_false, prec)}")
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return f"({text})" if prec < min_prec else text


# ── Evaluation ───────────────────────────────────────────────────────────────

_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
                ">=": operator.ge, "=": operator.eq, "!=": operator.ne}


def compile_expr(e: Expr, place_index: Mapping[str, int],
                 params: Mapping[str, float]) -> Callable[[Sequence[float]], float]:
    """Compile ``e`` into a closure over a marking vector (hot path).

    Parameters are resolved now; the returned function takes the marking as an
    indexable sequence laid out by ``place_index``.  Booleans come back as
    0.0/1.0.  Division by zero raises rather than producing infinity.
    """
    if isinstance(e, Num):
        v = e.value
        return lambda m: v
    if isinstance(e, Param):
        try:
            v = float(params[e.name])
        except KeyError:
            raise UnknownIdentifier(e.name, "parameter") from None
        return lambda m: v
    if isinstance(e, TokenCount):
        try:
            i = place_index[e.place]
        except KeyError:
            raise UnknownIdentifier(e.place, "place") from None
        return lambda m: m[i]
    if isinstance(e, Neg):
        f = compile_expr(e.operand, place_index, params)
        return lambda m: -f(m)
    if isinstance(e, Not):
        f = compile_expr(e.operand, place_index, params)
        return lambda m: 0.0 if f(m) != 0.0 else 1.0
    if isinstance(e, Cond):
        c = compile_expr(e.test, place_index, params)
        a = compile_expr(e.if_true, place_index, params)
        b = compile_expr(e.if_false, place_index, params)
        return lambda m: a(m) if c(m) != 0.0 else b(m)
    if isinstance(e, Call):
        fns = tuple(compile_expr(a, place_index, params) for a in e.args)
        red = min if e.func == "min" else max
        return lambda m: red(f(m) for f in fns)
    if isinstance(e, BinOp):
        a = compile_expr(e.left, place_index, params)
        b = compile_expr(e.right, place_index, params)
        op = e.op
        if op in _ARITHMETIC:
            f = _ARITHMETIC[op]
            return lambda m: f(a(m), b(m))
        if op in _COMPARISONS:
            f = _COMPARISONS[op]
            return lambda m: 1.0 if f(a(m), b(m)) else 0.0
        if op == "/":
            def div(m):
                n = a(m)
                d = b(m)
                if d == 0.0:
                    raise DivisionByZero(to_text(e))
                return n / d

            return div
        if op == "and":
            return lambda m: 1.0 if (a(m) != 0.0 and b(m) != 0.0) else 0.0
        if op == "or":
            return lambda m: 1.0 if (a(m) != 0.0 or b(m) != 0.0) else 0.0
    raise TypeError(f"not an expression node: {e!r}")

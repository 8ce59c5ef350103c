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
An identifier starts with an ASCII letter or ``_`` and continues with word
characters.  A ``#`` *not* immediately followed by a letter or ``_`` starts a
comment running to end of line (the model-document format relies on this).
Number literals accept scientific notation.  Conditionals and ``and``/``or``
evaluate lazily, so ``if #P > 0 then x / #P else y`` never divides by zero.

Each decision is made in one table.  The scanner is one regular expression
with a named group per token kind, and a character that starts no token is a
``ParseError`` with its line and column.  The precedence table ``_PREC``
drives both the parser (precedence climbing) and the printer.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import DivisionByZero, ParseError, SemanticError, UnknownIdentifier

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


# One pattern, one named group per token kind; BAD catches what starts none.
_TOKEN_RE = re.compile(r"""
    (?P<BLANK> [ \t\r]* )
    (?: (?P<NEWLINE> \n )
      | \# (?P<REF> [A-Za-z_]\w* )
      | (?P<EOF> (?: \#[^\n]* )? \Z )         # a trailing comment keeps its column
      | (?P<COMMENT> \#[^\n]* )
      | " (?P<STRING> [^"]* ) "
      | (?P<UNTERMINATED> " )
      | (?P<NUMBER> (?: \d+\.?\d* | \.\d+ ) (?: [eE][+-]?\d+ )? )
      | (?P<IDENT> [A-Za-z_]\w* )
      | (?P<SYMBOL> [<>!+-]= | [-<>=+*/(),{};] )
      | (?P<BAD> . )
    )""", re.VERBOSE)


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0   # line_start: index of the current line's first character
    for m in _TOKEN_RE.finditer(text):
        kind, start = m.lastgroup, m.end("BLANK")
        col = start - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
        elif kind in ("COMMENT", "EOF") and text[start + 1:start + 2].isalpha():
            # '#' then a letter no identifier starts with: neither REF nor comment
            raise ParseError(f"unexpected character {text[start + 1]!r}", line, col + 1)
        elif kind == "EOF":
            tokens.append(Token("EOF", "", line, col))
            return tokens
        elif kind == "UNTERMINATED":
            raise ParseError("unterminated string", line, col)
        elif kind == "BAD":
            raise ParseError(f"unexpected character {m.group(kind)!r}", line, col)
        elif kind != "COMMENT":
            value = m.group(kind)
            tokens.append(Token(value if kind == "SYMBOL" else kind, value, line, col))
            if kind == "STRING" and "\n" in value:   # a quoted expression may span lines
                line += value.count("\n")
                line_start = m.start(kind) + value.rindex("\n") + 1


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


# ── Parser: precedence climbing over the printer's table ────────────────────

_PREC = {"cond": 1, "or": 2, "and": 3, "not": 4, "cmp": 5, "add": 6, "mul": 7,
         "neg": 8, "atom": 9}
_OP_PREC = {"or": "or", "and": "and",
            "<": "cmp", "<=": "cmp", ">": "cmp", ">=": "cmp", "=": "cmp", "!=": "cmp",
            "+": "add", "-": "add", "*": "mul", "/": "mul"}
_BINARY = {op: _PREC[level] for op, level in _OP_PREC.items()}
_COND, _NOT, _CMP = _PREC["cond"], _PREC["not"], _PREC["cmp"]


def parse_expr(cur: TokenCursor) -> Expr:
    """Parse one expression from the cursor, leaving trailing tokens in place."""
    return _parse(cur, _COND)


def _parse(cur, lowest):
    """An expression whose operators all bind at least ``lowest`` tightly.

    ``if`` is taken only at the ``cond`` level, ``not`` at or below ``not``.
    After an operator of precedence p the next binds at most p tightly, at
    most p - 1 after a comparison (they do not chain) and at most ``not``
    after a prefix ``not``."""
    t = cur.peek()
    if t.kind == "IDENT" and t.text == "if" and lowest <= _COND:
        cur.next()
        test = _parse(cur, _COND)
        cur.expect("IDENT", "then", {"'then'"})
        if_true = _parse(cur, _COND)
        cur.expect("IDENT", "else", {"'else'"})
        return Cond(test, if_true, _parse(cur, _COND))
    if t.kind == "IDENT" and t.text == "not" and lowest <= _NOT:
        cur.next()
        left, limit = Not(_parse(cur, _NOT)), _NOT
    else:
        left, limit = _factor(cur), _PREC["atom"]
    while True:
        t = cur.peek()
        op = t.text if t.kind == "IDENT" else t.kind
        prec = _BINARY.get(op)
        if prec is None or not lowest <= prec <= limit:
            return left
        cur.next()
        left = BinOp(op, left, _parse(cur, prec + 1))
        limit = prec - 1 if prec == _CMP else prec


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
        inner = parse_expr(cur)
        cur.expect(")", expected={"')'"})
        return inner
    if t.kind == "IDENT":
        if t.text in ("min", "max"):
            cur.next()
            cur.expect("(", expected={"'('"})
            args = [parse_expr(cur)]
            while cur.at(","):
                cur.next()
                args.append(parse_expr(cur))
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

def format_number(v: float) -> str:
    if not math.isfinite(v):   # no literal reads back as inf or NaN
        raise SemanticError(f"cannot write the non-finite number {v!r} as text")
    if v == int(v) and abs(v) < 1e16:
        return f"{v:.0f}"   # keeps the sign of -0.0
    return repr(v)


def to_text(e: Expr) -> str:
    return _print(e, 0)


def _print(e, min_prec):
    if isinstance(e, Num):
        negative = math.copysign(1.0, e.value) < 0   # -0.0 included
        text, prec = format_number(e.value), _PREC["neg" if negative else "atom"]
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
        left_min = prec + 1 if prec == _CMP else prec
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

"""The ``.san`` model document format: parse and serialize whole models.

A document is UTF-8 text opening with the version header ``san-format 1``.
Statements, in any order as long as every referenced name is declared
somewhere in the document::

    san-format 1
    #: optional description lines, echoed back on serialization
    param lambda = 0.1          # value may use previously declared params
    place Up = 1
    activity timed fail rate "lambda" {
      input "#Up >= 1" { Up -= 1 }
      case 1 { Down += 1 }
    }
    activity instant pick {
      input "#Choice >= 1" { Choice -= 1 }
      case 0.85 { A += 1 }
      case 0.15 { B += 1 }
    }
    reward up = "#Up >= 1"

``#`` starts a comment unless immediately followed by an identifier, which is
a token-count reference (so ``Working = M - #HW_Fail`` works inside effect
blocks).  Rate, predicate, and reward expressions sit in double quotes;
effect expressions are bare.  Parameter values, initial counts and case
probabilities may be expressions over previously declared parameters
(``param lambda_i = lambda * M / K``, ``place Working = M``,
``case 1 - C { ... }``).  They stay as written: the model holds the
expression, serialization writes it back, and replacing a parameter changes
every value derived from it.

``parse_model`` reads syntax and builds; ``san.validate`` judges, as for a
model built in code.  A model ``m`` that ``validate`` accepts, with finite
literals in the parser's form (``Num(-2.0)``, not ``Neg(Num(2.0))``), has
``parse_model(serialize_model(m)) == m``; serialized text is a fixpoint.
"""

from __future__ import annotations

from . import expr as ex
from .errors import ParseError, SemanticError
from .san import (EFFECT_OPS, Activity, CaseSpec, Effect, InputSpec, Place,
                  RewardPredicate, SanModel, validate)

HEADER = "san-format 1"

_STATEMENT_WORDS = {"param", "place", "activity", "reward"}


def _value(e: ex.Expr):
    """A literal as its number; anything else stays the expression."""
    return e.value if isinstance(e, ex.Num) else e


def parse_model(text: str) -> SanModel:
    """Parse a document into a model.  Bad syntax and a repeated ``param`` raise
    at once, and what ``validate`` finds as one ``SemanticError``."""
    lines = text.split("\n")
    header_at = None
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.split() == HEADER.split():
            header_at = i
            break
        raise ParseError(f"first statement must be the header '{HEADER}'", i + 1, 1)
    if header_at is None:
        raise ParseError(f"missing header '{HEADER}'", 1, 1)

    description_lines = []
    for line in lines[header_at + 1:]:
        stripped = line.strip()
        if stripped.startswith("#:"):
            description_lines.append(stripped[2:].lstrip())
        elif stripped:
            break
    description = "\n".join(description_lines)

    # Blank the header in place so token positions stay file-absolute.
    body = "\n".join("" if i == header_at else line for i, line in enumerate(lines))
    cur = ex.TokenCursor(ex.tokenize(body))

    def parse_quoted_expr(what) -> ex.Expr:
        t = cur.expect("STRING", expected={f'"{what}" in double quotes'})
        try:
            return ex.parse_expression(t.text)
        except ParseError as err:
            raise ParseError(f"in {what} at line {t.line}: {err}") from None

    def parse_effects() -> tuple:
        cur.expect("{", expected={"'{'"})
        effects = []
        while not cur.at("}"):
            name = cur.expect("IDENT", expected={"a place name", "'}'"})
            op_tok = cur.peek()
            if op_tok.kind not in EFFECT_OPS:
                raise cur.fail({f"'{op}'" for op in EFFECT_OPS})
            cur.next()
            effects.append(Effect(name.text, op_tok.kind, ex.parse_expr(cur)))
            if cur.at(";"):
                cur.next()
        cur.next()  # }
        return tuple(effects)

    params: dict = {}
    places: list[Place] = []
    activities: list[Activity] = []
    rewards: list[RewardPredicate] = []

    while not cur.at("EOF"):
        t = cur.peek()
        if t.kind != "IDENT" or t.text not in _STATEMENT_WORDS:
            raise cur.fail({"'param'", "'place'", "'activity'", "'reward'"})
        word = cur.next().text

        if word == "param":
            name = cur.expect("IDENT", expected={"a parameter name"})
            if name.text in params:   # the model's dict could not hold both values
                raise SemanticError(f"duplicate parameter name '{name.text}' "
                                    f"at line {name.line}")
            cur.expect("=", expected={"'='"})
            params[name.text] = _value(ex.parse_expr(cur))

        elif word == "place":
            name = cur.expect("IDENT", expected={"a place name"})
            cur.expect("=", expected={"'='"})
            count = _value(ex.parse_expr(cur))
            if isinstance(count, float) and count.is_integer():   # false for inf
                count = int(count)
            places.append(Place(name.text, count))

        elif word == "activity":
            kind = cur.expect("IDENT", expected={"'timed'", "'instant'"})
            if kind.text not in ("timed", "instant"):
                raise ParseError(f"unknown activity kind '{kind.text}'",
                                 kind.line, kind.column,
                                 {"'timed'", "'instant'"})
            name = cur.expect("IDENT", expected={"an activity name"})
            rate = None
            if kind.text == "timed":
                cur.expect("IDENT", "rate", expected={"'rate'"})
                rate = parse_quoted_expr(f"rate of '{name.text}'")
            cur.expect("{", expected={"'{'"})
            cur.expect("IDENT", "input", expected={"'input'"})
            predicate = parse_quoted_expr(f"input predicate of '{name.text}'")
            input_effects = parse_effects()
            cases = []
            while cur.at("IDENT", "case"):
                cur.next()
                cases.append(CaseSpec(_value(ex.parse_expr(cur)), parse_effects()))
            cur.expect("}", expected={"'case'", "'}'"})
            activities.append(Activity(name.text, rate,
                                       InputSpec(predicate, input_effects),
                                       tuple(cases)))

        else:  # reward
            name = cur.expect("IDENT", expected={"a reward name"})
            cur.expect("=", expected={"'='"})
            rewards.append(RewardPredicate(name.text,
                                           parse_quoted_expr(f"reward '{name.text}'")))

    model = SanModel(tuple(places), params, tuple(activities), tuple(rewards),
                     description=description)
    diags = validate(model)
    if diags:
        raise SemanticError("invalid model: " + "; ".join(diags))
    return model


def serialize_model(model: SanModel) -> str:
    """Render a validated model as document text (deterministic)."""

    def value_text(value) -> str:
        if isinstance(value, ex.Expr):
            return ex.to_text(value)
        return ex.format_number(float(value))

    def effects_text(effects) -> str:
        body = "; ".join(f"{e.place} {e.op} {ex.to_text(e.value)}" for e in effects)
        return f"{{ {body} }}" if body else "{ }"

    out = [HEADER]
    for line in model.description.split("\n"):
        if model.description:
            out.append(f"#: {line}" if line else "#:")
    for name, value in model.parameters.items():
        out.append(f"param {name} = {value_text(value)}")
    for p in model.places:
        out.append(f"place {p.name} = {value_text(p.initial_tokens)}")
    for a in model.activities:
        head = (f"activity timed {a.name} rate \"{ex.to_text(a.rate)}\""
                if a.timed else f"activity instant {a.name}")
        out.append(head + " {")
        out.append(f"  input \"{ex.to_text(a.input.predicate)}\" "
                   + effects_text(a.input.effects))
        for c in a.cases:
            out.append(f"  case {value_text(c.probability)} {effects_text(c.effects)}")
        out.append("}")
    for r in model.rewards:
        out.append(f"reward {r.name} = \"{ex.to_text(r.predicate)}\"")
    return "\n".join(out) + "\n"

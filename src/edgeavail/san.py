"""Stochastic activity networks: places, activities, gates, and the token game.

A model is a set of integer-marked places plus activities.  Timed activities
carry an exponential rate expression (h^-1) that may depend on the marking;
instantaneous activities fire in zero time.  Each activity has an input gate
(an enabling predicate plus marking effects applied on firing) and one or
more probabilistic cases, each with its own effects.  Effects are ordered
assignments ``place += e`` / ``place -= e`` / ``place = e`` evaluated against
the partially updated marking, which is enough to express every output gate
used by the built-in models (including "reset and recount" style gates).

Models are plain data, never mutated after construction, and every function
here is pure.  The token-game step lives in ``CompiledModel.moves``: enabled
instantaneous activities pre-empt timed ones, sharing equal weights if
several are enabled at once (no built-in model reaches such a marking; this
is a documented safety net).
Enabling of a timed activity that is lost and later regained resamples its
delay; with exponential rates this is indistinguishable from resuming.
"""

from __future__ import annotations

import math
import numbers
import re
from collections.abc import Callable
from dataclasses import dataclass

from . import expr as ex
from .errors import EvaluationError, NegativeTokens, SemanticError

Marking = dict  # place name -> non-negative token count

EFFECT_OPS = ("+=", "-=", "=")   # an effect's operators, in the order they compile to
COUNT_TOL = 1e-9   # how far an effect's result may sit from a whole count


@dataclass(frozen=True)
class Place:
    """``initial_tokens`` is a count or an expression over the parameters."""
    name: str
    initial_tokens: int | ex.Expr = 0


@dataclass(frozen=True)
class Effect:
    """One marking assignment: ``place op value`` with op in ``+= -= =``."""
    place: str
    op: str
    value: ex.Expr


@dataclass(frozen=True)
class InputSpec:
    predicate: ex.Expr
    effects: tuple = ()


@dataclass(frozen=True)
class CaseSpec:
    """``probability`` is a number or an expression over the parameters."""
    probability: float | ex.Expr
    effects: tuple = ()


@dataclass(frozen=True)
class Activity:
    """Timed when ``rate`` is an expression, instantaneous when it is None."""
    name: str
    rate: ex.Expr | None
    input: InputSpec
    cases: tuple

    @property
    def timed(self) -> bool:
        return self.rate is not None


@dataclass(frozen=True)
class RewardPredicate:
    name: str
    predicate: ex.Expr


@dataclass
class SanModel:
    """A model as declared.  A parameter value is a number or an expression
    over the parameters declared before it; replacing a parameter changes
    every value derived from it."""
    places: tuple
    parameters: dict
    activities: tuple
    rewards: tuple
    description: str = ""

    def parameter_values(self) -> dict:
        """Each parameter's value, folded in declaration order."""
        values = {}
        for name, value in self.parameters.items():
            values[name] = fold(value, values)
        return values

    def initial_marking(self, params: dict | None = None) -> Marking:
        """The initial counts, folded over ``params`` when given (this
        model's ``parameter_values()``, so they need not be folded again)."""
        params = self.parameter_values() if params is None else params
        return {p.name: _tokens(p.initial_tokens, params) for p in self.places}


def fold(value, params: dict):
    """A declared value: a number as it is, an expression evaluated over
    ``params`` (which must hold every parameter it reads)."""
    if not isinstance(value, ex.Expr):
        return value
    return ex.compile_expr(value, {}, params)(())


def _tokens(value, params):
    """An initial count; a whole number folded from an expression as an int."""
    n = fold(value, params)
    return int(n) if isinstance(value, ex.Expr) and float(n).is_integer() else n


# ── helpers for building effects in code ─────────────────────────────────────

def take(place: str, count: int = 1) -> Effect:
    return Effect(place, "-=", ex.Num(float(count)))

def put(place: str, count: int = 1) -> Effect:
    return Effect(place, "+=", ex.Num(float(count)))

def set_to(place: str, value) -> Effect:
    if isinstance(value, (int, float)):
        value = ex.Num(float(value))
    return Effect(place, "=", value)


# ── validation ───────────────────────────────────────────────────────────────

PROB_SUM_TOL = 1e-12
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")   # an IDENT token, as ``expr`` reads one


def validate(model: SanModel) -> list[str]:
    """Return every violation found; an empty list means the model is well-formed.

    The one judge of a model, parsed, overridden or built in code, and the
    gate of every engine: ``CompiledModel`` refuses what it reports.  Names are
    identifiers; parameter, place and activity names share one namespace,
    unique and free of keywords, and reward names are unique.  Containers
    are of their declared types, else the rules that read inside are skipped
    (all later ones, for the model's own).  The description is a string.  Rates,
    predicates, effect values and rewards are expressions.  Values, counts,
    probabilities and rates that read nothing are checked as they fold; one
    that fails to fold is reported once, and the values derived from it are
    not checked.  Each case probability lies in [0, 1], checked as it folds,
    and an activity's sum to 1 within ``PROB_SUM_TOL``, checked after its
    cases.  No description line has blanks around it, which the document
    format would drop.
    """
    if not isinstance(model.description, str):
        diags = [f"description is not a string: {model.description!r}"]
    else:
        diags = [f"description line {n} has leading or trailing blanks: {line!r}"
                 for n, line in enumerate(model.description.split("\n"), 1)
                 if line != line.strip()]

    def typed(container, where, kind, of=tuple):
        """Report what keeps ``container`` from being ``of`` ``kind``s; True if nothing."""
        if not isinstance(container, of):
            diags.append(f"{where} are not a {of.__name__}: {container!r}")
            return False
        an = "an" if kind.__name__[0] in "AEIOU" else "a"
        misfits = [f"{where}[{i}] is not {an} {kind.__name__}: {x!r}"
                   for i, x in enumerate(container) if not isinstance(x, kind)]
        diags.extend(misfits)
        return not misfits

    shapes = (("parameters", object, dict), ("places", Place, tuple),
              ("activities", Activity, tuple), ("rewards", RewardPredicate, tuple))
    if not all([typed(getattr(model, w), w, kind, of) for w, kind, of in shapes]):  # each reports
        return diags   # every rule below reads inside these
    shared, rewards = {}, {}   # a name -> the kind that declared it first
    for kind, names, seen in (("parameter", model.parameters, shared),
                              ("place", [p.name for p in model.places], shared),
                              ("activity", [a.name for a in model.activities], shared),
                              ("reward", [r.name for r in model.rewards], rewards)):
        for name in names:
            if not isinstance(name, str):
                diags.append(f"{kind} name {name!r} is not a string")
            elif not _IDENTIFIER.fullmatch(name):
                diags.append(f"{kind} name '{name}' is not an identifier")
            elif name in ex.KEYWORDS and kind != "reward":
                diags.append(f"{kind} name '{name}' is a reserved word")
            elif name not in seen:
                seen[name] = kind
            elif seen[name] == kind:
                diags.append(f"duplicate {kind} name '{name}'")
            else:
                an = "an" if kind == "activity" else "a"
                diags.append(f"name '{name}' declared as both a {seen[name]} and {an} {kind}")
    place_names = {p.name for p in model.places if isinstance(p.name, str)}
    params = {}   # the values folded so far

    def folded(fn, value, where, readable):
        """``fn(value, params)``, or None once the reason is in ``diags``."""
        if isinstance(value, ex.Expr):
            refs, places = ex.identifiers(value)
            problems = [f"{where} must not reference places: #{name}"
                        for name in sorted(places)]
            problems += [f"{where} references undeclared parameter '{name}' "
                         "(parameters fold in declaration order)"
                         for name in sorted(refs - readable)]
            diags.extend(problems)
            if problems or not refs <= params.keys():
                return None   # else a value it reads failed, reported there
        try:
            return fn(value, params)
        except EvaluationError as err:
            diags.append(f"{where}: {err}")
            return None

    earlier = set()
    for name, value in model.parameters.items():
        v = folded(fold, value, f"parameter '{name}'", earlier)
        earlier.add(name)
        if v is None:
            continue
        if isinstance(v, numbers.Real) and math.isfinite(v):
            params[name] = v
        else:
            diags.append(f"parameter '{name}' is not a finite number ({v!r})")

    for p in model.places:
        n = folded(_tokens, p.initial_tokens, f"initial count of place '{p.name}'", earlier)
        if n is None:
            continue
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            diags.append(f"place '{p.name}' has non-integer initial tokens ({n!r})")
        elif n < 0:
            diags.append(f"place '{p.name}' has negative initial tokens ({n})")

    def check_expr(e, where):
        """Report ``e``'s undeclared names, or that it is no expression;
        True when it is an expression that reads no parameter and no place."""
        if not isinstance(e, ex.Expr):
            diags.append(f"{where}: not an expression: {e!r}")
            return False
        params, places = ex.identifiers(e)
        for name in sorted(params - set(model.parameters)):
            diags.append(f"{where}: undeclared parameter '{name}'")
        for name in sorted(places - place_names):
            diags.append(f"{where}: undeclared place '#{name}'")
        return not (params or places)

    def check_effects(effects, where):
        if not typed(effects, f"{where}: effects", Effect):
            return
        for eff in effects:
            if not isinstance(eff.place, str):
                diags.append(f"{where}: effect place is not a string: {eff.place!r}")
            elif eff.place not in place_names:
                diags.append(f"{where}: effect targets undeclared place '{eff.place}'")
            if eff.op not in EFFECT_OPS:
                diags.append(f"{where}: bad effect operator '{eff.op}'")
            check_expr(eff.value, where)

    for a in model.activities:
        where = f"activity '{a.name}'"
        if a.rate is not None and check_expr(a.rate, f"{where} rate"):
            rate = folded(fold, a.rate, f"{where} rate", earlier)
            if rate is not None and not rate > 0:
                diags.append(f"{where}: non-positive rate {rate}")
        if isinstance(a.input, InputSpec):
            check_expr(a.input.predicate, f"{where} predicate")
            check_effects(a.input.effects, f"{where} input")
        else:
            diags.append(f"{where}: input is not an InputSpec: {a.input!r}")
        if not typed(a.cases, f"{where}: cases", CaseSpec):
            continue
        if not a.cases:
            diags.append(f"{where}: no cases")
        probs = []
        for i, c in enumerate(a.cases):
            if isinstance(c.probability, (numbers.Real, ex.Expr)):
                prob = folded(fold, c.probability, f"{where} case {i}", earlier)
            else:
                diags.append(f"{where} case {i}: probability is not a number: "
                             f"{c.probability!r}")
                prob = None
            if prob is not None and not 0.0 <= prob <= 1.0:
                diags.append(f"{where} case {i}: probability {prob} outside [0, 1]")
            probs.append(prob)
            check_effects(c.effects, f"{where} case {i}")
        if probs and None not in probs and abs(sum(probs) - 1.0) > PROB_SUM_TOL:
            diags.append(f"{where}: case probabilities sum to {sum(probs)!r}")

    for r in model.rewards:
        check_expr(r.predicate, f"reward '{r.name}'")

    return diags


# ── compiled form (shared by the explorer and the simulator) ─────────────────

@dataclass(slots=True, eq=False)   # compared and hashed by identity
class CompiledActivity:
    """An activity lowered onto marking vectors.

    ``pred_cols`` and ``rate_cols`` are the sorted place columns the ``pred``
    and ``rate`` closures read (``()`` when instantaneous, ``rate`` None).
    Effects are ``(place, op, value_fn, columns)``, op 0/1/2 for ``+= -= =``.
    Case ``c`` is named ``CompiledModel.labels[label + c]``.  ``live`` holds
    the ``(case, probability)`` pairs with ``p > 0``, in case order: the one
    statement of which cases can fire.
    """
    name: str
    timed: bool
    pred: Callable
    pred_cols: tuple
    rate: Callable | None
    rate_cols: tuple
    label: int
    input_effects: tuple
    case_probs: tuple
    case_effects: tuple
    live: tuple


class CompiledModel:
    """A model lowered onto integer marking vectors in canonical place order.

    Canonical order is sorted place name, so identical markings hash the same
    regardless of declaration order.  Each closure is compiled once, together
    with the place columns it reads, and ``labels`` names every
    ``"activity/case"`` in declaration order.  ``structure`` is what the
    marking graph depends on: the initial marking, the activities less their
    rates and the size of each live probability, and the values gates read.
    A model ``validate`` refuses raises ``SemanticError`` with its findings
    joined by ``"; "``, so the engines see only well-formed models: initial
    counts whole and nonnegative, case probabilities a distribution.
    """

    def __init__(self, model: SanModel):
        diags = validate(model)
        if diags:
            raise SemanticError("; ".join(diags))
        self.model = model
        self.place_order = tuple(sorted(p.name for p in model.places))
        self.index = {name: i for i, name in enumerate(self.place_order)}
        params = model.parameter_values()
        initial = model.initial_marking(params)
        self.initial = tuple(initial[name] for name in self.place_order)
        read = set()   # the parameters that predicates and effects read

        def lower(e, reads=read):   # e's closure and columns; its parameters join reads
            refs, places = ex.identifiers(e)
            fn = ex.compile_expr(e, self.index, params)
            reads |= refs
            return fn, tuple(sorted(self.index[p] for p in places))

        def compile_effects(effects):
            return tuple((self.index[eff.place], EFFECT_OPS.index(eff.op), *lower(eff.value))
                         for eff in effects)

        self.activities, labels = [], []
        for a in model.activities:
            probs = tuple(fold(c.probability, params) for c in a.cases)
            pred, pred_cols = lower(a.input.predicate)
            rate, rate_cols = lower(a.rate, set()) if a.timed else (None, ())
            self.activities.append(CompiledActivity(
                name=a.name,
                timed=a.timed,
                pred=pred,
                pred_cols=pred_cols,
                rate=rate,
                rate_cols=rate_cols,
                label=len(labels),
                input_effects=compile_effects(a.input.effects),
                case_probs=probs,
                case_effects=tuple(compile_effects(c.effects) for c in a.cases),
                live=tuple((ci, p) for ci, p in enumerate(probs) if p > 0.0),
            ))
            labels += [f"{a.name}/{ci}" for ci in range(len(a.cases))]
        self.labels = tuple(labels)
        # repr keeps apart values that compare equal but evaluate apart (0.0, -0.0)
        self.structure = (self.place_order, self.initial, tuple(
            (a.name, a.timed, a.input, tuple(ci for ci, _ in ca.live),
             tuple(c.effects for c in a.cases))
            for a, ca in zip(model.activities, self.activities)),
            tuple((name, repr(params[name])) for name in sorted(read)))
        self.timed_activities = [a for a in self.activities if a.timed]
        self.instant_activities = [a for a in self.activities if not a.timed]
        self.rewards = {r.name: ex.compile_expr(r.predicate, self.index, params)
                        for r in model.rewards}

    def marking_dict(self, vec) -> Marking:
        return {name: vec[i] for i, name in enumerate(self.place_order)}

    def moves(self, vec) -> tuple:
        """The token-game step at ``vec``: ``(tangible, [(activity, weight), ...])``.

        Enabled instantaneous activities, if any, share weight equally (the
        marking is vanishing); otherwise each enabled timed activity carries
        its rate, which must be positive and finite, else ``EvaluationError``.
        """
        instant = [a for a in self.instant_activities if a.pred(vec) != 0.0]
        if instant:
            return False, [(a, 1.0 / len(instant)) for a in instant]
        timed = []
        for a in self.timed_activities:
            if a.pred(vec) != 0.0:
                rate = a.rate(vec)
                if not 0.0 < rate < math.inf:
                    raise EvaluationError(
                        f"activity '{a.name}' has rate {rate!r} in marking "
                        f"{self.marking_dict(vec)}")
                timed.append((a, rate))
        return True, timed

    def fire_vec(self, vec, act: CompiledActivity, case_index: int) -> tuple:
        """Apply input effects then the chosen case's effects, in order."""
        m = list(vec)
        for effects in (act.input_effects, act.case_effects[case_index]):
            for place_i, op, value_fn, _ in effects:
                v = value_fn(m)
                if op == 0:
                    new = m[place_i] + v
                elif op == 1:
                    new = m[place_i] - v
                else:
                    new = v
                rounded = round(new) if math.isfinite(new) else new
                if not abs(new - rounded) <= COUNT_TOL:   # NaN for inf and NaN counts
                    raise ValueError(
                        f"activity '{act.name}' drives place "
                        f"'{self.place_order[place_i]}' to non-integer count {new!r}")
                if rounded < 0:
                    raise NegativeTokens(self.place_order[place_i], act.name)
                m[place_i] = rounded
        return tuple(m)


def compiled(model: SanModel) -> CompiledModel:
    """Compile ``model``, memoizing the result on the instance."""
    cm = getattr(model, "_compiled", None)
    if cm is None:
        cm = CompiledModel(model)
        model._compiled = cm
    return cm


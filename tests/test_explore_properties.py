"""Block expansion against the scalar step, and ``revalue`` against
``explore``, on random small SANs.

Each SAN is explored twice: with every level expanded as a block, and with
every level stepped marking by marking.  Both must give the same graph, or
raise the same exception with the same message.  A copy with rescaled rates
and reweighed cases must keep the SAN's ``CompiledModel.structure``.
Revaluing the SAN's graph for that copy, or for one with a case, a count or
a parameter changed, must give what exploring the copy gives: its graph, or
its error.
"""

import dataclasses
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from edgeavail import statespace  # noqa: E402
from edgeavail.errors import StateSpaceExceeded  # noqa: E402
from edgeavail.expr import BinOp, Num  # noqa: E402
from edgeavail.expr import parse_expression as P  # noqa: E402
from edgeavail.san import (Activity, CaseSpec, Effect, InputSpec, Place,  # noqa: E402
                           RewardPredicate, SanModel, compiled, fold)

PLACES = ("A", "B", "C", "D")


@st.composite
def sans(draw):
    """2-4 places holding 1-3 tokens initially, and 2-6 activities,
    each timed or instantaneous with 1-3 cases (weights may be zero).

    Parameters ``n`` (a count) and ``w`` (a weight) are literals, and ``v``,
    when drawn, an expression over them.  Some initial counts are ``n``, and
    some two-case activities weigh their cases ``w``/``1 - w`` or
    ``v``/``1 - v``.

    Most activities move a token from one place to the case's place, which
    keeps the token count and so bounds the markings.  The others have random
    guards and effects, and some of their SANs exceed ``max_states``.  Rates
    depend on the marking and may be zero, negative or divide by zero;
    effects may drive a count negative or to a fraction, or divide by zero.
    """
    places = PLACES[:draw(st.integers(2, 4))]
    params = {"n": float(draw(st.integers(1, 3))),
              "w": draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))}
    if draw(st.booleans()):
        params["v"] = P(draw(st.sampled_from(
            ["1 - w", "w / 2", "min(w, 0.5)", "if n > 1 then w else 1 - w"])))
    ref = st.sampled_from(places).map(lambda p: "#" + p)
    k = st.integers(0, 3)
    c = st.sampled_from(["0.5", "1", "2.5", "10"])

    def comparison():
        op = draw(st.sampled_from(["<", "<=", ">=", ">", "=", "!="]))
        return f"{draw(ref)} {op} {draw(k)}"

    def rate():
        return draw(st.sampled_from([
            "{c}", "{c}", "{c} * ({r} + 1)", "{c} * {r}", "{c} / {r}", "{r} - {k}",
            "if {r} > {k} then {c} else {c2}"])).format(
                c=draw(c), c2=draw(c), r=draw(ref), k=draw(k))

    def effects(count):
        out = []
        for _ in range(count):
            op = draw(st.sampled_from(["+=", "-=", "="]))
            value = draw(st.sampled_from([
                "1", "{k}", "{r}", "{r} + {k}", "{k} - {r}", "{r} / {s}",
                "{r} / 2"])).format(k=draw(k), r=draw(ref), s=draw(ref))
            out.append(Effect(draw(st.sampled_from(places)), op, P(value)))
        return tuple(out)

    activities = []
    for i in range(draw(st.integers(2, 6))):
        weights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
        if not any(weights):
            weights[0] = 1
        probs = [w / sum(weights) for w in weights]
        if len(probs) == 2 and draw(st.booleans()):
            weight = draw(st.sampled_from(sorted(set(params) - {"n"})))
            probs = [P(weight), P(f"1 - {weight}")]
        if draw(st.integers(0, 2)):
            src = draw(st.sampled_from(places))
            guard = " and ".join([f"#{src} >= 1"] + [comparison()
                                                      for _ in range(draw(st.integers(0, 1)))])
            gate = InputSpec(P(guard), (Effect(src, "-=", P("1")),))
            cases = tuple(CaseSpec(p, (Effect(draw(st.sampled_from(places)), "+=", P("1")),)
                                   + effects(draw(st.integers(0, 1)) * draw(st.integers(0, 1))))
                          for p in probs)
        else:
            guard = " and ".join(comparison() for _ in range(draw(st.integers(1, 2))))
            gate = InputSpec(P(guard), effects(draw(st.integers(0, 2))))
            cases = tuple(CaseSpec(p, effects(draw(st.integers(0, 2)))) for p in probs)
        timed = draw(st.integers(0, 9)) < 7
        activities.append(Activity(f"a{i}", P(rate()) if timed else None, gate, cases))
    counts = st.one_of(st.integers(1, 3), st.just(P("n")))
    return SanModel(
        places=tuple(Place(p, draw(counts)) for p in places),
        parameters=params, activities=tuple(activities),
        rewards=(RewardPredicate("up", P("1")),))


def _outcome(explore_it):
    """The graph ``explore_it()`` returns, or the error it raises."""
    try:
        g = explore_it()
    except Exception as err:  # the outcome compared is the error itself
        return type(err), str(err)
    return g.states, g.tangible, list(g.edges)


def _explored(model, block_min):
    with mock.patch.object(statespace, "_BLOCK_MIN", block_min):
        return _outcome(lambda: statespace.explore(model, max_states=300))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(sans())
def test_block_path_matches_scalar_step(model):
    assert _explored(model, 1) == _explored(model, 10**9)


@st.composite
def reweighed(draw):
    """A SAN from ``sans`` and a copy of it with each timed rate times a
    positive constant (one so large that some rates overflow) and the nonzero
    probabilities of each activity's cases reweighed, still summing to one."""
    model = draw(sans())
    scale = st.sampled_from([0.5, 3.0, 1e-300, 1e308])
    activities = []
    params = model.parameter_values()
    for a in model.activities:
        rate = None if a.rate is None else BinOp("*", Num(draw(scale)), a.rate)
        w = [fold(c.probability, params) * draw(st.integers(1, 3)) for c in a.cases]
        cases = tuple(dataclasses.replace(c, probability=x / sum(w))
                      for c, x in zip(a.cases, w))
        activities.append(dataclasses.replace(a, rate=rate, cases=cases))
    return model, dataclasses.replace(model, activities=tuple(activities))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(reweighed())
def test_revalue_matches_explore(pair):
    model, copy = pair
    assert compiled(copy).structure == compiled(model).structure
    try:
        g = statespace.explore(model, max_states=300)
    except Exception:  # no graph to revalue
        return
    assert (_outcome(lambda: statespace.revalue(g, copy))
            == _outcome(lambda: statespace.explore(copy)))


@st.composite
def restructured(draw):
    """A SAN from ``sans`` and a copy of it with one nonzero case set to 0,
    one initial count changed, or ``n`` changed."""
    model = draw(sans())
    params = model.parameter_values()
    change = draw(st.sampled_from(["case", "count", "n"]))
    if change == "case":
        live = [(i, ci) for i, a in enumerate(model.activities)
                for ci, c in enumerate(a.cases) if fold(c.probability, params) != 0.0]
        i, ci = draw(st.sampled_from(live))
        a = model.activities[i]
        cases = list(a.cases)
        cases[ci] = dataclasses.replace(cases[ci], probability=0.0)
        activities = list(model.activities)
        activities[i] = dataclasses.replace(a, cases=tuple(cases))
        return model, dataclasses.replace(model, activities=tuple(activities))
    if change == "count":
        places = list(model.places)
        k = draw(st.integers(0, len(places) - 1))
        now = model.initial_marking(params)[places[k].name]
        places[k] = dataclasses.replace(
            places[k], initial_tokens=draw(st.integers(0, 4).filter(lambda c: c != now)))
        return model, dataclasses.replace(model, places=tuple(places))
    n = draw(st.sampled_from([1.0, 2.0, 3.0]).filter(lambda n: n != params["n"]))
    return model, dataclasses.replace(model, parameters={**model.parameters, "n": n})


@settings(max_examples=200, derandomize=True, deadline=None)
@given(restructured())
def test_revalue_matches_explore_for_any_pair(pair):
    model, copy = pair
    try:
        g = statespace.explore(model, max_states=300)
    except Exception:  # no graph to revalue
        return
    expected = _outcome(lambda: statespace.explore(copy, max_states=300))
    if expected[0] is StateSpaceExceeded:   # revalue would explore without the cap
        return
    assert _outcome(lambda: statespace.revalue(g, copy)) == expected

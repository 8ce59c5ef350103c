"""Block expansion against the scalar step on random small SANs.

Each SAN is explored twice: with every level expanded as a block, and with
every level stepped marking by marking.  Both must give the same graph, or
raise the same exception with the same message.
"""

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from edgeavail import statespace  # noqa: E402
from edgeavail.expr import parse_expression as P  # noqa: E402
from edgeavail.san import (Activity, CaseSpec, Effect, InputSpec, Place,  # noqa: E402
                           RewardPredicate, SanModel)

PLACES = ("A", "B", "C", "D")


@st.composite
def sans(draw):
    """2-4 places holding 1-3 tokens initially, and 2-6 activities,
    each timed or instantaneous with 1-3 cases (weights may be zero).

    Most activities move a token from one place to the case's place, which
    keeps the token count and so bounds the markings.  The others have random
    guards and effects, and some of their SANs exceed ``max_states``.  Rates
    depend on the marking and may be zero, negative or divide by zero;
    effects may drive a count negative or to a fraction, or divide by zero.
    """
    places = PLACES[:draw(st.integers(2, 4))]
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
    return SanModel(
        places=tuple(Place(p, draw(st.integers(1, 3))) for p in places),
        parameters={}, activities=tuple(activities),
        rewards=(RewardPredicate("up", P("1")),))


def _outcome(model, block_min):
    with mock.patch.object(statespace, "_BLOCK_MIN", block_min):
        try:
            g = statespace.explore(model, max_states=300)
        except Exception as err:  # the outcome compared is the error itself
            return type(err), str(err)
    return g.states, g.tangible, list(g.edges)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(sans())
def test_block_path_matches_scalar_step(model):
    assert _outcome(model, 1) == _outcome(model, 10**9)

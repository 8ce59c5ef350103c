"""Model validation and token-game semantics."""

import dataclasses

import pytest

from edgeavail import expr as ex
from edgeavail import models as md
from edgeavail.document import parse_model, serialize_model
from edgeavail.errors import NegativeTokens, SemanticError
from edgeavail.expr import parse_expression as P
from edgeavail.san import (Activity, CaseSpec, InputSpec, Place,
                           RewardPredicate, SanModel, compiled, put, take,
                           validate)
from edgeavail.statespace import explore

from conftest import two_state_model


def _activity(name, cases, rate="1", src="A"):
    return Activity(name, P(rate), InputSpec(P(f"#{src} >= 1"), (take(src),)), cases)


def _model(activities, places=(Place("A", 1), Place("B", 0)), params=None,
           rewards=()):
    return SanModel(tuple(places), params or {}, tuple(activities),
                    tuple(rewards))


def test_validate_accepts_probabilities_summing_to_one():
    m = _model([_activity("a", (CaseSpec(0.9, (put("B"),)), CaseSpec(0.1, ())))])
    assert validate(m) == []


def test_validate_reports_bad_probability_sum():
    m = _model([_activity("a", (CaseSpec(0.9, ()), CaseSpec(0.2, ())))])
    diags = validate(m)
    assert any("sum" in d for d in diags), diags


def test_validate_reports_each_violation():
    m = SanModel(
        places=(Place("A", 1), Place("A", 0), Place("N", -1)),
        parameters={},
        activities=(
            Activity("x", P("-2"), InputSpec(P("#A >= 1 and missing > 0"), ()),
                     ()),
            Activity("x", P("1"), InputSpec(P("#Ghost >= 1"), ()),
                     (CaseSpec(1.0, ()),)),
        ),
        rewards=(RewardPredicate("up", P("#A >= 1")),
                 RewardPredicate("up", P("#A >= 1"))),
    )
    diags = "\n".join(validate(m))
    for needle in ("duplicate place", "negative initial tokens",
                   "non-positive rate", "undeclared parameter 'missing'",
                   "no cases", "duplicate activity", "undeclared place '#Ghost'",
                   "duplicate reward"):
        assert needle in diags, f"missing diagnostic {needle!r} in:\n{diags}"


@pytest.mark.parametrize("name, message", [
    ("A", "name 'A' declared as both a place and an activity"),
    ("r", "name 'r' declared as both a parameter and an activity"),
    ("if", "activity name 'if' is a reserved word"),
    ("a b", "activity name 'a b' is not an identifier"),
])
def test_validate_shares_one_namespace_with_activities(name, message):
    m = _model([_activity(name, (CaseSpec(1.0, (put("B"),)),), rate="r")],
               params={"r": 1.0})
    assert validate(m) == [message]


def test_validate_reports_names_that_are_not_identifiers():
    m = _model([_activity("go", (CaseSpec(1.0, (put("B"),)),), rate="1")],
               places=(Place("A", 1), Place("B", 0), Place("2C", 0)),
               params={"k-1": 1.0}, rewards=(RewardPredicate("up now", P("1")),))
    assert validate(m) == ["parameter name 'k-1' is not an identifier",
                           "place name '2C' is not an identifier",
                           "reward name 'up now' is not an identifier"]


@pytest.mark.parametrize("count", [1.5, True, float("nan"), "1"])
def test_validate_reports_non_integer_initial_tokens(count):
    m = _model([_activity("go", (CaseSpec(1.0, (put("B"),)),))],
               places=(Place("A", count), Place("B", 0)))
    assert validate(m) == [f"place 'A' has non-integer initial tokens ({count!r})"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), "1"])
def test_validate_reports_non_finite_parameters(value):
    m = _model([_activity("go", (CaseSpec(1.0, (put("B"),)),), rate="k")],
               params={"k": value, "big": 1e308})
    assert validate(m) == [f"parameter 'k' is not a finite number ({value!r})"]


def test_validate_folds_declared_expressions_once():
    # "b" fails to fold; "d", derived from it, is not checked again
    m = _model([_activity("go", (CaseSpec(P("c"), (put("B"),)),
                                 CaseSpec(P("1 - c"), ())))],
               places=(Place("A", P("n")), Place("B", P("d"))),
               params={"a": 0.0, "b": P("1 / a"), "c": P("e * 2"), "e": 0.25,
                       "n": P("#A"), "d": P("b + 1")})
    assert validate(m) == [
        "parameter 'b': division by zero in 1 / a",
        "parameter 'c' references undeclared parameter 'e' "
        "(parameters fold in declaration order)",
        "parameter 'n' must not reference places: #A"]
    ok = _model([_activity("go", (CaseSpec(P("c"), (put("B"),)),
                                  CaseSpec(P("1 - c"), ())))],
                places=(Place("A", P("n")), Place("B", 0)),
                params={"c": 0.75, "n": P("c * 4")})
    assert validate(ok) == []
    assert ok.initial_marking() == {"A": 3, "B": 0}
    assert type(ok.initial_marking()["A"]) is int
    assert compiled(ok).activities[0].case_probs == (0.75, 0.25)


def _with_fail(model, **changes):
    """``model`` with its first activity ("fail") changed."""
    fail = dataclasses.replace(model.activities[0], **changes)
    return dataclasses.replace(model, activities=(fail, *model.activities[1:]))


@pytest.mark.parametrize("rate", [ex.Neg(ex.Num(2.0)), P("2 * -1"), P("0 - 2"),
                                  P("if 1 then -2 else 3")])
def test_validate_folds_a_rate_that_reads_nothing(rate):
    m = _with_fail(two_state_model(), rate=rate)
    message = "activity 'fail': non-positive rate -2.0"
    assert validate(m) == [message]
    with pytest.raises(SemanticError) as err:
        parse_model(serialize_model(m))
    assert str(err.value) == f"invalid model: {message}"


def test_validate_reports_a_constant_rate_that_fails_to_fold():
    assert validate(_with_fail(two_state_model(), rate=P("1 / 0"))) == [
        "activity 'fail' rate: division by zero in 1 / 0"]
    assert validate(_with_fail(two_state_model(), rate=P("2 * 3"))) == []


def test_validate_keeps_each_case_check_in_case_order():
    # a case's range check follows its folding and precedes its effects'
    # checks; the sum comes after every case
    m = _with_fail(two_state_model(), cases=(
        CaseSpec(P("1 / 0"), (put("Ghost"),)), CaseSpec(1.5, (put("Nowhere"),)),
        CaseSpec(-0.75, (put("Up"),))))
    assert validate(m) == [
        "activity 'fail' case 0: division by zero in 1 / 0",
        "activity 'fail' case 0: effect targets undeclared place 'Ghost'",
        "activity 'fail' case 1: probability 1.5 outside [0, 1]",
        "activity 'fail' case 1: effect targets undeclared place 'Nowhere'",
        "activity 'fail' case 2: probability -0.75 outside [0, 1]"]
    m = _with_fail(two_state_model(), cases=(
        CaseSpec(1.25, (put("Ghost"),)), CaseSpec(0.5, ())))
    assert validate(m) == [
        "activity 'fail' case 0: probability 1.25 outside [0, 1]",
        "activity 'fail' case 0: effect targets undeclared place 'Ghost'",
        "activity 'fail': case probabilities sum to 1.75"]


def _slot(slot, value):
    m = two_state_model()
    fail = m.activities[0]
    case = fail.cases[0]
    if slot == "rate":
        return _with_fail(m, rate=value)
    if slot == "predicate":
        return _with_fail(m, input=InputSpec(value, fail.input.effects))
    if slot == "input effect":
        effect = dataclasses.replace(fail.input.effects[0], value=value)
        return _with_fail(m, input=InputSpec(fail.input.predicate, (effect,)))
    if slot == "case effect":
        effect = dataclasses.replace(case.effects[0], value=value)
        return _with_fail(m, cases=(CaseSpec(case.probability, (effect,)),))
    if slot == "probability":
        return _with_fail(m, cases=(CaseSpec(value, case.effects),))
    return dataclasses.replace(m, rewards=(RewardPredicate("up", value),))


@pytest.mark.parametrize("slot, value, message", [
    ("rate", 2.0, "activity 'fail' rate: not an expression: 2.0"),
    ("predicate", 1, "activity 'fail' predicate: not an expression: 1"),
    ("input effect", 1.0, "activity 'fail' input: not an expression: 1.0"),
    ("case effect", "1", "activity 'fail' case 0: not an expression: '1'"),
    ("reward", True, "reward 'up': not an expression: True"),
    ("probability", "abc", "activity 'fail' case 0: probability is not a number: 'abc'"),
    ("probability", None, "activity 'fail' case 0: probability is not a number: None"),
])
def test_validate_reports_a_wrong_typed_value(slot, value, message):
    assert validate(_slot(slot, value)) == [message]


@pytest.mark.parametrize("kind", ["parameter", "place", "activity", "reward"])
def test_validate_reports_a_name_that_is_not_a_string(kind):
    m = two_state_model()
    if kind == "parameter":
        m = dataclasses.replace(m, parameters={**m.parameters, 1: 0.5})
    elif kind == "place":
        m = dataclasses.replace(m, places=(*m.places, Place(1, 1)))
    elif kind == "activity":
        m = _with_fail(m, name=1)
    else:
        m = dataclasses.replace(m, rewards=(*m.rewards, RewardPredicate(1, P("#Up >= 1"))))
    assert validate(m) == [f"{kind} name 1 is not a string"]


def test_validate_reports_a_description_that_is_not_a_string():
    m = dataclasses.replace(two_state_model(), description=None)
    assert validate(m) == ["description is not a string: None"]


def test_validate_reports_cases_that_are_not_a_tuple():
    assert validate(_with_fail(two_state_model(), cases=None)) == [
        "activity 'fail': cases are not a tuple: None"]


def test_validate_reports_an_effect_place_that_is_not_a_string():
    m = two_state_model()
    fail = m.activities[0]
    effect = dataclasses.replace(fail.input.effects[0], place=3)
    m = _with_fail(m, input=InputSpec(fail.input.predicate, (effect,)))
    assert validate(m) == ["activity 'fail' input: effect place is not a string: 3"]


def _malformed(shape):
    m = two_state_model()
    fail = m.activities[0]
    if shape == "input effects":
        return _with_fail(m, input=InputSpec(fail.input.predicate, None))
    if shape == "case effects":
        return _with_fail(m, cases=(CaseSpec(1.0, None),))
    if shape == "input":
        return _with_fail(m, input=None)
    if shape == "effect":
        return _with_fail(m, input=InputSpec(fail.input.predicate, ("Up",)))
    if shape == "place":
        return dataclasses.replace(m, places=(m.places[0], "Down"))
    return dataclasses.replace(m, **{shape: None})


@pytest.mark.parametrize("shape, message", [
    ("input effects", "activity 'fail' input: effects are not a tuple: None"),
    ("case effects", "activity 'fail' case 0: effects are not a tuple: None"),
    ("input", "activity 'fail': input is not an InputSpec: None"),
    ("effect", "activity 'fail' input: effects[0] is not an Effect: 'Up'"),
    ("place", "places[1] is not a Place: 'Down'"),
    ("places", "places are not a tuple: None"),
    ("parameters", "parameters are not a dict: None"),
    ("activities", "activities are not a tuple: None"),
    ("rewards", "rewards are not a tuple: None"),
])
def test_validate_reports_a_wrong_typed_container(shape, message):
    assert validate(_malformed(shape)) == [message]


@pytest.mark.parametrize("line", ["  indented", "trailing ", "crlf\r", "\ttab"])
def test_validate_rejects_blanks_around_a_description_line(line):
    m = dataclasses.replace(two_state_model(), description=f"first\n{line}")
    assert validate(m) == [
        f"description line 2 has leading or trailing blanks: {line!r}"]
    ok = dataclasses.replace(two_state_model(), description="first\n\nin  between")
    assert validate(ok) == []
    assert parse_model(serialize_model(ok)) == ok


def test_builtin_models_validate_clean(table):
    for name, model in md.builtin_models(table).items():
        assert validate(model) == [], name


def _vec(model, marking):
    cm = compiled(model)
    return tuple(marking[name] for name in cm.place_order)


def enabled(model, marking):
    """Names of the activities whose predicate holds in ``marking``."""
    vec = _vec(model, marking)
    return [a.name for a in compiled(model).activities if a.pred(vec) != 0.0]


def fire(model, marking, activity, case_index=0):
    """The marking after ``activity`` fires with the chosen case."""
    cm = compiled(model)
    act = next(a for a in cm.activities if a.name == activity)
    return cm.marking_dict(cm.fire_vec(_vec(model, marking), act, case_index))


def test_enabled_activities_two_state(two_state):
    cm = compiled(two_state)
    assert cm.place_order == ("Down", "Up")
    for vec, name, rate in (((0, 1), "fail", 0.1), ((1, 0), "repair", 0.9)):
        tangible, moves = cm.moves(vec)
        assert tangible and [(a.name, w) for a, w in moves] == [(name, rate)]


def test_fire_two_state(two_state):
    cm = compiled(two_state)
    fail, repair = cm.activities
    assert cm.fire_vec((0, 1), fail, 0) == (1, 0)
    assert cm.fire_vec((1, 0), repair, 0) == (0, 1)


def test_fire_is_pure(two_state):
    cm = compiled(two_state)
    assert cm.fire_vec((0, 1), cm.activities[0], 0) == cm.fire_vec((0, 1), cm.activities[0], 0)


def test_fire_bad_case_index(two_state):
    cm = compiled(two_state)
    with pytest.raises(IndexError):
        cm.fire_vec((0, 1), cm.activities[0], 3)


def test_fire_negative_tokens_detected():
    # predicate passes but an effect overdraws the place
    m = _model([Activity("greedy", P("1"), InputSpec(P("#A >= 1"), (take("A", 2),)),
                         (CaseSpec(1.0, ()),))])
    with pytest.raises(NegativeTokens):
        fire(m, {"A": 1, "B": 0}, "greedy", 0)


def test_du_covered_os_recovery_lands_in_software_restart(table):
    du = md.build_du(table)
    m = du.initial_marking()
    m_osf = fire(du, m, "OS_F", 0)
    assert m_osf["OS_failed"] == 1 and m_osf["DU_OK"] == 0
    covered = fire(du, m_osf, "OS_rec", 0)      # reboot works, software restarts
    assert covered["SW_Ures"] == 1
    uncovered = fire(du, m_osf, "OS_rec", 1)    # reboot fails, hard repair
    assert uncovered["OS_Urep"] == 1
    # after the hard repair the software still must restart
    assert fire(du, uncovered, "OS_R", 0)["SW_Ures"] == 1


def test_cluster_crash_token_blocks_all_failures(table):
    cluster = md.build_cluster(table.with_overrides(M=3, K=2))
    m = cluster.initial_marking()
    crashed = fire(cluster, m, "HW_F1", 1)      # uncovered hardware failure
    assert crashed["HW_Down"] == 1 and crashed["Working"] == 2
    running = enabled(cluster, crashed)
    assert running == ["UHW_R"], running        # only the crash recovery runs
    # degraded-instance failures are blocked too
    degraded = fire(cluster, fire(cluster, m, "OS_F1", 0), "SW_F", 1)
    assert degraded["SW_Down"] == 1 and degraded["OS_Fail"] == 1
    assert "HW_F2" not in enabled(cluster, degraded)
    assert "OS_F2" not in enabled(cluster, degraded)


def test_cluster_crash_recovery_resets_failed_software(table):
    cluster = md.build_cluster(table.with_overrides(M=4, K=2))
    m = cluster.initial_marking()
    m = fire(cluster, m, "OS_F1", 0)            # one OS failure, covered
    m = fire(cluster, m, "SW_F", 0)             # one software failure, covered
    m = fire(cluster, m, "HW_F1", 1)            # uncovered hardware crash
    assert m == {"Working": 1, "HW_Fail": 0, "HW_Down": 1, "OS_Fail": 1,
                 "OS_Down": 0, "SW_Fail": 1, "SW_Down": 0}
    # crash recovery: crashed instance joins the hardware-repair pool while
    # every failed OS/software instance comes back, so Working = M - HW_Fail
    m = fire(cluster, m, "UHW_R", 0)
    assert m == {"Working": 3, "HW_Fail": 1, "HW_Down": 0, "OS_Fail": 0,
                 "OS_Down": 0, "SW_Fail": 0, "SW_Down": 0}


def test_mode_token_conservation_in_element_models(table):
    # RU/DU: exactly one mode token; CU: two tokens total; cluster: M tokens.
    for model, total in [(md.build_ru(table), 1), (md.build_du(table), 1),
                         (md.build_meh(table), 1), (md.build_cu(table), 2),
                         (md.build_cluster(table.with_overrides(M=3, K=2)), 3)]:
        g = explore(model)
        for state in g.states:
            assert sum(state) == total, (model.description, g.place_order, state)


def test_instantaneous_tie_break_is_equal_weights():
    # two instantaneous activities enabled at once: the explorer splits the
    # branch mass evenly between them (safety-net policy, unreachable in the
    # built-in models)
    m = SanModel(
        places=(Place("S", 1), Place("A", 0), Place("B", 0), Place("T", 0)),
        parameters={},
        activities=(
            Activity("start", P("1"), InputSpec(P("#S >= 1"), (take("S"),)),
                     (CaseSpec(1.0, (put("T"),)),)),
            Activity("left", None, InputSpec(P("#T >= 1"), (take("T"),)),
                     (CaseSpec(1.0, (put("A"),)),)),
            Activity("right", None, InputSpec(P("#T >= 1"), (take("T"),)),
                     (CaseSpec(1.0, (put("B"),)),)),
            Activity("backA", P("1"), InputSpec(P("#A >= 1"), (take("A"),)),
                     (CaseSpec(1.0, (put("S"),)),)),
            Activity("backB", P("1"), InputSpec(P("#B >= 1"), (take("B"),)),
                     (CaseSpec(1.0, (put("S"),)),)),
        ),
        rewards=(RewardPredicate("up", P("#S >= 1")),),
    )
    assert validate(m) == []
    g = explore(m)
    vanish = [i for i in range(g.n_states) if not g.tangible[i]]
    assert len(vanish) == 1
    probs = sorted(e.value for e in g.edges if e.src == vanish[0])
    assert probs == [0.5, 0.5]


def test_valid_models_never_raise_on_reachable_markings(table):
    # a clean validate() means the token game is total over the reachable set
    for name, model in md.builtin_models(table).items():
        if name == "cluster":
            model = md.build_cluster(table.with_overrides(M=3, K=2))
        assert validate(model) == []
        cm = compiled(model)
        for vec in explore(model).states:
            for act in cm.activities:
                if act.pred(vec) != 0.0:
                    for ci, p in enumerate(act.case_probs):
                        if p > 0:
                            cm.fire_vec(vec, act, ci)


def test_two_state_builder_matches_fixture_document():
    from edgeavail.document import parse_model
    from conftest import DATA
    doc = parse_model((DATA / "two_state.san").read_text())
    assert doc.places == two_state_model().places
    assert doc.parameters == {"lam": 0.1, "mu": 0.9}

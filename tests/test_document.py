"""Model documents: parsing, serialization, round-trips, shipped files."""

import pytest

from edgeavail import models as md
from edgeavail.document import parse_model, serialize_model
from edgeavail.cli import main
from edgeavail.errors import ParseError, SemanticError
from edgeavail.expr import parse_expression as P
from edgeavail.san import compiled
from edgeavail.solver import steady_state_gth, unavailability
from edgeavail.statespace import eliminate_vanishing, explore, to_ctmc

from conftest import DATA, MODELS, two_state_model

MINIMAL = """\
san-format 1
param lam = 0.25
place On = 1
place Off = 0
activity timed break rate "lam" {
  input "#On >= 1" { On -= 1 }
  case 1 { Off += 1 }
}
activity timed mend rate "4 * lam" {
  input "#Off >= 1" { Off -= 1 }
  case 1 { On += 1 }
}
reward up = "#On >= 1"
"""


def test_parse_minimal_document():
    m = parse_model(MINIMAL)
    assert [p.name for p in m.places] == ["On", "Off"]
    assert m.parameters == {"lam": 0.25}
    assert len(m.activities) == 2
    assert m.rewards[0].name == "up"


def test_header_is_required():
    with pytest.raises(ParseError):
        parse_model("param x = 1\n")
    with pytest.raises(ParseError):
        parse_model("san-format 2\nparam x = 1\n")


def test_comments_and_blank_lines_ignored():
    text = "\n# leading comment\nsan-format 1\n# more\n\nparam a = 1\nplace P = 1\n"
    m = parse_model(text + 'reward up = "#P >= 1"\n')
    assert m.parameters == {"a": 1.0}


def test_description_round_trips():
    m = parse_model(MINIMAL.replace("param", "#: desc line one\n#: and two\nparam", 1))
    assert m.description == "desc line one\nand two"
    assert parse_model(serialize_model(m)).description == m.description


def test_parameters_fold_in_declaration_order():
    text = ("san-format 1\nparam base = 2\nparam derived = base * 3\n"
            "place P = 1\nreward up = \"#P >= 1\"\n")
    m = parse_model(text)
    assert m.parameters["derived"] == P("base * 3")   # kept as written
    assert m.parameter_values()["derived"] == 6.0


def test_forward_parameter_reference_rejected():
    text = ("san-format 1\nparam derived = base * 3\nparam base = 2\n"
            "place P = 1\nreward up = \"#P >= 1\"\n")
    with pytest.raises(SemanticError):
        parse_model(text)


def _with_params(*lines):
    return "san-format 1\n" + "".join(f"{line}\n" for line in lines) + \
        'place P = 1\nreward up = "#P >= 1"\n'


def test_folding_division_by_zero_names_the_expression():
    bad = r"^invalid model: parameter 'x': division by zero in "
    with pytest.raises(SemanticError, match=bad + r"1 / 0$"):
        parse_model(_with_params("param x = 1 / 0"))
    with pytest.raises(SemanticError, match=bad + r"1 / 0$"):
        parse_model(_with_params("param x = (1 / 0) / 0"))
    with pytest.raises(SemanticError, match=bad + r"1 / a$"):
        parse_model(_with_params("param a = 0", "param x = 1 / a"))


def test_folding_is_lazy_in_the_untaken_branch():
    m = parse_model(_with_params("param x = if 0 then 1 / 0 else 2"))
    assert m.parameter_values()["x"] == 2.0


def test_solve_reports_a_folding_error_on_one_line(tmp_path, capsys):
    path = tmp_path / "bad.san"
    path.write_text(_with_params("param a = 0", "param x = 1 / a"))
    code = main(["solve", str(path), "--reward", "up"])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.strip().splitlines() == [
        "error: invalid model: parameter 'x': division by zero in 1 / a"]


def test_fold_error_reads_alike_in_a_document_and_through_set(tmp_path, capsys):
    # a document and an override leaving the same value to fold name it alike
    text = (DATA / "two_state.san").read_text()
    path = tmp_path / "zero.san"
    for value, argv in (("0", []), ("1", ["--set", "a=0"])):
        path.write_text(text.replace("param mu = 0.9",
                                     f"param a = {value}\nparam mu = 0.9 / a"))
        code = main(["solve", str(path), "--reward", "up", *argv])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == (64 if argv else 1) and len(lines) == 1
        assert lines[0].endswith(": parameter 'mu': division by zero in 0.9 / a")


def test_repeated_parameter_rejected_with_its_line():
    with pytest.raises(SemanticError, match=r"duplicate .*'a'.* line 3\b"):
        parse_model(_with_params("param a = 1", "param a = 2"))


def test_parse_leaves_every_semantic_rule_to_validate():
    # each would have stopped the parse at its statement; validate names all
    text = _with_params("param if = 1", "param r = #P", "place r = 1.5",
                        "param late = early", "param early = 1")
    with pytest.raises(SemanticError) as err:
        parse_model(text)
    assert str(err.value) == (
        "invalid model: parameter name 'if' is a reserved word; "
        "name 'r' declared as both a parameter and a place; "
        "parameter 'r' must not reference places: #P; "
        "parameter 'late' references undeclared parameter 'early' "
        "(parameters fold in declaration order); "
        "place 'r' has non-integer initial tokens (1.5)")


def test_negative_zero_round_trips():
    m = parse_model(_with_params("param z = -0.0"))
    assert repr(m.parameters["z"]) == "-0.0"
    back = parse_model(serialize_model(m))
    assert repr(back.parameters["z"]) == "-0.0"


def test_case_probabilities_fold_over_parameters():
    text = ("san-format 1\nparam c = 0.25\nplace A = 1\nplace B = 0\nplace C = 0\n"
            'activity instant pick {\n  input "#A >= 1" { A -= 1 }\n'
            "  case c { B += 1 }\n  case 1 - c { C += 1 }\n}\n"
            'activity timed putback rate "1" { input "#B >= 1 or #C >= 1" '
            "{ B = 0; C = 0; A = 1 } case 1 { }\n}\n"
            'reward up = "#A >= 1"\n')
    m = parse_model(text)
    assert compiled(m).activities[0].case_probs == (0.25, 0.75)
    assert m.activities[0].cases[1].probability == P("1 - c")   # kept as written


def test_undeclared_place_is_a_semantic_error():
    text = MINIMAL.replace('case 1 { Off += 1 }', 'case 1 { Gone += 1 }')
    with pytest.raises(SemanticError):
        parse_model(text)


def test_duplicate_names_rejected():
    with pytest.raises(SemanticError):
        parse_model("san-format 1\nparam a = 1\nplace a = 0\n")


def test_bad_probability_rejected():
    text = MINIMAL.replace("case 1 { Off += 1 }", "case 0.7 { Off += 1 }")
    with pytest.raises(SemanticError):
        parse_model(text)


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_model("san-format 1\nparam lam = 1 + * 2\n")
    assert err.value.line == 2


def test_positions_after_a_two_line_quoted_rate():
    text = MINIMAL.replace('rate "lam"', 'rate "lam\n  * 1"')
    with pytest.raises(ParseError, match=r"^unexpected IDENT 'bogus' at line 15, column 1"):
        parse_model(text + "bogus\n")
    with pytest.raises(ParseError, match=r"^unexpected IDENT 'oops' at line 6, column 8"):
        parse_model(text.replace('* 1" {', '* 1" oops {'))
    assert parse_model(text).activities[0].rate == P("lam * 1")


def test_non_finite_value_is_not_serialized():
    with pytest.raises(SemanticError, match=r"non-finite number inf"):
        serialize_model(two_state_model(lam=float("inf")))


def test_two_state_fixture_solves_to_one_tenth():
    m = parse_model((DATA / "two_state.san").read_text())
    c = to_ctmc(eliminate_vanishing(explore(m)), "up")
    assert unavailability(c, steady_state_gth(c)) == pytest.approx(0.1, abs=1e-12)


def test_shipped_documents_parse_to_the_builders(table):
    built = md.builtin_models(table)
    for name, model in built.items():
        text = (MODELS / f"{name}.san").read_text()
        assert parse_model(text) == model, name


def test_shipped_documents_are_serialization_fixpoints(table):
    for name in ("ru", "du", "cu", "meh", "cluster"):
        text = (MODELS / f"{name}.san").read_text()
        assert serialize_model(parse_model(text)) == text, name


def test_round_trip_all_builders(table):
    for name, model in md.builtin_models(table).items():
        assert parse_model(serialize_model(model)) == model, name


def test_parsed_and_built_models_are_bisimilar(table):
    # same state space and identical generators, not just structural equality
    import numpy as np
    du_doc = parse_model((MODELS / "du.san").read_text())
    du = md.build_du(table)
    g1 = eliminate_vanishing(explore(du))
    g2 = eliminate_vanishing(explore(du_doc))
    assert g1.states == g2.states
    c1, c2 = to_ctmc(g1, "up"), to_ctmc(g2, "up")
    assert np.array_equal(c1.Q.toarray(), c2.Q.toarray())
    assert np.array_equal(c1.reward, c2.reward)


def test_ru_document_has_four_tangible_states():
    g = explore(parse_model((MODELS / "ru.san").read_text()))
    assert g.n_states == 4 and g.n_tangible == 4

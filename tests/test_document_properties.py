"""Document round-trip on random small SANs.

``serialize_model`` followed by ``parse_model`` must give back the model, and
serializing the parsed model must give back the same text.  On a SAN whose
names may clash, the parse must give back the model exactly when ``validate``
accepts it, and otherwise report what ``validate`` reports.
"""

import dataclasses

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from edgeavail.document import parse_model, serialize_model  # noqa: E402
from edgeavail.errors import SemanticError  # noqa: E402
from edgeavail.expr import KEYWORDS  # noqa: E402
from edgeavail.san import validate  # noqa: E402

from test_explore_properties import PLACES, sans  # noqa: E402


@settings(max_examples=200, derandomize=True, deadline=None)
@given(sans())
def test_serialize_then_parse_is_a_fixpoint(model):
    text = serialize_model(model)
    back = parse_model(text)
    assert back == model
    assert serialize_model(back) == text


# the places, the parameters, keywords, and names free in every SAN
_NAMES = (*PLACES, "n", "w", "v", *sorted(KEYWORDS), "a0", "a1", "a2", "go")


@st.composite
def renamed(draw):
    """A SAN from ``sans`` with about one activity in four renamed from
    ``_NAMES``."""
    model = draw(sans())
    names = st.sampled_from(_NAMES)
    return dataclasses.replace(model, activities=tuple(
        dataclasses.replace(a, name=draw(names)) if draw(st.integers(0, 3)) == 0 else a
        for a in model.activities))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(renamed())
def test_validate_accepts_exactly_what_parses_back(model):
    diags = validate(model)
    text = serialize_model(model)
    if diags:
        with pytest.raises(SemanticError) as err:
            parse_model(text)
        assert str(err.value) == "invalid model: " + "; ".join(diags)
    else:
        assert parse_model(text) == model

"""Document round-trip on random small SANs.

``serialize_model`` followed by ``parse_model`` must give back the model, and
serializing the parsed model must give back the same text.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402

from edgeavail.document import parse_model, serialize_model  # noqa: E402

from test_explore_properties import sans  # noqa: E402


@settings(max_examples=200, derandomize=True, deadline=None)
@given(sans())
def test_serialize_then_parse_is_a_fixpoint(model):
    text = serialize_model(model)
    back = parse_model(text)
    assert back == model
    assert serialize_model(back) == text

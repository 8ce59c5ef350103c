"""The interned-marking walk against the reference loop on random small SANs.

Each SAN of ``sans()`` is simulated with ``simulate`` and
``simulate_replicated`` by ``simulator._batch_uptimes`` at the default memo
cap and at caps 0, 1 and 3, and once by the reference loop of
``test_simulator``.  Every run must give the same estimate, or raise the
same exception with the same message.
"""

import dataclasses
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings  # noqa: E402

from edgeavail import simulator  # noqa: E402
from edgeavail.expr import parse_expression as P  # noqa: E402
from edgeavail.san import RewardPredicate  # noqa: E402

from test_explore_properties import sans  # noqa: E402
from test_simulator import _reference_batch_uptimes  # noqa: E402

HORIZON = 5.0


def _outcome(model):
    try:
        return (simulator.simulate(model, "up", HORIZON, seed=3),
                simulator.simulate_replicated(model, "up", HORIZON, replications=3, seed=3))
    except Exception as err:  # the outcome compared is the error itself
        return type(err), str(err)


# no shrink phase: each example runs ten simulations, and shrinking a
# failure took over ten minutes where finding it took seconds
@settings(max_examples=200, derandomize=True, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(sans())
def test_interned_walk_matches_reference_loop(model):
    # a reward that varies with the marking, so the estimates carry the walk
    model = dataclasses.replace(model, rewards=(RewardPredicate("up", P("#A >= 1")),))
    with mock.patch.object(simulator, "LIVELOCK_LIMIT", 200):
        with mock.patch.object(simulator, "_batch_uptimes", _reference_batch_uptimes):
            expected = _outcome(model)
        for cap in (simulator.DEFAULT_MAX_STATES, 0, 1, 3):
            with mock.patch.object(simulator, "DEFAULT_MAX_STATES", cap):
                assert _outcome(model) == expected

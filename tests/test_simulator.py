"""Monte-Carlo estimator: calibration, determinism, failure modes."""

import pytest

from edgeavail import models as md
from edgeavail.errors import EvaluationError, VanishingLivelock
from edgeavail.expr import parse_expression as P
from edgeavail.san import (Activity, CaseSpec, InputSpec, Place,
                           RewardPredicate, SanModel, compiled, put, take,
                           validate)
from edgeavail.simulator import _pick_case, simulate, simulate_replicated
from edgeavail.solver import steady_state_gth, unavailability
from edgeavail.statespace import eliminate_vanishing, explore, to_ctmc

from conftest import two_state_model


def test_two_state_point_and_coverage(two_state):
    est = simulate(two_state, "up", horizon=1e6, seed=42)
    assert est.point == pytest.approx(0.9, abs=0.01)
    assert abs(est.point - 0.9) <= est.ci_halfwidth
    assert 0.0 <= est.point <= 1.0
    assert est.ci_halfwidth >= 0.0
    assert est.batches == 20 and est.seed == 42


def test_identical_seed_reproduces_bit_for_bit(two_state):
    a = simulate(two_state, "up", horizon=1e5, seed=7)
    b = simulate(two_state, "up", horizon=1e5, seed=7)
    assert a == b
    c = simulate(two_state, "up", horizon=1e5, seed=8)
    assert c != a


def test_du_ci_covers_exact_value(table):
    du = md.build_du(table)
    chain = to_ctmc(eliminate_vanishing(explore(du)), "up")
    exact = 1.0 - unavailability(chain, steady_state_gth(chain))
    est = simulate(du, "up", horizon=1e7, seed=1)
    assert abs(est.point - exact) <= est.ci_halfwidth


def test_replicated_two_state(two_state):
    est = simulate_replicated(two_state, "up", horizon=2e5, replications=20, seed=3)
    assert abs(est.point - 0.9) <= est.ci_halfwidth
    assert est.batches == 20


def test_replicated_is_deterministic(two_state):
    a = simulate_replicated(two_state, "up", horizon=1e5, replications=5, seed=11)
    b = simulate_replicated(two_state, "up", horizon=1e5, replications=5, seed=11)
    assert a == b


def test_halfwidth_shrinks_with_horizon(table):
    # batch-means halfwidth should drop roughly like 1/sqrt(horizon); the
    # band below is generous to absorb seed-to-seed noise
    du = md.build_du(table)
    narrow = simulate(du, "up", horizon=8e6, seed=7).ci_halfwidth
    wide = simulate(du, "up", horizon=2e6, seed=7).ci_halfwidth
    assert 0.25 <= narrow / wide <= 0.85


def test_replications_must_be_at_least_two(two_state):
    with pytest.raises(ValueError):
        simulate_replicated(two_state, "up", horizon=1e4, replications=1, seed=1)


def test_batches_must_be_at_least_two(two_state):
    with pytest.raises(ValueError):
        simulate(two_state, "up", horizon=1e4, batches=1, seed=1)


def test_warmup_must_precede_horizon(two_state):
    with pytest.raises(ValueError):
        simulate(two_state, "up", horizon=1e3, warmup=1e3, seed=1)


def test_unknown_reward_rejected(two_state):
    with pytest.raises(ValueError):
        simulate(two_state, "nope", horizon=1e4, seed=1)


def test_vanishing_livelock_detected():
    m = SanModel(
        places=(Place("P1", 1), Place("P2", 0)),
        parameters={},
        activities=(
            Activity("ab", None, InputSpec(P("#P1 >= 1"), (take("P1"),)),
                     (CaseSpec(1.0, (put("P2"),)),)),
            Activity("ba", None, InputSpec(P("#P2 >= 1"), (take("P2"),)),
                     (CaseSpec(1.0, (put("P1"),)),)),
        ),
        rewards=(RewardPredicate("up", P("#P1 >= 1")),),
    )
    with pytest.raises(VanishingLivelock):
        simulate(m, "up", horizon=1e3, seed=1)


def test_estimate_invariant_under_place_relabeling():
    # renaming places permutes the internal layout but never the dynamics;
    # the estimator must not depend on state indexing in any way
    base = two_state_model()
    renamed = SanModel(
        places=(Place("Z_On", 1), Place("A_Off", 0)),
        parameters={"lam": 0.1, "mu": 0.9},
        activities=(
            Activity("fail", P("lam"), InputSpec(P("#Z_On >= 1"), (take("Z_On"),)),
                     (CaseSpec(1.0, (put("A_Off"),)),)),
            Activity("repair", P("mu"), InputSpec(P("#A_Off >= 1"), (take("A_Off"),)),
                     (CaseSpec(1.0, (put("Z_On"),)),)),
        ),
        rewards=(RewardPredicate("up", P("#Z_On >= 1")),),
    )
    a = simulate(base, "up", horizon=1e5, seed=31)
    b = simulate(renamed, "up", horizon=1e5, seed=31)
    assert a == b


def test_simulation_handles_instantaneous_branching(table):
    # DU has an instantaneous software-recovery branch; long-run estimate must
    # stay a proper probability and land near the exact value
    du = md.build_du(table)
    est = simulate(du, "up", horizon=5e6, seed=123)
    assert 0.99 < est.point < 1.0


@pytest.mark.parametrize("k", [0.0, -0.45])
def test_bad_rate_rejected_by_explore_and_simulate(k):
    # "extra" adds rate k beside repair's 0.9 in the Down marking; a total
    # that stays positive must not hide the bad rate from the simulator
    base = two_state_model()
    repair = base.activity("repair")
    m = SanModel(
        places=base.places,
        parameters={**base.parameters, "k": k},
        activities=base.activities + (
            Activity("extra", P("k"), repair.input, repair.cases),),
        rewards=base.rewards,
    )
    assert validate(m) == []
    with pytest.raises(EvaluationError, match="activity 'extra' has rate"):
        explore(m)
    with pytest.raises(EvaluationError, match="activity 'extra' has rate"):
        simulate(m, "up", horizon=1e5, seed=1)


class _StubRng:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_pick_case_never_falls_back_to_zero_probability_case():
    # the probabilities sum to 1 - 1e-13, which validate() accepts; a draw
    # above that sum must land on the last case that explore() enumerates
    m = SanModel(
        places=(Place("A", 1), Place("B", 0)),
        parameters={},
        activities=(
            Activity("go", P("1"), InputSpec(P("#A >= 1"), (take("A"),)),
                     (CaseSpec(0.7, (put("B"),)),
                      CaseSpec(0.3 - 1e-13, (put("B"),)),
                      CaseSpec(0.0, (put("B"),)))),
            Activity("back", P("1"), InputSpec(P("#B >= 1"), (take("B"),)),
                     (CaseSpec(1.0, (put("A"),)),)),
        ),
        rewards=(RewardPredicate("up", P("#A >= 1")),),
    )
    assert validate(m) == []
    go = compiled(m).activities[0]
    assert _pick_case(go, _StubRng(1 - 2**-53)) == 1
    assert _pick_case(go, _StubRng(0.5)) == 0

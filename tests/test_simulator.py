"""Monte-Carlo estimator: calibration, determinism, failure modes."""

import math
from bisect import bisect_right

import numpy as np
import pytest

from edgeavail import models as md
from edgeavail import simulator
from edgeavail.errors import (EvaluationError, NonFiniteExitRate, UnknownReward,
                              VanishingLivelock)
from edgeavail.expr import parse_expression as P
from edgeavail.san import (Activity, CaseSpec, CompiledModel, InputSpec, Place,
                           RewardPredicate, SanModel, compiled, put, take,
                           validate)
from edgeavail.simulator import _Record, simulate, simulate_replicated
from edgeavail.solver import steady_state_gth, unavailability
from edgeavail.statespace import eliminate_vanishing, explore, to_ctmc

from conftest import deadline, two_state_model


def _reference_step(cm, reward_fn, vec) -> tuple:
    """``(tangible, outcomes, total, is_up)`` at ``vec``.  ``outcomes`` holds
    ``(activity, case, weight)`` for each case with probability ``p > 0`` of
    each activity in ``cm.moves(vec)``, weighted ``p`` times the activity's
    weight there; ``total`` is the exit rate summed in declaration order,
    which must be finite; ``is_up`` says whether the reward is nonzero, which
    is evaluated at tangible markings only."""
    tangible, moves = cm.moves(vec)
    outcomes = [(a, c, w * p) for a, w in moves
                for c, p in enumerate(a.case_probs) if p > 0.0]
    total = 0.0
    for _, w in moves:
        total += w
    if not math.isfinite(total):
        raise NonFiniteExitRate(total, cm.marking_dict(vec))
    return tangible, outcomes, total, tangible and reward_fn(vec) != 0.0


def _reference_batch_uptimes(cm, reward_fn, horizon, warmup, batches, rng, memo):
    """The token game by the documented draw rule, which
    ``simulator._batch_uptimes`` must reproduce bit for bit.  Every random
    number is the next scalar ``rng.random()``.  A tangible step draws its
    sojourn, ``-log(1 - u)`` times one over the exit rate, and then its
    outcome; a vanishing step draws only its outcome.  The outcome is found
    by a linear scan for the first running weight above ``u`` times the
    weights' sum, the last outcome taking every draw past the others.  The
    loop memoizes each marking's step but calls ``fire_vec`` on every
    firing."""
    width = (horizon - warmup) / batches
    up = np.zeros(batches)
    vec = cm.initial
    t = 0.0
    consecutive_instant = 0
    while t < horizon:
        step = memo.get(vec)
        if step is None:
            step = _reference_step(cm, reward_fn, vec)
            if len(memo) < simulator.DEFAULT_MAX_STATES:
                memo[vec] = step
        tangible, outcomes, total, is_up = step
        if tangible:
            consecutive_instant = 0
            if not outcomes:  # dead marking: the trajectory stays here forever
                t_next = horizon
            else:
                t_next = t - math.log(1.0 - rng.random()) * (1.0 / total)
            if is_up:
                lo = max(t, warmup)
                hi = min(t_next, horizon)
                if hi > lo:
                    b0 = min(int((lo - warmup) / width), batches - 1)
                    b1 = min(int((hi - warmup) / width), batches - 1)
                    if b0 == b1:
                        up[b0] += hi - lo
                    else:
                        up[b0] += warmup + (b0 + 1) * width - lo
                        for b in range(b0 + 1, b1):
                            up[b] += width
                        up[b1] += hi - (warmup + b1 * width)
            t = t_next
            if t >= horizon:
                break
        else:
            consecutive_instant += 1
            if consecutive_instant > simulator.LIVELOCK_LIMIT:
                raise VanishingLivelock(simulator.LIVELOCK_LIMIT)
        weight = 0.0
        for _, _, w in outcomes:
            weight += w
        x = rng.random() * weight
        acc = 0.0
        for a, c, w in outcomes:
            acc += w
            if x < acc:
                break
        vec = cm.fire_vec(vec, a, c)
    return up / width


SEEDS = range(1, 21)
# hits out of 20 seeds for a 95% interval: exact coverage falls below 17
# about 1.6% of the time, a true coverage of 80% 59% of the time
MIN_HITS = 17


def test_two_state_point_and_coverage(two_state):
    hits = 0
    for seed in SEEDS:
        est = simulate(two_state, "up", horizon=1e6, seed=seed)
        assert est.point == pytest.approx(0.9, abs=0.01)
        assert 0.0 <= est.point <= 1.0
        assert est.ci_halfwidth >= 0.0
        assert est.batches == 20 and est.seed == seed
        hits += abs(est.point - 0.9) <= est.ci_halfwidth
    assert hits >= MIN_HITS


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
    hits = sum(abs(est.point - exact) <= est.ci_halfwidth
               for est in (simulate(du, "up", horizon=1e7, seed=seed) for seed in SEEDS))
    assert hits >= MIN_HITS


def test_replicated_two_state(two_state):
    hits = 0
    for seed in SEEDS:
        est = simulate_replicated(two_state, "up", horizon=2e5, replications=20, seed=seed)
        assert est.batches == 20 and est.seed == seed
        hits += abs(est.point - 0.9) <= est.ci_halfwidth
    assert hits >= MIN_HITS


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


def test_replications_above_the_cap_fail_fast(two_state):
    # rejected before a seed is spawned or a trajectory is walked
    with deadline(10), pytest.raises(ValueError, match="replications must be in"):
        simulate_replicated(two_state, "up", horizon=10.0,
                            replications=simulator.MAX_BATCHES + 1, seed=1)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_seed_must_be_a_non_negative_integer(two_state, seed):
    for run in (simulate, simulate_replicated):
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer"):
            run(two_state, "up", horizon=1e4, seed=seed)


def test_batches_must_be_at_least_two(two_state):
    with pytest.raises(ValueError):
        simulate(two_state, "up", horizon=1e4, batches=1, seed=1)


@pytest.mark.parametrize("batches", [simulator.MAX_BATCHES + 1, 1_000_000_000])
def test_batches_above_the_cap_fail_fast(two_state, batches):
    # rejected before the per-batch array is allocated or any batch is walked
    with deadline(10), pytest.raises(ValueError, match="batches must be in"):
        simulate(two_state, "up", horizon=10.0, batches=batches, seed=1)


def test_warmup_must_precede_horizon(two_state):
    with pytest.raises(ValueError):
        simulate(two_state, "up", horizon=1e3, warmup=1e3, seed=1)


@pytest.mark.parametrize("horizon", [math.inf, math.nan])
def test_non_finite_horizon_rejected(two_state, horizon):
    # with warmup 0 an infinite horizon passed the ordering check and the
    # trajectory never ended
    with deadline(10), pytest.raises(ValueError, match="need a finite horizon"):
        simulate(two_state, "up", horizon=horizon, warmup=0.0, seed=1)
    with deadline(10), pytest.raises(ValueError, match="need a finite horizon"):
        simulate_replicated(two_state, "up", horizon=horizon, warmup=0.0, seed=1)


def test_unknown_reward_rejected(two_state):
    with pytest.raises(UnknownReward):
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
    fail, repair = base.activities
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


def test_overflowing_exit_rate_rejected_by_to_ctmc_and_simulate():
    # two enabled 1e308 rates are each finite, but their sum is not; left
    # unchecked, GTH gives pi = [0, nan] and U = 0, and the simulator 0.0
    base = two_state_model(lam=1e308)
    fail, _ = base.activities
    m = SanModel(places=base.places, parameters=base.parameters,
                 activities=base.activities + (Activity("fail2", fail.rate, fail.input,
                                                        fail.cases),),
                 rewards=base.rewards)
    assert validate(m) == []
    message = r"exit rate inf in marking \{'Down': 0, 'Up': 1\} is not finite"
    graph = eliminate_vanishing(explore(m))
    with pytest.raises(EvaluationError, match=message):
        to_ctmc(graph, "up")
    with pytest.raises(EvaluationError, match=message):
        simulate(m, "up", horizon=1e3, seed=1)
    with pytest.raises(EvaluationError, match=message):
        simulate_replicated(m, "up", horizon=1e3, seed=1)


@pytest.mark.parametrize("probs", [(0.3, 0.7 - 1e-17, 0.0), (0.7, 0.3 - 1e-13, 0.0)])
def test_zero_probability_case_is_never_an_outcome(probs):
    # validate() accepts both sums; a draw just below one, scaled by the
    # record's weight, must land on the last case that has a probability
    m = SanModel(
        places=(Place("A", 1), Place("B", 0)),
        parameters={},
        activities=(
            Activity("go", P("2"), InputSpec(P("#A >= 1"), (take("A"),)),
                     tuple(CaseSpec(p, (put("B"),)) for p in probs)),
            Activity("back", P("1"), InputSpec(P("#B >= 1"), (take("B"),)),
                     (CaseSpec(1.0, (put("A"),)),)),
        ),
        rewards=(RewardPredicate("up", P("#A >= 1")),),
    )
    assert validate(m) == []
    cm = compiled(m)
    rec = _Record(cm, cm.rewards["up"], cm.initial)
    assert [(a.name, c) for a, c in rec.outcomes] == [("go", 0), ("go", 1)]
    assert rec.bounds == [2 * probs[0]] and rec.scale == 0.5
    assert bisect_right(rec.bounds, (1 - 2**-53) * rec.weight) == 1
    assert bisect_right(rec.bounds, 0.0) == 0


def test_reward_evaluated_only_at_tangible_markings():
    # A -2-> V -instant-> B -1-> A; the reward divides by zero at the
    # vanishing marking V, where the trajectory spends no time
    m = SanModel(
        places=(Place("A", 1), Place("V", 0), Place("B", 0)),
        parameters={},
        activities=(
            Activity("a_v", P("2"), InputSpec(P("#A >= 1"), (take("A"),)),
                     (CaseSpec(1.0, (put("V"),)),)),
            Activity("v_b", None, InputSpec(P("#V >= 1"), (take("V"),)),
                     (CaseSpec(1.0, (put("B"),)),)),
            Activity("b_a", P("1"), InputSpec(P("#B >= 1"), (take("B"),)),
                     (CaseSpec(1.0, (put("A"),)),)),
        ),
        rewards=(RewardPredicate("up", P("1 / (1 - #V) >= 1")),),
    )
    assert validate(m) == []
    est = simulate(m, "up", horizon=1e4, seed=1)
    assert est.point == 1.0 and est.ci_halfwidth == 0.0
    assert simulate_replicated(m, "up", horizon=1e3, replications=3, seed=1).point == 1.0


# (point, ci_halfwidth) at horizon 2e5, seed 5, as the reference loop gives
# them (numpy PCG64); they move if a draw, a sum's order or the loop changes
PINNED = {
    "ru": (0.9992961065256033, 0.00021371246579924538),
    "du": (0.9994368184081237, 0.00017864818153457334),
    "cu": (0.9998213929892463, 4.780470665350555e-05),
    "meh": (0.9994045752847516, 0.00011836795772947243),
    "cluster": (0.9997467098514825, 6.300047230809397e-05),
}


@pytest.mark.parametrize("cap", [0, 1])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_memo_never_changes_an_estimate(table, monkeypatch, name, cap):
    # cap 0 steps every visit afresh; cap 1 memoizes the first marking only,
    # so both paths interleave; the reference loop states the draw rule
    model = md.builtin_models(table)[name]
    memoized = simulate(model, "up", horizon=2e5, seed=5)
    assert (memoized.point, memoized.ci_halfwidth) == PINNED[name]
    monkeypatch.setattr(simulator, "DEFAULT_MAX_STATES", cap)
    assert simulate(model, "up", horizon=2e5, seed=5) == memoized
    monkeypatch.setattr(simulator, "_batch_uptimes", _reference_batch_uptimes)
    assert simulate(model, "up", horizon=2e5, seed=5) == memoized


@pytest.mark.parametrize("name", ["du", "cluster"])
def test_memo_never_changes_a_replicated_estimate(table, monkeypatch, name):
    model = md.builtin_models(table)[name]
    memoized = simulate_replicated(model, "up", horizon=5e4, replications=4, seed=9)
    monkeypatch.setattr(simulator, "DEFAULT_MAX_STATES", 0)
    assert simulate_replicated(model, "up", horizon=5e4, replications=4,
                               seed=9) == memoized
    monkeypatch.setattr(simulator, "_batch_uptimes", _reference_batch_uptimes)
    assert simulate_replicated(model, "up", horizon=5e4, replications=4,
                               seed=9) == memoized


@pytest.mark.parametrize("name", sorted(PINNED))
def test_uniform_block_size_never_changes_an_estimate(table, monkeypatch, name):
    # blocks of one draw are the scalar calls; seven divides neither the
    # default's first block nor its growth
    model = md.builtin_models(table)[name]

    def run():
        return (simulate(model, "up", horizon=2e5, seed=5),
                simulate_replicated(model, "up", horizon=5e4, replications=4, seed=9))

    default = run()
    for block in (1, 7):
        monkeypatch.setattr(simulator, "UNIFORM_BLOCK", block)
        assert run() == default


def test_memo_steps_each_marking_once_and_fires_as_often(table, monkeypatch):
    # the memo runs ``moves`` once per marking and ``fire_vec`` once per
    # (marking, activity, case); at cap 0 every visit steps and every firing
    # fires, call for call as the reference loop does
    moves, fire_vec = CompiledModel.moves, CompiledModel.fire_vec
    batch_uptimes = simulator._batch_uptimes
    stepped, fired = [], []

    def counted_moves(self, vec):
        stepped.append(vec)
        return moves(self, vec)

    def counted_fire_vec(self, vec, act, case_index):
        fired.append((vec, act.name, case_index))
        return fire_vec(self, vec, act, case_index)

    monkeypatch.setattr(CompiledModel, "moves", counted_moves)
    monkeypatch.setattr(CompiledModel, "fire_vec", counted_fire_vec)
    cluster = md.build_cluster(table)

    def run(loop, cap):
        stepped.clear()
        fired.clear()
        with monkeypatch.context() as patched:
            patched.setattr(simulator, "_batch_uptimes", loop)
            patched.setattr(simulator, "DEFAULT_MAX_STATES", cap)
            est = simulate(cluster, "up", horizon=2e5, seed=5)
        return est, list(stepped), list(fired)

    memo_est, memo_steps, memo_fires = run(batch_uptimes, simulator.DEFAULT_MAX_STATES)
    assert len(set(memo_steps)) == len(memo_steps)
    assert len(set(memo_fires)) == len(memo_fires)

    ref_est, ref_steps, ref_fires = run(_reference_batch_uptimes, 0)
    assert len(ref_steps) == len(ref_fires) + 1 > len(memo_fires)
    assert set(ref_steps) == set(memo_steps) and set(ref_fires) == set(memo_fires)
    assert run(batch_uptimes, 0) == (ref_est, ref_steps, ref_fires)
    assert memo_est == ref_est


def test_memo_keeps_at_most_cap_records_and_links_only_kept_ones(table, monkeypatch):
    # a kept record linked to a transient one would keep a chain of them alive
    batch_uptimes = simulator._batch_uptimes
    memos = []

    def spied(cm, reward_fn, horizon, warmup, batches, rng, memo):
        memos.append(memo)
        return batch_uptimes(cm, reward_fn, horizon, warmup, batches, rng, memo)

    monkeypatch.setattr(simulator, "_batch_uptimes", spied)
    monkeypatch.setattr(simulator, "DEFAULT_MAX_STATES", 3)
    cluster = md.build_cluster(table)
    capped = simulate(cluster, "up", horizon=2e5, seed=5)
    memo, = memos
    assert len(memo) == 3
    links = [nxt for rec in memo.values() for nxt in rec.succ if nxt is not None]
    assert links and all(memo.get(nxt.vec) is nxt for nxt in links)
    monkeypatch.setattr(simulator, "DEFAULT_MAX_STATES", 0)
    assert simulate(cluster, "up", horizon=2e5, seed=5) == capped
    assert not memos[1]


def test_t_quantile_is_the_scipy_stats_one():
    # stdtrit spares the interval the import of scipy.stats, bit for bit
    from scipy import special, stats
    df = np.arange(1, 2000)
    assert np.array_equal(special.stdtrit(df, 0.975), stats.t.ppf(0.975, df))
    values = np.array([0.25, 0.5, 0.75, 1.0])
    mean, half = simulator._t_interval(values)
    assert half == float(stats.t.ppf(0.975, 3)) * float(values.std(ddof=1)) / 2.0

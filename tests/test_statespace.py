"""Reachability, vanishing-marking elimination, and generator assembly."""

import hashlib
from collections import deque

import numpy as np
import pytest

from edgeavail import models as md
from edgeavail import statespace
from edgeavail.document import parse_model
from edgeavail.errors import (DivisionByZero, EvaluationError, NegativeTokens,
                              NotIrreducible, StateSpaceExceeded,
                              UnknownReward, VanishingLoop)
from edgeavail.expr import parse_expression as P
from edgeavail.san import (Activity, CaseSpec, InputSpec, Place,
                           RewardPredicate, SanModel, put, set_to, take)
from edgeavail.simulator import simulate
from edgeavail.solver import steady_state_gth, unavailability
from edgeavail.statespace import eliminate_vanishing, explore, to_ctmc

from conftest import MODELS, deadline, state_graph, two_state_model


def _pipeline(model, reward="up"):
    return to_ctmc(eliminate_vanishing(explore(model)), reward)


def test_two_state_graph():
    g = explore(two_state_model())
    assert g.n_states == 2
    assert g.n_tangible == 2
    assert len(g.edges) == 2
    assert g.marking(0) == {"Up": 1, "Down": 0}


def test_element_state_counts(table):
    # Hand enumeration oracles.  RU: one token over {OK, RH, Ant, FW}.
    # DU: token over 7 places, SW_failed vanishing (instantaneous recovery).
    # CU: 16 markings derived by hand: mode token in one of 6 positions x
    #     standby token in {CHW2, CHW_rep} (12), plus 4 two-token HW layouts
    #     {CHW1f+CHW2, CHW1f+rep, rep+cov, CHW2+cov}; 2 of the 16 have the
    #     mode token in SW_failed (vanishing).
    # MEH: one token over its 15 places; MEP_failed and APP_failed vanishing.
    expected = {
        "ru": (4, 4, 0),
        "du": (7, 6, 1),
        "cu": (16, 14, 2),
        "meh": (15, 13, 2),
    }
    for name, (n, tangible, vanishing) in expected.items():
        g = explore(md.builtin_models(table)[name])
        assert (g.n_states, g.n_tangible, g.n_vanishing) == (n, tangible, vanishing), name


def _cluster_reach_oracle(M, K):
    """Independent enumeration of cluster markings, coded from the rules
    directly on (working, hw_fail, hw_down, os_fail, os_down, sw_fail, sw_down)
    tuples without touching the model machinery."""
    start = (M, 0, 0, 0, 0, 0, 0)
    seen = {start}
    queue = deque([start])
    while queue:
        w, hf, hd, of, od, sf, sd = queue.popleft()
        succs = []
        if hd == 0 and od == 0 and sd == 0:
            if w >= 1:
                succs += [(w - 1, hf + 1, hd, of, od, sf, sd),
                          (w - 1, hf, hd + 1, of, od, sf, sd),
                          (w - 1, hf, hd, of + 1, od, sf, sd),
                          (w - 1, hf, hd, of, od + 1, sf, sd),
                          (w - 1, hf, hd, of, od, sf + 1, sd),
                          (w - 1, hf, hd, of, od, sf, sd + 1)]
            if of >= 1:
                succs.append((w, hf + 1, hd, of - 1, od, sf, sd))
            if sf >= 1:
                succs += [(w, hf + 1, hd, of, od, sf - 1, sd),
                          (w, hf, hd, of + 1, od, sf - 1, sd)]
        if hf >= 1:
            succs.append((w + 1, hf - 1, hd, of, od, sf, sd))
        if of >= 1:
            succs.append((w + 1, hf, hd, of - 1, od, sf, sd))
        if sf >= 1:
            succs.append((w + 1, hf, hd, of, od, sf - 1, sd))
        if hd >= 1:
            succs.append((M - (hf + 1), hf + 1, hd - 1, 0, od, 0, sd))
        if od >= 1:
            succs.append((M - hf, hf, hd, 0, od - 1, 0, sd))
        if sd >= 1:
            succs.append((M - hf, hf, hd, 0, od, 0, sd - 1))
        for s in succs:
            if s not in seen:
                seen.add(s)
                queue.append(s)
    return seen


@pytest.mark.parametrize("mk", [(3, 2), (3, 3), (4, 2)])
def test_cluster_state_space_matches_independent_enumeration(table, mk):
    M, K = mk
    g = explore(md.build_cluster(table.with_overrides(M=M, K=K)))
    oracle = _cluster_reach_oracle(M, K)
    # canonical place order is sorted: HW_Down HW_Fail OS_Down OS_Fail
    # SW_Down SW_Fail Working
    got = {(s[6], s[1], s[0], s[3], s[2], s[5], s[4]) for s in g.states}
    assert got == oracle


def test_cluster_down_states_only_recover(table):
    cluster = md.build_cluster(table.with_overrides(M=3, K=2))
    g = explore(cluster)
    order = g.place_order
    down_places = [order.index(n) for n in ("HW_Down", "OS_Down", "SW_Down")]
    recovery = {"HW_R", "OS_R", "SW_R", "UHW_R", "UOS_R", "USW_R"}
    for e in g.edges:
        state = g.states[e.src]
        if any(state[i] > 0 for i in down_places):
            assert e.label.split("/")[0] in recovery, (state, e.label)


def test_full_coverage_removes_degraded_states(table):
    full = table.with_overrides(C_HW=1.0, C_OS=1.0, C_SW=1.0, C_VM=1.0,
                                C_APP=1.0, C_HYP=1.0)
    g_du = explore(md.build_du(full))
    assert all(g_du.marking(i)["SW_Urep"] == 0 for i in range(g_du.n_states))
    g_cl = explore(md.build_cluster(full.with_overrides(M=3, K=2)))
    for i in range(g_cl.n_states):
        m = g_cl.marking(i)
        assert m["HW_Down"] == 0 and m["OS_Down"] == 0 and m["SW_Down"] == 0


def test_exploration_is_deterministic(table):
    g1 = explore(md.build_meh(table))
    g2 = explore(md.build_meh(table))
    assert g1.states == g2.states
    assert g1.edges == g2.edges


def test_max_states_guard(table):
    with pytest.raises(StateSpaceExceeded):
        explore(md.build_cluster(table), max_states=10)


def test_vanishing_split_exact():
    # A -r-> V -{0.85 -> B, 0.15 -> C}  becomes  A -0.85r-> B, A -0.15r-> C
    m = SanModel(
        places=(Place("A", 1), Place("V", 0), Place("B", 0), Place("C", 0)),
        parameters={"r": 2.0},
        activities=(
            Activity("go", P("r"), InputSpec(P("#A >= 1"), (take("A"),)),
                     (CaseSpec(1.0, (put("V"),)),)),
            Activity("split", None, InputSpec(P("#V >= 1"), (take("V"),)),
                     (CaseSpec(0.85, (put("B"),)), CaseSpec(0.15, (put("C"),)))),
            Activity("backB", P("1"), InputSpec(P("#B >= 1"), (take("B"),)),
                     (CaseSpec(1.0, (put("A"),)),)),
            Activity("backC", P("1"), InputSpec(P("#C >= 1"), (take("C"),)),
                     (CaseSpec(1.0, (put("A"),)),)),
        ),
        rewards=(RewardPredicate("up", P("#A >= 1")),),
    )
    g = eliminate_vanishing(explore(m))
    assert g.n_vanishing == 0
    out = sorted((e.value, g.marking(e.dst)) for e in g.edges if e.src == 0)
    assert out[0][0] == pytest.approx(0.15 * 2.0, abs=0)
    assert out[1][0] == pytest.approx(0.85 * 2.0, abs=0)
    assert out[0][1]["C"] == 1 and out[1][1]["B"] == 1


def test_vanishing_chain_and_self_loop():
    # A -2-> V1 -instant-> V2; V2 returns to itself w.p. 0.5 and leaves for
    # B (0.3) or D (0.2); B -1-> A, D -4-> A.  Folding the chain and the loop
    # leaves A -1.2-> B and A -0.8-> D, so U = 1 - 5/12.
    m = SanModel(
        places=(Place("A", 1), Place("V1", 0), Place("V2", 0), Place("B", 0),
                Place("D", 0)),
        parameters={},
        activities=(
            Activity("go", P("2"), InputSpec(P("#A >= 1"), (take("A"),)),
                     (CaseSpec(1.0, (put("V1"),)),)),
            Activity("hop", None, InputSpec(P("#V1 >= 1"), (take("V1"),)),
                     (CaseSpec(1.0, (put("V2"),)),)),
            Activity("branch", None, InputSpec(P("#V2 >= 1"), (take("V2"),)),
                     (CaseSpec(0.5, (put("V2"),)), CaseSpec(0.3, (put("B"),)),
                      CaseSpec(0.2, (put("D"),)))),
            Activity("backB", P("1"), InputSpec(P("#B >= 1"), (take("B"),)),
                     (CaseSpec(1.0, (put("A"),)),)),
            Activity("backD", P("4"), InputSpec(P("#D >= 1"), (take("D"),)),
                     (CaseSpec(1.0, (put("A"),)),)),
        ),
        rewards=(RewardPredicate("up", P("#A >= 1")),),
    )
    g = explore(m)
    assert g.n_vanishing == 2
    reduced = eliminate_vanishing(g)
    out = sorted((reduced.marking(e.dst)["B"], e.value)
                 for e in reduced.edges if e.src == reduced.initial)
    assert out == [(0, pytest.approx(0.8, rel=1e-15)), (1, pytest.approx(1.2, rel=1e-15))]
    chain = to_ctmc(reduced, "up")
    assert unavailability(chain, steady_state_gth(chain)) == pytest.approx(7 / 12, rel=1e-12)
    est = simulate(m, "up", horizon=1e5, seed=1)
    assert abs(est.point - 5 / 12) <= est.ci_halfwidth


def test_elimination_without_vanishing_is_identity(two_state):
    g = explore(two_state)
    reduced = eliminate_vanishing(g)
    assert reduced.states == g.states
    assert reduced.edges == g.edges


def test_elimination_preserves_exit_rates(table):
    for name, model in md.builtin_models(table).items():
        g = explore(model)
        reduced = eliminate_vanishing(g)
        before = {}
        for e in g.edges:
            if g.tangible[e.src]:
                before[g.states[e.src]] = before.get(g.states[e.src], 0.0) + e.value
        after = {}
        for e in reduced.edges:
            after[reduced.states[e.src]] = after.get(reduced.states[e.src], 0.0) + e.value
        for state, rate in before.items():
            assert after[state] == pytest.approx(rate, rel=1e-12), (name, state)


def test_meh_exit_rate_from_ok_state(table):
    # Hand sum of the enabled failure intensities in the fully-working state:
    # hypervisor + two VMs + platform software + application.
    expected = (table.lambda_HYP + 2 * table.lambda_VM + table.lambda_SW
                + table.lambda_APP)
    g = eliminate_vanishing(explore(md.build_meh(table)))
    ok = g.states.index(tuple(1 if p == "MEH_OK" else 0 for p in g.place_order))
    total = sum(e.value for e in g.edges if e.src == ok)
    assert total == pytest.approx(expected, rel=1e-12)


def test_vanishing_loop_detected():
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
    with pytest.raises(VanishingLoop):
        eliminate_vanishing(explore(m))


def _self_loop_graph(stay):
    # T0 -1-> V1; V1 stays w.p. stay and leaves for T2 with the rest; T2 -1-> T0.
    return state_graph([True, False, True],
                       [(0, 1, 1.0), (1, 1, stay), (1, 2, 1.0 - stay), (2, 0, 1.0)])


def test_vanishing_self_loop_just_below_one_is_a_loop():
    with pytest.raises(VanishingLoop):
        eliminate_vanishing(_self_loop_graph(1.0 - 1e-13))


def test_vanishing_self_loop_well_below_one_is_renormalized():
    reduced = eliminate_vanishing(_self_loop_graph(1.0 - 1e-9))
    assert reduced.states == [(0,), (2,)]
    assert [(e.src, e.dst, e.label) for e in reduced.edges] == [(0, 1, ""), (1, 0, "")]
    assert reduced.edges[0].value == pytest.approx(1.0, rel=1e-15)
    assert reduced.edges[1].value == 1.0


def test_closed_vanishing_cycle_is_a_loop():
    g = state_graph([True, False, False, False],
                    [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)])
    with pytest.raises(VanishingLoop):
        eliminate_vanishing(g)


def test_to_ctmc_two_state(two_state):
    c = _pipeline(two_state)
    Q = c.Q.toarray()
    lam, mu = 0.1, 0.9
    assert np.allclose(Q, [[-lam, lam], [mu, -mu]], atol=0)
    assert list(c.reward) == [1.0, 0.0]


def test_to_ctmc_ru_matches_hand_built_generator(table):
    c = _pipeline(md.build_ru(table))
    t = table
    # BFS order: OK, then failures in declaration order RH, Ant, FW
    expected = np.array([
        [-(t.lambda_RH + t.lambda_A + t.lambda_FW), t.lambda_RH, t.lambda_A, t.lambda_FW],
        [t.mu_RH, -t.mu_RH, 0.0, 0.0],
        [t.mu_A, 0.0, -t.mu_A, 0.0],
        [t.mu_FW, 0.0, 0.0, -t.mu_FW],
    ])
    assert np.allclose(c.Q.toarray(), expected, rtol=1e-15, atol=0)
    assert list(c.reward) == [1.0, 0.0, 0.0, 0.0]


def test_generator_row_sums_are_zero(table):
    for name, model in md.builtin_models(table).items():
        c = _pipeline(model)
        sums = np.asarray(c.Q.sum(axis=1)).ravel()
        assert np.max(np.abs(sums)) < 1e-12, name


def test_absorbing_state_rejected():
    m = SanModel(
        places=(Place("Up", 1), Place("Dead", 0)),
        parameters={"lam": 0.5},
        activities=(
            Activity("die", P("lam"), InputSpec(P("#Up >= 1"), (take("Up"),)),
                     (CaseSpec(1.0, (put("Dead"),)),)),
        ),
        rewards=(RewardPredicate("up", P("#Up >= 1")),),
    )
    with pytest.raises(NotIrreducible) as err:
        _pipeline(m)
    assert str(err.value) == ("chain splits into 2 communicating classes: "
                              "class 0: 1 states (closed); class 1: 1 states")


def test_unknown_reward(two_state):
    with pytest.raises(UnknownReward):
        to_ctmc(eliminate_vanishing(explore(two_state)), "nonsense")


def test_to_ctmc_rejects_vanishing_graph(table):
    g = explore(md.build_du(table))
    with pytest.raises(ValueError):
        to_ctmc(g, "up")


def test_debug_dump_format(two_state):
    g = explore(two_state)
    lines = g.dump_text().splitlines()
    assert lines[0] == "state_0 -> state_1 rate 0.1 label fail/0"
    assert lines[1] == "state_1 -> state_0 rate 0.9 label repair/0"


def test_builtin_state_spaces_are_small(table):
    # all built-ins explore comfortably below the default cap
    for name, model in md.builtin_models(table).items():
        g = explore(model, max_states=100_000)
        assert g.n_states < 1000, (name, g.n_states)


# sha256 of (states, tangible, [(src, dst, value.hex(), label)]), recorded
# from the marking-by-marking explorer.  The built-in models and their .san
# files explore to the same graphs.
GRAPH_SHA256 = {
    "ru": "c01854b8e4ff528e5d37cec32424bc266fb6bbaffe8d149b0615d26685db2b90",
    "du": "343c1a4fd7c193b68dbf5497525e70440407d70d292fe25be2e7dc899bba9f80",
    "cu": "a6dc69f41e63f2ca5a48f9a95e1cb00eb7e20dadbe62ca15c21a86a43450978d",
    "meh": "fd9b13c2113884a5e9b2ad213e26d89667a385f05424146d1d521e0b5152980f",
    "cluster": "8958c4598f9f8daa087f19e52e16919bfb660dce3e7ce818afc86408d6e8c70f",
}
CLUSTER_15_13_SHA256 = "957de89753fe42a1754eb167b923b3dabed4e86607b3a8c2ae352d243a301d38"


def _graph_sha256(g):
    payload = (g.states, g.tangible,
               [(e.src, e.dst, float(e.value).hex(), e.label) for e in g.edges])
    return hashlib.sha256(repr(payload).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GRAPH_SHA256))
def test_builtin_graphs_are_pinned(table, name):
    assert _graph_sha256(explore(md.builtin_models(table)[name])) == GRAPH_SHA256[name]
    text = (MODELS / f"{name}.san").read_text(encoding="utf-8")
    assert _graph_sha256(explore(parse_model(text))) == GRAPH_SHA256[name]


@pytest.mark.parametrize("block_min", [1, statespace._BLOCK_MIN, 10**9])
def test_cluster_15_13_graph_is_pinned_on_either_path(table, monkeypatch, block_min):
    # every level as a block, the default split, every level marking by marking
    monkeypatch.setattr(statespace, "_BLOCK_MIN", block_min)
    g = explore(md.build_cluster(table.with_overrides(M=15, K=13)))
    assert _graph_sha256(g) == CLUSTER_15_13_SHA256


@pytest.mark.parametrize("name", sorted(GRAPH_SHA256))
def test_max_states_is_exact(table, name):
    model = md.builtin_models(table)[name]
    n = explore(model).n_states
    assert explore(model, max_states=n).n_states == n
    with pytest.raises(StateSpaceExceeded, match=f"max_states={n - 1}"):
        explore(model, max_states=n - 1)


@pytest.mark.parametrize("max_states", [0, -3])
def test_non_positive_max_states_rejected(two_state, max_states):
    with deadline(5), pytest.raises(ValueError, match="max_states must be at least 1"):
        explore(two_state, max_states=max_states)


def test_block_path_evaluates_only_where_the_scalar_step_does(monkeypatch):
    # The timed predicate divides by zero at the vanishing markings (#V = 1),
    # and the repair rate wherever #Down = 0: the scalar step evaluates
    # neither there, so the block path must not either, or it would fall back.
    # Every level past the first mixes vanishing and tangible markings, and
    # tangible ones with and without a token in Down.
    m = SanModel(
        places=(Place("Up", 6), Place("V", 0), Place("Down", 0), Place("Worn", 0)),
        parameters={},
        activities=(
            Activity("wear", P("1"), InputSpec(P("#Up >= 1 and #Worn = 0"), (take("Up"),)),
                     (CaseSpec(1.0, (put("Worn"),)),)),
            Activity("mend", P("2"), InputSpec(P("#Worn >= 1"), (take("Worn"),)),
                     (CaseSpec(1.0, (put("Up"),)),)),
            Activity("fail", P("0.5 * #Up"),
                     InputSpec(P("#Up >= 1 and 1 / (1 - #V) > 0"), (take("Up"),)),
                     (CaseSpec(0.5, (put("V"),)), CaseSpec(0.5, (put("Down"),)))),
            Activity("split", None, InputSpec(P("#V >= 1"), (take("V"),)),
                     (CaseSpec(0.25, (put("Down"),)), CaseSpec(0.0, (put("Up", 9),)),
                      CaseSpec(0.75, (put("Up"),)))),
            Activity("repair", P("1 / #Down"), InputSpec(P("#Down >= 1"), (take("Down"),)),
                     (CaseSpec(1.0, (put("Up"),)),)),
        ),
        rewards=(RewardPredicate("up", P("#Up >= 1")),),
    )
    fallbacks = []
    block_level = statespace._block_level

    def recorded(*args):
        try:
            return block_level(*args)
        except Exception as err:
            fallbacks.append(err)
            raise

    monkeypatch.setattr(statespace, "_block_level", recorded)
    monkeypatch.setattr(statespace, "_BLOCK_MIN", 1)
    g = explore(m)
    assert fallbacks == []
    assert g.n_vanishing > 0
    monkeypatch.setattr(statespace, "_BLOCK_MIN", 10**9)
    scalar = explore(m)
    assert (g.states, g.tangible, g.edges) == (scalar.states, scalar.tangible, scalar.edges)


def _countdown(rate="1", gate=(), case=()):
    """A -> B one token at a time, from 3 tokens in A, with extra effects."""
    return SanModel(
        places=(Place("A", 3), Place("B", 0)),
        parameters={},
        activities=(Activity("t", P(rate), InputSpec(P("#A >= 1"), (take("A"),) + gate),
                             (CaseSpec(1.0, (put("B"),) + case),)),),
        rewards=(RewardPredicate("up", P("#A >= 1")),),
    )


@pytest.mark.parametrize("model, error", [
    # the gate takes a token B lacks and the case gives it back
    (_countdown(gate=(take("B"),), case=(put("B"),)), NegativeTokens),
    # the rate is zero at A = 1, two levels down
    (_countdown(rate="#A - 1"), EvaluationError),
    (_countdown(case=(set_to("B", P("6 / (#A - 1)")),)), DivisionByZero),
    (_countdown(case=(set_to("B", P("#A / 2")),)), ValueError),
])
def test_block_errors_replay_through_scalar_step(monkeypatch, model, error):
    messages = []
    for block_min in (1, 10**9):
        monkeypatch.setattr(statespace, "_BLOCK_MIN", block_min)
        with pytest.raises(error) as err:
            explore(model)
        messages.append(str(err.value))
    assert messages[0] == messages[1]

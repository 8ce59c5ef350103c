"""Fault-tree algebra: gates, closed forms, structural equivalence."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from edgeavail.errors import ParseError
from edgeavail.faulttree import (And, BasicEvent, KofN, Or, RedundancyConfig,
                                 build_5gmec_ft, eval_ft, parse_ft,
                                 system_unavailability, to_ft_text, u_ran,
                                 u_sys)


def B(u, name="e"):
    return BasicEvent(name, u)


def test_gate_basics():
    assert eval_ft(Or((B(0.0), B(0.0), B(0.0)))) == 0.0
    assert eval_ft(And((B(0.5), B(0.5)))) == 0.25
    assert eval_ft(Or((B(0.5), B(0.5)))) == 0.75
    assert eval_ft(B(0.3)) == 0.3


def test_kofn_against_brute_force_enumeration():
    # oracle: direct enumeration of all 2^n outcomes
    def brute(k, us):
        total = 0.0
        for outcome in itertools.product((0, 1), repeat=len(us)):  # 1 = failed
            p = 1.0
            for failed, u in zip(outcome, us):
                p *= u if failed else (1.0 - u)
            if len(us) - sum(outcome) < k:
                total += p
        return total

    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 10)
        k = rng.randint(1, n)
        us = [rng.random() for _ in range(n)]
        node = KofN(k, tuple(B(u, f"e{i}") for i, u in enumerate(us)))
        assert eval_ft(node) == pytest.approx(brute(k, us), abs=1e-12)


def test_kofn_nine_of_ten_identical():
    # 1 - 0.9^10 - 10 * 0.9^9 * 0.1, failure when fewer than nine work
    node = KofN(9, tuple(B(0.1, f"e{i}") for i in range(10)))
    expected = 1.0 - 0.9 ** 10 - 10 * 0.9 ** 9 * 0.1
    assert eval_ft(node) == pytest.approx(expected, abs=1e-12)
    assert eval_ft(node) == pytest.approx(0.2639, abs=5e-5)


def test_node_invariants():
    with pytest.raises(ValueError):
        B(1.5)
    with pytest.raises(ValueError):
        And(())
    with pytest.raises(ValueError):
        KofN(4, (B(0.1), B(0.2)))
    with pytest.raises(ValueError):
        RedundancyConfig(0, 1, 1, 1)


def test_u_ran_hand_values():
    cfg = RedundancyConfig(1, 1, 1, 1)
    assert u_ran(0.0, 0.0, 0.0, cfg) == 0.0
    # 1 - (1 - 0.5)(1 - 0.5)(1 - 0.5) = 0.875 at unit redundancy
    assert u_ran(0.5, 0.5, 0.5, cfg) == pytest.approx(0.875, abs=1e-15)


def test_u_ran_monotone_in_radio_redundancy():
    cfg = lambda nr: RedundancyConfig(1, 1, nr, 1)
    values = [u_ran(0.3, 0.2, 0.1, cfg(nr)) for nr in range(1, 14)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    # the radio term (0.3^N_R) dies away, leaving the du/cu series combination
    limit = 1 - (1 - 0.2) * (1 - 0.1)
    assert values[-1] == pytest.approx(limit, abs=1e-6)


def test_u_sys_hand_values():
    assert u_sys(0.0, 0.0, 0.0, 0.0, 1) == 0.0
    assert u_sys(0.875, 0.5, 0.5, 0.5, 1) == pytest.approx(0.984375, abs=1e-15)


def test_structure_equals_closed_form_everywhere():
    rng = random.Random(99)
    # all redundancy settings from the reference grid plus random corners
    grid = {(nc, nd, nr, nh) for nc in (1, 2, 3) for nd in (1, 2, 3)
            for nr in (1, 2, 3) for nh in (1, 2, 3)}
    for nc, nd, nr, nh in sorted(grid):
        cfg = RedundancyConfig(nc, nd, nr, nh)
        for _ in range(5):
            us = {k: rng.random() for k in ("ru", "du", "cu", "meh", "5gc", "mano")}
            structural = eval_ft(build_5gmec_ft(cfg, us))
            closed = system_unavailability(us, cfg)
            assert structural == pytest.approx(closed, abs=1e-12)


def test_monotone_in_every_element():
    cfg = RedundancyConfig(2, 2, 2, 2)
    base = {k: 0.2 for k in ("ru", "du", "cu", "meh", "5gc", "mano")}
    u0 = system_unavailability(base, cfg)
    for key in base:
        worse = dict(base, **{key: 0.4})
        assert system_unavailability(worse, cfg) >= u0, key


def test_eval_stays_in_unit_interval():
    rng = random.Random(17)
    for _ in range(200):
        node = Or((And((B(rng.random()), B(rng.random()))),
                   KofN(2, (B(rng.random()), B(rng.random()), B(rng.random())))))
        assert 0.0 <= eval_ft(node) <= 1.0


def test_parse_ft_round_trip():
    text = "or(basic(core, 0.1), kofn(2, basic(a, 0.2), basic(b, 0.2), basic(c, 0.2)))"
    tree = parse_ft(text)
    assert isinstance(tree, Or)
    assert parse_ft(to_ft_text(tree)) == tree
    # 2-of-3 over u=0.2: P(fewer than 2 work) = 3 * 0.2^2 * 0.8 + 0.2^3
    expected = 1 - (1 - 0.1) * (1 - (3 * 0.04 * 0.8 + 0.008))
    assert eval_ft(tree) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("bad", ["", "or()", "basic(x)", "basic(x, 2)",
                                 "kofn(0, basic(a, 0.1))", "and(basic(a, 0.1)",
                                 "nand(basic(a, 0.1))", "or(basic(a, 0.1)) extra"])
def test_parse_ft_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_ft(bad)


# ── accuracy against exact rational arithmetic ──────────────────────────────

ELEMENTS = ("ru", "du", "cu", "meh", "5gc", "mano")


def _exact_or(us):
    ok = Fraction(1)
    for u in us:
        ok *= 1 - Fraction(u)
    return 1 - ok


def _exact_ran(us, cfg):
    branch = _exact_or((us["du"], Fraction(us["ru"]) ** cfg.N_R))
    return _exact_or((us["cu"], branch ** cfg.N_D)) ** cfg.N_C


def _exact_sys(us, ran, cfg):
    return _exact_or((ran, us["5gc"], us["mano"], Fraction(us["meh"]) ** cfg.N_H))


def _rel_err(value, exact):
    return float(abs(Fraction(value) - exact) / exact)


def test_composition_matches_exact_arithmetic_at_small_u():
    # 1 - prod(1 - u) would lose about log10(1/U) digits here
    rng = random.Random(2026)
    worst = dict.fromkeys(("u_ran", "u_sys", "system", "tree", "or"), 0.0)
    for _ in range(2000):
        us = {k: 10.0 ** rng.uniform(-13.0, -3.0) for k in ELEMENTS}
        cfg = RedundancyConfig(*(rng.randint(1, 4) for _ in range(4)))
        ran = u_ran(us["ru"], us["du"], us["cu"], cfg)
        exact_ran = _exact_ran(us, cfg)
        exact_sys = _exact_sys(us, exact_ran, cfg)
        got = {
            "u_ran": _rel_err(ran, exact_ran),
            "u_sys": _rel_err(u_sys(ran, us["5gc"], us["mano"], us["meh"], cfg.N_H),
                              _exact_sys(us, Fraction(ran), cfg)),
            "system": _rel_err(system_unavailability(us, cfg), exact_sys),
            "tree": _rel_err(eval_ft(build_5gmec_ft(cfg, us)), exact_sys),
            "or": _rel_err(eval_ft(Or(tuple(B(us[k], k) for k in ELEMENTS))),
                           _exact_or(us.values())),
        }
        worst = {k: max(worst[k], got[k]) for k in worst}
    assert max(worst.values()) < 1e-14, worst


def test_a_certain_failure_gives_exactly_one():
    cfg = RedundancyConfig(2, 3, 2, 2)
    assert u_ran(0.1, 0.2, 1.0, cfg) == 1.0
    assert u_ran(1.0, 1.0, 0.0, RedundancyConfig(1, 1, 1, 1)) == 1.0
    assert u_sys(1.0, 1e-5, 1e-5, 1e-5, 2) == 1.0
    assert u_sys(1e-5, 1e-5, 1.0, 1e-5, 2) == 1.0
    assert eval_ft(Or((B(1e-9), B(1.0), B(0.5)))) == 1.0


def test_all_zero_inputs_give_positive_zero():
    cfg = RedundancyConfig(2, 2, 2, 2)
    zeros = dict.fromkeys(ELEMENTS, 0.0)
    for value in (u_ran(0.0, 0.0, 0.0, cfg), u_sys(0.0, 0.0, 0.0, 0.0, 1),
                  system_unavailability(zeros, cfg), eval_ft(build_5gmec_ft(cfg, zeros)),
                  eval_ft(Or((B(0.0), B(0.0))))):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

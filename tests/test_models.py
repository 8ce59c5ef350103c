"""Built-in element models: defaults, topologies, limiting behavior."""

import dataclasses

import numpy as np
import pytest

from edgeavail import models as md
from edgeavail import statespace
from edgeavail.document import parse_model
from edgeavail.errors import EvaluationError
from edgeavail.experiments import table_hash
from edgeavail.models import ElementKind, element_unavailability
from edgeavail.san import compiled
from edgeavail.solver import steady_state_gth, unavailability
from edgeavail.statespace import eliminate_vanishing, explore, to_ctmc

from conftest import MODELS


def _solve(model):
    c = to_ctmc(eliminate_vanishing(explore(model)), "up")
    return unavailability(c, steady_state_gth(c))


def test_default_catalog_conversions(table):
    # spot-check the mean-time-to-rate conversions (hours base unit)
    assert table.lambda_RH == pytest.approx(1 / (17 * 8760), abs=0)
    assert table.lambda_A == pytest.approx(1 / (104 * 730), abs=0)
    assert table.lambda_FW == pytest.approx(1 / (75 * 24), abs=0)
    assert table.mu_FW == pytest.approx(60 / 65, rel=1e-12)
    assert table.lambda_SW == pytest.approx(1 / 730, abs=0)
    assert table.mu_SW_r == pytest.approx(120.0, abs=0)
    assert table.mu_APP_r == pytest.approx(240.0, abs=0)
    assert table.mu_HW_fo == pytest.approx(20.0, abs=0)
    assert table.mu_cov == pytest.approx(2.0, abs=0)
    assert (table.M, table.K) == (10, 9)
    assert table.C_HW == 0.97 and table.C_APP == 0.8


def test_default_table_is_the_pinned_catalog():
    assert md.default_table() == md.IntensityTable()
    assert table_hash(md.IntensityTable()) == "ac5e64ed856c"


@pytest.mark.parametrize("name", ["ru", "du", "cu", "meh", "cluster"])
def test_documents_declare_the_catalog_defaults(name):
    doc = parse_model((MODELS / f"{name}.san").read_text(encoding="utf-8"))
    catalog = md.IntensityTable()
    declared = [f.name for f in dataclasses.fields(catalog) if f.name in doc.parameters]
    assert declared
    for field in declared:
        literal = doc.parameters[field]
        assert isinstance(literal, float), field   # a literal, not derived
        assert literal == getattr(catalog, field), field   # so M and K are whole


def test_catalog_validation():
    with pytest.raises(ValueError):
        md.default_table().with_overrides(lambda_SW=0.0)
    with pytest.raises(ValueError):
        md.default_table().with_overrides(C_OS=1.5)
    for name, value in (("lambda_SW", float("inf")), ("mu_SW", float("nan")),
                        ("alpha_S", float("inf"))):
        with pytest.raises(ValueError, match=f"rates must be > 0 and finite: {name}="):
            md.default_table().with_overrides(**{name: value})
    with pytest.raises(ValueError):
        md.default_table().with_overrides(K=11)
    with pytest.raises(KeyError):
        md.default_table().with_overrides(no_such_rate=1.0)


def test_cluster_sizes_must_be_whole_numbers():
    t = md.default_table()
    assert (t.with_overrides(M=10.0, K=8.0).M, t.with_overrides(K=8.0).K) == (10, 8)
    assert isinstance(t.with_overrides(K=8.0).K, int)
    with pytest.raises(ValueError, match="K must be a whole number, got 8.7"):
        t.with_overrides(K=8.7)
    with pytest.raises(ValueError, match="M must be a whole number"):
        t.with_overrides(M=float("inf"))


def test_ru_unavailability_magnitude(table):
    u = _solve(md.build_ru(table))
    assert u == pytest.approx(7.2e-4, rel=2e-3)


def test_ru_perfect_repair_limit(table):
    # mu -> infinity: downtime vanishes
    fast = table.with_overrides(mu_RH=table.mu_RH * 1e6, mu_A=table.mu_A * 1e6,
                                mu_FW=table.mu_FW * 1e6)
    assert _solve(md.build_ru(fast)) < 1e-8


def test_cu_beats_du(table):
    # hardware redundancy helps: same OS/SW stack, protected hardware
    assert _solve(md.build_cu(table)) < _solve(md.build_du(table))


def test_cu_fast_perfect_failover_approaches_software_only_model(table):
    # with instant, always-successful failover the hardware contribution
    # vanishes; compare against the unredundant model with hardware failures
    # effectively disabled (same OS/SW structure and rates)
    fast = table.with_overrides(mu_HW_fo=table.mu_HW_fo * 1e6, C_HW=1.0)
    u_cu = _solve(md.build_cu(fast))
    no_hw = table.with_overrides(lambda_HW=1e-30)
    u_ref = _solve(md.build_du(no_hw))
    assert u_cu == pytest.approx(u_ref, abs=1e-6)


def test_du_full_software_coverage_removes_hard_repair(table):
    g = explore(md.build_du(table.with_overrides(C_SW=1.0)))
    assert all(g.marking(i)["SW_Urep"] == 0 for i in range(g.n_states))


def test_cluster_per_instance_rate_at_unit_settings(table):
    values = md.build_cluster(table.with_overrides(M=1, K=1)).parameter_values()
    assert values["lambda_Hi"] == pytest.approx(table.lambda_HW, abs=0)
    assert values["lambda_Oi"] == pytest.approx(table.lambda_OS, abs=0)


def test_cluster_alpha_scales_rates(table):
    m = md.build_cluster(table.with_overrides(alpha_H=2.5))
    assert m.parameter_values()["lambda_Hi"] == pytest.approx(
        2.5 * table.lambda_HW * table.M / table.K, rel=1e-15)


def test_cluster_spare_instance_buys_two_orders(table):
    u_none = element_unavailability(ElementKind.CLUSTER_5GC,
                                    table.with_overrides(K=10))
    u_one = element_unavailability(ElementKind.CLUSTER_5GC, table)
    assert u_none / u_one >= 50


def test_cluster_bad_settings_rejected(table):
    with pytest.raises(ValueError):
        md.build_cluster(table.with_overrides(M=3, K=4))


def test_element_unavailability_all_kinds_in_sane_band(table):
    for kind in ElementKind:
        u = element_unavailability(kind, table)
        assert 0.0 < u < 0.1, kind


def test_failure_rate_increase_never_helps(table):
    # bump each failure intensity tenfold; unavailability must not drop
    cases = [
        (ElementKind.RU, "lambda_FW"), (ElementKind.RU, "lambda_RH"),
        (ElementKind.DU, "lambda_HW"), (ElementKind.DU, "lambda_SW"),
        (ElementKind.CU, "lambda_HW"), (ElementKind.MEH, "lambda_APP"),
        (ElementKind.MEH, "lambda_VM"), (ElementKind.CLUSTER_5GC, "lambda_SW"),
        (ElementKind.CLUSTER_5GC, "lambda_HW"),
    ]
    for kind, name in cases:
        base = element_unavailability(kind, table)
        worse = element_unavailability(
            kind, table.with_overrides(**{name: getattr(table, name) * 10}))
        assert worse >= base, (kind, name)


def test_5gc_and_mano_share_the_model(table):
    assert (element_unavailability(ElementKind.CLUSTER_5GC, table)
            == element_unavailability(ElementKind.CLUSTER_MANO, table))


def test_both_cluster_kinds_share_one_cache_entry(table):
    element_unavailability.cache_clear()
    {k: element_unavailability(k, table) for k in ElementKind}
    assert element_unavailability.cache_info().misses == 5


def test_a_table_change_is_solved_only_by_the_documents_that_bind_it(table):
    element_unavailability.cache_clear()
    for t in (table, table.with_overrides(alpha_H=10.0, K=8)):
        for kind in ElementKind:
            element_unavailability(kind, t)
    # only the cluster document binds alpha_H and K; the other four hit
    assert element_unavailability.cache_info() == (6, 6, None, 6)


def test_builders_parse_each_text_once(table):
    a = md.build_cluster(table)
    b = md.build_cluster(table.with_overrides(M=12, K=11))
    assert a.activities[0].input.predicate is b.activities[0].input.predicate
    assert a.rewards[0].predicate is b.rewards[0].predicate


def test_element_unavailability_is_cached_and_reproducible(table):
    first = element_unavailability(ElementKind.DU, table)
    again = element_unavailability(ElementKind.DU, table)
    assert first == again
    element_unavailability.cache_clear()
    assert element_unavailability(ElementKind.DU, table) == first


# ── batches of the element cache ────────────────────────────────────────────

_KINDS = (ElementKind.RU, ElementKind.DU, ElementKind.CU, ElementKind.MEH,
          ElementKind.CLUSTER_5GC)

# rates and coverage factors in (0, 1): every table keeps the default structure;
# DU's software recovery is instantaneous, so C_SW weighs vanishing edges there
_VARIED = (
    {"C_SW": 0.5, "C_OS": 0.3, "C_HW": 0.6, "C_VM": 0.45, "C_HYP": 0.2, "C_APP": 0.55},
    {"lambda_SW": 0.01, "mu_SW_r": 7.0, "mu_OS": 3.0, "lambda_RH": 1e-3,
     "mu_HW_fo": 0.5, "mu_VM": 0.25, "lambda_APP": 0.02, "mu_A": 0.04},
    {"C_SW": 0.999, "C_APP": 1e-6, "lambda_HW": 0.3, "mu_cov": 9.0, "K": 6,
     "alpha_S": 100.0, "alpha_H": 0.01, "alpha_O": 10.0},
)


@pytest.fixture
def counted_explore(monkeypatch):
    """Clears the element cache and counts the explorations it runs."""
    calls = []

    def counting(model, *args):
        calls.append(model)
        return explore(model, *args)

    element_unavailability.cache_clear()
    monkeypatch.setattr(md, "explore", counting)
    yield calls
    element_unavailability.cache_clear()


def _assert_same_chains(kind, tables):
    warm = md._chains([md.build_element(kind, t) for t in tables])
    for t, chain in zip(tables, warm, strict=True):
        cold = to_ctmc(eliminate_vanishing(explore(md.build_element(kind, t))), "up")
        assert chain.states == cold.states
        assert np.array_equal(chain.Q.toarray(), cold.Q.toarray())
        assert np.array_equal(chain.reward, cold.reward)


def test_structure_level_gives_cold_results_for_every_kind(table, counted_explore):
    for kind in _KINDS:
        tables = [table.with_overrides(**overrides) for overrides in ({}, *_VARIED)]
        assert (md.element_unavailabilities(kind, tables)
                == [_solve(md.build_element(kind, t)) for t in tables])
    # one exploration per kind; every other table was revalued
    assert len(counted_explore) == len(_KINDS)
    for kind in _KINDS:
        _assert_same_chains(kind, [table.with_overrides(**o) for o in ({}, *_VARIED)])


@pytest.mark.parametrize("M, K", [(8, 5), (10, 9), (12, 11), (15, 13)])
def test_structure_level_on_cluster_sizes(table, counted_explore, M, K):
    base = table.with_overrides(M=M, K=K)
    tables = [base] + [base.with_overrides(**overrides) for overrides in (
        {"K": K - 1}, {"K": M, "alpha_S": 50.0},
        {"alpha_H": 0.02, "alpha_O": 30.0, "C_OS": 0.4})]
    assert (md.element_unavailabilities(ElementKind.CLUSTER_MANO, tables)
            == [_solve(md.build_cluster(t)) for t in tables])
    assert len(counted_explore) == 1
    _assert_same_chains(ElementKind.CLUSTER_5GC, tables)


def test_batch_explores_each_structure_once_and_keeps_order(table, counted_explore):
    # M = 8 and M = 10 interleaved, one table twice, one already cached
    cached = table.with_overrides(K=7)
    element_unavailability(ElementKind.CLUSTER_5GC, cached)
    tables = [table.with_overrides(M=m, K=k) for m, k in ((8, 7), (10, 9), (8, 6), (10, 8))]
    batch = tables + [tables[1], cached]
    got = md.element_unavailabilities(ElementKind.CLUSTER_5GC, batch)
    assert got == [_solve(md.build_cluster(t)) for t in batch]
    assert len(counted_explore) == 1 + 2
    assert element_unavailability.cache_info() == (2, 5, None, 5)


def test_structure_holds_what_the_graph_depends_on(table):
    def structure(**overrides):
        return compiled(md.build_cluster(table.with_overrides(**overrides))).structure

    key = structure()
    for same in ({"K": 6}, {"alpha_S": 100.0}, {"C_SW": 0.5}, {"mu_HW": 9.0}):
        assert structure(**same) == key
    for other in ({"M": 9, "K": 9}, {"C_SW": 1.0}, {"C_HW": 0.0}):
        assert structure(**other) != key


def test_overflowing_rate_raises_as_a_cold_solve_does(table, counted_explore):
    bad = table.with_overrides(alpha_S=1e308, lambda_SW=1e3)
    with pytest.raises(EvaluationError) as warm:
        md.element_unavailabilities(ElementKind.CLUSTER_5GC,
                                    [table, bad, table.with_overrides(K=8)])
    # the table before the bad one was solved and cached, the one after was not
    assert element_unavailability.cache_info().currsize == 1
    element_unavailability.cache_clear()
    with pytest.raises(EvaluationError) as cold:
        element_unavailability(ElementKind.CLUSTER_5GC, bad)
    assert "has rate inf" in str(cold.value)
    assert str(warm.value) == str(cold.value)


def test_cache_clear_empties_the_cache_and_its_counts(table, counted_explore):
    element_unavailability(ElementKind.RU, table)
    element_unavailability(ElementKind.RU, table)
    assert element_unavailability.cache_info() == (1, 1, None, 1)
    element_unavailability.cache_clear()
    assert element_unavailability.cache_info() == (0, 0, None, 0)
    element_unavailability(ElementKind.RU, table)
    assert len(counted_explore) == 2

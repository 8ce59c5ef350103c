"""Sweep runners: row structure, caching, CSV schema, reproducibility."""

import csv
import hashlib
import io

import pytest

from edgeavail import experiments as xp
from edgeavail.faulttree import RedundancyConfig, u_ran, u_sys
from edgeavail.models import ElementKind, element_unavailability


@pytest.fixture(scope="module")
def table():
    from edgeavail.models import default_table
    return default_table()


@pytest.fixture(scope="module")
def table3(table):
    return xp.run_table3(table, jobs=1)


def test_table3_has_36_rows_in_grid_order(table3):
    assert len(table3.rows) == 36
    assert [(r.N_C, r.N_D, r.N_R, r.N_H) for r in table3.rows] == xp.TABLE3_CONFIGS
    assert all(r.M_5gc == 10 and r.K_5gc == 9 for r in table3.rows)


def test_table3_rows_match_direct_closed_form(table, table3):
    us = {k.value: element_unavailability(k, table)
          for k in (ElementKind.RU, ElementKind.DU, ElementKind.CU,
                    ElementKind.MEH, ElementKind.CLUSTER_5GC,
                    ElementKind.CLUSTER_MANO)}
    for row in table3.rows:
        cfg = RedundancyConfig(row.N_C, row.N_D, row.N_R, row.N_H)
        ran = u_ran(us["ru"], us["du"], us["cu"], cfg)
        expected = u_sys(ran, us["5gc"], us["mano"], us["meh"], cfg.N_H)
        assert row.unavailability == expected, row.config


def test_sweeps_are_bit_reproducible(table, table3):
    again = xp.run_table3(table, jobs=1)
    assert [r.unavailability for r in again.rows] == \
           [r.unavailability for r in table3.rows]
    element_unavailability.cache_clear()
    fresh = xp.run_table3(table, jobs=1)
    assert [r.unavailability for r in fresh.rows] == \
           [r.unavailability for r in table3.rows]


def test_csv_schema(table3):
    text = table3.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == xp.CSV_HEADER
    assert len(lines) == 37
    rows = list(csv.DictReader(io.StringIO(text)))
    for raw, row in zip(rows, table3.rows):
        parsed = float(raw["unavailability"])
        assert parsed == pytest.approx(row.unavailability, rel=1e-6)
        # at least six significant digits survive the format
        assert len(raw["unavailability"].replace(".", "").replace("-", "")
                   .split("e")[0].lstrip("0")) >= 6
        assert raw["N_C"] == str(row.N_C)


def test_cluster_sweep_rows(table):
    result = xp.run_cluster_sweep(table, mk_pairs=[(10, 10), (10, 9), (10, 8)],
                                  jobs=1)
    names = [r.config for r in result.rows]
    assert names[:3] == ["both:(M,K)=(10,10)", "both:(M,K)=(10,9)",
                         "both:(M,K)=(10,8)"]
    assert len(result.rows) == 9  # both, 5gc-only, mano-only
    both = {(r.M_5gc, r.K_5gc): r.unavailability for r in result.rows[:3]}
    # no spare instance is the worst configuration by far
    assert both[(10, 10)] == max(r.unavailability for r in result.rows)
    # varying a single cluster keeps the other at the default (10, 9)
    single = result.rows[3]
    assert (single.M_5gc, single.K_5gc) == (10, 10)
    assert (single.M_mano, single.K_mano) == (10, 9)


def test_redundancy_configs(table):
    result = xp.run_redundancy_configs(table, jobs=1)
    names = [r.config for r in result.rows]
    assert names == list(xp.REDUNDANCY_CONFIG_NAMES)
    by_name = {r.config: r.unavailability for r in result.rows}
    assert by_name["full"] == min(by_name.values())
    assert by_name["no-redun"] == max(by_name.values())
    # access-network or edge-host redundancy alone moves little (within 2x)
    assert by_name["no-redun"] / by_name["ran"] < 2.0
    assert by_name["no-redun"] / by_name["meh"] < 2.0


def test_alpha_sweep_shape_and_monotonicity(table):
    result = xp.run_alpha_sweep(table, targets="both", jobs=1)
    assert len(result.rows) == 15
    for start in (0, 5, 10):
        curve = [r.unavailability for r in result.rows[start:start + 5]]
        assert all(a <= b + 1e-15 for a, b in zip(curve, curve[1:]))
    # the identity multiplier reproduces the fully-redundant baseline
    baseline = xp.run_redundancy_configs(table, jobs=1).rows[-1].unavailability
    for offset in (2, 7, 12):  # alpha = 1 position on each curve
        assert result.rows[offset].unavailability == baseline


def test_alpha_sweep_single_target(table):
    result = xp.run_alpha_sweep(table, targets="mano", values=(0.5, 1.0), jobs=1)
    assert all("targets=mano" in r.config for r in result.rows)
    assert result.rows[0].alpha_H == 0.5 and result.rows[0].alpha_O == 1.0
    # scaling only one of two identical clusters moves U less than scaling both
    element_unavailability.cache_clear()
    both = xp.run_alpha_sweep(table, targets="both", values=(0.5, 1.0), jobs=1)
    # 4 base elements plus one solve per distinct cluster table: the baseline
    # and each of alpha_H, alpha_O, alpha_S at 0.5, shared by both clusters
    assert element_unavailability.cache_info().misses == 8
    assert (result.rows[0].unavailability > both.rows[0].unavailability)


@pytest.mark.parametrize("targets", ["both", "5gc", "mano"])
def test_alpha_sweep_reports_the_multipliers_it_holds(table, targets):
    # the multipliers a row does not sweep are the table's, not 1.0
    t = table.with_overrides(alpha_O=2.0, alpha_S=3.0)
    rows = xp.run_alpha_sweep(t, targets=targets, values=(0.1,)).rows
    assert [(r.alpha_H, r.alpha_O, r.alpha_S) for r in rows] == [
        (0.1, 2.0, 3.0), (1.0, 0.1, 3.0), (1.0, 2.0, 0.1)]


def test_alpha_values_must_be_positive(table):
    with pytest.raises(ValueError):
        xp.run_alpha_sweep(table, values=(0.0, 1.0))
    with pytest.raises(ValueError):
        xp.run_alpha_sweep(table, targets="everything")


def test_parallel_jobs_preserve_order_and_values(table):
    serial = xp.run_cluster_sweep(table, mk_pairs=[(10, 10), (10, 9)], jobs=1)
    parallel = xp.run_cluster_sweep(table, mk_pairs=[(10, 10), (10, 9)], jobs=2)
    assert [r.config for r in serial.rows] == [r.config for r in parallel.rows]
    assert [r.unavailability for r in serial.rows] == \
           [r.unavailability for r in parallel.rows]


def test_metadata(table3, table):
    assert table3.method == "gth"
    assert table3.table_hash == xp.table_hash(table)
    assert table3.timestamp  # iso stamp present


def test_svg_chart(tmp_path):
    series = {"a": [(1, 1e-4), (2, 2e-4)], "b": [(1, 3e-4), (2, 1e-4)]}
    path = tmp_path / "chart.svg"
    text = xp.svg_line_chart(series, path, title="demo")
    assert path.read_text() == text
    assert text == "\n".join([
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="400">',
        '<rect width="640" height="400" fill="white"/>',
        '<text x="320.0" y="20" text-anchor="middle" font-size="14">demo</text>',
        '<path d="M60.0,340.0 L580.0,163.3" fill="none" stroke="#1f77b4" stroke-width="1.5"/>',
        '<text x="584" y="30" font-size="11" fill="#1f77b4">a</text>',
        '<path d="M60.0,60.0 L580.0,340.0" fill="none" stroke="#d62728" stroke-width="1.5"/>',
        '<text x="584" y="46" font-size="11" fill="#d62728">b</text>',
        '<line x1="60" y1="340" x2="580" y2="340" stroke="black"/>',
        '<line x1="60" y1="60" x2="60" y2="340" stroke="black"/>',
        '</svg>'])


# sha256 of the five study CSVs on the shipped catalog, as recorded in CHANGES.md.
STUDY_SHA256 = {
    "table3": "0d84b2c5518d0bfec35216ea0274771df6489951fa2751f232612c17638dd3d8",
    "fig6": "139949215b69936d90f8d4082bc154e9d9ac88615c1f23f8ded3ed8306c090d1",
    "fig7": "5b1a47771cbea81b57221e3b55431add7eed7265e02d9abb951cd61c48cbbb0c",
    "fig8": "30ca899a436a9c8711657e395896d5ae1b2002bf386959e0dfb5e3a34f34ed26",
    "fig9": "d77f2374879546aebaca5eafe4d7edde2ac359ba36c0baa192d751273128850f",
}


# Element cache traffic of each study from an empty cache: the four base
# elements at the table, plus one miss per distinct cluster table.
STUDY_CACHE_INFO = {
    "table3": (0, 5, None, 5),
    "fig6": (0, 9, None, 9),
    "fig7": (0, 6, None, 6),
    "fig8": (0, 17, None, 17),
    "fig9": (0, 17, None, 17),
}


@pytest.mark.parametrize("study", sorted(STUDY_SHA256))
def test_study_csvs_are_byte_identical(table, study):
    element_unavailability.cache_clear()
    csv_text = xp.STUDIES[study](table, jobs=1).to_csv()
    assert hashlib.sha256(csv_text.encode("utf-8")).hexdigest() == STUDY_SHA256[study]
    assert element_unavailability.cache_info() == STUDY_CACHE_INFO[study]


def test_studies_list_every_bundled_study():
    assert sorted(xp.STUDIES) == sorted(STUDY_SHA256)


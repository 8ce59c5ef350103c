"""The names the benchmark's tracer patches still exist and are restored.

``perfbench/tracing.py`` wraps the fault-tree composition and the element
cache where ``edgeavail.experiments`` binds them.  A table3 pass run under
the tracer must count every composition call, and leave the original names
in place afterwards.  The cluster tables reach the cache through
``element_unavailabilities``, which the tracer does not wrap, so the cache
misses are read from ``cache_info``.  A fig6 pass shows the batch sharing
one exploration: every (M, K) of the sweep has M = 10, so the cluster is
explored once and revalued for the other tables.
"""

import edgeavail
from edgeavail import experiments, models
from edgeavail.models import default_table

from conftest import REPO

PATCHED = ("u_ran", "u_sys", "element_unavailability")
PATCHED_IN_MODELS = ("explore", "eliminate_vanishing", "to_ctmc", "steady_state_gth")


def test_table3_under_the_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import tracing

    before = {name: getattr(experiments, name) for name in PATCHED}
    before_models = {name: getattr(models, name) for name in PATCHED_IN_MODELS}
    edgeavail.element_unavailability.cache_clear()
    tracer = tracing.Tracer()
    with tracing.installed(edgeavail, tracer):
        rows = edgeavail.run_table3(default_table(), jobs=1).rows
    metrics = tracing.layer_metrics(tracer, 1.0, 1.0)
    assert len(rows) == 36
    assert metrics["faulttree.calls"] == 72      # u_ran and u_sys per row
    # ru, du, cu, meh, one cluster
    assert edgeavail.element_unavailability.cache_info().misses == 5
    assert {name: getattr(experiments, name) for name in PATCHED} == before
    assert {name: getattr(models, name) for name in PATCHED_IN_MODELS} == before_models


def test_fig6_explores_each_structure_once(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import tracing

    edgeavail.element_unavailability.cache_clear()
    tracer = tracing.Tracer()
    with tracing.installed(edgeavail, tracer):
        rows = edgeavail.run_cluster_sweep(default_table(), jobs=1).rows
    metrics = tracing.layer_metrics(tracer, 1.0, 1.0)
    assert len(rows) == 15
    # ru, du, cu, meh, five (10, K)
    assert edgeavail.element_unavailability.cache_info().misses == 9
    assert tracer.self_times()["statespace.explore"][1] == 5
    assert metrics["statespace.states"] == 988      # 946 cluster markings, 42 others
    assert metrics["statespace.edges"] == 4864      # len(g.edges), as the tracer counts
    assert metrics["statespace.vanishing"] == 5

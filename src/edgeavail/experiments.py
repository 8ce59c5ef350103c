"""Parameter-sweep studies over redundancy and failure-intensity settings.

Each runner returns a :class:`SweepResult` whose rows pair a configuration
with the system unavailability obtained from the exact (GTH) pipeline.
Element unavailabilities are solved once per element document and the
catalog entries it binds, and cached, so the fault-tree algebra dominates
nothing; results are bit-for-bit reproducible.  The core-network and manager
clusters share one document, so each distinct cluster table is solved once,
whichever cluster uses it.  A study's cluster tables go to
``models.element_unavailabilities`` as one batch, which explores each model
structure (``CompiledModel.structure``) once: the studies vary K and the
multipliers at M = 10, so their cluster tables share one marking graph,
each only recomputes its weights, and their GTH solves share one stage plan
and stacked dense kernel.  Rows are ordered by configuration.

CSV schema (at least six significant digits)::

    config,N_C,N_D,N_R,N_H,M_5gc,K_5gc,M_mano,K_mano,alpha_H,alpha_O,alpha_S,unavailability
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import io
from dataclasses import astuple, dataclass, fields
from functools import partial

from . import expr as ex
from .faulttree import RedundancyConfig, u_ran, u_sys
from .models import (ElementKind, IntensityTable, element_unavailabilities,
                     element_unavailability)

# Reference redundancy grid: each block varies one knob over 1..3 while the
# others stay at 1 (alongside the no-redundancy row) or at 2..3 with it.
TABLE3_CONFIGS = [
    (1, 1, 1, 1), (2, 1, 1, 1), (3, 1, 1, 1),
    (1, 2, 2, 2), (2, 2, 2, 2), (3, 2, 2, 2),
    (1, 3, 3, 3), (2, 3, 3, 3), (3, 3, 3, 3),

    (1, 1, 1, 1), (1, 2, 1, 1), (1, 3, 1, 1),
    (2, 1, 2, 2), (2, 2, 2, 2), (2, 3, 2, 2),
    (3, 1, 3, 3), (3, 2, 3, 3), (3, 3, 3, 3),

    (1, 1, 1, 1), (1, 1, 2, 1), (1, 1, 3, 1),
    (2, 2, 1, 2), (2, 2, 2, 2), (2, 2, 3, 2),
    (3, 3, 1, 3), (3, 3, 2, 3), (3, 3, 3, 3),

    (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 1, 3),
    (2, 2, 2, 1), (2, 2, 2, 2), (2, 2, 2, 3),
    (3, 3, 3, 1), (3, 3, 3, 2), (3, 3, 3, 3),
]

DEFAULT_MK_SWEEP = [(10, 10), (10, 9), (10, 8), (10, 7), (10, 6)]
DEFAULT_ALPHA_VALUES = (0.01, 0.1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class SweepRow:
    config: str
    N_C: int
    N_D: int
    N_R: int
    N_H: int
    M_5gc: int
    K_5gc: int
    M_mano: int
    K_mano: int
    alpha_H: float
    alpha_O: float
    alpha_S: float
    unavailability: float


CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


@dataclass
class SweepResult:
    rows: list
    table_hash: str
    method: str
    timestamp: str

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_HEADER.split(","))
        for r in self.rows:
            *head, alpha_H, alpha_O, alpha_S, u = astuple(r)
            w.writerow([*head, *map(ex.format_number, (alpha_H, alpha_O, alpha_S)), f"{u:.8e}"])
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


def table_hash(t: IntensityTable) -> str:
    payload = ";".join(f"{f.name}={getattr(t, f.name)!r}" for f in fields(t))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _result(rows, t) -> SweepResult:
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    return SweepResult(rows, table_hash(t), "gth", stamp)


@dataclass(frozen=True)
class _SystemConfig:
    """One full system configuration: redundancy plus both cluster tables."""
    name: str
    cfg: RedundancyConfig
    t_5gc: IntensityTable
    t_mano: IntensityTable


def _evaluate(configs, t: IntensityTable) -> list:
    """System unavailability per configuration."""
    distinct = list(dict.fromkeys(tab for c in configs for tab in (c.t_5gc, c.t_mano)))
    # both cluster kinds build the same model, so one kind stands for both
    solved = dict(zip(distinct, element_unavailabilities(ElementKind.CLUSTER_5GC, distinct)))

    base = {k.value: element_unavailability(k, t)
            for k in (ElementKind.RU, ElementKind.DU, ElementKind.CU, ElementKind.MEH)}
    rows = []
    for c in configs:
        ran = u_ran(base["ru"], base["du"], base["cu"], c.cfg)
        u = u_sys(ran, solved[c.t_5gc], solved[c.t_mano], base["meh"], c.cfg.N_H)
        swept = c.t_mano if c.t_mano != t else c.t_5gc   # the CSV reports its alphas
        rows.append(SweepRow(
            c.name, c.cfg.N_C, c.cfg.N_D, c.cfg.N_R, c.cfg.N_H,
            c.t_5gc.M, c.t_5gc.K, c.t_mano.M, c.t_mano.K,
            swept.alpha_H, swept.alpha_O, swept.alpha_S, u))
    return rows


def run_table3(t: IntensityTable, jobs=None) -> SweepResult:
    """The 36-row redundancy grid; both clusters at the table's (M, K).

    ``jobs`` is ignored; it stays because ``perfbench/workloads.py`` passes it.
    """
    configs = [
        _SystemConfig(f"N_C={nc},N_D={nd},N_R={nr},N_H={nh}",
                      RedundancyConfig(nc, nd, nr, nh), t, t)
        for nc, nd, nr, nh in TABLE3_CONFIGS
    ]
    return _result(_evaluate(configs, t), t)


def run_cluster_sweep(t: IntensityTable, mk_pairs=None, jobs=None) -> SweepResult:
    """Vary cluster (M, K) — both clusters together, then each singly.

    Redundancy is fixed at N_C=N_D=N_R=N_H=2; the un-swept cluster keeps the
    table's own (M, K).  ``jobs`` is ignored; it stays because
    ``perfbench/workloads.py`` passes it.
    """
    mk_pairs = list(mk_pairs or DEFAULT_MK_SWEEP)
    cfg = RedundancyConfig(2, 2, 2, 2)
    configs = []
    for targets in ("both", "5gc", "mano"):
        for m, k in mk_pairs:
            tk = t.with_overrides(M=m, K=k)
            configs.append(_SystemConfig(f"{targets}:(M,K)=({m},{k})", cfg,
                                         tk if targets in ("both", "5gc") else t,
                                         tk if targets in ("both", "mano") else t))
    return _result(_evaluate(configs, t), t)


REDUNDANCY_CONFIG_NAMES = ("no-redun", "ran", "meh", "5gc-and-mano",
                           "5gc-or-mano", "5g", "mec", "full")


def run_redundancy_configs(t: IntensityTable, jobs=None) -> SweepResult:
    """Eight named setups from no redundancy to fully redundant.

    The reference description of the 5g/mec/full setups repeats the
    no-redundancy parameters verbatim (an evident copy-paste slip); what is
    implemented here is the evident intent: 5g = redundant access network
    plus a redundant core cluster, mec = second edge host plus a redundant
    manager cluster, full = everything redundant.  ``jobs`` is ignored; it
    stays because ``perfbench/workloads.py`` passes it.
    """
    plain = t.with_overrides(M=10, K=10)
    spare = t.with_overrides(M=10, K=9)
    one = RedundancyConfig(1, 1, 1, 1)
    configs = [
        _SystemConfig("no-redun", one, plain, plain),
        _SystemConfig("ran", RedundancyConfig(2, 2, 2, 1), plain, plain),
        _SystemConfig("meh", RedundancyConfig(1, 1, 1, 2), plain, plain),
        _SystemConfig("5gc-and-mano", one, spare, spare),
        _SystemConfig("5gc-or-mano", one, spare, plain),
        _SystemConfig("5g", RedundancyConfig(2, 2, 2, 1), spare, plain),
        _SystemConfig("mec", RedundancyConfig(1, 1, 1, 2), plain, spare),
        _SystemConfig("full", RedundancyConfig(2, 2, 2, 2), spare, spare),
    ]
    return _result(_evaluate(configs, t), t)


def run_alpha_sweep(t: IntensityTable, targets: str = "both", values=None,
                    jobs=None) -> SweepResult:
    """Scale one failure-intensity multiplier at a time on the cluster model.

    ``targets`` picks which cluster the multiplier applies to: ``both``,
    ``5gc``, or ``mano``.  Three curves (alpha_H, alpha_O, alpha_S), each over
    ``values``; redundancy fixed at N_C=N_D=N_R=N_H=2 and clusters at the
    table's (M, K).  ``jobs`` is ignored; it stays because
    ``perfbench/workloads.py`` passes it.
    """
    if targets not in ("both", "5gc", "mano"):
        raise ValueError(f"targets must be both|5gc|mano, got {targets!r}")
    values = tuple(values or DEFAULT_ALPHA_VALUES)
    if any(not v > 0 for v in values):
        raise ValueError("alpha values must be > 0")
    cfg = RedundancyConfig(2, 2, 2, 2)
    configs = []
    for alpha_name in ("alpha_H", "alpha_O", "alpha_S"):
        for v in values:
            ta = t.with_overrides(**{alpha_name: float(v)})
            t5 = ta if targets in ("both", "5gc") else t
            tm = ta if targets in ("both", "mano") else t
            configs.append(_SystemConfig(
                f"{alpha_name}={ex.format_number(float(v))},targets={targets}", cfg, t5, tm))
    return _result(_evaluate(configs, t), t)


# The bundled studies by name, each called as ``(table)``.
STUDIES = {
    "table3": run_table3,
    "fig6": run_cluster_sweep,
    "fig7": run_redundancy_configs,
    "fig8": partial(run_alpha_sweep, targets="both"),
    "fig9": partial(run_alpha_sweep, targets="mano"),
}


# ── optional single-file SVG chart of a sweep ────────────────────────────────

_WIDTH, _HEIGHT, _PAD = 640, 400, 60


def svg_line_chart(series: dict, path=None, title: str = "") -> str:
    """Render named (x, y) series as a minimal standalone 640x400 SVG line
    chart, ``y`` on a log scale."""
    import math

    pts = [(x, y) for pairs in series.values() for x, y in pairs]
    if not pts:
        raise ValueError("no data to chart")
    xs = [p[0] for p in pts]
    ys = [math.log10(p[1]) for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def sx(x):
        return _PAD + (x - x0) / xspan * (_WIDTH - 2 * _PAD)

    def sy(y):
        return _HEIGHT - _PAD - (math.log10(y) - y0) / yspan * (_HEIGHT - 2 * _PAD)

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
             f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
             f'<text x="{_WIDTH/2}" y="20" text-anchor="middle" font-size="14">{title}</text>']
    for i, (name, pairs) in enumerate(series.items()):
        color = colors[i % len(colors)]
        path_d = " ".join(f"{'M' if j == 0 else 'L'}{sx(x):.1f},{sy(y):.1f}"
                          for j, (x, y) in enumerate(sorted(pairs)))
        parts.append(f'<path d="{path_d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_WIDTH - _PAD + 4}" y="{30 + 16 * i}" font-size="11" '
                     f'fill="{color}">{name}</text>')
    parts.append(f'<line x1="{_PAD}" y1="{_HEIGHT-_PAD}" x2="{_WIDTH-_PAD}" y2="{_HEIGHT-_PAD}" stroke="black"/>')
    parts.append(f'<line x1="{_PAD}" y1="{_PAD}" x2="{_PAD}" y2="{_HEIGHT-_PAD}" stroke="black"/>')
    parts.append("</svg>")
    svg = "\n".join(parts)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return svg

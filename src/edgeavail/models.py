"""Built-in element models and their default intensity catalog.

Five building blocks of the modeled edge deployment, each a stochastic
activity network shipped as a ``.san`` document under ``elements/``:

* ``ru``      — radio unit: hardware, antenna, and firmware failure modes,
  each a simple fail/repair pair around one working token.
* ``du``      — distributed unit: software stack on bare hardware with
  reboot/restart coverage on OS and software failures.
* ``cu``      — central unit: same OS/software stack plus a 1+1
  active-standby hardware pair with imperfect failover.
* ``meh``     — edge host: type-II hypervisor, two VMs (platform and
  application), and the software on top, with restart coverage per layer.
* ``cluster`` — control cluster (core network or manager): M instances of
  which K must work, with per-layer coverage and crash states.

The documents are the one definition of these models.  Each declares the
catalog entries it reads, with :class:`IntensityTable`'s field defaults as
literals, and derives everything else from them (``lambda_Hi = alpha_H *
lambda_HW * M / K``, ``place Working = M``, ``case 1 - C_HW``).
:func:`build_element` binds a table's entries in place of the literals; the
derived values follow, and the element cache keys on the document and those
entries' values.  The documents' topology choices are listed in the README.

All rates are per hour.  The field defaults are the catalog, written as mean
times that convert with 1 minute = 1/60 h, 1 day = 24 h, 1 week = 168 h,
1 month = 730 h and 1 year = 8760 h; these constants live here and nowhere
else.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial
from importlib.resources import files

from . import san
from .document import parse_model
# steady_state_gth stays bound for perfbench/tracing.py, which patches it here
from .solver import steady_state_gth, steady_state_gth_many, unavailability  # noqa: F401
from .statespace import eliminate_vanishing, explore, revalue, to_ctmc

SECOND = 1.0 / 3600.0
MINUTE = 1.0 / 60.0
HOUR = 1.0
DAY = 24.0
WEEK = 168.0
MONTH = 730.0
YEAR = 8760.0

UP = "up"  # reward name shipped with every built-in model


@dataclass(frozen=True)
class IntensityTable:
    """Every rate (h^-1), coverage factor, and cluster setting in one place;
    each field's default is its catalog entry."""

    lambda_RH: float = 1 / (17 * YEAR)     # radio-unit hardware failure
    mu_RH: float = 1 / (6 * HOUR)          # radio-unit hardware repair
    lambda_HW: float = 1 / (6 * MONTH)     # generic hardware failure
    mu_cov: float = 1 / (30 * MINUTE)      # manual coverage after a failed failover
    mu_HW: float = 1 / (2 * HOUR)          # hardware repair
    mu_HW_fo: float = 1 / (3 * MINUTE)     # hardware failover
    lambda_A: float = 1 / (104 * MONTH)    # antenna failure
    mu_A: float = 1 / (6 * HOUR)           # antenna repair
    lambda_FW: float = 1 / (75 * DAY)      # firmware failure
    mu_FW: float = 1 / (65 * MINUTE)       # firmware repair
    lambda_OS: float = 1 / (2 * MONTH)     # operating-system failure
    mu_OS: float = 1 / (1 * HOUR)          # operating-system hard repair
    mu_OS_r: float = 1 / (1 * MINUTE)      # operating-system reboot
    mu_HYP_rs: float = 1 / (2.5 * MINUTE)  # restart of hypervisor plus VMs
    lambda_HYP: float = 1 / (4 * MONTH)    # hypervisor failure
    mu_HYP: float = 1 / (1 * HOUR)         # hypervisor hard repair
    mu_HYP_r: float = 1 / (1 * MINUTE)     # hypervisor restart
    mu_VM_rs: float = 1 / (1.5 * MINUTE)   # restart of VMs
    lambda_VM: float = 1 / (3 * MONTH)     # VM failure
    mu_VM: float = 1 / (1 * HOUR)          # VM hard repair
    mu_VM_r: float = 1 / (1 * MINUTE)      # VM reboot
    lambda_APP: float = 1 / (2 * WEEK)     # application failure
    mu_APP: float = 1 / (30 * MINUTE)      # application hard repair
    mu_APP_r: float = 1 / (15 * SECOND)    # application restart
    lambda_SW: float = 1 / (1 * MONTH)     # software failure
    mu_SW: float = 1 / (30 * MINUTE)       # software hard repair
    mu_SW_r: float = 1 / (30 * SECOND)     # software restart
    C_HW: float = 0.97                     # hardware failover coverage
    C_OS: float = 0.9                      # OS reboot/failover coverage
    C_HYP: float = 0.9                     # hypervisor restart coverage
    C_SW: float = 0.85                     # software restart/failover coverage
    C_VM: float = 0.9                      # VM reboot coverage
    C_APP: float = 0.8                     # application restart coverage
    M: int = 10                            # cluster instances
    K: int = 9                             # working instances required
    alpha_H: float = 1.0                   # hardware failure-intensity multiplier (cluster)
    alpha_O: float = 1.0                   # OS multiplier
    alpha_S: float = 1.0                   # software multiplier

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if f.name.startswith(("lambda_", "mu_", "alpha_")) and not 0 < v < math.inf:
                raise ValueError(f"rates must be > 0 and finite: {f.name}={v!r}")
            if f.name.startswith("C_") and not 0.0 <= v <= 1.0:
                raise ValueError(f"coverage factors must be in [0, 1]: {f.name}={v!r}")
        if not (isinstance(self.M, int) and isinstance(self.K, int)):
            raise ValueError("M and K must be integers")
        if not 1 <= self.K <= self.M:
            raise ValueError(f"cluster settings need 1 <= K <= M, got ({self.M}, {self.K})")

    def with_overrides(self, **overrides) -> "IntensityTable":
        names = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(overrides) - names)
        if unknown:
            raise KeyError(f"unknown parameter(s): {', '.join(unknown)}")
        for name in ("M", "K"):
            if name in overrides:
                v = overrides[name]
                if not float(v).is_integer():
                    raise ValueError(f"{name} must be a whole number, got {v!r}")
                overrides[name] = int(v)
        return dataclasses.replace(self, **overrides)


def default_table() -> IntensityTable:
    return IntensityTable()


class ElementKind(enum.Enum):
    RU = "ru"
    DU = "du"
    CU = "cu"
    MEH = "meh"
    CLUSTER_5GC = "5gc"
    CLUSTER_MANO = "mano"


# the core-network and manager clusters share one model
_DOCUMENTS = {ElementKind.RU: "ru", ElementKind.DU: "du", ElementKind.CU: "cu",
              ElementKind.MEH: "meh", ElementKind.CLUSTER_5GC: "cluster",
              ElementKind.CLUSTER_MANO: "cluster"}
_FIELDS = frozenset(f.name for f in dataclasses.fields(IntensityTable))


@lru_cache(maxsize=None)
def _document(name: str) -> tuple[san.SanModel, tuple]:
    """The shipped document ``name`` and the table fields it declares."""
    text = files(__package__).joinpath("elements", f"{name}.san").read_text(encoding="utf-8")
    doc = parse_model(text)
    return doc, tuple(n for n in doc.parameters if n in _FIELDS)


def build_element(kind: ElementKind, t: IntensityTable) -> san.SanModel:
    """``kind``'s document with each table field it declares bound from ``t``."""
    doc, fields = _document(_DOCUMENTS[kind])
    return dataclasses.replace(
        doc, parameters={**doc.parameters, **{n: getattr(t, n) for n in fields}})


build_ru = partial(build_element, ElementKind.RU)
build_du = partial(build_element, ElementKind.DU)
build_cu = partial(build_element, ElementKind.CU)
build_meh = partial(build_element, ElementKind.MEH)
build_cluster = partial(build_element, ElementKind.CLUSTER_5GC)


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
_SOLVED = {}     # (document, values of the table fields it declares) -> unavailability
_COUNTS = Counter()    # hits, misses


def _chains(models):
    """Each model's chain; the first is explored, the others (of the same
    structure) revalue its graph."""
    graph = None
    for model in models:
        graph = explore(model) if graph is None else revalue(graph, model)
        yield to_ctmc(eliminate_vanishing(graph), UP)


def element_unavailabilities(kind: ElementKind, tables) -> list:
    """Build, explore, eliminate vanishing, solve and extract each of
    ``tables``, cached on the document ``kind`` builds and the values of the
    table fields it declares, so both cluster kinds share entries.

    Tables not cached are grouped by ``CompiledModel.structure`` (for the
    cluster: M and which coverage factors are 0 or 1, not K, multipliers or
    rates), and each group's chains stream through one ``steady_state_gth_many``.
    Results are bit for bit those of each table alone; an error is raised
    once the tables before it in its group are cached.
    """
    name = _DOCUMENTS[kind]   # keyed with the values of the fields build_element binds
    keyed = [((name, tuple(getattr(t, n) for n in _document(name)[1])), t) for t in tables]
    groups = {}   # structure -> {cache key: its model, built once}
    for key, t in dict(keyed).items():
        if key not in _SOLVED:
            model = build_element(kind, t)
            groups.setdefault(san.compiled(model).structure, {})[key] = model
    misses = sum(map(len, groups.values()))
    _COUNTS.update(hits=len(keyed) - misses, misses=misses)
    for group in groups.values():
        for key, (chain, state) in zip(group, steady_state_gth_many(_chains(group.values()))):
            _SOLVED[key] = unavailability(chain, state)
    return [_SOLVED[key] for key, _ in keyed]


def element_unavailability(kind: ElementKind, t: IntensityTable) -> float:
    """One table's :func:`element_unavailabilities`; ``cache_*`` as lru_cache's."""
    return element_unavailabilities(kind, (t,))[0]


def _cache_clear() -> None:
    _SOLVED.clear()
    _COUNTS.clear()


element_unavailability.cache_clear = _cache_clear
element_unavailability.cache_info = lambda: CacheInfo(
    _COUNTS["hits"], _COUNTS["misses"], None, len(_SOLVED))


def builtin_models(t: IntensityTable | None = None) -> dict:
    """Name -> model for all five built-in element models."""
    t = t or default_table()
    return {name: build_element(kind, t) for kind, name in _DOCUMENTS.items()}

"""Built-in element models and their default intensity catalog.

Five building blocks of the modeled edge deployment, each expressed as a
stochastic activity network:

* ``build_ru``      — radio unit: hardware, antenna, and firmware failure
  modes, each a simple fail/repair pair around one working token.
* ``build_du``      — distributed unit: software stack on bare hardware with
  reboot/restart coverage on OS and software failures.
* ``build_cu``      — central unit: same OS/software stack plus a 1+1
  active-standby hardware pair with imperfect failover.
* ``build_meh``     — edge host: type-II hypervisor, two VMs (platform and
  application), and the software on top, with restart coverage per layer.
* ``build_cluster`` — control cluster (core network or manager): M instances
  of which K must work, with per-layer coverage and crash states.

All rates are per hour.  Mean times from the defaults catalog convert with
1 minute = 1/60 h, 1 day = 24 h, 1 week = 168 h, 1 month = 730 h and
1 year = 8760 h; these constants live here and nowhere else.

Where the written description of a model leaves an arc destination open, the
choice made here is marked with a ``topology:`` comment at the activity and
summarized in the README.  The main resolutions:

* After an OS hard repair the token lands in the software-restart state, not
  directly in the working state (a reboot forces a software restart).  The
  same pattern applies to the edge host's VM repairs.
* Hardware hard repair returns straight to the working state; no OS/software
  restart is modeled after a hardware swap.
* In the central unit, a failed failover parks the standby token in the
  manual-coverage state while the broken unit proceeds to repair; repaired
  hardware always returns to standby.
* In the edge host, hypervisor hard repair is followed by the full restart
  chain (hypervisor, then VMs and platform/application software).
* Cluster repairs are single-facility: the repair rate does not scale with
  the number of failed instances.
* While a cluster crash token is present no further failures occur, including
  failures of already-degraded instances.
* Platform software recovery uses the application-restart coverage factor,
  mirroring the catalog's assignment.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import lru_cache

from .expr import identifiers, parse_expression
from .san import (Activity, CaseSpec, InputSpec, Place, RewardPredicate,
                  SanModel, put, set_to, take, validate)
# steady_state_gth stays bound for perfbench/tracing.py, which patches it here
from .solver import steady_state_gth, steady_state_gth_many, unavailability  # noqa: F401
from .statespace import eliminate_vanishing, explore, revalue, to_ctmc

# The builders parse the same few texts on every call; the trees are immutable.
_parse = lru_cache(maxsize=None)(parse_expression)

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
    """Every rate (h^-1), coverage factor, and cluster setting in one place."""

    lambda_RH: float   # radio-unit hardware failure
    mu_RH: float       # radio-unit hardware repair
    lambda_HW: float   # generic hardware failure
    mu_cov: float      # manual coverage after a failed failover
    mu_HW: float       # hardware repair
    mu_HW_fo: float    # hardware failover
    lambda_A: float    # antenna failure
    mu_A: float        # antenna repair
    lambda_FW: float   # firmware failure
    mu_FW: float       # firmware repair
    lambda_OS: float   # operating-system failure
    mu_OS: float       # operating-system hard repair
    mu_OS_r: float     # operating-system reboot
    mu_HYP_rs: float   # restart of hypervisor plus VMs
    lambda_HYP: float  # hypervisor failure
    mu_HYP: float      # hypervisor hard repair
    mu_HYP_r: float    # hypervisor restart
    mu_VM_rs: float    # restart of VMs
    lambda_VM: float   # VM failure
    mu_VM: float       # VM hard repair
    mu_VM_r: float     # VM reboot
    lambda_APP: float  # application failure
    mu_APP: float      # application hard repair
    mu_APP_r: float    # application restart
    lambda_SW: float   # software failure
    mu_SW: float       # software hard repair
    mu_SW_r: float     # software restart
    C_HW: float        # hardware failover coverage
    C_OS: float        # OS reboot/failover coverage
    C_HYP: float       # hypervisor restart coverage
    C_SW: float        # software restart/failover coverage
    C_VM: float        # VM reboot coverage
    C_APP: float       # application restart coverage
    M: int = 10        # cluster instances
    K: int = 9         # working instances required
    alpha_H: float = 1.0   # hardware failure-intensity multiplier (cluster)
    alpha_O: float = 1.0   # OS multiplier
    alpha_S: float = 1.0   # software multiplier

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
    return IntensityTable(
        lambda_RH=1 / (17 * YEAR),
        mu_RH=1 / (6 * HOUR),
        lambda_HW=1 / (6 * MONTH),
        mu_cov=1 / (30 * MINUTE),
        mu_HW=1 / (2 * HOUR),
        mu_HW_fo=1 / (3 * MINUTE),
        lambda_A=1 / (104 * MONTH),
        mu_A=1 / (6 * HOUR),
        lambda_FW=1 / (75 * DAY),
        mu_FW=1 / (65 * MINUTE),
        lambda_OS=1 / (2 * MONTH),
        mu_OS=1 / (1 * HOUR),
        mu_OS_r=1 / (1 * MINUTE),
        mu_HYP_rs=1 / (2.5 * MINUTE),
        lambda_HYP=1 / (4 * MONTH),
        mu_HYP=1 / (1 * HOUR),
        mu_HYP_r=1 / (1 * MINUTE),
        mu_VM_rs=1 / (1.5 * MINUTE),
        lambda_VM=1 / (3 * MONTH),
        mu_VM=1 / (1 * HOUR),
        mu_VM_r=1 / (1 * MINUTE),
        lambda_APP=1 / (2 * WEEK),
        mu_APP=1 / (30 * MINUTE),
        mu_APP_r=1 / (15 * SECOND),
        lambda_SW=1 / (1 * MONTH),
        mu_SW=1 / (30 * MINUTE),
        mu_SW_r=1 / (30 * SECOND),
        C_HW=0.97,
        C_OS=0.9,
        C_HYP=0.9,
        C_SW=0.85,
        C_VM=0.9,
        C_APP=0.8,
    )


class ElementKind(enum.Enum):
    RU = "ru"
    DU = "du"
    CU = "cu"
    MEH = "meh"
    CLUSTER_5GC = "5gc"
    CLUSTER_MANO = "mano"


# ── small build helpers ──────────────────────────────────────────────────────

def _timed(name, rate_param, src, dst):
    """Fail/repair style move: one token src -> dst at a constant-parameter rate."""
    return Activity(
        name=name,
        rate=_parse(rate_param),
        input=InputSpec(_parse(f"#{src} >= 1"), (take(src),)),
        cases=(CaseSpec(1.0, (put(dst),)),),
    )


def _covered(name, rate_param, src, covered_dst, uncovered_dst, coverage):
    """Recovery with two cases: coverage -> covered_dst, else uncovered_dst."""
    return Activity(
        name=name,
        rate=_parse(rate_param) if rate_param is not None else None,
        input=InputSpec(_parse(f"#{src} >= 1"), (take(src),)),
        cases=(CaseSpec(coverage, (put(covered_dst),)),
               CaseSpec(1.0 - coverage, (put(uncovered_dst),))),
    )


def _finish(model: SanModel) -> SanModel:
    diags = validate(model)
    if diags:  # builders must always produce well-formed models
        raise AssertionError("built-in model failed validation: " + "; ".join(diags))
    return model


# ── element builders ─────────────────────────────────────────────────────────

def build_ru(t: IntensityTable) -> SanModel:
    """Radio unit: one working token cycling through three failure modes."""
    params = {"lambda_RH": t.lambda_RH, "mu_RH": t.mu_RH,
              "lambda_A": t.lambda_A, "mu_A": t.mu_A,
              "lambda_FW": t.lambda_FW, "mu_FW": t.mu_FW}
    places = (Place("RU_OK", 1), Place("RH_failed"), Place("Ant_failed"),
              Place("FW_failed"))
    acts = (
        _timed("RH_F", "lambda_RH", "RU_OK", "RH_failed"),
        _timed("RH_R", "mu_RH", "RH_failed", "RU_OK"),
        _timed("Ant_F", "lambda_A", "RU_OK", "Ant_failed"),
        _timed("Ant_R", "mu_A", "Ant_failed", "RU_OK"),
        _timed("FW_F", "lambda_FW", "RU_OK", "FW_failed"),
        _timed("FW_R", "mu_FW", "FW_failed", "RU_OK"),
    )
    rewards = (RewardPredicate(UP, _parse("#RU_OK >= 1")),)
    return _finish(SanModel(places, params, acts, rewards,
                            description="Radio unit: hardware, antenna, firmware"))


def build_du(t: IntensityTable) -> SanModel:
    """Distributed unit: software stack on unredundant hardware."""
    params = {"lambda_HW": t.lambda_HW, "mu_HW": t.mu_HW,
              "lambda_OS": t.lambda_OS, "mu_OS": t.mu_OS, "mu_OS_r": t.mu_OS_r,
              "lambda_SW": t.lambda_SW, "mu_SW": t.mu_SW, "mu_SW_r": t.mu_SW_r}
    places = (Place("DU_OK", 1), Place("HW_failed"), Place("OS_failed"),
              Place("OS_Urep"), Place("SW_failed"), Place("SW_Urep"),
              Place("SW_Ures"))
    acts = (
        _timed("HW_F", "lambda_HW", "DU_OK", "HW_failed"),
        _timed("HW_R", "mu_HW", "HW_failed", "DU_OK"),
        _timed("OS_F", "lambda_OS", "DU_OK", "OS_failed"),
        # Covered reboot restarts the software next; uncovered goes to hard repair.
        _covered("OS_rec", "mu_OS_r", "OS_failed", "SW_Ures", "OS_Urep", t.C_OS),
        # topology: hard-repaired OS still needs the software restarted.
        _timed("OS_R", "mu_OS", "OS_Urep", "SW_Ures"),
        _timed("SW_F", "lambda_SW", "DU_OK", "SW_failed"),
        _covered("SW_rec", None, "SW_failed", "SW_Ures", "SW_Urep", t.C_SW),
        _timed("SW_R", "mu_SW", "SW_Urep", "DU_OK"),
        _timed("SW_res", "mu_SW_r", "SW_Ures", "DU_OK"),
    )
    rewards = (RewardPredicate(UP, _parse("#DU_OK >= 1")),)
    return _finish(SanModel(places, params, acts, rewards,
                            description="Distributed unit: HW, OS, SW with restart coverage"))


def build_cu(t: IntensityTable) -> SanModel:
    """Central unit: the DU software stack plus 1+1 active-standby hardware."""
    params = {"lambda_HW": t.lambda_HW, "mu_HW": t.mu_HW,
              "mu_HW_fo": t.mu_HW_fo, "mu_cov": t.mu_cov,
              "lambda_OS": t.lambda_OS, "mu_OS": t.mu_OS, "mu_OS_r": t.mu_OS_r,
              "lambda_SW": t.lambda_SW, "mu_SW": t.mu_SW, "mu_SW_r": t.mu_SW_r}
    places = (Place("CU_OK", 1), Place("CHW2", 1), Place("CHW1_failed"),
              Place("CHW_rep"), Place("CHW_cov"), Place("OS_failed"),
              Place("OS_Urep"), Place("SW_failed"), Place("SW_Urep"),
              Place("SW_Ures"))
    failover = Activity(
        name="CHW_rec",
        rate=_parse("mu_HW_fo"),
        # Failover needs both a failed active unit and a ready standby.
        input=InputSpec(_parse("#CHW1_failed >= 1 and #CHW2 >= 1"),
                        (take("CHW1_failed"), take("CHW2"))),
        cases=(
            # Covered: broken unit to repair, standby takes over.
            CaseSpec(t.C_HW, (put("CHW_rep"), put("CU_OK"))),
            # Uncovered: broken unit to repair, standby stuck until manual coverage.
            CaseSpec(1.0 - t.C_HW, (put("CHW_rep"), put("CHW_cov"))),
        ),
    )
    acts = (
        _timed("OS_F", "lambda_OS", "CU_OK", "OS_failed"),
        _covered("OS_rec", "mu_OS_r", "OS_failed", "SW_Ures", "OS_Urep", t.C_OS),
        _timed("OS_R", "mu_OS", "OS_Urep", "SW_Ures"),
        _timed("SW_F", "lambda_SW", "CU_OK", "SW_failed"),
        _covered("SW_rec", None, "SW_failed", "SW_Ures", "SW_Urep", t.C_SW),
        _timed("SW_R", "mu_SW", "SW_Urep", "CU_OK"),
        _timed("SW_res", "mu_SW_r", "SW_Ures", "CU_OK"),
        _timed("CHW1_F", "lambda_HW", "CU_OK", "CHW1_failed"),
        _timed("CHW2_F", "lambda_HW", "CHW2", "CHW_rep"),
        failover,
        _timed("man_cov", "mu_cov", "CHW_cov", "CU_OK"),
        # topology: repaired hardware always returns to standby.
        _timed("CHW_R", "mu_HW", "CHW_rep", "CHW2"),
    )
    rewards = (RewardPredicate(UP, _parse("#CU_OK >= 1")),)
    return _finish(SanModel(places, params, acts, rewards,
                            description="Central unit: 1+1 standby HW plus OS/SW stack"))


def build_meh(t: IntensityTable) -> SanModel:
    """Edge host: hypervisor, platform VM + software, application VM + software."""
    params = {"lambda_HYP": t.lambda_HYP, "mu_HYP": t.mu_HYP,
              "mu_HYP_r": t.mu_HYP_r, "mu_HYP_rs": t.mu_HYP_rs,
              "lambda_VM": t.lambda_VM, "mu_VM": t.mu_VM, "mu_VM_r": t.mu_VM_r,
              "mu_VM_rs": t.mu_VM_rs,
              "lambda_SW": t.lambda_SW, "mu_SW": t.mu_SW, "mu_SW_r": t.mu_SW_r,
              "lambda_APP": t.lambda_APP, "mu_APP": t.mu_APP, "mu_APP_r": t.mu_APP_r}
    places = (Place("MEH_OK", 1),
              Place("Hyp_failed"), Place("Hyp_Ures"), Place("Hyp_Urep"),
              Place("VM_Ures"),
              Place("MVM_failed"), Place("MVM_Urep"),
              Place("MEP_failed"), Place("MEP_Urep"), Place("MEP_Ures"),
              Place("AVM_failed"), Place("AVM_Urep"),
              Place("APP_failed"), Place("APP_Urep"), Place("APP_Ures"))
    acts = (
        # Hypervisor layer: restart covers; a hard repair is followed by the
        # full restart chain (topology: HYP_R lands in Hyp_Ures, then HYP_res).
        _timed("HYP_F", "lambda_HYP", "MEH_OK", "Hyp_failed"),
        _covered("HYP_rec", "mu_HYP_r", "Hyp_failed", "VM_Ures", "Hyp_Urep", t.C_HYP),
        _timed("HYP_R", "mu_HYP", "Hyp_Urep", "Hyp_Ures"),
        _timed("HYP_res", "mu_HYP_rs", "Hyp_Ures", "MEH_OK"),
        _timed("VM_res", "mu_VM_rs", "VM_Ures", "MEH_OK"),
        # Platform VM; after VM recovery the platform software restarts.
        _timed("MVM_F", "lambda_VM", "MEH_OK", "MVM_failed"),
        _covered("MVM_rec", "mu_VM_r", "MVM_failed", "MEP_Ures", "MVM_Urep", t.C_VM),
        _timed("MVM_R", "mu_VM", "MVM_Urep", "MEP_Ures"),
        # Platform software (restart coverage shares the application factor).
        _timed("MEP_F", "lambda_SW", "MEH_OK", "MEP_failed"),
        _covered("MEP_rec", None, "MEP_failed", "MEP_Ures", "MEP_Urep", t.C_APP),
        _timed("MEP_R", "mu_SW", "MEP_Urep", "MEH_OK"),
        _timed("MEP_VMres", "mu_SW_r", "MEP_Ures", "MEH_OK"),
        # Application VM and application software.
        _timed("AVM_F", "lambda_VM", "MEH_OK", "AVM_failed"),
        _covered("AVM_rec", "mu_VM_r", "AVM_failed", "APP_Ures", "AVM_Urep", t.C_VM),
        _timed("AVM_R", "mu_VM", "AVM_Urep", "APP_Ures"),
        _timed("APP_F", "lambda_APP", "MEH_OK", "APP_failed"),
        _covered("APP_rec", None, "APP_failed", "APP_Ures", "APP_Urep", t.C_APP),
        _timed("APP_R", "mu_APP", "APP_Urep", "MEH_OK"),
        _timed("APP_VMres", "mu_APP_r", "APP_Ures", "MEH_OK"),
    )
    rewards = (RewardPredicate(UP, _parse("#MEH_OK >= 1")),)
    return _finish(SanModel(places, params, acts, rewards,
                            description="Edge host: hypervisor, platform/application VMs and software"))


def build_cluster(t: IntensityTable) -> SanModel:
    """Control cluster of M instances, up while at least K work and no crash token.

    Per-instance failure intensities scale the base rates: hardware and OS use
    ``alpha * lambda * M / K`` per instance, software uses ``alpha * lambda *
    M / M_w`` while at least K instances work (constant total pressure) and
    ``alpha * lambda * M`` per instance below that.  An uncovered failure in
    any layer crashes the whole cluster; crash recovery clears every failed
    OS/software instance and recounts the working pool.  ``M``, ``K`` and the
    multipliers all come from ``t``; vary them with
    :meth:`IntensityTable.with_overrides`.
    """
    M, K = t.M, t.K
    params = {"lambda_HW": t.lambda_HW, "lambda_OS": t.lambda_OS,
              "lambda_SW": t.lambda_SW,
              "mu_HW": t.mu_HW, "mu_OS": t.mu_OS, "mu_SW": t.mu_SW,
              "mu_cov": t.mu_cov, "mu_OS_r": t.mu_OS_r, "mu_SW_r": t.mu_SW_r,
              "alpha_H": t.alpha_H, "alpha_O": t.alpha_O, "alpha_S": t.alpha_S,
              "M": float(M), "K": float(K),
              # per-instance intensities, folded for readability in documents
              "lambda_Hi": t.alpha_H * t.lambda_HW * M / K,
              "lambda_Oi": t.alpha_O * t.lambda_OS * M / K}
    places = (Place("Working", M), Place("HW_Fail"), Place("HW_Down"),
              Place("OS_Fail"), Place("OS_Down"), Place("SW_Fail"),
              Place("SW_Down"))

    no_crash = "#HW_Down = 0 and #OS_Down = 0 and #SW_Down = 0"

    def fail_from_working(name, rate, covered_dst, uncovered_dst, coverage):
        return Activity(
            name=name,
            rate=_parse(rate),
            input=InputSpec(_parse(f"#Working >= 1 and {no_crash}"), (take("Working"),)),
            cases=(CaseSpec(coverage, (put(covered_dst),)),
                   CaseSpec(1.0 - coverage, (put(uncovered_dst),))),
        )

    def fail_degraded(name, rate, src, dst):
        # Failures of already-degraded instances also stop during a crash.
        return Activity(
            name=name,
            rate=_parse(rate),
            input=InputSpec(_parse(f"#{src} >= 1 and {no_crash}"), (take(src),)),
            cases=(CaseSpec(1.0, (put(dst),)),),
        )

    def crash_recovery(name, rate_param, down_place, extra=()):
        # Clears failed OS/SW instances and recounts the working pool.
        effects = tuple(extra) + (set_to("OS_Fail", 0), set_to("SW_Fail", 0),
                                  set_to("Working", _parse("M - #HW_Fail")))
        return Activity(
            name=name,
            rate=_parse(rate_param),
            input=InputSpec(_parse(f"#{down_place} >= 1"), (take(down_place),)),
            cases=(CaseSpec(1.0, effects),),
        )

    sw_rate = ("#Working * (if #Working >= K then alpha_S * lambda_SW * M / #Working"
               " else alpha_S * lambda_SW * M)")
    acts = (
        fail_from_working("HW_F1", "#Working * lambda_Hi", "HW_Fail", "HW_Down", t.C_HW),
        fail_degraded("HW_F2", "#OS_Fail * lambda_Hi", "OS_Fail", "HW_Fail"),
        fail_degraded("HW_F3", "#SW_Fail * lambda_Hi", "SW_Fail", "HW_Fail"),
        fail_from_working("OS_F1", "#Working * lambda_Oi", "OS_Fail", "OS_Down", t.C_OS),
        fail_degraded("OS_F2", "#SW_Fail * lambda_Oi", "SW_Fail", "OS_Fail"),
        fail_from_working("SW_F", sw_rate, "SW_Fail", "SW_Down", t.C_SW),
        # Single repair facility per layer: bare rates, no per-token multiplier.
        _timed("HW_R", "mu_HW", "HW_Fail", "Working"),
        _timed("OS_R", "mu_OS", "OS_Fail", "Working"),
        _timed("SW_R", "mu_SW", "SW_Fail", "Working"),
        crash_recovery("UHW_R", "mu_cov", "HW_Down", extra=(put("HW_Fail"),)),
        crash_recovery("UOS_R", "mu_OS_r", "OS_Down"),
        crash_recovery("USW_R", "mu_SW_r", "SW_Down"),
    )
    rewards = (RewardPredicate(UP, _parse(f"#Working >= K and {no_crash}")),)
    return _finish(SanModel(
        places, params, acts, rewards,
        description=f"Control cluster: {M} instances, {K} required"))


_BUILDERS = {
    ElementKind.RU: build_ru,
    ElementKind.DU: build_du,
    ElementKind.CU: build_cu,
    ElementKind.MEH: build_meh,
    # the core-network and manager clusters share one model
    ElementKind.CLUSTER_5GC: build_cluster,
    ElementKind.CLUSTER_MANO: build_cluster,
}


def build_element(kind: ElementKind, t: IntensityTable) -> SanModel:
    return _BUILDERS[kind](t)


def structure_key(model: SanModel) -> tuple:
    """What ``model``'s marking graph depends on, as a hashable value.

    The places with their initial marking; each activity's name, whether it
    is timed, its input gate, and per case whether its probability is
    nonzero, with its effects; and the values of the parameters that
    predicates and effects read.  Rate expressions and the size of a nonzero
    probability are left out: models that differ only there reach the same
    markings in the same order, and ``statespace.revalue`` carries one's
    graph over to the other.
    """
    read = set()
    activities = []
    for a in model.activities:
        read |= identifiers(a.input.predicate)[0]
        for effect in a.input.effects + tuple(e for c in a.cases for e in c.effects):
            read |= identifiers(effect.value)[0]
        activities.append((a.name, a.timed, a.input,
                           tuple((c.probability != 0.0, c.effects) for c in a.cases)))
    # repr keeps apart values that compare equal but evaluate apart (0.0, -0.0)
    values = tuple((name, repr(model.parameters.get(name))) for name in sorted(read))
    return tuple(model.places), tuple(activities), values


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
_SOLVED = {}     # (kind, table) -> unavailability; both cluster kinds as 5GC
_COUNTS = Counter()    # hits, misses


def _chains(kind: ElementKind, tables):
    """Each table's chain, its model built as asked for; the first is explored,
    the others (of the same structure) revalue its graph."""
    graph = None
    for t in tables:
        model = build_element(kind, t)
        graph = explore(model) if graph is None else revalue(graph, model)
        yield to_ctmc(eliminate_vanishing(graph), UP)


def element_unavailabilities(kind: ElementKind, tables) -> list:
    """Build, explore, eliminate vanishing, solve and extract each of
    ``tables``, cached on ``(kind, table)``; both cluster kinds share entries.

    Tables not cached are grouped by :func:`structure_key` (for the cluster:
    M and which coverage factors are 0 or 1, not K, multipliers or rates),
    and each group's chains stream through one ``steady_state_gth_many``.
    Results are bit for bit those of each table alone; an error is raised
    once the tables before it in its group are cached.
    """
    if kind is ElementKind.CLUSTER_MANO:
        kind = ElementKind.CLUSTER_5GC
    tables = list(tables)
    groups = {}
    for t in dict.fromkeys(tables):
        if (kind, t) not in _SOLVED:
            groups.setdefault(structure_key(build_element(kind, t)), []).append(t)
    misses = sum(map(len, groups.values()))
    _COUNTS.update(hits=len(tables) - misses, misses=misses)
    for group in groups.values():
        for t, (chain, state) in zip(group, steady_state_gth_many(_chains(kind, group))):
            _SOLVED[kind, t] = unavailability(chain, state)
    return [_SOLVED[kind, t] for t in tables]


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
    return {"ru": build_ru(t), "du": build_du(t), "cu": build_cu(t),
            "meh": build_meh(t), "cluster": build_cluster(t)}

"""Spans and counters recorded around the package's layer boundaries.

Tracing wraps public names where the layers bind them, so nothing inside
``src/`` changes.  Each wrapper opens a span ``(name, start, end, parent)``
kept in memory; the spans are written once, when the run ends.  Counters
(states, sweeps, firings, ...) are taken at the same boundaries.

A layer's *self time* is the total duration of its spans minus the part
covered by their child spans.  The per-layer metrics are built from self
times and counters by :func:`layer_metrics`.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

from workloads import rel_residual

STUDY_NAMES = ("table3", "fig6", "fig7", "fig8", "fig9")

# Name, unit.  Printed in this order; BENCHMARK.json lists the same names.
LAYER_METRICS = (
    ("solver.gth_s", "s"),
    ("solver.gth_calls", "count"),
    ("solver.gth_flops_computed", "flop"),
    ("solver.gth_bytes_computed", "byte"),
    ("solver.gth_gflops", "Gflop/s"),
    ("solver.gs_s", "s"),
    ("solver.gs_sweeps", "count"),
    ("solver.gs_rel_residual_max", "ratio"),
    ("models.element_calls", "count"),
    ("models.element_misses", "count"),
    ("models.element_hit_ratio", "ratio"),
    ("models.self_s", "s"),
    *((f"experiments.{name}_s", "s") for name in STUDY_NAMES),
    ("experiments.rows", "count"),
    ("experiments.self_s", "s"),
    ("statespace.explore_s", "s"),
    ("statespace.states", "count"),
    ("statespace.edges", "count"),
    ("statespace.vanishing", "count"),
    ("statespace.eliminate_s", "s"),
    ("statespace.to_ctmc_s", "s"),
    ("statespace.nnz", "count"),
    ("san.compile_s", "s"),
    ("san.compile_calls", "count"),
    ("document.parse_s", "s"),
    ("simulator.sim_s", "s"),
    ("simulator.firings", "count"),
    ("simulator.firings_per_s", "1/s"),
    ("simulator.ci_rel_halfwidth", "ratio"),
    ("faulttree.compose_s", "s"),
    ("faulttree.calls", "count"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.gth_statespace_share", "ratio"),
    ("trace.spans", "count"),
)


class NullTracer:
    """Stands in for :class:`Tracer` in timed runs: records nothing."""

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, amount=1):
        pass


class Tracer:
    def __init__(self):
        self.spans = []              # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.maxima = defaultdict(float)
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name, amount=1):
        self.counts[name] += amount

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` records counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return traced

    def self_times(self) -> dict:
        """Span name -> (summed self time, span count)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name][0] += end - start - child_time[i]
            out[name][1] += 1
        return out

    def top_level_time(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def dump(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]


def gth_flops(n: int) -> int:
    """Rank-1 updates of GTH: a k x k multiply-add for k = n-1 .. 1, i.e. sum 2k^2."""
    k = n - 1
    return k * (k + 1) * (2 * k + 1) // 3


@contextlib.contextmanager
def installed(ea, tracer: Tracer):
    """Patch the layer boundaries of the ``edgeavail`` package for one traced run."""
    import edgeavail.experiments as experiments
    import edgeavail.models as models
    import edgeavail.san as san
    import edgeavail.simulator as simulator
    import edgeavail.solver as solver
    import edgeavail.statespace as statespace

    def after_explore(args, g):
        tracer.count("statespace.states", g.n_states)
        tracer.count("statespace.edges", len(g.edges))
        tracer.count("statespace.vanishing", g.n_vanishing)

    def after_ctmc(args, c):
        tracer.count("statespace.nnz", c.Q.nnz)

    def after_gth(args, s):
        n = args[0].n_states
        tracer.count("solver.gth_flops", gth_flops(n))
        tracer.count("solver.gth_bytes", 8 * n * n)

    def after_gs(args, s):
        rel = rel_residual(args[0], s)
        tracer.maxima["solver.gs_rel_residual"] = max(
            tracer.maxima["solver.gs_rel_residual"], rel)

    element = models.element_unavailability

    def traced_element(kind, table):
        misses = element.cache_info().misses
        with tracer.span("models.element"):
            u = element(kind, table)
        tracer.count("models.element_misses", element.cache_info().misses - misses)
        return u

    fire_vec = san.CompiledModel.fire_vec

    def counted_fire_vec(self, vec, act, case_index):
        tracer.counts["san.fire_vec"] += 1
        return fire_vec(self, vec, act, case_index)

    def traced_simulate(*args, **kwargs):
        fired = tracer.counts["san.fire_vec"]
        with tracer.span("simulator.simulate"):
            est = simulate(*args, **kwargs)
        tracer.count("simulator.firings", tracer.counts["san.fire_vec"] - fired)
        rel = est.ci_halfwidth / max(1.0 - est.point, 1e-300)
        tracer.maxima["simulator.ci_rel_halfwidth"] = max(
            tracer.maxima["simulator.ci_rel_halfwidth"], rel)
        return est

    compiled = san.compiled

    def traced_compiled(model):
        if getattr(model, "_compiled", None) is not None:
            return compiled(model)
        with tracer.span("san.compile"):
            return compiled(model)

    spsolve = solver.spsolve_triangular

    def counted_spsolve(*args, **kwargs):
        tracer.counts["solver.gs_sweeps"] += 1
        return spsolve(*args, **kwargs)

    simulate = ea.simulate
    wrapped = {
        "explore": tracer.wrap("statespace.explore", ea.explore, after_explore),
        "eliminate_vanishing": tracer.wrap("statespace.eliminate", ea.eliminate_vanishing),
        "to_ctmc": tracer.wrap("statespace.to_ctmc", ea.to_ctmc, after_ctmc),
        "steady_state_gth": tracer.wrap("solver.gth", ea.steady_state_gth, after_gth),
    }
    patches = [(models, name, fn) for name, fn in wrapped.items()]
    patches += [(ea, name, fn) for name, fn in wrapped.items()]
    patches += [
        (ea, "steady_state_iterative",
         tracer.wrap("solver.gs", ea.steady_state_iterative, after_gs)),
        (ea, "build_cluster", tracer.wrap("models.build", ea.build_cluster)),
        (ea, "parse_model", tracer.wrap("document.parse", ea.parse_model)),
        (ea, "simulate", traced_simulate),
        (solver, "spsolve_triangular", counted_spsolve),
        (experiments, "element_unavailability", traced_element),
        (experiments, "u_ran", tracer.wrap("faulttree.compose", experiments.u_ran)),
        (experiments, "u_sys", tracer.wrap("faulttree.compose", experiments.u_sys)),
        (statespace, "compiled", traced_compiled),
        (simulator, "compiled", traced_compiled),
        (san, "compiled", traced_compiled),
        (san.CompiledModel, "fire_vec", counted_fire_vec),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, fn in patches:
            setattr(owner, name, fn)
        yield tracer
    finally:
        for owner, name, fn in reversed(saved):
            setattr(owner, name, fn)


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metric name -> value, every name of :data:`LAYER_METRICS`."""
    selfs = tracer.self_times()

    def self_s(*names):
        return sum(selfs[n][0] for n in names if n in selfs)

    def calls(name):
        return selfs[name][1] if name in selfs else 0

    inclusive = defaultdict(float)
    for name, start, end, _ in tracer.spans:
        inclusive[name] += end - start

    c = tracer.counts
    gth_s = self_s("solver.gth")
    element_calls = calls("models.element")
    statespace_s = self_s("statespace.explore", "statespace.eliminate",
                          "statespace.to_ctmc")
    study_spans = [f"experiments.{name}" for name in STUDY_NAMES]
    return {
        "solver.gth_s": gth_s,
        "solver.gth_calls": calls("solver.gth"),
        "solver.gth_flops_computed": c["solver.gth_flops"],
        "solver.gth_bytes_computed": c["solver.gth_bytes"],
        "solver.gth_gflops": c["solver.gth_flops"] / gth_s / 1e9 if gth_s else 0.0,
        "solver.gs_s": self_s("solver.gs"),
        "solver.gs_sweeps": c["solver.gs_sweeps"],
        "solver.gs_rel_residual_max": tracer.maxima["solver.gs_rel_residual"],
        "models.element_calls": element_calls,
        "models.element_misses": c["models.element_misses"],
        "models.element_hit_ratio": (
            1.0 - c["models.element_misses"] / element_calls if element_calls else 0.0),
        "models.self_s": self_s("models.element", "models.build"),
        **{f"{span}_s": inclusive[span] for span in study_spans},
        "experiments.rows": c["experiments.rows"],
        "experiments.self_s": self_s(*study_spans),
        "statespace.explore_s": self_s("statespace.explore"),
        "statespace.states": c["statespace.states"],
        "statespace.edges": c["statespace.edges"],
        "statespace.vanishing": c["statespace.vanishing"],
        "statespace.eliminate_s": self_s("statespace.eliminate"),
        "statespace.to_ctmc_s": self_s("statespace.to_ctmc"),
        "statespace.nnz": c["statespace.nnz"],
        "san.compile_s": self_s("san.compile"),
        "san.compile_calls": calls("san.compile"),
        "document.parse_s": self_s("document.parse"),
        "simulator.sim_s": self_s("simulator.simulate"),
        "simulator.firings": c["simulator.firings"],
        "simulator.firings_per_s": (c["simulator.firings"] / inclusive["simulator.simulate"]
                                    if inclusive["simulator.simulate"] else 0.0),
        "simulator.ci_rel_halfwidth": tracer.maxima["simulator.ci_rel_halfwidth"],
        "faulttree.compose_s": self_s("faulttree.compose"),
        "faulttree.calls": calls("faulttree.compose"),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": (traced_s - untraced_s) / untraced_s,
        "trace.unattributed_s": traced_s - tracer.top_level_time(),
        "trace.gth_statespace_share": (gth_s + statespace_s) / untraced_s,
        "trace.spans": len(tracer.spans),
    }

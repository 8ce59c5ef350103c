"""Reachability exploration and reduction to a CTMC over tangible markings.

``explore`` walks the marking graph breadth first.  A marking is *vanishing*
when some instantaneous activity is enabled there (its sojourn time is zero);
everything else is *tangible*.  Edges out of tangible markings carry rates,
edges out of vanishing markings carry probabilities summing to one.

``eliminate_vanishing`` folds each vanishing marking into its predecessors:
an edge ``u -w-> v`` through vanishing ``v`` with branch ``v -p-> t`` becomes
``u -w*p-> t``.  States are absorbed one at a time, which also handles chains
and cycles of vanishing markings; a cycle whose return probability reaches
one (within 1e-12) is reported as a livelock.  Total exit rate of every
tangible marking is preserved exactly by construction.

Exploration is single threaded and fully deterministic: activities fire in
declaration order, cases in order, so state indices are reproducible run to
run.  Independent models can be explored concurrently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (NotIrreducible, StateSpaceExceeded, UnknownReward,
                     VanishingLoop)
from .san import SanModel, compiled

DEFAULT_MAX_STATES = 100_000
_LOOP_TOL = 1e-12


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    value: float  # rate (tangible src) or probability (vanishing src)
    label: str    # "activity/case"


@dataclass
class StateGraph:
    model: SanModel
    place_order: tuple
    states: list          # marking tuples in place_order
    tangible: list        # bool per state
    edges: list           # Edge
    initial: int

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_tangible(self) -> int:
        return sum(self.tangible)

    @property
    def n_vanishing(self) -> int:
        return len(self.states) - self.n_tangible

    def marking(self, i: int) -> dict:
        return dict(zip(self.place_order, self.states[i]))

    def dump_text(self) -> str:
        """Edge list, one ``state_i -> state_j rate r label a/c`` line each."""
        lines = []
        for e in self.edges:
            kind = "rate" if self.tangible[e.src] else "prob"
            lines.append(f"state_{e.src} -> state_{e.dst} {kind} {e.value!r} label {e.label}")
        return "\n".join(lines)


def explore(model: SanModel, max_states: int = DEFAULT_MAX_STATES) -> StateGraph:
    """Breadth-first closure of the marking graph from the initial marking."""
    cm = compiled(model)
    start = cm.initial
    index = {start: 0}
    states = [start]
    tangible = []
    edges = []
    queue = deque([0])

    def intern(vec):
        j = index.get(vec)
        if j is None:
            if len(states) >= max_states:
                raise StateSpaceExceeded(max_states)
            j = len(states)
            index[vec] = j
            states.append(vec)
            queue.append(j)
        return j

    while queue:
        i = queue.popleft()
        vec = states[i]
        is_tangible, moves = cm.moves(vec)
        tangible.append(is_tangible)
        for a, weight in moves:
            for ci, p in enumerate(a.case_probs):
                if p == 0.0:
                    continue
                j = intern(cm.fire_vec(vec, a, ci))
                edges.append(Edge(i, j, weight * p, f"{a.name}/{ci}"))

    return StateGraph(model, cm.place_order, states, tangible, edges, 0)


def eliminate_vanishing(g: StateGraph) -> StateGraph:
    """Fold vanishing states away, leaving a tangible-only graph."""
    if g.n_vanishing == 0:
        return StateGraph(g.model, g.place_order, list(g.states), list(g.tangible),
                          list(g.edges), g.initial)

    # Mutable adjacency keyed by edge id.
    edges = {i: e for i, e in enumerate(g.edges)}
    out_ids = {i: set() for i in range(g.n_states)}
    in_ids = {i: set() for i in range(g.n_states)}
    for eid, e in edges.items():
        out_ids[e.src].add(eid)
        in_ids[e.dst].add(eid)
    next_id = len(g.edges)

    def add_edge(src, dst, value, label):
        nonlocal next_id
        e = Edge(src, dst, value, label)
        edges[next_id] = e
        out_ids[src].add(next_id)
        in_ids[dst].add(next_id)
        next_id += 1

    def drop_edge(eid):
        e = edges.pop(eid)
        out_ids[e.src].discard(eid)
        in_ids[e.dst].discard(eid)

    for v in range(g.n_states):
        if g.tangible[v]:
            continue
        # Remove any self loop first, renormalizing the remaining branches.
        self_prob = sum(edges[eid].value for eid in out_ids[v] if edges[eid].dst == v)
        if self_prob > 0.0:
            if self_prob >= 1.0 - _LOOP_TOL:
                raise VanishingLoop(
                    f"vanishing marking {g.marking(v)} returns to itself "
                    f"with probability {self_prob!r}")
            scale = 1.0 / (1.0 - self_prob)
            for eid in list(out_ids[v]):
                e = edges[eid]
                if e.dst == v:
                    drop_edge(eid)
                else:
                    edges[eid] = Edge(e.src, e.dst, e.value * scale, e.label)
        branches = [edges[eid] for eid in out_ids[v]]
        for eid in list(in_ids[v]):
            e = edges[eid]
            drop_edge(eid)
            for b in branches:
                add_edge(e.src, b.dst, e.value * b.value, e.label)
        for eid in list(out_ids[v]):
            drop_edge(eid)

    keep = [i for i in range(g.n_states) if g.tangible[i]]
    remap = {old: new for new, old in enumerate(keep)}
    new_edges = [Edge(remap[e.src], remap[e.dst], e.value, e.label)
                 for e in (edges[eid] for eid in sorted(edges))]
    initial = remap.get(g.initial, 0)
    return StateGraph(g.model, g.place_order, [g.states[i] for i in keep],
                      [True] * len(keep), new_edges, initial)


@dataclass
class Ctmc:
    """Tangible states with a sparse generator (row sums zero) and a 0/1 reward."""
    states: list          # marking tuples
    place_order: tuple
    Q: sp.csr_matrix      # h^-1
    reward: np.ndarray
    reward_name: str

    @property
    def n_states(self) -> int:
        return len(self.states)


def to_ctmc(g: StateGraph, reward: str) -> Ctmc:
    """Assemble the generator matrix and reward vector from a tangible graph.

    Parallel transitions are summed and self loops dropped (they do not affect
    the stationary distribution).  The chain must form a single strongly
    connected class.
    """
    if g.n_vanishing:
        raise ValueError("graph still contains vanishing states; "
                         "run eliminate_vanishing first")
    cm = compiled(g.model)
    reward_fn = cm.rewards.get(reward)
    if reward_fn is None:
        raise UnknownReward(reward, list(cm.rewards))

    n = g.n_states
    rows, cols, vals = [], [], []
    for e in g.edges:
        if e.src == e.dst:
            continue
        rows.append(e.src)
        cols.append(e.dst)
        vals.append(e.value)
    Q = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()  # sums duplicates
    exit_rates = np.asarray(Q.sum(axis=1)).ravel()
    Q = Q + sp.diags(-exit_rates, format="csr")

    adj = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
    n_comp, labels = connected_components(adj, directed=True, connection="strong")
    if n_comp != 1:
        sizes = np.bincount(labels, minlength=n_comp)
        outgoing = np.zeros(n_comp, dtype=bool)
        coo = adj.tocoo()
        for i, j in zip(coo.row, coo.col):
            if labels[i] != labels[j]:
                outgoing[labels[i]] = True
        classes = [f"class {c}: {sizes[c]} states"
                   + (" (closed)" if not outgoing[c] else "")
                   for c in range(n_comp)]
        raise NotIrreducible(
            f"chain splits into {n_comp} communicating classes: " + "; ".join(classes))

    rvec = np.array([1.0 if reward_fn(s) != 0.0 else 0.0 for s in g.states])
    return Ctmc(list(g.states), g.place_order, Q, rvec, reward)

"""Reachability exploration and reduction to a CTMC over tangible markings.

``explore`` walks the marking graph breadth first.  A marking is *vanishing*
when some instantaneous activity is enabled there (its sojourn time is zero);
everything else is *tangible*.  Edges out of tangible markings carry rates,
edges out of vanishing markings carry probabilities summing to one.

``eliminate_vanishing`` censors the vanishing markings away, an independent
set of them (no edge between two) at a time, with ``censor``: the same
stochastic-complement stage that ``solver.steady_state_gth`` runs.  Chains,
cycles and self loops need no special case.  A censored marking's self loop
is renormalized by dividing by its exit probability, never through ``1 - p``,
so only nonnegative numbers are added, multiplied and divided.  A marking
that exits with probability at most 1e-12 of its row (a cycle of vanishing
markings returning with probability one) is reported as a livelock.  Every
tangible exit rate is kept to roundoff; the reduced graph has one unlabeled
edge per (source, target) pair, in row-major order.

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


def _off_diagonal(M) -> sp.csr_matrix:
    """``M`` as CSR without its diagonal (self loops do not affect pi)."""
    M = M.tocoo()
    keep = M.row != M.col
    return sp.csr_matrix((M.data[keep], (M.row[keep], M.col[keep])), shape=M.shape)


def _independent_set(A: sp.csr_matrix) -> np.ndarray:
    """Greedy independent set of ``A``'s graph, lowest degree first, as a mask."""
    S = (A + A.T).tocsr()
    indptr, indices = S.indptr, S.indices
    taken = np.zeros(A.shape[0], dtype=bool)
    blocked = np.zeros(A.shape[0], dtype=bool)
    for v in np.argsort(np.diff(indptr), kind="stable").tolist():
        if not blocked[v]:
            taken[v] = True
            blocked[indices[indptr[v]:indptr[v + 1]]] = True
    return taken


def censor(A: sp.csr_matrix, in_set: np.ndarray):
    """Censor the states I of ``in_set`` out of the chain with weights ``A``.

    I must be independent (no transition between two of its states; self
    loops are allowed).  The stochastic complement on the states left, R, is
    then ``A[R,R] + A[R,I] diag(1/s_I) A[I,R]`` (Meyer 1989), where ``s_I``
    sums each row of ``A[I,R]``, so a self loop in I is renormalized away.
    Returns ``(complement, I, R, A_RI, s_I)``, the last four for
    back-substitution.  A zero or tiny ``s_I`` marks a state that cannot
    leave I; each caller checks ``s_I`` and raises its own error.
    """
    I, R = np.flatnonzero(in_set), np.flatnonzero(~in_set)
    A_IR = A[I][:, R]
    s_I = np.asarray(A_IR.sum(axis=1)).ravel()
    A_R = A[R]
    A_RI = A_R[:, I]
    with np.errstate(divide="ignore"):
        scale = 1.0 / s_I
    return A_R[:, R] + A_RI @ (sp.diags(scale) @ A_IR), I, R, A_RI, s_I


def _matrix(g: StateGraph) -> sp.csr_matrix:
    """The graph's weights as CSR, parallel edges summed, self loops kept."""
    n = g.n_states
    src = np.fromiter((e.src for e in g.edges), dtype=np.int64, count=len(g.edges))
    dst = np.fromiter((e.dst for e in g.edges), dtype=np.int64, count=len(g.edges))
    val = np.fromiter((e.value for e in g.edges), dtype=float, count=len(g.edges))
    return sp.csr_matrix((val, (src, dst)), shape=(n, n))


def eliminate_vanishing(g: StateGraph) -> StateGraph:
    """Censor vanishing states away, leaving a tangible-only graph."""
    if g.n_vanishing == 0:
        return StateGraph(g.model, g.place_order, list(g.states), list(g.tangible),
                          list(g.edges), g.initial)

    A = _matrix(g)
    keep = np.arange(g.n_states)
    vanishing = ~np.array(g.tangible, dtype=bool)
    while vanishing.any():
        in_set = vanishing.copy()
        in_set[vanishing] = _independent_set(A[vanishing][:, vanishing])
        loops = A.diagonal()[in_set]
        A, I, R, _, s_I = censor(A, in_set)
        trapped = np.flatnonzero(~(s_I > _LOOP_TOL * (s_I + loops)))
        if trapped.size:
            k = trapped[0]
            raise VanishingLoop(
                f"vanishing marking {g.marking(keep[I[k]])} returns to itself "
                f"with weight {loops[k]!r} and leaves with {s_I[k]!r}")
        keep, vanishing = keep[R], vanishing[R]

    A.sum_duplicates()
    C = A.tocoo()
    edges = [Edge(i, j, v, "")
             for i, j, v in zip(C.row.tolist(), C.col.tolist(), C.data.tolist())]
    initial = keep.tolist().index(g.initial) if g.tangible[g.initial] else 0
    return StateGraph(g.model, g.place_order, [g.states[i] for i in keep],
                      [True] * keep.size, edges, initial)


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

    A = _off_diagonal(_matrix(g))
    exit_rates = np.asarray(A.sum(axis=1)).ravel()
    Q = A + sp.diags(-exit_rates, format="csr")

    n_comp, labels = connected_components(A, directed=True, connection="strong")
    if n_comp != 1:
        sizes = np.bincount(labels, minlength=n_comp)
        C = A.tocoo()
        cross = labels[C.row] != labels[C.col]
        closed = np.bincount(labels[C.row[cross]], minlength=n_comp) == 0
        classes = [f"class {c}: {sizes[c]} states" + (" (closed)" if closed[c] else "")
                   for c in range(n_comp)]
        raise NotIrreducible(
            f"chain splits into {n_comp} communicating classes: " + "; ".join(classes))

    rvec = np.array([1.0 if reward_fn(s) != 0.0 else 0.0 for s in g.states])
    return Ctmc(list(g.states), g.place_order, Q, rvec, reward)

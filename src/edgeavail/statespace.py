"""Reachability exploration and reduction to a CTMC over tangible markings.

``explore`` walks the marking graph breadth first, one level (the markings
first found while expanding the level before) at a time.  A marking is
*vanishing* when some instantaneous activity is enabled there (its sojourn
time is zero); everything else is *tangible*.  Edges out of tangible markings
carry rates, edges out of vanishing markings carry probabilities summing to
one.  ``StateGraph`` holds the edges as parallel arrays.

A level of at least ``_BLOCK_MIN`` markings is expanded as one block of
integer rows.  Each compiled predicate, rate and effect is called once per
distinct value of the places it reads (``expr.identifiers``), and only on
the rows where the one-step rule ``CompiledModel.moves`` calls it: timed
predicates at tangible markings, a rate where its predicate holds, effects
where their activity fires.  Effects are applied column-wise, and successors
are deduplicated by packing each marking into an integer key.  Smaller
levels run ``moves`` and ``fire_vec`` marking by marking (the scalar step).
If the block raises, or would cross ``max_states``, the level is replayed
with the scalar step, so every error carries the type, message and marking
the scalar step gives it.  Either way states are numbered in order of first
discovery (source, then activity in declaration order, then case), so the
graph does not depend on which path expanded a level.

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

Exploration is single threaded and fully deterministic, so state indices are
reproducible run to run.  Independent models can be explored concurrently.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (NotIrreducible, StateSpaceExceeded, UnknownReward,
                     VanishingLoop)
from .expr import identifiers
from .san import SanModel, compiled

DEFAULT_MAX_STATES = 100_000
_LOOP_TOL = 1e-12
# Levels of at least this many markings are expanded as a block, smaller ones
# by the scalar step.  Tuned on cluster chains of 946 to 46,781 states.
_BLOCK_MIN = 96
_EXACT_COUNT = 2.0 ** 53   # a count this large leaves the block path


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    value: float  # rate (tangible src) or probability (vanishing src)
    label: str    # "activity/case"


@dataclass
class StateGraph:
    """Markings and the edges between them, as parallel arrays.

    Edge ``k`` runs from state ``src[k]`` to ``dst[k]`` with weight
    ``value[k]`` and label ``labels[label[k]]``.
    """
    model: SanModel
    place_order: tuple
    states: list          # marking tuples in place_order
    tangible: list        # bool per state
    src: np.ndarray       # int64
    dst: np.ndarray       # int64
    value: np.ndarray     # float64: rate (tangible src) or probability
    label: np.ndarray     # int64 index into labels
    labels: tuple         # "activity/case" names
    initial: int

    @property
    def edges(self) -> "_Edges":
        """The edges as ``Edge`` values, in array order."""
        return _Edges(self)

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


class _Edges(Sequence):
    """A graph's edge arrays read as ``Edge`` values, built on access."""

    def __init__(self, g: StateGraph):
        self._g = g

    def __len__(self) -> int:
        return len(self._g.src)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(self)[k]
        g = self._g
        k = range(len(self))[k]
        return Edge(int(g.src[k]), int(g.dst[k]), float(g.value[k]), g.labels[g.label[k]])

    def __iter__(self):
        g = self._g
        names = [g.labels[i] for i in g.label.tolist()]
        return map(Edge, g.src.tolist(), g.dst.tolist(), g.value.tolist(), names)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))


# ── block expansion ──────────────────────────────────────────────────────────

class _Replay(Exception):
    """The block path cannot reproduce this level; the scalar step will."""


@dataclass(frozen=True)
class _Plan:
    """An activity's first label and the place columns each expression reads."""
    label: int
    pred: tuple
    rate: tuple
    input_effects: tuple   # (place, op, value_fn, columns)
    case_effects: tuple    # one tuple like input_effects per case


def _plans(cm) -> tuple:
    """``(plans by compiled activity, label names)`` for one exploration."""
    def cols(e):
        return tuple(sorted(cm.index[p] for p in identifiers(e)[1]))

    def effects(lowered, specs):
        return tuple((place, op, fn, cols(spec.value))
                     for (place, op, fn), spec in zip(lowered, specs))

    plans, labels = {}, []
    for a, spec in zip(cm.activities, cm.model.activities):
        plans[a] = _Plan(
            len(labels), cols(spec.input.predicate),
            cols(spec.rate) if a.timed else (),
            effects(a.input_effects, spec.input.effects),
            tuple(effects(lowered, case.effects)
                  for lowered, case in zip(a.case_effects, spec.cases)))
        labels += [f"{a.name}/{ci}" for ci in range(len(a.case_probs))]
    return plans, tuple(labels)


def _widths(A: np.ndarray) -> list:
    """Bits needed per column of the nonnegative integer rows ``A``."""
    if not len(A):
        return [0] * A.shape[1]
    if A.min() < 0:
        raise _Replay
    return [int(v).bit_length() for v in A.max(axis=0).tolist()]


def _pack(A: np.ndarray, widths: list) -> np.ndarray:
    """One int64 key per row of ``A``: its columns in disjoint bit fields."""
    if sum(widths) > 63:
        raise _Replay
    shifts = np.cumsum([0] + widths[:-1], dtype=np.int64)
    return (A << shifts).sum(axis=1)


def _values(fn, cols: tuple, M: np.ndarray) -> np.ndarray:
    """``fn`` at every row of ``M``, called once per distinct value of ``cols``."""
    if not cols:
        return np.full(len(M), fn(M[0].tolist()), dtype=float)
    sub = M[:, cols]
    key = sub[:, 0] if len(cols) == 1 else _pack(sub, _widths(sub))
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    return np.array([fn(m) for m in M[first].tolist()], dtype=float)[group]


def _apply(effects: tuple, M: np.ndarray) -> np.ndarray:
    """``fire_vec``'s effects on every row of ``M``, in place, in order."""
    for place, op, fn, cols in effects:
        v = _values(fn, cols, M)
        new = v if op == 2 else M[:, place] + v if op == 0 else M[:, place] - v
        rounded = np.rint(new)
        if not (np.all(np.abs(new - rounded) <= 1e-9)
                and np.all((rounded >= 0) & (rounded < _EXACT_COUNT))):
            raise _Replay
        M[:, place] = rounded
    return M


def _expand(cm, plans: dict, X: np.ndarray) -> tuple:
    """The scalar step on every row of ``X`` at once.

    Returns ``(tangible, src, label, value, successors)`` with the edges in
    the scalar step's order: by source row, then label.
    """
    n = len(X)
    instant = [(a, _values(a.pred, plans[a].pred, X) != 0.0)
               for a in cm.instant_activities]
    count = np.zeros(n, dtype=np.int64)
    for _, on in instant:
        count += on
    moves = []
    for a, on in instant:
        rows = np.flatnonzero(on)
        moves.append((a, rows, 1.0 / count[rows]))
    tangible = count == 0
    T = np.flatnonzero(tangible)
    if T.size:
        XT = X[T]
        for a in cm.timed_activities:
            on = _values(a.pred, plans[a].pred, XT) != 0.0
            if on.any():
                rate = _values(a.rate, plans[a].rate, XT[on])
                if not np.all((rate > 0.0) & (rate < np.inf)):
                    raise _Replay
                moves.append((a, T[on], rate))

    src, label, value, succ = [], [], [], []
    for a, rows, weight in moves:
        live = [(ci, p) for ci, p in enumerate(a.case_probs) if p != 0.0]
        if not rows.size or not live:
            continue
        plan = plans[a]
        fired = _apply(plan.input_effects, X[rows])
        for ci, p in live:
            src.append(rows)
            label.append(np.full(rows.size, plan.label + ci, dtype=np.int64))
            value.append(weight * p)
            succ.append(_apply(plan.case_effects[ci], fired.copy()))
    if not src:
        return (tangible, np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0), np.empty((0, X.shape[1]), np.int64))
    src, label = np.concatenate(src), np.concatenate(label)
    order = np.argsort(src * (label.max() + 1) + label, kind="stable")
    return (tangible, src[order], label[order], np.concatenate(value)[order],
            np.concatenate(succ)[order])


class _Keys:
    """Sorted integer keys of the states explored so far, for block lookups.

    A key packs a marking's counts into one bit field per place.  When a count
    outgrows its field, the fields widen (with a bit to spare) and every
    state is keyed again.
    """

    def __init__(self, n_places: int):
        self.widths = [0] * n_places
        self.keyed = 0                       # states[:keyed] are in the table
        self.keys = np.empty(0, np.int64)
        self.ids = np.empty(0, np.int64)

    def of(self, S: np.ndarray, states: list) -> np.ndarray:
        """Keys of the rows ``S``, after adding every state not yet keyed."""
        fresh = np.array(states[self.keyed:], dtype=np.int64).reshape(-1, len(self.widths))
        need = [max(a, b) for a, b in zip(_widths(S), _widths(fresh))]
        if any(n > w for n, w in zip(need, self.widths)):
            widths = [max(n + 1, w) for n, w in zip(need, self.widths)]
            if sum(widths) > 63:
                raise _Replay
            self.widths, self.keyed = widths, 0
            self.keys, self.ids = np.empty(0, np.int64), np.empty(0, np.int64)
            fresh = np.array(states, dtype=np.int64).reshape(-1, len(widths))
        self.add(_pack(fresh, self.widths), np.arange(self.keyed, len(states)))
        return _pack(S, self.widths)

    def add(self, keys: np.ndarray, ids: np.ndarray) -> None:
        order = np.argsort(keys, kind="stable")
        at = np.searchsorted(self.keys, keys[order])
        self.keys = np.insert(self.keys, at, keys[order])
        self.ids = np.insert(self.ids, at, ids[order])
        self.keyed += keys.size

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The state of each key, or -1."""
        if not self.keys.size:
            return np.full(keys.size, -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        return np.where(self.keys[at] == keys, self.ids[at], -1)


def _block_level(cm, plans, X, lo, table: _Keys, states, max_states):
    """Expand the level ``X`` (states ``lo ..``) as a block; changes nothing.

    Returns the level's tangible flags, its edges and its new markings, with
    their keys and state numbers; raises when the scalar step must replay it.
    """
    tangible, src, label, value, S = _expand(cm, plans, X)
    keys, first, inverse = np.unique(table.of(S, states), return_index=True,
                                     return_inverse=True)
    ids = table.find(keys)
    new = np.flatnonzero(ids < 0)
    new = new[np.argsort(first[new], kind="stable")]     # in order of discovery
    if len(states) + new.size > max_states:
        raise _Replay
    ids[new] = np.arange(len(states), len(states) + new.size)
    edges = (src + lo, ids[inverse], value, label)
    return tangible.tolist(), edges, S[first[new]], keys[new], ids[new]


def explore(model: SanModel, max_states: int = DEFAULT_MAX_STATES) -> StateGraph:
    """Breadth-first closure of the marking graph from the initial marking.

    Raises ``StateSpaceExceeded`` on finding more than ``max_states``
    markings, and ``ValueError`` when ``max_states`` is below 1.
    """
    if max_states < 1:
        raise ValueError(f"max_states must be at least 1, got {max_states!r}")
    cm = compiled(model)
    plans, labels = _plans(cm)
    start = cm.initial
    index = {start: 0}
    states = [start]
    tangible = []
    chunks = []
    table = _Keys(len(cm.place_order))
    found = None     # the rows of states[lo:hi], when a block found them

    def intern(vec):
        j = index.get(vec)
        if j is None:
            if len(states) >= max_states:
                raise StateSpaceExceeded(max_states)
            j = len(states)
            index[vec] = j
            states.append(vec)
        return j

    def scalar_level(lo, hi):
        src, dst, value, label = [], [], [], []
        for i in range(lo, hi):
            vec = states[i]
            is_tangible, moves = cm.moves(vec)
            tangible.append(is_tangible)
            for a, weight in moves:
                base = plans[a].label
                for ci, p in enumerate(a.case_probs):
                    if p == 0.0:
                        continue
                    src.append(i)
                    dst.append(intern(cm.fire_vec(vec, a, ci)))
                    value.append(weight * p)
                    label.append(base + ci)
        chunks.append((np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
                       np.array(value, dtype=float), np.array(label, dtype=np.int64)))

    lo, hi = 0, 1
    while lo < hi:
        level = None
        if hi - lo >= _BLOCK_MIN:
            try:
                X = found if found is not None else np.array(states[lo:hi], dtype=np.int64)
                level = _block_level(cm, plans, X, lo, table, states, max_states)
            except Exception:  # the scalar replay raises the real error, if any
                level = None
        if level is None:
            found = None
            scalar_level(lo, hi)
        else:
            flags, edges, found, keys, ids = level
            tangible += flags
            chunks.append(edges)
            fresh = list(map(tuple, found.tolist()))
            index.update(zip(fresh, ids.tolist()))
            states += fresh
            table.add(keys, ids)
        lo, hi = hi, len(states)

    src, dst, value, label = (np.concatenate(parts) for parts in zip(*chunks))
    return StateGraph(model, cm.place_order, states, tangible, src, dst, value,
                      label, labels, 0)


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
    return sp.csr_matrix((g.value, (g.src, g.dst)), shape=(n, n))


def eliminate_vanishing(g: StateGraph) -> StateGraph:
    """Censor vanishing states away, leaving a tangible-only graph."""
    if g.n_vanishing == 0:
        return dataclasses.replace(g, states=list(g.states), tangible=list(g.tangible))

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
    initial = keep.tolist().index(g.initial) if g.tangible[g.initial] else 0
    return StateGraph(g.model, g.place_order, [g.states[i] for i in keep],
                      [True] * keep.size, C.row.astype(np.int64), C.col.astype(np.int64),
                      C.data, np.zeros(C.nnz, dtype=np.int64), ("",), initial)


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

"""Vanishing-marking elimination against a dense oracle on random graphs.

The oracle is the textbook reduction ``R_TT + R_TV (I - P_VV)^-1 P_VT``
solved with ``numpy.linalg.solve``.  A second oracle censors the vanishing
states one at a time in rationals, exactly for the float weights given;
since censoring only adds, multiplies and divides nonnegative numbers, every
entry of the reduced graph must lie within 4·n·eps of it, relative, and an
exact zero must stay zero.
"""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from edgeavail.statespace import eliminate_vanishing  # noqa: E402

from conftest import state_graph  # noqa: E402


@st.composite
def graphs(draw):
    """At most 10 states, at least one tangible.  Tangible rows carry rates,
    vanishing rows probabilities; targets may repeat (parallel edges) and
    include the source (self loops).  Each vanishing state gets one edge to
    a tangible state or to a vanishing state drawn before it, so every
    vanishing state can reach a tangible one; the other edges make chains
    and cycles of vanishing states."""
    tangible = draw(st.lists(st.booleans(), min_size=1, max_size=10))
    tangible[draw(st.integers(0, len(tangible) - 1))] = True
    n = len(tangible)
    T = [i for i in range(n) if tangible[i]]
    V = [i for i in range(n) if not tangible[i]]
    edges = []
    for i in range(n):
        targets = draw(st.lists(st.integers(0, n - 1), max_size=3))
        if tangible[i]:
            for j in targets:
                edges.append((i, j, 10.0 ** draw(st.floats(-3.0, 3.0))))
            continue
        onward = draw(st.sampled_from(T + V[:V.index(i)]))
        targets.insert(draw(st.integers(0, len(targets))), onward)
        weights = [draw(st.floats(0.5, 2.0)) for _ in targets]
        total = sum(weights)
        edges += [(i, j, w / total) for j, w in zip(targets, weights)]
    return state_graph(tangible, edges, draw(st.integers(0, n - 1)))


def _dense(g) -> np.ndarray:
    W = np.zeros((g.n_states, g.n_states))
    for e in g.edges:
        W[e.src, e.dst] += e.value
    return W


@settings(max_examples=200, derandomize=True, deadline=None)
@given(graphs())
def test_elimination_matches_dense_oracle(g):
    W = _dense(g)
    T = np.flatnonzero(g.tangible)
    V = np.flatnonzero(~np.array(g.tangible))
    P_VV = W[np.ix_(V, V)]
    expected = W[np.ix_(T, T)] + W[np.ix_(T, V)] @ np.linalg.solve(
        np.eye(V.size) - P_VV, W[np.ix_(V, T)])

    reduced = eliminate_vanishing(g)
    assert reduced.states == [g.states[i] for i in T]
    assert reduced.n_vanishing == 0
    assert reduced.initial == (list(T).index(g.initial) if g.tangible[g.initial] else 0)
    got = _dense(reduced)
    off = ~np.eye(T.size, dtype=bool)
    # The oracle's subtractions can leave roundoff (seen: 4e-17 of the row's
    # exit rate) where the exact entry is zero, hence the small floor.
    floor = 1e-15 * W[T].sum(axis=1, keepdims=True)
    assert np.all((np.abs(got - expected) <= 1e-12 * expected + floor)[off])
    np.testing.assert_allclose(got.sum(axis=1), W[T].sum(axis=1), rtol=1e-12, atol=0)


def exact_censored(g) -> list:
    """``_dense(g)`` in rationals with the vanishing states censored away one
    at a time, their self loops renormalized away: the tangible rows and
    columns, exact for the float weights given."""
    n = g.n_states
    W = [[Fraction(0)] * n for _ in range(n)]
    for e in g.edges:
        W[e.src][e.dst] += Fraction(e.value)
    left = list(range(n))
    for v in [i for i in range(n) if not g.tangible[i]]:
        left.remove(v)
        out = sum(W[v][j] for j in left)
        for i in left:
            if W[i][v]:
                for j in left:
                    W[i][j] += W[i][v] * W[v][j] / out
    return [[W[i][j] for j in left] for i in left]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(graphs())
def test_elimination_is_accurate_in_every_entry(g):
    got = _dense(eliminate_vanishing(g)).tolist()
    bound = 4 * g.n_states * Fraction(np.finfo(float).eps)
    for got_row, exact_row in zip(got, exact_censored(g), strict=True):
        for value, exact in zip(got_row, exact_row, strict=True):
            assert abs(Fraction(value) - exact) <= bound * exact, (value, float(exact))

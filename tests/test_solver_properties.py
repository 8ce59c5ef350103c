"""GTH's dense kernel against its sparse stages on random irreducible SANs.

Each SAN conserves its tokens: a ring of timed moves carries one token from
each place to the next, which keeps the chain irreducible unless an
instantaneous move cuts it, and a few extra timed and instantaneous moves
carry one token between random places.
Rates are ``10^U(-3, 2)``, either constant or times the source place's count.
Every chain is solved twice with GTH: all in the dense kernel, and all in
the sparse censoring stages.  The two must agree on U to roundoff.  An
example that fails before solving (a vanishing loop, a reducible chain) is
skipped.

Batches of such chains, some of them the same SAN at other rates (so the
same sparsity pattern), must solve in ``steady_state_gth_many`` exactly as
one at a time, with stages down to one state and stacks that flush often.
The cluster ladder's rungs must solve bit for bit as with the dense kernel
on one matrix at a time.

GTH must be accurate in every component, not only in U (O'Cinneide 1993).
On random irreducible chains of 2-8 states with rates from 1e-6 to 1e3,
each component of pi must lie within 4·n·eps, relative, of the exact pi of
the same float rates, found by GTH in rationals: alone, stacked with chains
of its size in ``steady_state_gth_many``, and through the sparse stages
down to one state.

Gauss-Seidel's level-scheduled forward substitution must give bit for bit
what ``spsolve_triangular`` gives on random unit lower triangles: up to 400
rows, some of them empty, some stored zeros, magnitudes within a decade of
1 or from 1e-300 to 1e300, and sometimes a path through every row, n
levels deep.  The schedule must be refused exactly when it is deeper than
its cap.
"""

import dataclasses
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from edgeavail import models as md  # noqa: E402
from edgeavail import solver  # noqa: E402
from edgeavail.errors import EdgeavailError  # noqa: E402
from edgeavail.expr import parse_expression as P  # noqa: E402
from edgeavail.san import (Activity, CaseSpec, InputSpec, Place,  # noqa: E402
                           RewardPredicate, SanModel, put, take)
from edgeavail.statespace import Ctmc, eliminate_vanishing, explore, to_ctmc  # noqa: E402

from test_solver import gth_dense_one, per_chain  # noqa: E402

PLACES = ("A", "B", "C", "D")


@st.composite
def ring_sans(draw):
    """2-4 places holding 1-6 tokens in all, a timed ring and 0-4 extra moves."""
    places = PLACES[:draw(st.integers(2, 4))]
    tokens = draw(st.sampled_from(range(1, 7)))
    initial = [0] * len(places)
    for _ in range(tokens):
        initial[draw(st.integers(0, len(places) - 1))] += 1
    params = {}

    def rate(src):
        name = f"r{len(params)}"
        params[name] = 10.0 ** draw(st.floats(-3.0, 2.0))
        return P(draw(st.sampled_from([name, f"{name} * #{src}"])))

    def move(name, src, dst, timed, need):
        return Activity(name, rate(src) if timed else None,
                        InputSpec(P(f"#{src} >= {need}"), (take(src),)),
                        (CaseSpec(1.0, (put(dst),)),))

    activities = [move(f"ring{i}", src, places[(i + 1) % len(places)], True, 1)
                  for i, src in enumerate(places)]
    for i in range(draw(st.integers(0, 4))):
        src, dst = draw(st.permutations(places))[:2]
        activities.append(move(f"extra{i}", src, dst, draw(st.booleans()),
                               draw(st.integers(1, 2))))
    return SanModel(
        places=tuple(Place(p, n) for p, n in zip(places, initial)),
        parameters=params, activities=tuple(activities),
        rewards=(RewardPredicate("up", P(f"#{draw(st.sampled_from(places))} >= 1")),))


def _gth_u(chain, dense_block, min_share):
    with mock.patch.object(solver, "_DENSE_BLOCK", dense_block), \
            mock.patch.object(solver, "_MIN_STAGE_SHARE", min_share):
        return solver.unavailability(chain, solver.steady_state_gth(chain))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(ring_sans())
def test_dense_and_staged_gth_agree(model):
    try:
        chain = to_ctmc(eliminate_vanishing(explore(model, max_states=500)), "up")
    except EdgeavailError:
        assume(False)
    dense = _gth_u(chain, chain.n_states + 1, solver._MIN_STAGE_SHARE)
    staged = _gth_u(chain, 1, 0.0)
    assert abs(dense - staged) <= 1e-12 * abs(dense) + 1e-15


@st.composite
def ring_batches(draw):
    """1-4 ring SANs, each followed by 0-2 copies with every rate rescaled."""
    batch = []
    for model in draw(st.lists(ring_sans(), min_size=1, max_size=4)):
        batch.append(model)
        for _ in range(draw(st.integers(0, 2))):
            factor = 2.0 ** draw(st.floats(-1.0, 1.0))
            batch.append(dataclasses.replace(model, parameters={
                name: value * factor for name, value in model.parameters.items()}))
    return batch


def _one_at_a_time(chains):
    states = []
    for c in chains:
        try:
            states.append(solver.steady_state_gth(c))
        except EdgeavailError as err:
            return states, str(err)
    return states, None


def _batched(chains):
    states = []
    try:
        for c, state in solver.steady_state_gth_many(chains):
            assert c is chains[len(states)]
            states.append(state)
    except EdgeavailError as err:
        return states, str(err)
    return states, None


@pytest.mark.parametrize("dense_block, stack_bytes", [(1, 40), (solver._DENSE_BLOCK,
                                                                solver._STACK_BYTES)])
@settings(max_examples=60, derandomize=True, deadline=None)
@given(batch=ring_batches())
def test_batch_solves_each_chain_as_alone(batch, dense_block, stack_bytes):
    chains = []
    for model in batch:
        try:
            chains.append(to_ctmc(eliminate_vanishing(explore(model, max_states=500)), "up"))
        except EdgeavailError:
            pass
    assume(chains)
    with mock.patch.object(solver, "_DENSE_BLOCK", dense_block), \
            mock.patch.object(solver, "_STACK_BYTES", stack_bytes):
        alone, alone_error = _one_at_a_time(chains)
        batched, batched_error = _batched(chains)
    assert batched_error == alone_error
    assert len(batched) == len(alone)
    for got, expected in zip(batched, alone):
        assert np.array_equal(got.distribution, expected.distribution)
        assert got.residual == expected.residual


@pytest.mark.parametrize("M, K", [(10, 9), (12, 11), (15, 13), (20, 18)])
def test_ladder_rungs_solve_as_the_one_matrix_kernel(table, M, K):
    tables = [table.with_overrides(M=M, K=K),
              table.with_overrides(M=M, K=K, alpha_S=10.0, lambda_HW=0.01)]
    chains = [to_ctmc(eliminate_vanishing(explore(md.build_cluster(t))), "up")
              for t in tables]
    batched = [state for _, state in solver.steady_state_gth_many(chains)]
    with mock.patch.object(solver, "_gth_dense", per_chain(gth_dense_one)):
        reference = [solver.steady_state_gth(c) for c in chains]
    for got, expected in zip(batched, reference, strict=True):
        assert np.array_equal(got.distribution, expected.distribution)
        assert got.residual == expected.residual


EPS = Fraction(np.finfo(float).eps)


@st.composite
def rate_stacks(draw):
    """1-3 rate matrices of one size, 2-8 states: a ring in random order
    (so each chain is irreducible) and up to n² extra rates, ``10^U(-6, 3)``."""
    n = draw(st.integers(2, 8))
    stack = []
    for _ in range(draw(st.integers(1, 3))):
        R = np.zeros((n, n))
        ring = draw(st.permutations(range(n)))
        pairs = [(ring[k], ring[(k + 1) % n]) for k in range(n)]
        pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda ij: ij[0] != ij[1]), max_size=n * n))
        for i, j in pairs:
            R[i, j] = 10.0 ** draw(st.floats(-6.0, 3.0))
        stack.append(R)
    return stack


def _ctmc(R) -> Ctmc:
    n = len(R)
    Q = sp.csr_matrix(R - np.diag(R.sum(axis=1)))
    return Ctmc([(i,) for i in range(n)], ("S",), Q, np.zeros(n), "up")


def exact_gth(R) -> list:
    """The stationary distribution of the off-diagonal rates ``R``, by GTH in
    rationals: exact for the float values as given."""
    n = len(R)
    a = [[Fraction(v) for v in row] for row in R.tolist()]
    for k in range(n - 1, 0, -1):
        s = sum(a[k][:k])
        for i in range(k):
            a[i][k] /= s
        for i in range(k):
            for j in range(k):
                if i != j:
                    a[i][j] += a[i][k] * a[k][j]
    x = [Fraction(1)]
    for k in range(1, n):
        x.append(sum(x[i] * a[i][k] for i in range(k)))
    return [v / sum(x) for v in x]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(rate_stacks())
def test_gth_is_accurate_in_every_component(stack):
    chains = [_ctmc(R) for R in stack]
    alone = [solver.steady_state_gth(c) for c in chains]
    stacked = [state for _, state in solver.steady_state_gth_many(chains)]
    with mock.patch.object(solver, "_DENSE_BLOCK", 1), \
            mock.patch.object(solver, "_MIN_STAGE_SHARE", 0.0):
        staged = [solver.steady_state_gth(c) for c in chains]
    bound = 4 * len(stack[0]) * EPS
    for R, *states in zip(stack, alone, stacked, staged):
        exact = exact_gth(R)
        for state in states:
            for got, pi in zip(state.distribution.tolist(), exact, strict=True):
                assert abs(Fraction(got) - pi) <= bound * pi, (got, float(pi))


@st.composite
def unit_triangles(draw):
    """A canonical CSC lower triangle, its diagonal ignored, with a right-hand side."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.integers(0, n, draw(st.integers(0, 3 * n)))
    rows = rows[rows > 0]
    cols = rng.integers(0, rows)
    if draw(st.booleans()):     # a path through every row: n levels
        rows, cols = np.r_[rows, 1:n], np.r_[cols, 0:n - 1]
    empty = rng.random(n) < draw(st.floats(0.0, 0.5))
    keep = ~empty[rows]
    rows, cols = rows[keep], cols[keep]
    # magnitudes 10^U(-e, e): close ones round differently in another order
    e = draw(st.sampled_from([1.0, 300.0]))
    vals = rng.choice([-1.0, 1.0], rows.size) * 10.0 ** rng.uniform(-e, e, rows.size)
    vals[rng.random(rows.size) < draw(st.floats(0.0, 0.3))] = 0.0    # stored zeros
    lower = sp.csc_matrix((np.r_[vals, rng.uniform(0.5, 2.0, n)],
                           (np.r_[rows, 0:n], np.r_[cols, 0:n])), shape=(n, n))
    lower.sum_duplicates()
    b = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-e, e, n)
    return lower, b


def _depth(lower) -> int:
    """Levels of the strictly lower triangle's dependency graph, row by row."""
    below = sp.tril(lower, -1).tocsr()
    level = []
    for i in range(lower.shape[0]):
        reads = below.indices[below.indptr[i]:below.indptr[i + 1]]
        level.append(1 + max((level[j] for j in reads), default=0))
    return max(level)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(unit_triangles(), st.integers(0, 450))
def test_level_solve_is_spsolve_triangular_bit_for_bit(triangle, cap):
    lower, b = triangle
    depth = _depth(lower)
    for limit in (cap, depth - 1, depth):
        assert (solver._level_schedule(lower, limit) is None) == (depth > limit)
    schedule = solver._level_schedule(lower, depth)
    assert len(schedule) == depth - 1
    with np.errstate(all="ignore"):
        want = spsolve_triangular(lower.copy(), b.copy(), lower=True, unit_diagonal=True)
        got = b.copy()
        solver._forward_levels(schedule, got)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

"""Steady-state solvers: exactness, cross-agreement, invariances."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from edgeavail import models as md
from edgeavail import solver
from edgeavail.errors import (DenseBlockTooLarge, NotConverged, NotIrreducible,
                              SparseStagesTooLarge)
from edgeavail.expr import parse_expression as P
from edgeavail.san import (Activity, CaseSpec, InputSpec, Place,
                           RewardPredicate, SanModel, put, take)
from edgeavail.solver import (availability, steady_state_gth,
                              steady_state_iterative, unavailability)
from edgeavail.statespace import Ctmc, eliminate_vanishing, explore, to_ctmc

from conftest import deadline, two_state_model


def _chain(model, reward="up"):
    return to_ctmc(eliminate_vanishing(explore(model)), reward)


def _all_chains(table):
    return {name: _chain(m) for name, m in md.builtin_models(table).items()}


def test_two_state_analytic():
    c = _chain(two_state_model(lam=0.1, mu=0.9))
    ss = steady_state_gth(c)
    # pi = (mu, lam) / (lam + mu) = (0.9, 0.1)
    assert abs(ss.distribution[0] - 0.9) < 1e-15
    assert abs(unavailability(c, ss) - 0.1) < 1e-15
    assert availability(c, ss) == pytest.approx(0.9, abs=1e-15)


def test_three_state_ring_is_uniform():
    m = SanModel(
        places=(Place("A", 1), Place("B", 0), Place("C", 0)),
        parameters={"r": 3.5},
        activities=(
            Activity("ab", P("r"), InputSpec(P("#A >= 1"), (take("A"),)),
                     (CaseSpec(1.0, (put("B"),)),)),
            Activity("bc", P("r"), InputSpec(P("#B >= 1"), (take("B"),)),
                     (CaseSpec(1.0, (put("C"),)),)),
            Activity("ca", P("r"), InputSpec(P("#C >= 1"), (take("C"),)),
                     (CaseSpec(1.0, (put("A"),)),)),
        ),
        rewards=(RewardPredicate("up", P("#A >= 1")),),
    )
    ss = steady_state_gth(_chain(m))
    assert np.allclose(ss.distribution, 1 / 3, atol=1e-15)


def test_ru_matches_analytic_cycle_formula(table):
    # single-token cyclic model: U = 1 - 1 / (1 + sum(lambda_i / mu_i))
    t = table
    ratio = (t.lambda_RH / t.mu_RH + t.lambda_A / t.mu_A + t.lambda_FW / t.mu_FW)
    expected = 1.0 - 1.0 / (1.0 + ratio)
    c = _chain(md.build_ru(t))
    u = unavailability(c, steady_state_gth(c))
    assert u == pytest.approx(expected, abs=1e-12)
    assert u == pytest.approx(7.2e-4, rel=2e-3)  # the advertised magnitude


def test_du_matches_independent_linear_algebra(table):
    # independent oracle: assemble the reduced 6-state generator by hand from
    # the rates and solve with numpy's least squares, no package machinery
    t = table
    idx = {"OK": 0, "HW": 1, "OSf": 2, "OSu": 3, "SWu": 4, "SWr": 5}
    Q = np.zeros((6, 6))

    def rate(a, b, r):
        Q[idx[a], idx[b]] += r

    rate("OK", "HW", t.lambda_HW)
    rate("HW", "OK", t.mu_HW)
    rate("OK", "OSf", t.lambda_OS)
    rate("OSf", "SWr", t.C_OS * t.mu_OS_r)
    rate("OSf", "OSu", (1 - t.C_OS) * t.mu_OS_r)
    rate("OSu", "SWr", t.mu_OS)
    rate("OK", "SWr", t.C_SW * t.lambda_SW)     # instantaneous branch folded
    rate("OK", "SWu", (1 - t.C_SW) * t.lambda_SW)
    rate("SWu", "OK", t.mu_SW)
    rate("SWr", "OK", t.mu_SW_r)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    A = np.vstack([Q.T, np.ones(6)])
    b = np.zeros(7)
    b[-1] = 1.0
    pi = np.linalg.lstsq(A, b, rcond=None)[0]
    expected_u = 1.0 - pi[idx["OK"]]

    c = _chain(md.build_du(t))
    u = unavailability(c, steady_state_gth(c))
    assert u == pytest.approx(expected_u, rel=1e-9)


def test_gth_residuals_are_tiny(table):
    for name, c in _all_chains(table).items():
        ss = steady_state_gth(c)
        assert ss.residual < 1e-10, name
        assert abs(ss.distribution.sum() - 1.0) < 1e-10
        assert np.all(ss.distribution >= 0)


def test_iterative_agrees_with_gth_on_all_models(table):
    for name, c in _all_chains(table).items():
        u_gth = unavailability(c, steady_state_gth(c))
        u_it = unavailability(c, steady_state_iterative(c, tol=1e-13))
        assert u_it == pytest.approx(u_gth, rel=1e-8), name


def test_iterative_two_state_tolerance():
    c = _chain(two_state_model())
    ss = steady_state_iterative(c, tol=1e-12)
    assert abs(unavailability(c, ss) - 0.1) < 1e-10


def test_iterative_not_converged(table):
    c = _chain(md.build_cluster(table))
    with pytest.raises(NotConverged) as err:
        steady_state_iterative(c, tol=1e-12, max_iter=1)
    assert err.value.iterations == 1


def test_rate_scaling_leaves_distribution_unchanged(table):
    # scaling every rate by a positive constant rescales time only; GTH is
    # exactly invariant because the scale cancels in every quotient
    c = _chain(md.build_du(table))
    scaled = Ctmc(c.states, c.place_order, sp.csr_matrix(c.Q * 7.0), c.reward,
                  c.reward_name)
    pi1 = steady_state_gth(c).distribution
    pi2 = steady_state_gth(scaled).distribution
    assert np.array_equal(pi1, pi2)


def test_unavailability_bounds(table):
    c = _chain(md.build_meh(table))
    ss = steady_state_gth(c)
    u = unavailability(c, ss)
    assert 0.0 <= u <= 1.0
    # an all-up reward gives unavailability zero (up to summation roundoff)
    all_up = Ctmc(c.states, c.place_order, c.Q, np.ones(c.n_states), "always")
    assert unavailability(all_up, ss) == pytest.approx(0.0, abs=1e-12)


def _hand_chain(src, dst, n, rate=1.0):
    """A chain built without to_ctmc (which rejects reducible graphs), ``rate`` per edge."""
    off = sp.csr_matrix((np.ones(len(src)) * rate, (src, dst)), shape=(n, n))
    Q = (off - sp.diags(np.asarray(off.sum(axis=1)).ravel())).tocsr()
    return Ctmc([(i,) for i in range(n)], ("s",), Q, np.ones(n), "up")


@pytest.mark.parametrize("size", [50, 600])
def test_gth_rejects_two_closed_rings(size):
    # 2 x 50 states runs the dense kernel alone, 2 x 600 the sparse stages too
    src = np.arange(2 * size)
    dst = size * (src // size) + (src + 1) % size
    with pytest.raises(NotIrreducible):
        steady_state_gth(_hand_chain(src, dst, 2 * size))


@pytest.mark.parametrize("bad", ["cut_off", "absorbing"])
def test_batch_yields_every_chain_before_a_failing_one(bad):
    # three 60-state chains: the failing one shares the others' dense stack
    # (cut off) or fails before its remainder is stacked (absorbing)
    n = 60
    states = np.arange(n)
    ring = _hand_chain(states, np.roll(states, -1), n)
    if bad == "cut_off":
        broken = _hand_chain(states, 30 * (states // 30) + (states + 1) % 30, n)
    else:
        broken = _hand_chain(states[1:], states[1:] - 1, n)
    with pytest.raises(NotIrreducible) as alone:
        steady_state_gth(broken)
    many = solver.steady_state_gth_many([ring, broken, ring])
    chain, state = next(many)
    assert chain is ring
    assert np.array_equal(state.distribution, steady_state_gth(ring).distribution)
    with pytest.raises(NotIrreducible) as batched:
        next(many)
    assert str(batched.value) == str(alone.value)


def _chord_chain(chord):
    """A ring 0 -> 1 -> 2 -> 3 -> 0 and a chord 0 -> 2 of rate ``chord``, stored even if 0."""
    data = [-(1.0 + chord), 1.0, chord, -2.0, 2.0, -3.0, 3.0, 4.0, -4.0]
    Q = sp.csr_matrix((data, [0, 1, 2, 1, 2, 2, 3, 0, 3], [0, 3, 5, 7, 9]), shape=(4, 4))
    return Ctmc([(i,) for i in range(4)], ("s",), Q, np.ones(4), "up")


def test_batch_reuses_stage_sets_by_pattern_not_values(monkeypatch):
    # both chains store the chord, the first as an explicit zero, so they share
    # a sparsity pattern and the second reuses the first's stage sets; those
    # must count the stored zero as an edge, or {0, 2} would be censored at once
    monkeypatch.setattr(solver, "_DENSE_BLOCK", 1)
    chains = [_chord_chain(0.0), _chord_chain(5.0)]
    assert chains[0].Q.nnz == chains[1].Q.nnz == 9
    for c, (_, state) in zip(chains, solver.steady_state_gth_many(chains), strict=True):
        assert np.array_equal(state.distribution, steady_state_gth(c).distribution)


@pytest.mark.parametrize("n", [5, 1000])
def test_gth_rejects_absorbing_state_zero(n):
    # every state drains into state 0, which has no exit: reducible at any size
    src = np.arange(1, n)
    with pytest.raises(NotIrreducible, match="state 0"):
        steady_state_gth(_hand_chain(src, src - 1, n))


def test_gth_sparse_stages_name_the_state_they_cut_off(monkeypatch):
    # two closed 4-rings, censored by sparse stages down to one state
    monkeypatch.setattr(solver, "_DENSE_BLOCK", 1)
    monkeypatch.setattr(solver, "_MIN_STAGE_SHARE", 0)
    src = np.arange(8)
    with pytest.raises(NotIrreducible, match=r"^state 3 cannot reach the states left"):
        steady_state_gth(_hand_chain(src, 4 * (src // 4) + (src + 1) % 4, 8))


def test_one_state_chain_is_solved_by_both_solvers():
    c = Ctmc([(0,)], ("s",), sp.csr_matrix((1, 1)), np.zeros(1), "up")
    for solve in (steady_state_gth, steady_state_iterative):
        state = solve(c)
        assert state.distribution.tolist() == [1.0]
        assert unavailability(c, state) == 1.0


def test_gauss_seidel_names_the_absorbing_state():
    c = _hand_chain([0], [1], 2)   # state 1 has no exit
    with pytest.raises(NotIrreducible, match=r"^state 1 has zero exit rate \(absorbing\)$"):
        steady_state_iterative(c)


def test_unavailability_keeps_digits_of_tiny_u():
    lam, mu = 1e-12, 1.0
    c = _chain(two_state_model(lam=lam, mu=mu))
    u = unavailability(c, steady_state_gth(c))
    # 1 - pi r would keep only ~4 digits here (1.0000889e-12)
    assert abs(u - lam / (lam + mu)) <= 1e-12 * (lam / (lam + mu))


def test_sparse_gth_matches_dense_kernel_and_repeats(table, monkeypatch):
    c = _chain(md.build_cluster(table))      # (10, 9): above the dense block size
    assert c.n_states > solver._DENSE_BLOCK
    first = steady_state_gth(c).distribution
    assert np.array_equal(first, steady_state_gth(c).distribution)
    monkeypatch.setattr(solver, "_DENSE_BLOCK", c.n_states)
    dense = steady_state_gth(c).distribution
    assert np.max(np.abs(first - dense) / dense) < 1e-12


def _gth_dense_unblocked(A, labels):
    """The dense kernel as one rank-1 update over the whole block per state."""
    n = A.shape[0]
    for k in range(n - 1, 0, -1):
        s = A[k, :k].sum()
        if not (s > 0.0 and np.isfinite(s)):
            raise solver._cut_off(labels[k])
        col = A[:k, k] / s
        A[:k, :k] += np.outer(col, A[k, :k])
        A[:k, k] = col
    x = np.empty(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = x[:k] @ A[:k, k]
    return x


def gth_dense_one(A, labels):
    """The blocked kernel on one 2-D matrix: the reference that each chain
    of a stack must match bit for bit."""
    n = A.shape[0]
    k = n
    while k > 1:
        lo = max(k - solver._PANEL, 1)
        for j in range(k - 1, lo - 1, -1):
            s = A[j, :j].sum()
            if not (s > 0.0 and np.isfinite(s)):
                raise solver._cut_off(labels[j])
            A[:j, j] /= s
            A[lo:j, :j] += np.outer(A[lo:j, j], A[j, :j])
            A[:lo, lo:j] += np.outer(A[:lo, j], A[j, lo:j])
        for c in range(0, lo, solver._PANEL):
            e = min(c + solver._PANEL, lo)
            A[:lo, c:e] += A[:lo, lo:k] @ A[lo:k, c:e]
        k = lo
    x = np.empty(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = x[:k] @ A[:k, k]
    return x


def per_chain(kernel):
    """A 2-D ``kernel`` applied to each matrix of a stack, as ``_gth_dense`` is called."""
    return lambda A, labels: np.stack([kernel(a, labels) for a in A])


@pytest.mark.parametrize("n", [2, 31, 32, 33, 65, 300])
def test_blocked_gth_matches_unblocked_reference(n):
    # one panel, the panel edges, and a ragged last panel; rates 1e-6 .. 1e2
    rng = np.random.default_rng(n)
    A = np.where(rng.random((n, n)) < 0.1, 10.0 ** rng.uniform(-6, 2, (n, n)), 0.0)
    A[np.arange(n), (np.arange(n) + 1) % n] = 10.0 ** rng.uniform(-6, 2, n)
    np.fill_diagonal(A, 0.0)
    labels = np.arange(n)
    got = solver._gth_dense(A[None].copy(), labels)[0]
    expected = _gth_dense_unblocked(A.copy(), labels)
    got, expected = got / got.sum(), expected / expected.sum()
    assert np.max(np.abs(got - expected) / expected) < 1e-12


@pytest.mark.parametrize("n", [2, 33, 267])
def test_stacked_gth_equals_each_chain_alone(n):
    rng = np.random.default_rng(n)
    stack = np.where(rng.random((3, n, n)) < 0.1, 10.0 ** rng.uniform(-6, 2, (3, n, n)), 0.0)
    stack[:, np.arange(n), (np.arange(n) + 1) % n] = 10.0 ** rng.uniform(-6, 2, (3, n))
    stack[:, np.arange(n), np.arange(n)] = 0.0
    labels = np.arange(n)
    got = solver._gth_dense(stack.copy(), labels)
    for A, x in zip(stack, got):
        assert np.array_equal(x, gth_dense_one(A.copy(), labels))


def _u_both_kernels(c, monkeypatch):
    blocked = unavailability(c, steady_state_gth(c))
    with monkeypatch.context() as m:
        m.setattr(solver, "_gth_dense", per_chain(_gth_dense_unblocked))
        reference = unavailability(c, steady_state_gth(c))
    return blocked, reference


def test_blocked_gth_matches_reference_on_builtin_models(table, monkeypatch):
    for name, c in _all_chains(table).items():
        blocked, reference = _u_both_kernels(c, monkeypatch)
        assert abs(blocked - reference) <= 1e-12 * reference, name


@pytest.mark.parametrize("M, K", [(10, 9), (12, 11), (15, 13), (20, 18)])
def test_blocked_gth_matches_reference_on_cluster_rungs(table, monkeypatch, M, K):
    c = _chain(md.build_cluster(table.with_overrides(M=M, K=K)))
    with deadline(60):
        blocked, reference = _u_both_kernels(c, monkeypatch)
    assert abs(blocked - reference) <= 1e-12 * reference


@pytest.mark.parametrize("cut", [36, 50, 67])
def test_gth_cut_off_inside_a_panel_names_the_state(cut):
    # states cut .. 99 form a closed ring in scrambled order, 0 .. cut-1 another;
    # the dense kernel alone (100 states) first finds state `cut` cut off, at a
    # panel's top (67), in its middle (50) or at its bottom (36)
    n = 100
    rng = np.random.default_rng(cut)
    low, high = np.arange(cut), cut + rng.permutation(n - cut)
    src = np.concatenate([low, high])
    dst = np.concatenate([np.roll(low, -1), np.roll(high, -1)])
    with pytest.raises(NotIrreducible, match=f"^state {cut} cannot reach"):
        steady_state_gth(_hand_chain(src, dst, n))


class _Remainder(Exception):
    pass


def test_stage_rule_keeps_cluster_30_27_remainder_dense(table, monkeypatch):
    # a retune of the sparse stages must not turn this exact solve into
    # DenseBlockTooLarge; the dense kernel itself is skipped
    def remainder(A, labels):
        raise _Remainder(A.shape[-1])

    monkeypatch.setattr(solver, "_gth_dense", remainder)
    with deadline(30):
        c = _chain(md.build_cluster(table.with_overrides(M=30, K=27)))
        with pytest.raises(_Remainder) as got:
            steady_state_gth(c)
    assert got.value.args[0] <= solver._DENSE_MAX


def test_gth_refuses_oversized_dense_block(table, monkeypatch):
    monkeypatch.setattr(solver, "_DENSE_MAX", 10)
    with pytest.raises(DenseBlockTooLarge, match="--method iter") as err:
        steady_state_gth(_chain(md.build_cluster(table)))
    assert err.value.size > 10 and err.value.limit == 10


def test_gth_refuses_sparse_stages_over_budget(table, monkeypatch):
    c = _chain(md.build_cluster(table))
    assert c.n_states > solver._DENSE_BLOCK
    monkeypatch.setattr(solver, "_SPARSE_MAX_BYTES", 100_000)
    with pytest.raises(SparseStagesTooLarge, match="--method iter") as err:
        steady_state_gth(c)
    assert err.value.nbytes > 100_000 and err.value.limit == 100_000
    assert solver._DENSE_BLOCK < err.value.states < c.n_states


def _gauss_seidel_per_call(c, tol):
    """The sweep with ``spsolve_triangular`` preparing ``D + L`` on every call."""
    A = c.Q.T.tocsr()
    lower = sp.tril(A, 0).tocsr()
    upper = sp.triu(A, 1).tocsr()
    x = np.full(c.n_states, 1.0 / c.n_states)
    for sweep in range(1, 100_000):
        x_new = spsolve_triangular(lower, -(upper @ x), lower=True)
        x_new /= x_new.sum()
        change = np.max(np.abs(x_new - x))
        x = x_new
        if change < tol:
            return x, sweep
    raise AssertionError("reference did not converge")


def _count_kernels(monkeypatch) -> dict:
    """Counts the sweeps run by each forward-substitution kernel."""
    calls = {"spsolve_triangular": 0, "_forward_levels": 0}
    for name in calls:
        kernel = getattr(solver, name)

        def counted(*args, _name=name, _kernel=kernel, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    return calls


@pytest.mark.parametrize("build, fallback", [
    pytest.param(md.build_cluster, False, id="build_cluster"),
    pytest.param(md.build_meh, False, id="build_meh"),
    pytest.param(md.build_cluster, True, id="build_cluster-fallback"),
    pytest.param(md.build_meh, True, id="build_meh-fallback")])
def test_gauss_seidel_matches_per_call_reference(table, monkeypatch, build, fallback):
    # cluster (10, 9), and MEH, whose graph has vanishing markings: both run
    # the level schedule, unless a cap of 0 levels forces the one-call solve
    c = _chain(build(table))
    expected, sweeps = _gauss_seidel_per_call(c, 1e-14)
    if fallback:
        monkeypatch.setattr(solver, "_level_cap", lambda n: 0)
    calls = _count_kernels(monkeypatch)
    got = steady_state_iterative(c, tol=1e-14)
    assert np.array_equal(got.distribution, expected)
    assert calls == {"spsolve_triangular": sweeps if fallback else 0,
                     "_forward_levels": 0 if fallback else sweeps}


def test_gauss_seidel_keeps_one_call_solve_on_deep_chain(monkeypatch):
    # states 0 .. n-1 step up and down at rate 1 and reset to 0 at rate 0.1:
    # the triangle's steps up form one path n levels deep, which level by
    # level would take about 80 ms a sweep, and GS needs 236 sweeps
    n = 20_000
    i = np.arange(n - 1)
    c = _hand_chain(np.r_[i, i + 1, i + 1], np.r_[i + 1, i, np.zeros(n - 1, int)], n,
                    np.r_[np.ones(2 * (n - 1)), np.full(n - 1, 0.1)])
    expected, sweeps = _gauss_seidel_per_call(c, solver.DEFAULT_TOL)
    assert sweeps >= 100
    calls = _count_kernels(monkeypatch)
    with deadline(5):
        got = steady_state_iterative(c)
    assert calls == {"spsolve_triangular": sweeps, "_forward_levels": 0}
    assert np.array_equal(got.distribution, expected)


@pytest.mark.parametrize("limits", [
    {"tol": math.nan}, {"tol": -1.0}, {"tol": 0.0}, {"tol": math.inf},
    {"max_iter": 0}, {"max_iter": -3}])
def test_iterative_rejects_bad_limits(table, limits):
    c = _chain(md.build_du(table))
    with deadline(5), pytest.raises(ValueError, match="tol must be|max_iter must be"):
        steady_state_iterative(c, **limits)

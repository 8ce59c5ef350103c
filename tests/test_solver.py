"""Steady-state solvers: exactness, cross-agreement, invariances."""

import numpy as np
import pytest
import scipy.sparse as sp

from edgeavail import models as md
from edgeavail import solver
from edgeavail.errors import DenseBlockTooLarge, NotConverged, NotIrreducible
from edgeavail.expr import parse_expression as P
from edgeavail.san import (Activity, CaseSpec, InputSpec, Place,
                           RewardPredicate, SanModel, put, take)
from edgeavail.solver import (availability, steady_state_gth,
                              steady_state_iterative, unavailability)
from edgeavail.statespace import Ctmc, eliminate_vanishing, explore, to_ctmc

from conftest import two_state_model


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


def _hand_chain(src, dst, n):
    """A chain built without to_ctmc (which rejects reducible graphs), rate 1 per edge."""
    off = sp.csr_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
    Q = (off - sp.diags(np.asarray(off.sum(axis=1)).ravel())).tocsr()
    return Ctmc([(i,) for i in range(n)], ("s",), Q, np.ones(n), "up")


@pytest.mark.parametrize("size", [50, 600])
def test_gth_rejects_two_closed_rings(size):
    # 2 x 50 states runs the dense kernel alone, 2 x 600 the sparse stages too
    src = np.arange(2 * size)
    dst = size * (src // size) + (src + 1) % size
    with pytest.raises(NotIrreducible):
        steady_state_gth(_hand_chain(src, dst, 2 * size))


@pytest.mark.parametrize("n", [5, 1000])
def test_gth_rejects_absorbing_state_zero(n):
    # every state drains into state 0, which has no exit: reducible at any size
    src = np.arange(1, n)
    with pytest.raises(NotIrreducible, match="state 0"):
        steady_state_gth(_hand_chain(src, src - 1, n))


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


def test_gth_refuses_oversized_dense_block(table, monkeypatch):
    monkeypatch.setattr(solver, "_DENSE_MAX", 10)
    with pytest.raises(DenseBlockTooLarge, match="--method iter") as err:
        steady_state_gth(_chain(md.build_cluster(table)))
    assert err.value.size > 10 and err.value.limit == 10

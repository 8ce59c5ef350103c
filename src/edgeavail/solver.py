"""Exact steady-state solution of a CTMC and reward extraction.

Two solvers, deliberately different in kind so they can cross-check each
other:

* ``steady_state_gth`` — Grassmann-Taksar-Heyman elimination.  A direct
  method that only ever adds, multiplies and divides nonnegative quantities,
  so it stays accurate even when rates span many orders of magnitude (here:
  1e-6 .. 240 per hour).  Default.
* ``steady_state_iterative`` — Gauss-Seidel sweeps on ``pi Q = 0`` with
  renormalization after every sweep (Stewart 1994, ch. 3), implemented as
  one sparse triangular solve per sweep.  The lower triangle is scaled to a
  unit diagonal, ``(D+L) D^-1``, once per solve; each sweep then solves with
  it and multiplies by ``1/diag``, the arithmetic ``spsolve_triangular``
  would otherwise redo on every call.

GTH censors states out of the chain.  It first censors whole independent
sets of states at once (no transition between two states of a set), which
gives the stochastic complement (Meyer 1989) through sparse products and
no inverse, and touches only the nonzeros of these very sparse chains.
That sparse stage is ``statespace.censor``, which also eliminates the
vanishing markings before a chain reaches the solver.
Once a set would censor only a small share of what is left, or at most a
few hundred states remain, the remainder is copied into a dense block and
eliminated state by state.  Chains at or below that size run the dense
loop alone.  A remainder too large to hold densely raises
``DenseBlockTooLarge`` before it is allocated; the iterative path solves
such chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from .errors import DenseBlockTooLarge, NotConverged, NotIrreducible
from .statespace import Ctmc, _independent_set, _off_diagonal, censor

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 1_000_000

# GTH elimination.  The sparse stages run while more than _DENSE_BLOCK states
# are left, and stop early once an independent set would censor fewer than
# _MIN_STAGE_SHARE of them: as fill grows, such a stage costs about as much as
# the dense work it saves.  Both were tuned on cluster chains of 946 to 6,391
# states.  A remainder above _DENSE_MAX states (200 MB dense) is refused.
_DENSE_BLOCK = 300
_MIN_STAGE_SHARE = 0.015
_DENSE_MAX = 5_000


@dataclass
class SteadyState:
    distribution: np.ndarray
    method: str          # "gth" | "iterative"
    residual: float      # max |pi Q|

    def __post_init__(self):
        self.distribution = np.asarray(self.distribution, dtype=float)


def _residual(pi, Q) -> float:
    return float(np.max(np.abs(pi @ Q)))


def _cut_off(state) -> NotIrreducible:
    return NotIrreducible(f"state {state} cannot reach the states left during "
                          "elimination (chain is reducible)")


def _gth_dense(A: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """State-by-state GTH on a dense off-diagonal rate matrix, in place.

    Returns the unnormalized stationary weights with ``x[0] = 1``;
    ``labels`` maps rows to the chain's state numbers for error messages.
    """
    n = A.shape[0]
    # Censor states n-1 .. 1 one at a time.  Only off-diagonal entries are
    # ever read, so the rank-1 update can safely touch the diagonal.
    for k in range(n - 1, 0, -1):
        s = A[k, :k].sum()
        if not (s > 0.0 and np.isfinite(s)):
            raise _cut_off(labels[k])
        col = A[:k, k] / s
        A[:k, :k] += np.outer(col, A[k, :k])
        A[:k, k] = col
    # Back substitution: expected sojourn weight relative to state 0.
    x = np.empty(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = x[:k] @ A[:k, k]
    return x


def steady_state_gth(c: Ctmc) -> SteadyState:
    """Stationary distribution by GTH elimination (subtraction-free, exact to roundoff).

    Raises ``NotIrreducible`` when a state has no exit or elimination finds a
    state cut off from the rest, and ``DenseBlockTooLarge`` when the sparse
    stages leave more than ``_DENSE_MAX`` states for the dense kernel.
    """
    n = c.n_states
    if n == 1:
        return SteadyState(np.ones(1), "gth", _residual(np.ones(1), c.Q))

    A = _off_diagonal(sp.csr_matrix(c.Q, dtype=float))
    absorbing = np.flatnonzero(~(np.asarray(A.sum(axis=1)).ravel() > 0.0))
    if absorbing.size:
        raise NotIrreducible(f"state {absorbing[0]} has zero exit rate (absorbing)")

    # Censor independent sets I from the states left: with A[I, I] = 0 the
    # stochastic complement is A[R,R] + A[R,I] diag(1/s_I) A[I,R].
    labels = np.arange(n)
    stages = []
    while A.shape[0] > _DENSE_BLOCK:
        in_set = _independent_set(A)
        if in_set.sum() < _MIN_STAGE_SHARE * A.shape[0]:
            break
        complement, I, R, A_RI, s_I = censor(A, in_set)
        bad = np.flatnonzero(~((s_I > 0.0) & np.isfinite(s_I)))
        if bad.size:
            raise _cut_off(labels[I[bad[0]]])
        A = _off_diagonal(complement)
        stages.append((I, R, A_RI, s_I))
        labels = labels[R]

    if A.shape[0] > _DENSE_MAX:
        raise DenseBlockTooLarge(A.shape[0], _DENSE_MAX)
    x = _gth_dense(A.toarray(), labels)
    for I, R, A_RI, s_I in reversed(stages):
        full = np.empty(I.size + R.size)
        full[R] = x
        full[I] = (x @ A_RI) / s_I
        x = full
    pi = x / x.sum()
    return SteadyState(pi, "gth", _residual(pi, c.Q))


def steady_state_iterative(c: Ctmc, tol: float = DEFAULT_TOL,
                           max_iter: int = DEFAULT_MAX_ITER) -> SteadyState:
    """Gauss-Seidel on ``pi Q = 0``.

    Converged when the max-norm change between successive normalized iterates
    drops below ``tol``, which must be positive and finite; ``max_iter``
    must be at least 1.
    """
    if not (0.0 < tol < np.inf):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    n = c.n_states
    if n == 1:
        return SteadyState(np.ones(1), "iterative", _residual(np.ones(1), c.Q))

    A = c.Q.T.tocsr()
    lower = sp.tril(A, 0).tocsr()          # D + L
    upper = sp.triu(A, 1).tocsr()          # U
    diag = lower.diagonal()
    if np.any(diag == 0.0):
        raise NotIrreducible("a state has zero exit rate (absorbing)")
    inv = 1.0 / diag
    # (D + L) D^-1 as canonical CSC: the solve below neither copies nor
    # re-sorts it, and only resets its diagonal to exactly 1.
    unit_lower = (lower @ sp.diags(inv)).tocsc()
    unit_lower.sum_duplicates()

    x = np.full(n, 1.0 / n)
    change = np.inf
    for sweep in range(1, max_iter + 1):
        x_new = spsolve_triangular(unit_lower, -(upper @ x), lower=True,
                                   unit_diagonal=True, overwrite_A=True,
                                   overwrite_b=True) * inv
        total = x_new.sum()
        if total == 0.0 or not np.isfinite(total):
            raise NotConverged(sweep, float("nan"), float("nan"))
        x_new /= total
        change = float(np.max(np.abs(x_new - x)))
        x = x_new
        if change < tol:
            return SteadyState(x, "iterative", _residual(x, c.Q))
    raise NotConverged(max_iter, change, _residual(x, c.Q))


def unavailability(c: Ctmc, s: SteadyState) -> float:
    """The steady-state probability of being down: the mass of the 0-reward states.

    Summed as ``pi (1 - r)`` rather than ``1 - pi r``, which would lose the
    leading digits of a small unavailability to cancellation.
    """
    value = float(s.distribution @ (1.0 - c.reward))
    return min(1.0, max(0.0, value))


def availability(c: Ctmc, s: SteadyState) -> float:
    return 1.0 - unavailability(c, s)

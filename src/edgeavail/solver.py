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
  would otherwise redo on every call.  The solve is level-scheduled
  (Anderson & Saad 1989): once per solve the rows are grouped into levels
  that read only earlier levels, and a sweep substitutes a whole level with
  one ``np.subtract.at``.  Each row takes its subtractions in column order,
  as SuperLU's column by column solve inside ``spsolve_triangular`` does,
  so the iterates are bit for bit the same.  A level costs a few
  microseconds however small it is, so a triangle deeper than
  ``_level_cap(n)`` levels, such as a birth-death chain's n, keeps
  ``spsolve_triangular``.

GTH censors states out of the chain.  It first censors whole independent
sets of states at once (no transition between two states of a set), which
gives the stochastic complement (Meyer 1989) through sparse products and
no inverse, and touches only the nonzeros of these very sparse chains.
That sparse stage is ``statespace.censor``, which also eliminates the
vanishing markings before a chain reaches the solver.
Once a set would censor only a small share of what is left, or at most a
few hundred states remain, the remainder is copied into a dense block.
Chains at or below that size go to the dense block directly.  The block is
eliminated by block GTH (O'Leary & Wu 1996): a panel of states is censored
state by state, touching only the panel's rows and columns, and the rest of
the block then takes the whole panel's update as matrix products, one
column strip at a time.  That regroups the same nonnegative sums, so the
kernel stays subtraction-free (O'Cinneide 1993).  A remainder too large to
hold densely raises ``DenseBlockTooLarge`` before it is allocated, and
sparse stages that outgrow the same memory budget raise
``SparseStagesTooLarge``; the iterative path solves such chains.
``steady_state_gth`` is the batch of one chain of ``steady_state_gth_many``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from .errors import (DenseBlockTooLarge, NotConverged, NotIrreducible,
                     SparseStagesTooLarge)
from .statespace import Ctmc, _independent_set, _off_diagonal, censor

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 1_000_000

# GTH elimination.  The sparse stages run while more than _DENSE_BLOCK states
# are left, and stop early once an independent set would censor fewer than
# _MIN_STAGE_SHARE of them: as fill grows, such a stage costs about as much as
# the blocked dense work it saves.  Both were tuned, with the blocked kernel,
# on cluster chains of 946 to 20,336 states; a share of 0.05 already leaves
# (30,27) a remainder above _DENSE_MAX.  A remainder above _DENSE_MAX states
# (200 MB dense) is refused, and so are sparse stages holding more than
# _SPARSE_MAX_BYTES, the same 200 MB: the matrix left plus what each stage
# keeps for back-substitution (a stage's products briefly take a few times
# that; (40,36) holds at most 26 MB).  The dense kernel works on panels of
# _PANEL states, and applies each panel's update in column strips of the same
# width: an (n x 32) @ (32 x 32) product and an n x 32 temporary per chain.
# A stack holds at most _STACK_BYTES, two remainders of _DENSE_BLOCK states
# (1.4 MB), which bounds memory, not time: 25 (10, 9) cluster chains, each a
# 267-state remainder, solve about 12% faster with no cap (2-vCPU Xeon).
_DENSE_BLOCK = 300
_MIN_STAGE_SHARE = 0.03
_DENSE_MAX = 5_000
_PANEL = 32
_SPARSE_MAX_BYTES = 8 * _DENSE_MAX ** 2
_STACK_BYTES = 2 * 8 * _DENSE_BLOCK ** 2


@dataclass
class SteadyState:
    distribution: np.ndarray
    method: str          # "gth" | "iterative"
    residual: float      # max |pi Q|

    def __post_init__(self):
        self.distribution = np.asarray(self.distribution, dtype=float)


def _residual(pi, Q) -> float:
    return float(np.max(np.abs(pi @ Q)))


def _nbytes(A: sp.csr_matrix) -> int:
    return A.data.nbytes + A.indices.nbytes + A.indptr.nbytes


def _cut_off(state) -> NotIrreducible:
    return NotIrreducible(f"state {state} cannot reach the states left during "
                          "elimination (chain is reducible)")


def _gth_dense(A: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Blocked GTH, in place, on a stack ``(B, n, n)`` of dense off-diagonal
    rate matrices whose rows are the states ``labels``; returns the
    unnormalized stationary weights ``(B, n)`` with ``x[:, 0] = 1``."""
    B, n, _ = A.shape
    # Censor states n-1 .. 1, a panel [lo, k) at a time.  Each panel state j
    # updates only the panel rows and the panel columns above the panel; the
    # rest, A[:lo, :lo], takes the panel's rank-b update afterwards, one
    # column strip at a time.  Only off-diagonal entries are ever read, so the
    # updates can safely touch the diagonal.
    k = n
    while k > 1:
        lo = max(k - _PANEL, 1)
        for j in range(k - 1, lo - 1, -1):
            s = A[:, j, :j].sum(axis=1)
            if not (s.min() > 0.0 and s.max() < np.inf):
                raise _cut_off(labels[j])
            A[:, :j, j] /= s[:, None]
            A[:, lo:j, :j] += A[:, lo:j, j, None] * A[:, j, None, :j]
            A[:, :lo, lo:j] += A[:, :lo, j, None] * A[:, j, None, lo:j]
        for c in range(0, lo, _PANEL):
            e = min(c + _PANEL, lo)
            A[:, :lo, c:e] += A[:, :lo, lo:k] @ A[:, lo:k, c:e]
        k = lo
    # Back substitution: expected sojourn weight relative to state 0.
    x = np.empty((B, n))
    x[:, 0] = 1.0
    for xb, Ab in zip(x, A):
        for k in range(1, n):
            xb[k] = xb[:k] @ Ab[:k, k]
    return x


def _sparse_stages(c: Ctmc, plans: dict):
    """GTH's sparse stages: ``c``'s CSR remainder, its labels and stages."""
    n = c.n_states
    A = _off_diagonal(sp.csr_matrix(c.Q, dtype=float))
    absorbing = np.flatnonzero(~(np.asarray(A.sum(axis=1)).ravel() > 0.0))
    if absorbing.size and n > 1:      # a lone state needs no exit
        raise NotIrreducible(f"state {absorbing[0]} has zero exit rate (absorbing)")

    # Censor independent sets I from the states left: with A[I, I] = 0 the
    # stochastic complement is A[R,R] + A[R,I] diag(1/s_I) A[I,R].
    labels = np.arange(n)
    stages = []
    kept = 0         # bytes of the stages kept for back-substitution
    while A.shape[0] > _DENSE_BLOCK:
        plan = plans.get(len(stages))   # the set reads only the sparsity pattern
        if not (plan and np.array_equal(plan[0], A.indptr) and np.array_equal(plan[1], A.indices)):
            plan = plans[len(stages)] = (A.indptr, A.indices, _independent_set(A))
        in_set = plan[2]
        if in_set.sum() < _MIN_STAGE_SHARE * A.shape[0]:
            break
        complement, I, R, A_RI, s_I = censor(A, in_set)
        bad = np.flatnonzero(~((s_I > 0.0) & np.isfinite(s_I)))
        if bad.size:
            raise _cut_off(labels[I[bad[0]]])
        A = _off_diagonal(complement)
        stages.append((I, R, A_RI, s_I))
        labels = labels[R]
        kept += _nbytes(A_RI) + I.nbytes + R.nbytes + s_I.nbytes
        held = kept + _nbytes(A)
        if held > _SPARSE_MAX_BYTES:
            raise SparseStagesTooLarge(held, A.shape[0], _SPARSE_MAX_BYTES)

    if A.shape[0] > _DENSE_MAX:
        raise DenseBlockTooLarge(A.shape[0], _DENSE_MAX)
    return A, labels, stages


def _solve_stack(jobs: list):
    """Yields ``(chain, SteadyState)`` for ``jobs``, their remainders stacked."""
    if not jobs:
        return
    stack = np.empty((len(jobs), len(jobs[0][2]), len(jobs[0][2])))
    for dense, job in zip(stack, jobs):
        job[1].toarray(out=dense)     # no second copy of the stack
    try:
        X = _gth_dense(stack, jobs[0][2])
    except NotIrreducible:
        if len(jobs) == 1:
            raise
        X = None    # a state is cut off: solve one by one, so the first such chain names it
    for i, (c, _, _, stages) in enumerate(jobs):
        if X is None:
            yield from _solve_stack([jobs[i]])
            continue
        x = X[i]
        for I, R, A_RI, s_I in reversed(stages):
            full = np.empty(I.size + R.size)
            full[R] = x
            full[I] = (x @ A_RI) / s_I
            x = full
        pi = x / x.sum()
        yield c, SteadyState(pi, "gth", _residual(pi, c.Q))


def steady_state_gth_many(chains):
    """``(chain, steady_state_gth(chain))`` for each of ``chains``, in order,
    bit for bit; an error is raised once the chains before it are yielded.

    Symbolic and numeric work split as in sparse direct solvers (Davis 2006,
    ch. 1): a stage's independent set is reused while the sparsity pattern
    repeats, and consecutive remainders of the same size are stacked, up
    to ``_STACK_BYTES``; only the current stack's chains are held.
    """
    plans, jobs = {}, []
    try:
        for c in chains:
            job = (c, *_sparse_stages(c, plans))   # chain, remainder, labels, stages
            if jobs and not (len(job[2]) == len(jobs[0][2])
                             and 8 * (len(jobs) + 1) * len(job[2]) ** 2 <= _STACK_BYTES):
                done, jobs = jobs, []
                yield from _solve_stack(done)
            jobs.append(job)
    except Exception:
        yield from _solve_stack(jobs)
        raise
    yield from _solve_stack(jobs)


def steady_state_gth(c: Ctmc) -> SteadyState:
    """Stationary distribution by GTH elimination (subtraction-free, exact to roundoff).

    Raises ``NotIrreducible`` when a state has no exit or elimination finds a
    state cut off from the rest, ``SparseStagesTooLarge`` when the sparse
    stages hold more than ``_SPARSE_MAX_BYTES``, and ``DenseBlockTooLarge``
    when they leave more than ``_DENSE_MAX`` states for the dense kernel.
    """
    return next(steady_state_gth_many((c,)))[1]


def _level_cap(n: int) -> int:
    """The deepest level schedule Gauss-Seidel runs on an ``n``-state chain.

    A level costs about 4 us of numpy calls per sweep whatever its size, so
    depth, not size, decides: on random triangles with three entries a row,
    levels beat ``spsolve_triangular`` up to about 30 levels at 1,000 states
    and 400 at 20,000 (2 vCPU, numpy 2.4.6, scipy 1.17.1).  The cap stays
    below that; the cluster chains need 11 levels at 946 states and 41 at
    46,781, while a birth-death chain needs n and keeps the one-call solve.
    """
    return 16 + n // 200


def _level_schedule(unit_lower: sp.csc_matrix, cap: int):
    """The strictly lower entries of the canonical CSC ``unit_lower`` as one
    ``(rows, cols, vals)`` per level that has any, each sorted by row and
    then column; ``None`` once more than ``cap`` levels are needed.

    Rows without entries make level 0, and a row joins the level after the
    last one it reads from (Anderson & Saad 1989).  The levels are found a
    frontier at a time, as in Kahn's topological sort, so building stops
    after ``cap`` frontiers and costs O(nnz + cap).
    """
    n = unit_lower.shape[0]
    cols = np.repeat(np.arange(n), np.diff(unit_lower.indptr))
    strict = unit_lower.indices > cols
    rows, cols = unit_lower.indices[strict].astype(np.intp), cols[strict]
    vals = unit_lower.data[strict]
    # rows[readers[j]:readers[j + 1]] read row j: the entries of column j
    readers = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols, minlength=n), out=readers[1:])
    waiting = np.bincount(rows, minlength=n)     # rows each row still reads
    level = np.empty(n, dtype=np.intp)
    frontier = np.flatnonzero(waiting == 0)
    depth = 0
    while frontier.size:
        if depth == cap:
            return None
        level[frontier] = depth
        depth += 1
        starts = readers[frontier]
        counts = readers[frontier + 1] - starts
        ends = np.cumsum(counts)
        found = rows[np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)]
        np.subtract.at(waiting, found, 1)
        frontier = np.unique(found[waiting[found] == 0])
    order = np.lexsort((cols, rows, level[rows]))
    rows, cols, vals = rows[order], cols[order], vals[order]
    bounds = np.searchsorted(level[rows], np.arange(1, depth + 1))
    return [(rows[lo:hi], cols[lo:hi], vals[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def _forward_levels(schedule, b: np.ndarray) -> None:
    """Solves ``(I + S) y = b`` in place, ``S`` the strictly lower triangle
    that ``schedule`` holds.

    A level reads only rows of the levels before it, and ``subtract.at``
    applies each row's subtractions in column order, as SuperLU's column
    by column solve does, so ``b`` ends bit for bit as from
    ``spsolve_triangular(..., unit_diagonal=True)``.
    """
    for rows, cols, vals in schedule:
        np.subtract.at(b, rows, vals * b[cols])


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
    if not diag.all():
        raise NotIrreducible(f"state {np.argmax(diag == 0.0)} has zero exit rate (absorbing)")
    inv = 1.0 / diag
    # (D + L) D^-1 as canonical CSC: the solve below neither copies nor
    # re-sorts it, and only resets its diagonal to exactly 1.
    unit_lower = (lower @ sp.diags(inv)).tocsc()
    unit_lower.sum_duplicates()
    schedule = _level_schedule(unit_lower, _level_cap(n))

    x = np.full(n, 1.0 / n)
    change = np.inf
    for sweep in range(1, max_iter + 1):
        b = -(upper @ x)
        if schedule is None:
            b = spsolve_triangular(unit_lower, b, lower=True, unit_diagonal=True,
                                   overwrite_A=True, overwrite_b=True)
        else:
            _forward_levels(schedule, b)
        x_new = b * inv
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

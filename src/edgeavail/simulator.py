"""Discrete-event Monte-Carlo estimation of steady-state reward.

An oracle for the state-space/solver path.  It shares only the compiled model
and its one-step rule (``CompiledModel.moves``, which rejects bad rates) with
the explorer: it plays the token game directly on markings, builds no
generator matrix, eliminates no vanishing markings and calls no solver.

Per step, every enabled timed activity's delay is resampled from its
exponential rate; with memoryless rates this is statistically identical to
keeping per-activity clocks, so the next event is drawn from the total rate
and attributed proportionally.  Instantaneous activities fire immediately
(equal weights if several are enabled at once); more than a million
consecutive zero-time firings is reported as a livelock.

A trajectory revisits a few dozen markings many thousands of times, so each
``simulate`` or ``simulate_replicated`` call memoizes, per visited marking,
its ``moves``, their total rate and the reward flag (the reward is evaluated
at tangible markings only), for up to ``DEFAULT_MAX_STATES`` markings; the
rest are stepped afresh on every visit.  The random draws and the
``fire_vec`` call per firing are the same as without the memo, so estimates
are unchanged, and a bad rate still raises on the marking's first visit.

The estimate is the time average of a 0/1 reward over ``(warmup, horizon]``
with a batch-means 95% confidence interval (Student-t over equal-width
batches).  Randomness comes from numpy's PCG64 seeded through
``SeedSequence``, so a given seed reproduces the run bit for bit and
replication seeds are spawned from the master seed without overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import VanishingLivelock
from .san import SanModel, compiled
from .statespace import DEFAULT_MAX_STATES

LIVELOCK_LIMIT = 1_000_000
DEFAULT_BATCHES = 20
MAX_BATCHES = 100_000


@dataclass(frozen=True)
class SimEstimate:
    point: float          # time-average reward
    ci_halfwidth: float   # 95%, Student-t
    batches: int          # batches (or replications)
    horizon: float        # model-time hours per trajectory
    seed: int


def _check_common(model, reward, horizon, warmup):
    cm = compiled(model)
    if reward not in cm.rewards:
        raise ValueError(f"model has no reward named '{reward}'")
    if not math.isfinite(horizon):
        raise ValueError(f"need a finite horizon, got {horizon}")
    if warmup is None:
        warmup = 0.01 * horizon
    if not horizon > warmup >= 0:
        raise ValueError(f"need horizon > warmup >= 0, got {horizon} and {warmup}")
    return cm, warmup


def _step(cm, reward_fn, vec) -> tuple:
    """``(tangible, moves, total, is_up)`` at ``vec``: ``cm.moves(vec)``, its
    timed total summed in declaration order, and whether the reward is
    nonzero, which is evaluated at tangible markings only."""
    tangible, moves = cm.moves(vec)
    if not tangible:
        return False, moves, 0.0, False
    total = 0.0
    for _, r in moves:
        total += r
    return True, moves, total, reward_fn(vec) != 0.0


def _batch_uptimes(cm, reward_fn, horizon, warmup, batches, rng, memo):
    """One trajectory; returns per-batch up-time over (warmup, horizon].

    ``memo`` maps markings to their ``_step``; it fills up to
    ``DEFAULT_MAX_STATES`` entries, beyond which markings are stepped afresh
    on every visit.
    """
    width = (horizon - warmup) / batches
    up = np.zeros(batches)
    vec = cm.initial
    t = 0.0
    consecutive_instant = 0
    while t < horizon:
        step = memo.get(vec)
        if step is None:
            step = _step(cm, reward_fn, vec)
            if len(memo) < DEFAULT_MAX_STATES:
                memo[vec] = step
        tangible, moves, total, is_up = step
        if not tangible:
            consecutive_instant += 1
            if consecutive_instant > LIVELOCK_LIMIT:
                raise VanishingLivelock(LIVELOCK_LIMIT)
            a = moves[0][0] if len(moves) == 1 else moves[rng.integers(len(moves))][0]
            vec = cm.fire_vec(vec, a, _pick_case(a, rng))
            continue
        consecutive_instant = 0

        if not moves:  # dead marking: the trajectory stays here forever
            t_next = horizon
        else:
            t_next = t + rng.exponential(1.0 / total)
            u = rng.random() * total
            acc = 0.0
            for a, r in moves:
                acc += r
                if u < acc:
                    break

        if is_up:
            lo = max(t, warmup)
            hi = min(t_next, horizon)
            if hi > lo:
                b0 = min(int((lo - warmup) / width), batches - 1)
                b1 = min(int((hi - warmup) / width), batches - 1)
                if b0 == b1:
                    up[b0] += hi - lo
                else:
                    up[b0] += warmup + (b0 + 1) * width - lo
                    for b in range(b0 + 1, b1):
                        up[b] += width
                    up[b1] += hi - (warmup + b1 * width)
        t = t_next
        if t < horizon:
            vec = cm.fire_vec(vec, a, _pick_case(a, rng))
    return up / width


def _pick_case(a, rng) -> int:
    if len(a.case_probs) == 1:
        return 0
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(a.case_probs):
        acc += p
        if u < acc:
            return i
    # the probabilities may sum to just under one: never pick a zero case
    return max(i for i, p in enumerate(a.case_probs) if p > 0.0)


def _t_interval(values: np.ndarray) -> tuple[float, float]:
    from scipy import stats  # slow to import; needed only for this quantile

    n = len(values)
    mean = float(values.mean())
    s = float(values.std(ddof=1))
    half = float(stats.t.ppf(0.975, n - 1)) * s / math.sqrt(n)
    return mean, half


def simulate(model: SanModel, reward: str, horizon: float, warmup: float | None = None,
             batches: int = DEFAULT_BATCHES, seed: int = 12345) -> SimEstimate:
    """Batch-means estimate of the steady-state reward from one long trajectory.

    ``batches`` must be in ``[2, MAX_BATCHES]``: each batch holds one float
    and a sojourn walks every batch it spans, so the cap bounds both.
    """
    if not 2 <= batches <= MAX_BATCHES:
        raise ValueError(f"batches must be in [2, {MAX_BATCHES}], got {batches}")
    cm, warmup = _check_common(model, reward, horizon, warmup)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    means = _batch_uptimes(cm, cm.rewards[reward], horizon, warmup, batches, rng, {})
    point, half = _t_interval(means)
    return SimEstimate(point, half, batches, horizon, int(seed))


def simulate_replicated(model: SanModel, reward: str, horizon: float,
                        warmup: float | None = None, replications: int = 10,
                        seed: int = 12345) -> SimEstimate:
    """Independent replications with seeds spawned from the master seed."""
    if replications < 2:
        raise ValueError(f"replications must be >= 2, got {replications}")
    cm, warmup = _check_common(model, reward, horizon, warmup)
    reward_fn = cm.rewards[reward]
    children = np.random.SeedSequence(seed).spawn(replications)
    memo = {}
    means = np.array([
        _batch_uptimes(cm, reward_fn, horizon, warmup, 1, np.random.default_rng(child),
                       memo)[0]
        for child in children
    ])
    point, half = _t_interval(means)
    return SimEstimate(point, half, replications, horizon, int(seed))

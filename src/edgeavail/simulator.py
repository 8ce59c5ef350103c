"""Discrete-event Monte-Carlo estimation of steady-state reward.

An oracle for the state-space/solver path.  It shares only the compiled model
and its one-step rule (``CompiledModel.moves``, which rejects bad rates) with
the explorer: it plays the token game directly on markings, builds no
generator matrix, eliminates no vanishing markings and calls no solver.

Every random number a trajectory uses is the next value of one stream,
``rng.random()``, read in blocks (the block size changes no value).  A
tangible step takes two: the sojourn ``-log(1 - u) / exit rate`` (inverse
transform, exponential with the total rate, so resampling every delay per
step equals keeping memoryless clocks), then the outcome.  A vanishing step
takes no time and one draw, the outcome; more than a million consecutive
ones are reported as a livelock.  An outcome is an enabled activity and one
of its live cases (``CompiledActivity.live``, probability ``p > 0``), weighed
``p`` times the activity's rate (timed) or equal share (instantaneous); one
draw picks it in proportion to its weight.

A trajectory revisits a few dozen markings many thousands of times, so it
walks a chain of interned markings.  The first visit to a marking builds its
record with ``moves`` (its exit rate must be finite, else
``EvaluationError``); the first firing of each outcome calls ``fire_vec``
and links the record to its successor's.  One memo per ``simulate`` or
``simulate_replicated`` call keeps up to ``DEFAULT_MAX_STATES`` records and
links only kept records to each other; any other marking is stepped and
fired afresh on every visit.  The draws do not depend on the memo, so
neither do the estimates, and a bad rate or a bad effect raises at the same
point of the trajectory.  The draw rule changed once, so estimates per seed
differ from those of earlier versions.

The estimate is the time average of a 0/1 reward over ``(warmup, horizon]``
with a batch-means 95% confidence interval (Student-t over equal-width
batches).  Randomness comes from numpy's PCG64 seeded through
``SeedSequence``, so a given seed reproduces the run bit for bit and
replication seeds are spawned from the master seed without overlap.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from itertools import accumulate, chain
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteExitRate, UnknownReward, VanishingLivelock
from .san import SanModel, compiled
from .statespace import DEFAULT_MAX_STATES

LIVELOCK_LIMIT = 1_000_000
DEFAULT_BATCHES = 20
DEFAULT_SEED = 12345
WARMUP_SHARE = 0.01   # of the horizon, when no warmup is given
MAX_BATCHES = 100_000
UNIFORM_BLOCK = 4096   # most uniforms drawn from the generator at once


@dataclass(frozen=True)
class SimEstimate:
    point: float          # time-average reward
    ci_halfwidth: float   # 95%, Student-t
    batches: int          # batches (or replications)
    horizon: float        # model-time hours per trajectory
    seed: int


def _check_common(model, reward, horizon, warmup, seed):
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    cm = compiled(model)
    if reward not in cm.rewards:
        raise UnknownReward(reward, list(cm.rewards))
    if not math.isfinite(horizon):
        raise ValueError(f"need a finite horizon, got {horizon}")
    if warmup is None:
        warmup = WARMUP_SHARE * horizon
    if not horizon > warmup >= 0:
        raise ValueError(f"need horizon > warmup >= 0, got {horizon} and {warmup}")
    return cm, warmup


class _Record:
    """A visited marking: its outcomes, their running weights and the
    successor of each outcome fired from it so far.

    ``bounds`` holds the running sums of the outcome weights, left to right,
    without the last one, which is ``weight``.  Bisecting a draw below
    ``weight`` therefore picks the first outcome whose running sum exceeds
    it, as a linear scan does, and the last outcome takes every draw past the
    others.  ``scale`` is one over the exit rate of a tangible marking.
    """

    __slots__ = ("vec", "tangible", "up", "outcomes", "bounds", "weight", "scale",
                 "succ", "kept")

    def __init__(self, cm, reward_fn, vec):
        tangible, moves = cm.moves(vec)
        self.vec = vec
        self.tangible = tangible
        self.outcomes, weights = [], []
        total = 0.0
        for a, w in moves:
            total += w
            for c, p in a.live:
                self.outcomes.append((a, c))
                weights.append(w * p)
        if not math.isfinite(total):
            raise NonFiniteExitRate(total, cm.marking_dict(vec))
        self.bounds = list(accumulate(weights))
        self.weight = self.bounds.pop() if weights else 0.0
        self.scale = 1.0 / total if tangible and moves else 0.0
        self.up = tangible and reward_fn(vec) != 0.0
        self.succ = [None] * len(self.outcomes)
        self.kept = False


def _visit(cm, reward_fn, memo, vec) -> _Record:
    """The record of ``vec``: the kept one, else a new one, kept while the
    memo holds fewer than ``DEFAULT_MAX_STATES``."""
    rec = memo.get(vec)
    if rec is None:
        rec = _Record(cm, reward_fn, vec)
        if len(memo) < DEFAULT_MAX_STATES:
            memo[vec] = rec
            rec.kept = True
    return rec


def _successor(cm, reward_fn, memo, rec, j) -> _Record:
    """Fire outcome ``j`` of ``rec``; link the two records if both are kept,
    so no kept record holds on to a transient one."""
    act, c = rec.outcomes[j]
    nxt = _visit(cm, reward_fn, memo, cm.fire_vec(rec.vec, act, c))
    if rec.kept and nxt.kept:
        rec.succ[j] = nxt
    return nxt


def _uniforms(rng):
    """``rng.random()``'s values in order, drawn in blocks of 64 doubling up
    to ``UNIFORM_BLOCK``, so a short trajectory wastes few draws."""
    n = 64
    while True:
        n = min(n, UNIFORM_BLOCK)
        yield rng.random(n).tolist()
        n *= 2


def _batch_uptimes(cm, reward_fn, horizon, warmup, batches, rng, memo):
    """One trajectory; returns per-batch up-time over (warmup, horizon].

    ``memo`` maps markings to their kept ``_Record``; it is shared by every
    trajectory of one call and holds up to ``DEFAULT_MAX_STATES`` records.
    """
    width = (horizon - warmup) / batches
    up = [0.0] * batches
    last = batches - 1
    draw = chain.from_iterable(_uniforms(rng)).__next__
    log = math.log
    rec = _visit(cm, reward_fn, memo, cm.initial)
    t = 0.0
    consecutive_instant = 0
    while True:
        if rec.tangible:
            consecutive_instant = 0
            # a dead marking keeps the trajectory forever
            t_next = t - log(1.0 - draw()) * rec.scale if rec.outcomes else horizon
            if rec.up:
                lo = t if t > warmup else warmup
                hi = t_next if t_next < horizon else horizon
                if hi > lo:
                    b0 = int((lo - warmup) / width)
                    b1 = int((hi - warmup) / width)
                    if b0 > last:
                        b0 = last
                    if b1 > last:
                        b1 = last
                    if b0 == b1:
                        up[b0] += hi - lo
                    else:
                        up[b0] += warmup + (b0 + 1) * width - lo
                        for b in range(b0 + 1, b1):
                            up[b] += width
                        up[b1] += hi - (warmup + b1 * width)
            t = t_next
            if t >= horizon:
                break
        else:
            consecutive_instant += 1
            if consecutive_instant > LIVELOCK_LIMIT:
                raise VanishingLivelock(LIVELOCK_LIMIT)
        j = bisect_right(rec.bounds, draw() * rec.weight)
        rec = rec.succ[j] or _successor(cm, reward_fn, memo, rec, j)
    return np.array(up) / width


def _t_interval(values: np.ndarray) -> tuple[float, float]:
    from scipy.special import stdtrit  # the t quantile, without scipy.stats

    n = len(values)
    mean = float(values.mean())
    s = float(values.std(ddof=1))
    half = float(stdtrit(n - 1, 0.975)) * s / math.sqrt(n)
    return mean, half


def simulate(model: SanModel, reward: str, horizon: float, warmup: float | None = None,
             batches: int = DEFAULT_BATCHES, seed: int = DEFAULT_SEED) -> SimEstimate:
    """Batch-means estimate of the steady-state reward from one long trajectory.

    ``batches`` must be in ``[2, MAX_BATCHES]``: each batch holds one float
    and a sojourn walks every batch it spans, so the cap bounds both.
    """
    if not 2 <= batches <= MAX_BATCHES:
        raise ValueError(f"batches must be in [2, {MAX_BATCHES}], got {batches}")
    cm, warmup = _check_common(model, reward, horizon, warmup, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    means = _batch_uptimes(cm, cm.rewards[reward], horizon, warmup, batches, rng, {})
    point, half = _t_interval(means)
    return SimEstimate(point, half, batches, horizon, int(seed))


def simulate_replicated(model: SanModel, reward: str, horizon: float,
                        warmup: float | None = None, replications: int = 10,
                        seed: int = DEFAULT_SEED) -> SimEstimate:
    """Independent replications with seeds spawned from the master seed.

    ``replications`` must be in ``[2, MAX_BATCHES]``, checked before any seed
    is spawned.
    """
    if not 2 <= replications <= MAX_BATCHES:
        raise ValueError(f"replications must be in [2, {MAX_BATCHES}], got {replications}")
    cm, warmup = _check_common(model, reward, horizon, warmup, seed)
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

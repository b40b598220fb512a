"""Rejection sampling from a Boolean indicator and the RHOG score.

The sampler makes up to K = 4 n^2 uniform attempts to hit the accepting
set {x : g(x) = +1} (sign +1 plays the role of "g(x) = 1"); if none hits,
it returns a fresh uniform element and reports accepted = False.  Its
output law has the closed form implemented by exact_distribution, which
the score driver uses directly instead of re-simulating attempts (same
expectation, far less variance).

RHOG: draw a correlated pair (f, g), Fourier-sample x from fhat^2, and
evaluate the rejection sampler's probability of landing on that same x.
Scaled by N, an honest sampler scores at least 1 + eps^2/8, while any
pairing that breaks the f-g correlation scores 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import BooleanFunction, wht_rows
from .fouriersample import fourier_rows
from .sqforrelation import DistParams, sample_gprime_rows, _round_rows
from .stats import mean_ci99

_BATCH = 4096


def max_attempts(n: int) -> int:
    """Attempt budget K = 4 n^2."""
    return 4 * n * n


@dataclass(frozen=True)
class RejectionOutcome:
    """Result of one rejection-sampling run."""

    output: int
    accepted: bool
    attempts_used: int

    def __post_init__(self):
        if self.attempts_used < 1:
            raise ValueError("at least one attempt is always spent")


def rejection_sample(g: BooleanFunction, rng: np.random.Generator) -> RejectionOutcome:
    """Up to 4 n^2 uniform attempts; first accepting x wins.

    On total failure the output is one more fresh uniform draw with
    accepted = False.  The generator is advanced by a fixed amount per
    call (all attempt draws are consumed up front) so call sequences stay
    aligned across runs.
    """
    K = max_attempts(g.n)
    xs = rng.integers(0, g.size, size=K)
    hits = g.values[xs] == 1
    extra = int(rng.integers(0, g.size))
    if hits.any():
        first = int(np.argmax(hits))
        return RejectionOutcome(int(xs[first]), True, first + 1)
    return RejectionOutcome(extra, False, K)


def exact_distribution(g: BooleanFunction) -> np.ndarray:
    """The sampler's output law as a length-N probability vector.

    With a = |accepting set|/N and K = 4 n^2:
      accepting x:  (1 - (1-a)^K)/(aN) + (1-a)^K / N
      rejecting x:  (1-a)^K / N
    and the uniform vector when a = 0.  Sums to 1 to 1e-12.
    """
    size = g.size
    K = max_attempts(g.n)
    ones = int(np.count_nonzero(g.values == 1))
    if ones == 0:
        return np.full(size, 1.0 / size)
    a = ones / size
    miss = (1.0 - a) ** K
    p_acc = (1.0 - miss) / (a * size) + miss / size
    p_rej = miss / size
    return np.where(g.values == 1, p_acc, p_rej)


@dataclass(frozen=True)
class RhogResult:
    """N-scaled mean placement probability with context."""

    n_times_mean: float
    ci99: float
    epsilon: float
    target: float  # 1 + eps^2/8
    trials: int


def rhog_values(
    params: DistParams,
    trials: int,
    rng: np.random.Generator,
    uniform_pairs: bool = False,
    uniform_sampler: bool = False,
) -> np.ndarray:
    """Per-trial values of N * Pr[rejection sampler outputs x].

    Per trial: (f, g) drawn correlated (or independent uniform with
    uniform_pairs=True), x Fourier-sampled from fhat^2 (or uniform with
    uniform_sampler=True), scored as exact_distribution(g)[x].
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    size = params.size
    K = max_attempts(params.n)
    vals = np.empty(trials)
    done = 0
    while done < trials:
        b = min(_BATCH, trials - done)
        if uniform_pairs:
            bits = rng.integers(0, 2, size=(2 * b, size), dtype=np.int8)
            f_rows, g_rows = 1 - 2 * bits[:b], 1 - 2 * bits[b:]
        else:
            X, Yp = sample_gprime_rows(params, b, rng)
            f_rows, g_rows = _round_rows(X, Yp, rng)
        if uniform_sampler:
            x = rng.integers(0, size, size=b)
        else:
            x = fourier_rows(wht_rows(f_rows), rng.random(b))
        ones = np.count_nonzero(g_rows == 1, axis=1)
        a = ones / size
        with np.errstate(divide="ignore", invalid="ignore"):
            miss = (1.0 - a) ** K
            p_acc = (1.0 - miss) / (a * size) + miss / size
        p_rej = miss / size
        hit = g_rows[np.arange(b), x] == 1
        p = np.where(ones == 0, 1.0 / size, np.where(hit, p_acc, p_rej))
        vals[done:done + b] = size * p
        done += b
    return vals


def rhog_from_values(params: DistParams, vals: np.ndarray) -> RhogResult:
    """Assemble the score record from per-trial values."""
    ci = mean_ci99(vals)
    eps = params.epsilon
    return RhogResult(
        n_times_mean=ci.mean,
        ci99=ci.ci99,
        epsilon=eps,
        target=1.0 + eps * eps / 8.0,
        trials=int(np.asarray(vals).size),
    )


def rhog_score(
    params: DistParams,
    trials: int,
    rng: np.random.Generator,
    uniform_pairs: bool = False,
    uniform_sampler: bool = False,
) -> RhogResult:
    """Mean N-scaled placement probability over trials; see rhog_values."""
    if trials < 1:
        raise ValueError("need at least one trial")
    vals = rhog_values(params, trials, rng, uniform_pairs, uniform_sampler)
    return rhog_from_values(params, vals)

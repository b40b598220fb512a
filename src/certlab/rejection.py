"""Rejection sampling from a Boolean indicator and the RHOG score.

The sampler makes up to K = 4 n^2 uniform attempts to hit the accepting
set {x : g(x) = +1} (sign +1 plays the role of "g(x) = 1"); if none hits,
it returns a fresh uniform element.  The package never simulates the
attempts: `_placement` gives the sampler's output law in closed form,
and the score driver reads probabilities from it (same expectation, far
less variance).  The tests hold that law to a literal simulation of the
attempts.

RHOG: draw a correlated pair (f, g), Fourier-sample x from fhat^2, and
evaluate the rejection sampler's probability of landing on that same x.
Scaled by N, an honest sampler scores at least 1 + eps^2/8, while any
pairing that breaks the f-g correlation scores 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import blocks
from .sqforrelation import DistParams, pair_rows
from .stats import mean_ci99

_BATCH = 4096


def max_attempts(n: int) -> int:
    """Attempt budget K = 4 n^2."""
    return 4 * n * n


def _placement(ones, hit, n: int) -> np.ndarray:
    """Pr[sampler outputs x] for accepting sets of `ones` elements, x
    accepting where `hit`.

    With N = 2^n, a = ones/N and K = 4 n^2:
      accepting x:  (1 - (1-a)^K)/(aN) + (1-a)^K / N
      rejecting x:  (1-a)^K / N
    and 1/N when a = 0.
    """
    size = 1 << n
    a = ones / size
    with np.errstate(divide="ignore", invalid="ignore"):
        miss = (1.0 - a) ** max_attempts(n)
        p_acc = (1.0 - miss) / (a * size) + miss / size
    p_rej = miss / size
    return np.where(ones == 0, 1.0 / size, np.where(hit, p_acc, p_rej))


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
    device,
    trials: int,
    rng: np.random.Generator,
    uniform_pairs: bool = False,
) -> np.ndarray:
    """Per-trial values of N * Pr[rejection sampler outputs x].

    Per trial: (f, g) drawn correlated (or independent uniform with
    uniform_pairs=True), x the `DeviceModel`'s answer to f's table
    (`answer_tables`; honest ones Fourier-sample fhat^2), scored as the
    sampler's closed-form probability of x on g (`_placement`).
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    size = params.size
    vals = np.empty(trials)
    for done, b in blocks(trials, _BATCH):
        f_rows, g_rows = pair_rows(params, b, rng, uniform_pairs)
        x = device.answer_tables(f_rows, rng)[0]
        ones = np.count_nonzero(g_rows == 1, axis=1)
        hit = g_rows[np.arange(b), x] == 1
        vals[done:done + b] = size * _placement(ones, hit, params.n)
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

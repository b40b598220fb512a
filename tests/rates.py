"""Monte-Carlo rate harnesses shared by the unit tests and the acceptance
gate: the shared-stream coupling rate, and the clamp and balance rates of
the correlated pairs.

Each draws through the package's own samplers, looked up on their module
at call time so that a test may spy on them, and reports a Wilson 99%
half-width beside its rate.
"""

from dataclasses import dataclass

import numpy as np

from certlab import entropy, sqforrelation
from certlab.rng import blocks
from certlab.sqforrelation import DistParams
from certlab.stats import wilson_halfwidth
from exact_laws import coupling_rate_disjoint, exact_coupling_rate, statistical_distance

_BATCH = 4096  # pair draws per block, as the package's drivers make them


@dataclass(frozen=True)
class CouplingResult:
    """Empirical shared-stream disagreement rate with its references."""

    rate: float
    ci99: float
    trials: int
    delta: float
    disjoint_rate: float  # 2 delta/(1+delta)
    exact_rate: float     # exact closed form for this pair


def coupling_disagreement(
    d: np.ndarray,
    d2: np.ndarray,
    trials: int,
    rng: np.random.Generator,
) -> CouplingResult:
    """Replay both laws (probability vectors on one domain) on `trials`
    shared streams, one walk per stream, and count disagreements; the
    streams are walked a `seed_block` at a time."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if d.size != d2.size:
        raise ValueError("distributions live on different domains")
    seeds = rng.integers(0, 1 << 63, size=trials).tolist()
    pair = np.stack([d, d2])
    bad = 0
    for start, count in blocks(trials, entropy.seed_block(2, d.size, 0)):
        laws = np.broadcast_to(pair, (count, 2, d.size))
        out = entropy.rejsamp(seeds[start:start + count], laws, laws)
        bad += int(np.count_nonzero(out[:, 0] != out[:, 1]))
    delta = statistical_distance(d, d2)
    return CouplingResult(
        rate=bad / trials,
        ci99=wilson_halfwidth(bad, trials),
        trials=trials,
        delta=delta,
        disjoint_rate=coupling_rate_disjoint(delta),
        exact_rate=exact_coupling_rate(d, d2),
    )


def truncation_rate(
    params: DistParams, trials: int, rng: np.random.Generator
) -> tuple[float, float]:
    """(empirical clamp rate, Wilson 99% half-width).

    A trial counts when any coordinate of (X, Yp) leaves [-1, 1]; the
    guarantee at C = 20 is rate <= 2/N^2.
    """
    hits = 0
    for _, b in blocks(trials, _BATCH):
        X, Yp = sqforrelation.sample_gprime_rows(params, b, rng)
        out = (np.abs(X).max(axis=1) > 1.0) | (np.abs(Yp).max(axis=1) > 1.0)
        hits += int(np.count_nonzero(out))
    return hits / trials, wilson_halfwidth(hits, trials)


def hamming_balance_rate(
    params: DistParams, trials: int, rng: np.random.Generator
) -> tuple[float, float]:
    """(rate of g-draws outside the (1 +- N^{-1/3}) N/2 ones-count band, CI99).

    Counts draws of (f, g), made by pair_rows in blocks of _BATCH, whose g
    has |{x : g(x) = +1}| outside [(1 - d) N/2, (1 + d) N/2], d = N^{-1/3}.
    """
    size = params.size
    delta = size ** (-1.0 / 3.0)
    lo = (1.0 - delta) * size / 2.0
    hi = (1.0 + delta) * size / 2.0
    hits = 0
    for _, b in blocks(trials, _BATCH):
        _, g_rows = sqforrelation.pair_rows(params, b, rng)
        ones = np.count_nonzero(g_rows == 1, axis=1)
        hits += int(np.count_nonzero((ones < lo) | (ones > hi)))
    return hits / trials, wilson_halfwidth(hits, trials)

"""Min-entropy accounting, the heavy-to-light perturbation, and the
seed-driven derandomizer.

The derandomizer story: any sampling device whose output distribution d is
known (or estimated) can be replaced by the deterministic-given-r
procedure "walk a shared stream of uniform points (x_i, y_i), output the
first x_i with y_i < d(x_i)".  The output marginal over random r is
exactly d, and two distributions at statistical distance delta disagree on
a shared stream with probability at most 2 delta/(1 + delta) — with
equality when the distributions differ on disjoint supports; the exact
rate for the general case is implemented alongside.

The perturbation E(f) flips sqrt(N)/2 of the positions where f agrees
with its (signed) character at z, which moves fhat(z) toward zero by
exactly 1/sqrt(N) while disturbing every other coefficient by at most
1/sqrt(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boolfn import BooleanFunction, p_set, wht
from .rng import make_rng
from .stats import wilson_halfwidth

_REJ_TAG = 0x72656A  # stream tag for rejection-walk draws


class EmptyDistribution(ValueError):
    """Raised when a distribution has no probability mass."""


class OddRoot(ValueError):
    """Raised when sqrt(N)/2 is not an integer (n odd)."""


class SetTooSmall(ValueError):
    """Raised when the agreement set cannot supply sqrt(N)/2 flips."""


class BudgetZero(ValueError):
    """Raised when the derandomizer is given no device samples."""


@dataclass(frozen=True)
class OutcomeDistribution:
    """A probability vector over indices 0..N-1.

    Stored dense (desk-scale N keeps this cheap, and the exact device
    distributions are dense anyway); empirical laws come in through
    from_counts.  Probabilities must be nonnegative and sum to 1 within
    1e-9.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64).copy()
        if p.ndim != 1 or p.size == 0:
            raise EmptyDistribution("need a nonempty 1-d probability vector")
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def size(self) -> int:
        return self.probs.size

    @classmethod
    def uniform(cls, size: int) -> "OutcomeDistribution":
        return cls(np.full(size, 1.0 / size))

    @classmethod
    def point_mass(cls, size: int, z: int) -> "OutcomeDistribution":
        p = np.zeros(size)
        p[z] = 1.0
        return cls(p)

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "OutcomeDistribution":
        c = np.asarray(counts, dtype=np.float64)
        total = float(c.sum())
        if total <= 0:
            raise EmptyDistribution("no observations")
        return cls(c / total)

    def max_prob(self) -> float:
        return float(self.probs.max())


def min_entropy(d: OutcomeDistribution) -> float:
    """-log2 of the largest outcome probability."""
    m = d.max_prob()
    if m <= 0.0:
        raise EmptyDistribution("distribution has no mass")
    return -math.log2(m)


def statistical_distance(d: OutcomeDistribution, d2: OutcomeDistribution) -> float:
    """Half the L1 distance between two distributions on the same domain."""
    if d.size != d2.size:
        raise ValueError("distributions live on different domains")
    return 0.5 * float(np.abs(d.probs - d2.probs).sum())


@dataclass(frozen=True)
class RejSampSeed:
    """A 64-bit seed naming an unbounded stream of points (x_i, y_i).

    The stream is a pure function of (seed, domain size): x uniform over
    indices, y uniform in [0, 1).
    """

    seed: int

    def stream_rng(self) -> np.random.Generator:
        return make_rng(self.seed, _REJ_TAG)


def rejsamp(d: OutcomeDistribution, r: RejSampSeed) -> int:
    """First x_i on r's stream whose y_i falls under d(x_i).

    Deterministic given (d, r); over random r the output is distributed
    exactly as d (uniform proposal, acceptance d(x), expected attempts N).
    """
    size = d.size
    g = r.stream_rng()
    chunk = min(max(64, 2 * size), 1 << 20)
    probs = d.probs
    while True:
        xs = g.integers(0, size, size=chunk)
        ys = g.random(chunk)
        hits = ys < probs[xs]
        if hits.any():
            return int(xs[int(np.argmax(hits))])


def coupling_rate_disjoint(delta: float) -> float:
    """Disagreement rate 2 delta/(1+delta) for disjoint-difference pairs."""
    return 2.0 * delta / (1.0 + delta)


def exact_coupling_rate(d: OutcomeDistribution, d2: OutcomeDistribution) -> float:
    """Exact Pr over shared streams r of rejsamp(d, r) != rejsamp(d2, r).

    Conditioning on the first attempt accepted by either run: both accept
    together with the overlap mass, one run pulls ahead with mass
    |d - d2|, and a run that fell behind still finishes on the same point
    x with probability min(d, d2)(x).  Collecting terms:

        (2 delta - sum_x |d(x)-d2(x)| min(d(x), d2(x))) / (1 + delta).

    This equals 2 delta/(1+delta) exactly when the two laws differ only on
    points where one of them is zero.
    """
    if d.size != d2.size:
        raise ValueError("distributions live on different domains")
    delta = statistical_distance(d, d2)
    if delta == 0.0:
        return 0.0
    diff = np.abs(d.probs - d2.probs)
    cross = float(np.sum(diff * np.minimum(d.probs, d2.probs)))
    return (2.0 * delta - cross) / (1.0 + delta)


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
    d: OutcomeDistribution,
    d2: OutcomeDistribution,
    trials: int,
    rng: np.random.Generator,
) -> CouplingResult:
    """Run both samplers on `trials` shared streams and count disagreements."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if d.size != d2.size:
        raise ValueError("distributions live on different domains")
    seeds = rng.integers(0, 1 << 63, size=trials)
    bad = 0
    for s in seeds:
        r = RejSampSeed(int(s))
        if rejsamp(d, r) != rejsamp(d2, r):
            bad += 1
    delta = statistical_distance(d, d2)
    return CouplingResult(
        rate=bad / trials,
        ci99=wilson_halfwidth(bad, trials),
        trials=trials,
        delta=delta,
        disjoint_rate=coupling_rate_disjoint(delta),
        exact_rate=exact_coupling_rate(d, d2),
    )


def perturb_make_light(
    f: BooleanFunction, z: int, rng: np.random.Generator
) -> BooleanFunction:
    """Flip sqrt(N)/2 uniformly chosen agreement positions of f at z.

    Each flipped x lies in the set where f(x) = sgn(fhat(z)) (-1)^{z.x},
    and each flip moves fhat(z) by 2/N toward zero, so the new coefficient
    is exactly fhat(z) - sgn(fhat(z))/sqrt(N).  Meaningful when
    |fhat(z)| >= 1/sqrt(N); below that the coefficient overshoots zero.
    """
    if f.n % 2 != 0:
        raise OddRoot(f"sqrt(N)/2 is not an integer for n = {f.n}")
    size = f.size
    k = math.isqrt(size) // 2
    members = p_set(f, z)
    if members.size < k:
        raise SetTooSmall(
            f"agreement set has {members.size} elements, need {k}"
        )
    chosen = rng.choice(members, size=k, replace=False)
    vals = f.values.copy()
    vals[chosen] = -vals[chosen]
    return BooleanFunction(f.n, vals)


def degree_ratio(N: int) -> float:
    """binom(N/2 + sqrt(N)/2, sqrt(N)/2) / binom(N/2, sqrt(N)/2), log-space.

    Monotone in N, at least (1 + 1/sqrt(N))^{sqrt(N)/2}, and increases
    toward e^{1/2} = 1.6487... from below.
    """
    if N < 4:
        raise ValueError("N must be at least 4")
    root = math.isqrt(N)
    if root * root != N or root % 2 != 0:
        raise OddRoot(f"sqrt(N)/2 is not an integer for N = {N}")
    r = root // 2
    half = N // 2

    def log_binom(a: int, b: int) -> float:
        return (
            math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)
        )

    return math.exp(log_binom(half + r, r) - log_binom(half, r))


def empirical_distribution(draws: np.ndarray, size: int) -> OutcomeDistribution:
    """Observed frequencies of index draws as an OutcomeDistribution."""
    counts = np.bincount(np.asarray(draws, dtype=np.int64), minlength=size)
    return OutcomeDistribution.from_counts(counts)


def derandomize(
    device,
    f: BooleanFunction,
    r: RejSampSeed,
    budget: int,
    rng: np.random.Generator,
) -> int:
    """Replay a sampling device through a shared stream.

    Step 1: estimate the device's distribution on f from `budget` fresh
    draws.  Step 2: output rejsamp(empirical law, r).  The marginal over
    (device randomness, r) is exactly the device's own law; for a
    sufficiently deterministic device and a generous budget the output is
    almost always a function of r alone.
    """
    if budget < 1:
        raise BudgetZero("derandomization needs at least one device sample")
    spec = wht(f)
    draws = device.sample_many(spec, budget, rng)
    emp = empirical_distribution(draws, spec.size)
    return rejsamp(emp, r)

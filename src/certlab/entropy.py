"""The heavy-to-light perturbation and the seed-driven derandomizer.

The derandomizer story: any sampling device whose output distribution d is
known (or estimated) can be replaced by the deterministic-given-r
procedure "walk a shared stream of uniform points (x_i, y_i), output the
first x_i with y_i < d(x_i)".  The stream is a pure function of (seed, N),
so k laws on the same domain share one walk of it and each gets the index
a walk of its own would give.  The output marginal over random r is
exactly d, and two distributions at statistical distance delta disagree on
a shared stream with probability at most 2 delta/(1 + delta) — with
equality when the distributions differ on disjoint supports.  The tests
hold the walk to the exact rate for the general case.

The perturbation E(f) flips sqrt(N)/2 of the positions where f agrees
with its (signed) character at z, which moves fhat(z) toward zero by
exactly 1/sqrt(N) while disturbing every other coefficient by at most
1/sqrt(N).
"""

from __future__ import annotations

import math

import numpy as np

from .boolfn import BooleanFunction, FourierSpectrum, p_set
from .rng import make_rng

_REJ_TAG = 0x72656A  # stream tag for rejection-walk draws
_BLOCK_ELEMS = 1 << 20  # elements a block of seeds may hold (`seed_block`)


class EmptyDistribution(ValueError):
    """Raised when a distribution has no probability mass."""


class OddRoot(ValueError):
    """Raised when sqrt(N)/2 is not an integer (n odd)."""


class SetTooSmall(ValueError):
    """Raised when the agreement set cannot supply sqrt(N)/2 flips."""


class BudgetZero(ValueError):
    """Raised when the derandomizer is given no device samples."""


def _chunk(size: int) -> int:
    """Points drawn per walk round on a domain of `size`."""
    return min(max(64, 2 * size), 1 << 20)


def seed_block(k: int, size: int, budget: int) -> int:
    """Seeds per `rejsamp` or `derandomize` call for k runs a seed on a
    domain of `size`, each from `budget` device draws (0 for fixed laws):
    the most that keep S * k * max(N, chunk, budget) within _BLOCK_ELEMS.
    Answers do not depend on it."""
    return max(1, _BLOCK_ELEMS // (k * max(size, _chunk(size), budget)))


def rejsamp(seeds, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """First x_i on each seed's stream whose y_i falls under each law's mass
    at x_i, the laws given by bounds lo <= law <= hi.

    `seeds` holds S 64-bit ints; `lo` and `hi` are (S, k, N) float stacks,
    k laws a seed, and the exact walk is the case lo = hi.  Seed s's stream
    of points (x_i, y_i), x uniform over 0..N-1 and y uniform in [0, 1),
    is a pure function of (s, N), drawn in chunks of xs then ys, and its k
    laws share one walk of it: each law's answer is the index a walk for
    that law alone returns.  A round draws one chunk for every seed with a
    law still walking and tests them all at once.  With bounds, y < lo is
    a hit and y >= hi a miss, which is the exact walk's verdict for any
    law between them; the first step between the bounds ends that law's
    walk with -1 (undecided).  Over random seeds a law's answer is
    distributed exactly as the law (uniform proposal, acceptance d(x),
    expected attempts N).
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    seeds_n, k, size = lo.shape
    lo, hi = lo.reshape(seeds_n * k, size), hi.reshape(seeds_n * k, size)
    if not np.all(hi.max(axis=1) > 0.0):  # would walk forever
        raise EmptyDistribution("every law needs some mass")
    gens = [make_rng(s, _REJ_TAG) for s in seeds]
    chunk = _chunk(size)
    out = np.empty(seeds_n * k, dtype=np.int64)
    left = np.arange(seeds_n * k)  # laws still walking; a missed law's out is rewritten
    while left.size:
        walking, row = np.unique(left // k, return_inverse=True)
        xs = np.stack([gens[s].integers(0, size, size=chunk) for s in walking])
        ys = np.stack([gens[s].random(chunk) for s in walking])
        x, y = xs[row], ys[row]
        maybe = y < hi[left[:, None], x]  # every step before the first True is a miss
        first = (np.arange(left.size), maybe.argmax(axis=1))
        out[left] = np.where(y[first] < lo[left, x[first]], x[first], -1)
        left = left[~maybe.any(axis=1)]
    return out.reshape(seeds_n, k)


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


def derandomize(
    device,
    spec: FourierSpectrum,
    seeds,
    budget: int,
    rngs,
) -> np.ndarray:
    """Replay a sampling device through shared streams, once per generator.

    `seeds` holds S seeds and rngs[s] the k generators replayed on seed s.
    Each generator's run estimates the device's law on spec as
    count/budget over `budget` fresh draws, and a seed's k laws are
    replayed on its stream, a pure function of (seed, N), in one walk
    (`rejsamp`).  Returns the (S, k) indices.  The walk runs against the
    device's bounds on each tally (`count_bounds`; division by the fixed
    budget is monotone, so a decided step is the exact walk's), and only
    the runs the bounds leave undecided are answered exactly and walk
    again.  The indices are those of the eager draw; the generators are
    spent, and their state afterwards is unspecified.  The marginal over
    (device randomness, seed) is exactly the device's own law; for a
    sufficiently deterministic device and a generous budget the answers
    are almost always one function of the seed alone.
    """
    if budget < 1:
        raise BudgetZero("derandomization needs at least one device sample")
    shape = (len(seeds), -1, spec.size)
    lo, hi, answer = device.count_bounds(spec, budget, [g for run in rngs for g in run])
    lo = lo.reshape(shape) / budget
    hi = hi.reshape(shape) / budget
    out = rejsamp(seeds, lo, hi)
    need = out < 0
    again = np.flatnonzero(need.any(axis=1))
    if again.size:
        lo[need] = hi[need] = answer(need.ravel()) / budget
        rows = slice(None) if again.size == len(seeds) else again  # a view when all
        out[rows] = rejsamp([seeds[i] for i in again], lo[rows], hi[rows])
    return out

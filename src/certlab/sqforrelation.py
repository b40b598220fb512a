"""Correlated Gaussian pairs, their Boolean roundings, and the phi statistic.

The generative chain: draw X iid N(0, eps) with eps = 1/(C ln N); push it
through the orthonormal Hadamard H (entries +-1/sqrt(N), H^2 = I) to get
Y = HX; publish Z = (X, Y^2 - eps).  Clamping Z to [-1, 1] and rounding
each coordinate c to +-1 with probability (1 +- c)/2 yields a correlated
pair of Boolean functions (f, g).  Every draw is made in batches:
sample_gprime_rows gives the real pairs and pair_rows the Boolean ones,
as (count, N) arrays.

phi(f, g) = sum_z fhat(z)^2 g(z) is the accept-minus-reject bias of the
distinguisher that Fourier-samples z from f and reads g(z); acceptance is
(1 + phi)/2.  For uniform independent pairs E[phi] = 0; for the rounded
pairs the multilinear part contributes eps^2 (2 - 2/N) and the full
expectation stays >= eps^2.

phi_rows evaluates phi per pair; phi_conditional_rows computes E[phi | Z]
in closed form (averaging out only the rounding), which is the
lower-variance way to estimate E[phi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boolfn import wht_rows
from .rng import gaussians
from .stats import mean_ci99, wilson_halfwidth

DEFAULT_C = 20.0
_BATCH = 4096


@dataclass(frozen=True)
class DistParams:
    """Parameters of the correlated-pair distribution: n and the constant C.

    eps = 1/(C ln N) must land in (0, 1).  The concentration checks are
    stated for C >= 20, but smaller C is allowed here to make the eps^2
    signal resolvable in statistical runs (callers record the C they
    used in their output metadata).
    """

    n: int
    C: float = DEFAULT_C

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not self.C > 0:
            raise ValueError("C must be positive")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(
                f"epsilon = 1/(C ln N) = {self.epsilon} is outside (0, 1)"
            )

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def epsilon(self) -> float:
        return 1.0 / (self.C * math.log(self.size))


def sample_gprime_rows(
    params: DistParams, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """`count` independent draws as two (count, N) arrays (X, Yp)."""
    size = params.size
    eps = params.epsilon
    X = gaussians(rng, count * size, sigma=math.sqrt(eps)).reshape(count, size)
    Y = wht_rows(X) / math.sqrt(size)
    return X, Y * Y - eps


def trnc(v: np.ndarray) -> np.ndarray:
    """Elementwise clamp to [-1, 1]."""
    return np.clip(np.asarray(v, dtype=np.float64), -1.0, 1.0)


def pair_rows(
    params: DistParams,
    count: int,
    rng: np.random.Generator,
    uniform_pairs: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """`count` pairs (f, g) as two (count, N) int8 arrays of +-1 sign rows.

    Correlated pairs are Gaussian draws (sample_gprime_rows), clamped to
    [-1, 1], and each coordinate c rounded to +1 with probability
    (1 + c)/2: one uniform per coordinate, the f rows first.  With
    uniform_pairs=True they are independent uniform sign tables, the f
    rows drawn before the g rows.
    """
    if uniform_pairs:
        bits = rng.integers(0, 2, size=(2 * count, params.size), dtype=np.int8)
        rows = 1 - 2 * bits
        return rows[:count], rows[count:]
    X, Yp = sample_gprime_rows(params, count, rng)
    tX = trnc(X)
    tY = trnc(Yp)
    f = np.where(rng.random(tX.shape) < (1.0 + tX) / 2.0, 1, -1).astype(np.int8)
    g = np.where(rng.random(tY.shape) < (1.0 + tY) / 2.0, 1, -1).astype(np.int8)
    return f, g


def phi_rows(f_rows: np.ndarray, g_rows: np.ndarray) -> np.ndarray:
    """phi(f, g) = sum_z fhat(z)^2 g(z) for each of a batch of pairs given
    as (count, N) sign rows, computed exactly on scaled integers."""
    W = wht_rows(f_rows).astype(np.int64)
    size = f_rows.shape[1]
    num = np.sum(W * W * g_rows.astype(np.int64), axis=1)
    return num / float(size * size)


def phi_conditional_rows(X: np.ndarray, Yp: np.ndarray) -> np.ndarray:
    """E[phi | Z] for each of a batch of real draws Z = (X, Yp): the
    rounding noise integrated out in closed form.

    With t = clamp(X), u = clamp(Yp), A the unnormalized transform of t
    and s = sum_j (1 - t_j^2):  E[phi | Z] = (1/N^2) sum_i (A_i^2 + s) u_i.
    Pairs (j, k) with j != k contribute t_j t_k, the diagonal contributes
    1 regardless of rounding, which is exactly A^2 - sum t^2 + N.
    """
    t = trnc(X)
    u = trnc(Yp)
    A = wht_rows(t)
    s = np.sum(1.0 - t * t, axis=1)
    size = X.shape[1]
    return np.sum((A * A + s[:, None]) * u, axis=1) / float(size * size)


@dataclass(frozen=True)
class PhiExperiment:
    """Monte-Carlo estimate of E[phi] with its context."""

    mean: float
    ci99: float
    trials: int
    estimator: str
    epsilon: float
    target_lower_bound: float  # eps^2
    gprime_prediction: float   # eps^2 (2 - 2/N)
    uniform_pairs: bool


def phi_values(
    params: DistParams,
    trials: int,
    estimator: str,
    rng: np.random.Generator,
    uniform_pairs: bool = False,
) -> np.ndarray:
    """Per-trial phi estimates over fresh draws.

    estimator="plain" rounds each draw and evaluates phi on the Boolean
    pair; estimator="conditional" evaluates phi_conditional_rows on the
    real draw (same expectation, smaller variance).  With uniform_pairs=True
    the correlated draw is replaced by independent uniform sign tables
    (the null: E[phi] = 0).
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if estimator not in ("plain", "conditional"):
        raise ValueError("estimator must be 'plain' or 'conditional'")
    vals = np.empty(trials)
    done = 0
    while done < trials:
        b = min(_BATCH, trials - done)
        if estimator == "conditional" and not uniform_pairs:
            X, Yp = sample_gprime_rows(params, b, rng)
            vals[done:done + b] = phi_conditional_rows(X, Yp)
        else:
            # uniform signs are already +-1, so conditional == plain there
            vals[done:done + b] = phi_rows(*pair_rows(params, b, rng,
                                                      uniform_pairs))
        done += b
    return vals


def phi_experiment_from_values(
    params: DistParams,
    vals: np.ndarray,
    estimator: str,
    uniform_pairs: bool = False,
) -> PhiExperiment:
    """Assemble the experiment record from per-trial phi values."""
    size = params.size
    eps = params.epsilon
    ci = mean_ci99(vals)
    return PhiExperiment(
        mean=ci.mean,
        ci99=ci.ci99,
        trials=int(np.asarray(vals).size),
        estimator=estimator,
        epsilon=eps,
        target_lower_bound=eps * eps,
        gprime_prediction=eps * eps * (2.0 - 2.0 / size),
        uniform_pairs=uniform_pairs,
    )


def mean_phi_experiment(
    params: DistParams,
    trials: int,
    estimator: str,
    rng: np.random.Generator,
    uniform_pairs: bool = False,
) -> PhiExperiment:
    """Estimate E[phi] over `trials` fresh draws; see phi_values."""
    if trials < 1:
        raise ValueError("need at least one trial")
    vals = phi_values(params, trials, estimator, rng, uniform_pairs)
    return phi_experiment_from_values(params, vals, estimator, uniform_pairs)


@dataclass(frozen=True)
class TailCheckResult:
    """Empirical tail rate of |sum_i Yp_i| >= 3 sqrt(N) vs its bound."""

    rate: float
    bound: float
    threshold: float
    trials: int
    ci99: float
    epsilon: float


def row_sum_tail_check(
    params: DistParams, trials: int, rng: np.random.Generator
) -> TailCheckResult:
    """Fraction of draws with |sum_i Yp_i| >= 3 sqrt(N).

    sum_i Yp_i = eps * (chi2_N - N), so the threshold sits hundreds of
    standard deviations out for small eps; the bound is 2 exp(-1/eps).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    size = params.size
    threshold = 3.0 * math.sqrt(size)
    hits = 0
    done = 0
    while done < trials:
        b = min(_BATCH, trials - done)
        _, Yp = sample_gprime_rows(params, b, rng)
        hits += int(np.count_nonzero(np.abs(Yp.sum(axis=1)) >= threshold))
        done += b
    eps = params.epsilon
    return TailCheckResult(
        rate=hits / trials,
        bound=2.0 * math.exp(-1.0 / eps),
        threshold=threshold,
        trials=trials,
        ci99=wilson_halfwidth(hits, trials),
        epsilon=eps,
    )


def truncation_rate(
    params: DistParams, trials: int, rng: np.random.Generator
) -> tuple[float, float]:
    """(empirical clamp rate, Wilson 99% half-width).

    A trial counts when any coordinate of (X, Yp) leaves [-1, 1]; the
    guarantee at C = 20 is rate <= 2/N^2.
    """
    hits = 0
    done = 0
    while done < trials:
        b = min(_BATCH, trials - done)
        X, Yp = sample_gprime_rows(params, b, rng)
        out = (np.abs(X).max(axis=1) > 1.0) | (np.abs(Yp).max(axis=1) > 1.0)
        hits += int(np.count_nonzero(out))
        done += b
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
    done = 0
    while done < trials:
        b = min(_BATCH, trials - done)
        _, g_rows = pair_rows(params, b, rng)
        ones = np.count_nonzero(g_rows == 1, axis=1)
        hits += int(np.count_nonzero((ones < lo) | (ones > hi)))
        done += b
    return hits / trials, wilson_halfwidth(hits, trials)

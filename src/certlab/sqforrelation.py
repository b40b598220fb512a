"""Correlated Gaussian pairs, their Boolean roundings, and the phi statistic.

The generative chain: draw X iid N(0, eps) with eps = 1/(C ln N); push it
through the orthonormal Hadamard H (entries +-1/sqrt(N), H^2 = I) to get
Y = HX; publish Z = (X, Y^2 - eps).  Clamping Z to [-1, 1] and rounding
each coordinate c to +-1 with probability (1 +- c)/2 yields a correlated
pair of Boolean functions (f, g).

phi(f, g) = sum_z fhat(z)^2 g(z) is the accept-minus-reject bias of the
distinguisher that Fourier-samples z from f and reads g(z); acceptance is
(1 + phi)/2.  For uniform independent pairs E[phi] = 0; for the rounded
pairs the multilinear part contributes eps^2 (2 - 2/N) and the full
expectation stays >= eps^2.

phi_conditional computes E[phi | Z] in closed form (averaging out only the
rounding), which is the lower-variance way to estimate E[phi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boolfn import BooleanFunction, wht_rows
from .rng import gaussians
from .stats import MeanCI, mean_ci99, wilson_halfwidth

DENSE_LIST_LIMIT = 1 << 20  # largest list materialized in memory
DEFAULT_C = 20.0
_BATCH = 4096


class BudgetExceeded(ValueError):
    """Raised when a dense request is beyond the in-memory budget."""


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


@dataclass(frozen=True)
class RealPair:
    """One draw Z = (X, Yp): X iid N(0, eps), Yp = (HX)^2 - eps."""

    X: np.ndarray
    Yp: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.Yp, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("X and Yp must be 1-d arrays of equal length")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Yp", y)


@dataclass(frozen=True)
class BooleanPair:
    """A pair (f, g) of Boolean functions on the same n bits."""

    f: BooleanFunction
    g: BooleanFunction

    def __post_init__(self):
        if self.f.n != self.g.n:
            raise ValueError("f and g must share the same n")

    @property
    def n(self) -> int:
        return self.f.n


def orthonormal_transform(v: np.ndarray) -> np.ndarray:
    """Apply the orthonormal Hadamard (entries +-1/sqrt(N)) to a vector.

    Self-inverse to roundoff: applying twice returns the input.
    """
    v = np.asarray(v, dtype=np.float64)
    return wht_rows(v).reshape(v.shape) / math.sqrt(v.shape[-1])


def orthonormal_entry(n: int, i: int, j: int) -> float:
    """Matrix element H_ij = (-1)^{i.j}/sqrt(N)."""
    sign = -1.0 if bin(i & j).count("1") % 2 else 1.0
    return sign / math.sqrt(1 << n)


def sample_gprime(params: DistParams, rng: np.random.Generator) -> RealPair:
    """One draw of Z = (X, Y^2 - eps) with Y = HX."""
    X, Yp = sample_gprime_rows(params, 1, rng)
    return RealPair(X[0], Yp[0])


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


def round_to_boolean(Z: RealPair, rng: np.random.Generator) -> BooleanPair:
    """Round each clamped coordinate c to +1 with probability (1+c)/2."""
    size = Z.X.shape[0]
    n = size.bit_length() - 1
    flat = np.concatenate([trnc(Z.X), trnc(Z.Yp)])
    u = rng.random(2 * size)
    signs = np.where(u < (1.0 + flat) / 2.0, 1, -1).astype(np.int8)
    return BooleanPair(
        BooleanFunction(n, signs[:size]), BooleanFunction(n, signs[size:])
    )


def _round_rows(X: np.ndarray, Yp: np.ndarray,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized rounding of (count, N) halves to +-1 sign rows."""
    tX = trnc(X)
    tY = trnc(Yp)
    f = np.where(rng.random(tX.shape) < (1.0 + tX) / 2.0, 1, -1).astype(np.int8)
    g = np.where(rng.random(tY.shape) < (1.0 + tY) / 2.0, 1, -1).astype(np.int8)
    return f, g


def sample_D(params: DistParams, rng: np.random.Generator) -> BooleanPair:
    """One correlated Boolean pair: Gaussian draw, clamp, round."""
    return round_to_boolean(sample_gprime(params, rng), rng)


def phi(pair: BooleanPair) -> float:
    """sum_z fhat(z)^2 g(z), computed exactly on scaled integers."""
    W = wht_rows(pair.f.values)[0].astype(np.int64)
    size = W.shape[0]
    num = int(np.dot(W * W, pair.g.values.astype(np.int64)))
    return num / float(size * size)


def _phi_rows(f_rows: np.ndarray, g_rows: np.ndarray) -> np.ndarray:
    """phi for each of a batch of pairs given as (count, N) sign rows."""
    W = wht_rows(f_rows).astype(np.int64)
    size = f_rows.shape[1]
    num = np.sum(W * W * g_rows.astype(np.int64), axis=1)
    return num / float(size * size)


def acceptance(pair: BooleanPair) -> float:
    """Distinguisher accept probability (1 + phi)/2."""
    return (1.0 + phi(pair)) / 2.0


def phi_conditional(Z: RealPair) -> float:
    """E[phi | Z]: the rounding noise integrated out in closed form.

    With t = clamp(X), u = clamp(Yp), A the unnormalized transform of t
    and s = sum_j (1 - t_j^2):  E[phi | Z] = (1/N^2) sum_i (A_i^2 + s) u_i.
    Pairs (j, k) with j != k contribute t_j t_k, the diagonal contributes
    1 regardless of rounding, which is exactly A^2 - sum t^2 + N.
    """
    return float(_phi_conditional_rows(Z.X[None, :], Z.Yp[None, :])[0])


def _phi_conditional_rows(X: np.ndarray, Yp: np.ndarray) -> np.ndarray:
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
    pair; estimator="conditional" evaluates phi_conditional on the real
    draw (same expectation, smaller variance).  With uniform_pairs=True
    the correlated draw is replaced by independent uniform sign tables
    (the null: E[phi] = 0).
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if estimator not in ("plain", "conditional"):
        raise ValueError("estimator must be 'plain' or 'conditional'")
    size = params.size
    vals = np.empty(trials)
    done = 0
    while done < trials:
        b = min(_BATCH, trials - done)
        if uniform_pairs:
            # uniform signs are already +-1, so conditional == plain here
            bits = rng.integers(0, 2, size=(2 * b, size), dtype=np.int8)
            rows = 1 - 2 * bits
            vals[done:done + b] = _phi_rows(rows[:b], rows[b:])
        else:
            X, Yp = sample_gprime_rows(params, b, rng)
            if estimator == "conditional":
                vals[done:done + b] = _phi_conditional_rows(X, Yp)
            else:
                f_rows, g_rows = _round_rows(X, Yp, rng)
                vals[done:done + b] = _phi_rows(f_rows, g_rows)
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

    Counts draws of (f, g) whose g has |{x : g(x) = +1}| outside
    [(1 - d) N/2, (1 + d) N/2] with d = N^{-1/3}.
    """
    size = params.size
    delta = size ** (-1.0 / 3.0)
    lo = (1.0 - delta) * size / 2.0
    hi = (1.0 + delta) * size / 2.0
    hits = 0
    done = 0
    while done < trials:
        b = min(_BATCH, trials - done)
        X, Yp = sample_gprime_rows(params, b, rng)
        _, g_rows = _round_rows(X, Yp, rng)
        ones = np.count_nonzero(g_rows == 1, axis=1)
        hits += int(np.count_nonzero((ones < lo) | (ones > hi)))
        done += b
    return hits / trials, wilson_halfwidth(hits, trials)


def long_list_D(
    params: DistParams,
    T: int,
    rng: np.random.Generator,
    uniform_pairs: bool = False,
) -> list[BooleanPair]:
    """T independent correlated pairs, materialized as a list.

    Raises BudgetExceeded past the dense limit; use stream_D for longer
    runs that consume pairs one at a time.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    if T > DENSE_LIST_LIMIT:
        raise BudgetExceeded(
            f"T = {T} exceeds the dense budget {DENSE_LIST_LIMIT}; "
            "use stream_D instead"
        )
    return list(stream_D(params, T, rng, uniform_pairs=uniform_pairs))


def stream_D(
    params: DistParams,
    T: int,
    rng: np.random.Generator,
    uniform_pairs: bool = False,
):
    """Yield T correlated (or uniform) pairs without holding them all."""
    n = params.n
    size = params.size
    done = 0
    while done < T:
        b = min(_BATCH, T - done)
        if uniform_pairs:
            bits = rng.integers(0, 2, size=(2 * b, size), dtype=np.int8)
            f_rows, g_rows = 1 - 2 * bits[:b], 1 - 2 * bits[b:]
        else:
            X, Yp = sample_gprime_rows(params, b, rng)
            f_rows, g_rows = _round_rows(X, Yp, rng)
        for i in range(b):
            yield BooleanPair(
                BooleanFunction(n, f_rows[i]), BooleanFunction(n, g_rows[i])
            )
        done += b

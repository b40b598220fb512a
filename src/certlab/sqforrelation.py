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

from .boolfn import _BLOCK, random_functions_batch, wht_rows
from .rng import blocks, gaussians
from .stats import mean_ci99

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


def _gaussian_rows(
    params: DistParams, count: int, rng: np.random.Generator
) -> np.ndarray:
    """X: `count` rows of N iid N(0, eps) draws."""
    size = params.size
    sigma = math.sqrt(params.epsilon)
    return gaussians(rng, count * size, sigma=sigma).reshape(count, size)


def _yp_rows(params: DistParams, X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Yp = (HX)^2 - eps, written into `out` (which may be X itself)."""
    Y = wht_rows(X, out=out)
    Y /= math.sqrt(params.size)
    Y *= Y
    Y -= params.epsilon
    return Y


def sample_gprime_rows(
    params: DistParams, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """`count` independent draws as two (count, N) arrays (X, Yp)."""
    X = _gaussian_rows(params, count, rng)
    return X, _yp_rows(params, X, out=np.empty_like(X))


def _round_rows(t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """+-1 int8 rows shaped like t: +1 where a fresh uniform lies below
    (1 + clamp(t))/2, one uniform per entry in row-major order.

    Rounds _BLOCK entries at a time through two small reused buffers and
    leaves t as it is.  rng.random's doubles drawn in consecutive pieces
    are the stream one whole draw gives, so the pieces change no bit.
    """
    flat = t.reshape(-1)
    out = np.empty(flat.size, dtype=np.int8)
    step = max(1, min(flat.size, _BLOCK))
    c, u = np.empty(step), np.empty(step)
    for i, m in blocks(flat.size, step):
        np.clip(flat[i:i + m], -1.0, 1.0, out=c[:m])
        c[:m] += 1.0
        c[:m] /= 2.0
        o = out[i:i + m]
        np.less(rng.random(out=u[:m]), c[:m], out=o.view(np.bool_))
        o *= 2
        o -= 1
    return out.reshape(t.shape)


def pair_rows(
    params: DistParams,
    count: int,
    rng: np.random.Generator,
    uniform_pairs: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """`count` pairs (f, g) as two (count, N) int8 arrays of +-1 sign rows.

    Correlated pairs draw X as sample_gprime_rows does, round f from X,
    then transform X in place into Yp and round g from it: each coordinate
    c, clamped to [-1, 1], becomes +1 with probability (1 + c)/2, one
    uniform per coordinate, the f rows' uniforms first.  The stream is
    sample_gprime_rows' followed by those uniforms, with one batch-sized
    float array alive instead of two.  With uniform_pairs=True they are
    independent uniform sign tables, the f rows drawn before the g rows.
    """
    if uniform_pairs:
        rows = random_functions_batch(params.n, 2 * count, rng)
        return rows[:count], rows[count:]
    X = _gaussian_rows(params, count, rng)
    f = _round_rows(X, rng)
    return f, _round_rows(_yp_rows(params, X, out=X), rng)


def phi_rows(f_rows: np.ndarray, g_rows: np.ndarray) -> np.ndarray:
    """phi(f, g) = sum_z fhat(z)^2 g(z) for each of a batch of pairs given
    as (count, N) sign rows, computed exactly on scaled integers, a block
    of rows at a time."""
    W = wht_rows(f_rows)
    count, size = W.shape
    num = np.empty(count, dtype=np.int64)
    step = max(1, min(count, _BLOCK // size))
    for i, m in blocks(count, step):
        w = W[i:i + m].astype(np.int64)
        w *= w
        w *= g_rows[i:i + m]
        num[i:i + m] = np.sum(w, axis=1)
    return num / float(size * size)


def phi_conditional_rows(X: np.ndarray, Yp: np.ndarray) -> np.ndarray:
    """E[phi | Z] for each of a batch of real draws Z = (X, Yp): the
    rounding noise integrated out in closed form.

    With t = clamp(X), u = clamp(Yp), A the unnormalized transform of t
    and s = sum_j (1 - t_j^2):  E[phi | Z] = (1/N^2) sum_i (A_i^2 + s) u_i.
    Pairs (j, k) with j != k contribute t_j t_k, the diagonal contributes
    1 regardless of rounding, which is exactly A^2 - sum t^2 + N.

    Works in place: X and Yp are clamped where they lie and X is then
    overwritten, so pass draws that are not needed again.  s is summed in
    row blocks; each row's sum is its own, so the blocks change no bit.
    """
    t = np.clip(X, -1.0, 1.0, out=X)
    u = np.clip(Yp, -1.0, 1.0, out=Yp)
    count, size = t.shape
    s = np.empty(count)
    step = max(1, min(count, _BLOCK // size))
    sq = np.empty((step, size))
    for i, m in blocks(count, step):
        np.multiply(t[i:i + m], t[i:i + m], out=sq[:m])
        np.subtract(1.0, sq[:m], out=sq[:m])
        s[i:i + m] = np.sum(sq[:m], axis=1)
    A = wht_rows(t, out=t)
    A *= A
    A += s[:, None]
    A *= u
    return np.sum(A, axis=1) / float(size * size)


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
    for done, b in blocks(trials, _BATCH):
        if estimator == "conditional" and not uniform_pairs:
            # the draws are this loop's own, so they may be overwritten
            vals[done:done + b] = phi_conditional_rows(
                *sample_gprime_rows(params, b, rng))
        else:
            # uniform signs are already +-1, so conditional == plain there
            vals[done:done + b] = phi_rows(*pair_rows(params, b, rng,
                                                      uniform_pairs))
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

"""End-to-end certified-randomness protocol simulation.

One run: derive T pseudorandom challenge functions from the master seed,
query the device once per challenge, and judge the answers three ways.

* Score test: S = sum_i fhat_i(s_i)^2 must reach (b - eps/2) T/N.  Honest
  Fourier samplers concentrate near 3T/N (the fourth-moment mean), blind
  uniform cheats near T/N.
* Collision test (when the argmax claim Q is supplied): V counts
  challenges with s_i = Q(C_i), the first index of the largest |fhat_i|.
  With mu = T/N, small V looks like uniform sampling, large V like a
  genuinely peaked sampler.
* Extraction: the answer bits are condensed through a Toeplitz matrix
  whose height is capped by the device's accumulated min-entropy minus a
  64-bit safety margin.

Everything — challenges, device randomness, extractor seed — derives from
the one 64-bit config seed through separate tagged streams, so transcripts
are bit-identical across reruns.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .boolfn import wht_rows
from .devices import DeviceModel, argmax_rows
from .fouriersample import _NARROW
from .rng import GOLDEN, blocks, derive64, make_rng, mix64_array

_TAG_CHALLENGES = 1
_TAG_DEVICE = 2
_TAG_EXTRACTOR = 3
_BATCH = 4096
EXTRACTOR_MARGIN_BITS = 64  # leftover-hash safety margin on output length


class LengthMismatch(ValueError):
    """Raised when extractor seed/input/output lengths are inconsistent."""


class Verdict(enum.Enum):
    UNIFORM_LIKE = "UniformLike"
    QUANTUM_LIKE = "QuantumLike"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters.  delta = eps_hog^2 is the collision-test slack."""

    n: int
    T: int
    b: float
    eps_hog: float
    extractor_output_bits: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be at least 1")
        if not 1.0 < self.b < math.inf:
            raise ValueError("b must be a finite number above 1")
        if not 0.0 < self.eps_hog < 1.0:
            raise ValueError("eps_hog must lie in (0, 1)")
        if self.extractor_output_bits < 0:
            raise ValueError("extractor_output_bits must be nonnegative")

    @property
    def delta(self) -> float:
        return self.eps_hog * self.eps_hog

    @property
    def size(self) -> int:
        return 1 << self.n


@dataclass(frozen=True)
class ProtocolTranscript:
    """Everything a verifier needs to re-check a run.

    challenge_keys[i] = derive64(seed, _TAG_CHALLENGES, i) seeds challenge
    i's sign table, the key's splitmix64 stream (`_signs_from_keys`);
    samples[i] is the device's answer; probs[i] = fhat_i(samples[i])^2.
    S is the total of probs (recomputable to 1e-9); V is None when no
    claim was checked.
    """

    config: ProtocolConfig
    challenge_keys: np.ndarray  # uint64, length T
    samples: np.ndarray         # int64,  length T
    probs: np.ndarray           # float64, length T
    S: float
    score_pass: bool
    V: int | None
    entropy_verdict: Verdict | None
    min_entropy_total: float
    extracted_bits: str


def _challenge_keys_block(seed: int, start: int, count: int) -> np.ndarray:
    base = derive64(seed, _TAG_CHALLENGES)
    idx = np.arange(start, start + count, dtype=np.uint64)
    with np.errstate(over="ignore"):  # mod-2^64 wrap is the point
        return mix64_array(np.uint64(base) + np.uint64(GOLDEN) + idx)


def _signs_from_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """Sign tables (len(keys), 2^n) from per-challenge 64-bit seeds.

    Challenge bits are the splitmix64 output stream of the key: word j of
    challenge i is mix64(key_i + (j+1) GOLDEN), unpacked LSB-first.
    """
    size = 1 << n
    words_per = max(1, size // 64)
    j = np.arange(1, words_per + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    words = mix64_array(keys[:, None].astype(np.uint64) + j[None, :])
    bits = np.unpackbits(
        words.reshape(-1).view(np.uint8), bitorder="little"
    ).reshape(len(keys), words_per * 64)
    return (1 - 2 * bits[:, :size]).astype(np.int8)


def score_threshold(config: ProtocolConfig) -> float:
    """Pass bar (b - eps_hog/2) * T / N for the total score S."""
    return (config.b - config.eps_hog / 2.0) * config.T / config.size


def verify_score(transcript: ProtocolTranscript, config: ProtocolConfig) -> bool:
    """Recompute S from the per-challenge entries and apply the bar."""
    S = float(np.sum(transcript.probs))
    if abs(S - transcript.S) > 1e-9:
        raise ValueError("transcript S does not match its own entries")
    return S >= score_threshold(config)


def collision_verdict(V: int, T: int, N: int, eps_hog: float) -> Verdict:
    """Chernoff-style reading of the collision count V against mu = T/N.

    UniformLike below (1 + eps_hog^2) mu, QuantumLike above
    (1 + eps_hog/4) mu.  For eps_hog >= 1/4 the two bars would cross, so
    the gap is widened (min/max of the two) rather than reordered.
    """
    mu = T / N
    lo = (1.0 + eps_hog * eps_hog) * mu
    hi = (1.0 + eps_hog / 4.0) * mu
    lo, hi = min(lo, hi), max(lo, hi)
    if V < lo:
        return Verdict.UNIFORM_LIKE
    if V > hi:
        return Verdict.QUANTUM_LIKE
    return Verdict.INCONCLUSIVE


def index_bits(samples: np.ndarray, n: int) -> np.ndarray:
    """Each index's n bits (LSB-first), concatenated into one uint8 array:
    the little-endian bytes of the narrowest uint holding n bits, unpacked."""
    le = np.min_scalar_type((1 << n) - 1).newbyteorder("<")
    b = np.asarray(samples).astype(le).view(np.uint8).reshape(-1, le.itemsize)
    return np.unpackbits(b, axis=1, count=n, bitorder="little").reshape(-1)


def toeplitz_extract(
    samples: np.ndarray, extractor_seed: np.ndarray, k: int
) -> np.ndarray:
    """GF(2) Toeplitz extraction of k bits from m input bits.

    Row i of the matrix is seed[i : i+m] reversed, and the product is
    evaluated on packed words: output bit i is the parity of
    AND(seed[i : i+m], reversed input), so eight bit-shifted packed copies
    of the seed give every window alignment.
    The input is zero-padded to whole uint64 words, so seed bits past the
    window drop out of the AND, and the popcount of the XOR of the ANDed
    words gives the parity.  Linear in (input, fixed seed).
    """
    x = np.asarray(samples, dtype=np.uint8)
    seed = np.asarray(extractor_seed, dtype=np.uint8)
    m = x.size
    _check_extract_args(m, seed.size, k)
    if k == 0:
        return np.zeros(0, dtype=np.uint8)
    nbytes = -(-m // 64) * 8
    xr = np.packbits(np.pad(x[::-1], (0, 8 * nbytes - m)), bitorder="little")
    xr = xr.view(np.uint64)
    span = ((k - 1) >> 3) + nbytes + 1  # bytes, so that every window fits
    # shifted[s] holds the seed bits from offset s, packed LSB-first
    shifted = [np.packbits(np.pad(seed[s:], (0, 8 * span - seed[s:].size)),
                           bitorder="little") for s in range(8)]
    out = np.empty(k, dtype=np.uint8)
    anded = np.empty_like(xr)
    for i in range(k):
        window = shifted[i & 7][i >> 3: (i >> 3) + nbytes].view(np.uint64)
        np.bitwise_and(window, xr, out=anded)
        out[i] = int(np.bitwise_count(np.bitwise_xor.reduce(anded))) & 1
    return out


def _check_extract_args(m: int, seed_len: int, k: int):
    if k < 0 or k > m:
        raise LengthMismatch(f"need 0 <= k <= m, got k={k}, m={m}")
    want = m + k - 1 if k > 0 else 0
    if k > 0 and seed_len != want:
        raise LengthMismatch(
            f"extractor seed must have m + k - 1 = {want} bits, got {seed_len}"
        )


def run_protocol(
    config: ProtocolConfig, device: DeviceModel, claimed_Q=None
) -> ProtocolTranscript:
    """Execute one full protocol run; see module docstring for the phases.

    claimed_Q is None or the string "argmax"; "argmax" enables the
    collision test against each challenge's first argmax of |W|.
    """
    return run_protocol_arms(config, [(device, claimed_Q)])[0]


def run_protocol_arms(config: ProtocolConfig, arms) -> list[ProtocolTranscript]:
    """One transcript per (device, claimed_Q) arm, from one challenge stage.

    The challenges are derived and transformed once per block, and their
    argmax (the argmax claim, and where the row max of |W| sits) is taken
    once per block and shared by every arm.  Blocks with N <= _NARROW are
    held column-major, where the narrow scan and the argmax read contiguous
    rows of W.T; longer rows stay row-major for the blocked search.  Each
    arm draws from its own make_rng(seed, _TAG_DEVICE) stream, so each
    transcript equals a lone run_protocol's.  A claim other than None or
    "argmax" raises ValueError.
    """
    for _, claimed_Q in arms:
        if not (claimed_Q is None or claimed_Q == "argmax"):
            raise ValueError(f"unknown claim {claimed_Q!r}; use None or 'argmax'")
    n, T, size = config.n, config.T, config.size
    rngs = [make_rng(config.seed, _TAG_DEVICE) for _ in arms]
    keys = np.empty(T, dtype=np.uint64)
    samples = np.empty((len(arms), T), dtype=np.int64)
    probs = np.empty((len(arms), T), dtype=np.float64)
    V = [0 if q is not None else None for _, q in arms]
    entropy = [0.0] * len(arms)
    for done, b in blocks(T, _BATCH):
        keys[done:done + b] = kblk = _challenge_keys_block(config.seed, done, b)
        W = wht_rows(_signs_from_keys(kblk, n))
        if size <= _NARROW:
            W = np.ascontiguousarray(W.T).T
        peak = argmax_rows(W)
        for a, (device, claimed_Q) in enumerate(arms):
            s = np.asarray(device.sample_rows(W, rngs[a], peak), dtype=np.int64)
            w_at = W[np.arange(b), s].astype(np.int64)
            samples[a, done:done + b] = s
            probs[a, done:done + b] = (w_at * w_at) / float(size * size)
            if claimed_Q is not None:
                V[a] += int(np.count_nonzero(s == peak))
            entropy[a] += float(device.min_entropy_rows(W, peak).sum())
    return [_transcript(config, keys, samples[a], probs[a], V[a], entropy[a])
            for a in range(len(arms))]


def _transcript(config, keys, samples, probs, V, entropy_total):
    """Score, judge and extract one arm's answers into its transcript."""
    S = float(probs.sum())
    return ProtocolTranscript(
        config=config,
        challenge_keys=keys,
        samples=samples,
        probs=probs,
        S=S,
        score_pass=S >= score_threshold(config),
        V=V,
        entropy_verdict=(
            collision_verdict(V, config.T, config.size, config.eps_hog)
            if V is not None
            else None
        ),
        min_entropy_total=entropy_total,
        extracted_bits="".join(
            map(str, _extract_bits(config, samples, entropy_total))),
    )


def _extract_bits(
    config: ProtocolConfig, samples: np.ndarray, entropy_total: float
) -> np.ndarray:
    """Toeplitz-condense the answer bits under the min-entropy budget."""
    m = samples.size * config.n
    k = min(
        config.extractor_output_bits,
        int(np.floor(entropy_total)) - EXTRACTOR_MARGIN_BITS,
        m,
    )
    if k <= 0:
        return np.zeros(0, dtype=np.uint8)
    ext_rng = make_rng(config.seed, _TAG_EXTRACTOR)
    seed_bits = ext_rng.integers(0, 2, size=m + k - 1, dtype=np.uint8)
    return toeplitz_extract(index_bits(samples, config.n), seed_bits, k)


def transcript_to_dict(transcript: ProtocolTranscript) -> dict:
    """JSON-ready view of every transcript field except `challenges`.

    The per-challenge records (schema in the README) stay in the
    transcript's three arrays; the CLI writes them straight from there.
    """
    c = transcript.config
    return {
        "config": {
            "n": c.n,
            "T": c.T,
            "b": c.b,
            "eps_hog": c.eps_hog,
            "delta": c.delta,
            "extractor_output_bits": c.extractor_output_bits,
            "seed": c.seed,
        },
        "S": transcript.S,
        "score_threshold": score_threshold(c),
        "score_pass": transcript.score_pass,
        "V": transcript.V,
        "entropy_verdict": (
            transcript.entropy_verdict.value
            if transcript.entropy_verdict is not None
            else None
        ),
        "min_entropy_total": transcript.min_entropy_total,
        "extracted_bits": transcript.extracted_bits,
    }

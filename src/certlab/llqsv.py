"""Balanced-string and long-list instance generators with a
distinguisher-advantage harness.

A long-list instance is T pairs (f_i, s_i): every f_i is a fresh uniform
function, and s_i is either a uniform index (the null case) or an exact
Fourier sample from fhat_i^2 (the signal case).  Either way the marginal
of each s_i alone is uniform, so telling the cases apart requires relating
s_i to f_i.  Distinguishers get oracle-style indexed reads with a counter
and never see the case label; the harness scores their advantage
|Pr[accept | fourier] - Pr[accept | uniform]|.

The balanced-string sampler draws uniformly from the strings of hamming
weight N/2 - d or N/2 + d (fair coin between the sides, then a partial
Fisher-Yates pick of the one positions).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .boolfn import (
    MAX_N,
    BooleanFunction,
    character_values,
    coefficient_at,
    from_bfn1,
    random_functions_batch,
    to_bfn1,
    wht_rows,
)
from .fouriersample import fourier_rows
from .sqforrelation import BudgetExceeded, DENSE_LIST_LIMIT
from .stats import wilson_halfwidth

CASES = ("uniform", "fourier")
LLQ1_MAGIC = b"LLQ1"
_BATCH = 2048


class BadOffset(ValueError):
    """Raised when the weight offset d is outside 0..N/2 or N is odd."""


@dataclass(frozen=True)
class BalancedString:
    """A length-N bit string of hamming weight N/2 - d or N/2 + d."""

    N: int
    bits: np.ndarray  # packed uint8, LSB-first, length ceil(N/8)
    d: int

    def __post_init__(self):
        packed = np.asarray(self.bits, dtype=np.uint8).copy()
        if packed.shape != ((self.N + 7) // 8,):
            raise ValueError("packed bits have the wrong length")
        packed.setflags(write=False)
        object.__setattr__(self, "bits", packed)
        w = self.weight()
        half = self.N // 2
        if w not in (half - self.d, half + self.d):
            raise ValueError(
                f"weight {w} is not N/2 +- d = {half} +- {self.d}"
            )

    def weight(self) -> int:
        return int(np.bitwise_count(self.bits).sum())

    def unpacked(self) -> np.ndarray:
        return np.unpackbits(self.bits, bitorder="little")[: self.N]


def sample_u_d(N: int, d: int, rng: np.random.Generator) -> BalancedString:
    """Uniform draw from the weight-(N/2 +- d) strings.

    The two weight classes have equal cardinality, so a fair coin picks
    the side; the one positions are then chosen by a partial Fisher-Yates
    pass (first `w` entries of a progressively shuffled range).
    """
    if N < 2 or N % 2 != 0:
        raise BadOffset(f"N must be even and positive, got {N}")
    if not 0 <= d <= N // 2:
        raise BadOffset(f"d must be in 0..N/2, got {d}")
    w = N // 2 + (d if rng.random() < 0.5 else -d)
    arr = np.arange(N)
    for i in range(w):
        j = int(rng.integers(i, N))
        arr[i], arr[j] = arr[j], arr[i]
    flat = np.zeros(N, dtype=np.uint8)
    flat[arr[:w]] = 1
    return BalancedString(N, np.packbits(flat, bitorder="little"), d)


def balance_instance(
    d_vector, N: int, rng: np.random.Generator
) -> list[BalancedString]:
    """Independent balanced strings, one per entry of d_vector."""
    return [sample_u_d(N, int(d), rng) for d in d_vector]


@dataclass(frozen=True)
class LongList:
    """T pairs (f_i, s_i) plus the hidden case label.

    The label is harness-side bookkeeping only; hand distinguishers a
    ListOracle, never this object.
    """

    entries: list  # of (BooleanFunction, int)
    case_label: str

    def __post_init__(self):
        if self.case_label not in CASES + ("unknown",):
            raise ValueError(f"unknown case label {self.case_label!r}")
        ns = {f.n for f, _ in self.entries}
        if len(ns) > 1:
            raise ValueError("all functions must share the same n")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        if not self.entries:
            raise ValueError("empty list has no n")
        return self.entries[0][0].n


class ListOracle:
    """Indexed read access to a LongList with a read counter.

    Distinguishers see only this interface; each f-read or s-read bumps
    `reads`, enabling query-budget experiments.
    """

    def __init__(self, llist: LongList):
        self._entries = llist.entries
        self.reads = 0

    def __len__(self) -> int:
        return len(self._entries)

    def read_f(self, i: int) -> BooleanFunction:
        self.reads += 1
        return self._entries[i][0]

    def read_s(self, i: int) -> int:
        self.reads += 1
        return self._entries[i][1]


def llqsv_instance(
    n: int, T: int, case: str, rng: np.random.Generator
) -> LongList:
    """Generate a long-list instance of the requested case.

    Dense only: T beyond the in-memory budget raises BudgetExceeded (use
    stream_llqsv to consume longer lists entry by entry).
    """
    if case not in CASES:
        raise ValueError(f"case must be one of {CASES}")
    if T < 0:
        raise ValueError("T must be nonnegative")
    if T > DENSE_LIST_LIMIT:
        raise BudgetExceeded(
            f"T = {T} exceeds the dense budget {DENSE_LIST_LIMIT}; "
            "use stream_llqsv instead"
        )
    return LongList(list(stream_llqsv(n, T, case, rng)), case)


def stream_llqsv(n: int, T: int, case: str, rng: np.random.Generator):
    """Yield (f_i, s_i) pairs of the requested case without storing them."""
    if case not in CASES:
        raise ValueError(f"case must be one of {CASES}")
    size = 1 << n
    done = 0
    while done < T:
        b = min(_BATCH, T - done)
        tables = random_functions_batch(n, b, rng)
        if case == "fourier":
            s = fourier_rows(wht_rows(tables), rng.random(b))
        else:
            s = rng.integers(0, size, size=b, dtype=np.int64)
        for i in range(b):
            yield BooleanFunction(n, tables[i]), int(s[i])
        done += b


@dataclass(frozen=True)
class TailRateResult:
    """Empirical exceedance rate of the max squared coefficient."""

    rate: float
    bound: float
    ci99: float
    trials: int
    threshold: float  # on max fhat^2, i.e. p^2/N


def max_coeff_tail(
    n: int, p_poly_value: float, trials: int, rng: np.random.Generator
) -> TailRateResult:
    """Fraction of random f with max_z fhat(z)^2 > p^2/N.

    The reference bound is 2 exp(-p^2 / (6 ln N)); the natural scale of
    max fhat^2 is (2 ln N)/N, so p around sqrt(2 ln N) marks the knee.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    size = 1 << n
    # threshold on the scaled integers: W^2 > p^2 * N
    cut = p_poly_value * p_poly_value * size
    hits = 0
    done = 0
    while done < trials:
        b = min(_BATCH, trials - done)
        tables = random_functions_batch(n, b, rng)
        W = wht_rows(tables).astype(np.int64)
        maxw2 = (W * W).max(axis=1)
        hits += int(np.count_nonzero(maxw2 > cut))
        done += b
    bound = 2.0 * np.exp(-p_poly_value * p_poly_value / (6.0 * np.log(size)))
    return TailRateResult(
        rate=hits / trials,
        bound=float(min(bound, 1.0)),
        ci99=wilson_halfwidth(hits, trials),
        trials=trials,
        threshold=p_poly_value * p_poly_value / size,
    )


@dataclass(frozen=True)
class AdvantageResult:
    """Distinguisher accept rates per case and their gap."""

    advantage: float
    ci99: float
    accept_fourier: float
    accept_uniform: float
    trials: int


def advantage(
    distinguisher,
    n: int,
    T: int,
    trials: int,
    rng: np.random.Generator,
) -> AdvantageResult:
    """|Pr[accept | fourier] - Pr[accept | uniform]| over fresh instances.

    The distinguisher is called once per instance with a ListOracle; its
    boolean return is tallied per case.  The reported ci99 combines the
    two per-case Wilson half-widths in quadrature.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    accepts = {c: 0 for c in CASES}
    for case in CASES:
        for _ in range(trials):
            inst = llqsv_instance(n, T, case, rng)
            if distinguisher(ListOracle(inst)):
                accepts[case] += 1
    p_f = accepts["fourier"] / trials
    p_u = accepts["uniform"] / trials
    hw_f = wilson_halfwidth(accepts["fourier"], trials)
    hw_u = wilson_halfwidth(accepts["uniform"], trials)
    return AdvantageResult(
        advantage=abs(p_f - p_u),
        ci99=float(np.hypot(hw_f, hw_u)),
        accept_fourier=p_f,
        accept_uniform=p_u,
        trials=trials,
    )


def constant_accept(oracle: ListOracle) -> bool:
    """Accepts everything; advantage exactly 0."""
    return True


@dataclass(frozen=True)
class ScoreSumDistinguisher:
    """White-box baseline: threshold the total sampled squared coefficient.

    Accepts when sum_i fhat_i(s_i)^2 > scale * T / N.  With scale between
    1 (uniform mean) and about 3 (fourier mean) this separates the cases
    almost perfectly once T is large — using full reads of every entry,
    which is exactly the access pattern the query lower bounds rule out.
    """

    scale: float = 2.0

    def __call__(self, oracle: ListOracle) -> bool:
        T = len(oracle)
        if T == 0:
            return False
        total = 0.0
        size = None
        for i in range(T):
            f = oracle.read_f(i)
            s = oracle.read_s(i)
            if size is None:
                size = f.size
            c = coefficient_at(f, s)
            total += c * c
        return total > self.scale * T / size


def s_only_parity(oracle: ListOracle) -> bool:
    """Reads only the s side; can have no advantage (uniform marginal)."""
    total = 0
    for i in range(len(oracle)):
        total ^= oracle.read_s(i)
    return bin(total).count("1") % 2 == 0


def agreement_weight(f: BooleanFunction, s: int) -> int:
    """Hamming weight of the +1 set of f * chi_s.

    Identity: agreement_weight(f, s) - N/2 = N * fhat(s) / 2, linking the
    long-list problem to balance checking of the product strings.
    """
    chi = character_values(f.n, s)
    return int(np.count_nonzero(f.values * chi == 1))


def to_llq1(llist: LongList) -> bytes:
    """Serialize: 'LLQ1', n u32 LE, T u32 LE, then per entry the function's
    BFN1 payload followed by s as u32 LE.  The case label is deliberately
    not stored."""
    T = len(llist)
    n = llist.n if T else 0
    out = [LLQ1_MAGIC, struct.pack("<II", n, T)]
    for f, s in llist.entries:
        out.append(to_bfn1(f))
        out.append(struct.pack("<I", s))
    return b"".join(out)


def from_llq1(data: bytes, case_label: str = "unknown") -> LongList:
    """Parse the LLQ1 wire format; the label must be supplied out of band.

    Only the canonical encoding is accepted: n = 0 exactly when T = 0,
    every record has the header's n and an index s below N, and the length
    is exactly what the header implies.
    """
    if len(data) < 12 or data[:4] != LLQ1_MAGIC:
        raise ValueError("bad magic: not an LLQ1 payload")
    n, T = struct.unpack("<II", data[4:12])
    if (n == 0) != (T == 0) or n > MAX_N:
        raise ValueError(f"bad LLQ1 header: n = {n}, T = {T}")
    size = 1 << n
    body = 8 + (size + 7) // 8 if T else 0  # BFN1 record length for this n
    if len(data) != 12 + T * (body + 4):
        raise ValueError("LLQ1 length does not match its header")
    entries = []
    for pos in range(12, len(data), body + 4):
        f = from_bfn1(data[pos:pos + body])
        (s,) = struct.unpack("<I", data[pos + body:pos + body + 4])
        if f.n != n or s >= size:
            raise ValueError(f"LLQ1 record at byte {pos} does not fit n = {n}")
        entries.append((f, s))
    return LongList(entries, case_label)

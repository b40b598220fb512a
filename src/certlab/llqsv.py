"""Long-list instance generator, LLQ1 serialization, and a
distinguisher-advantage harness.

A long-list instance is T pairs (f_i, s_i): every f_i is a fresh uniform
function, and s_i is either a uniform index (the null case) or an exact
Fourier sample from fhat_i^2 (the signal case).  Either way the marginal
of each s_i alone is uniform, so telling the cases apart requires relating
s_i to f_i.  Distinguishers get oracle-style indexed reads with a counter
and never see the case label; the harness scores their advantage
|Pr[accept | fourier] - Pr[accept | uniform]|.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .boolfn import (
    BFN1_MAGIC,
    MAX_N,
    random_functions_batch,
    scaled_at,
    wht_rows,
)
from .fouriersample import fourier_rows
from .stats import wilson_halfwidth

CASES = ("uniform", "fourier")
LLQ1_MAGIC = b"LLQ1"
_BATCH = 2048
DENSE_LIST_LIMIT = 1 << 28  # largest T * N (sign entries) held in memory


class BudgetExceeded(ValueError):
    """Raised when a dense list is beyond the in-memory budget."""


def _check_budget(n: int, T: int) -> None:
    if T * (1 << n) > DENSE_LIST_LIMIT:
        raise BudgetExceeded(
            f"T * N = {T} * 2^{n} sign entries exceeds the dense budget "
            f"2^{DENSE_LIST_LIMIT.bit_length() - 1}; use stream_llqsv instead"
        )


@dataclass(frozen=True, eq=False)
class LongList:
    """T pairs (f_i, s_i) as two read-only arrays plus the hidden case label.

    Row i of `tables` ((T, N) int8, entries +-1) is the sign table of f_i,
    and s[i] ((T,) int64, 0 <= s < N) is its sample index; both are kept
    as read-only views of the arrays passed in.  The label is
    harness-side bookkeeping only; hand distinguishers a ListOracle, never
    this object.
    """

    tables: np.ndarray
    s: np.ndarray
    case_label: str

    def __post_init__(self):
        if self.case_label not in CASES + ("unknown",):
            raise ValueError(f"unknown case label {self.case_label!r}")
        tables = np.asarray(self.tables)
        s = np.asarray(self.s)
        if tables.ndim != 2 or s.shape != tables.shape[:1]:
            raise ValueError("need a (T, N) table array and a (T,) s array")
        size = tables.shape[1]
        if len(s) and (size < 2 or size & (size - 1) or size > 1 << MAX_N):
            raise ValueError(f"row length {size} is not 2^n with n in 1..{MAX_N}")
        if len(s) and not np.issubdtype(s.dtype, np.integer):
            raise ValueError("s must hold integer indices")
        if not np.all(np.abs(tables) == 1):
            raise ValueError("table entries must all be +1 or -1")
        if len(s) and (s.min() < 0 or s.max() >= size):
            raise ValueError(f"every s must lie in 0..{size - 1}")
        tables = tables.astype(np.int8, copy=False).view()
        s = s.astype(np.int64, copy=False).view()
        tables.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "s", s)

    def __len__(self) -> int:
        return len(self.s)

    @property
    def n(self) -> int:
        if not len(self):
            raise ValueError("empty list has no n")
        return self.tables.shape[1].bit_length() - 1


class ListOracle:
    """Indexed read access to a LongList with a read counter.

    Distinguishers see only this interface; each f-read or s-read bumps
    `reads`, enabling query-budget experiments.
    """

    def __init__(self, llist: LongList):
        self._tables = llist.tables
        self._s = llist.s
        self.reads = 0

    def __len__(self) -> int:
        return len(self._s)

    def read_f(self, i: int) -> np.ndarray:
        """Sign table of f_i: a read-only int8 row of length N."""
        self.reads += 1
        return self._tables[i]

    def read_s(self, i: int) -> int:
        self.reads += 1
        return int(self._s[i])


def llqsv_instance(
    n: int, T: int, case: str, rng: np.random.Generator
) -> LongList:
    """Generate a long-list instance of the requested case.

    Dense only: T * N beyond the in-memory budget raises BudgetExceeded
    before anything is allocated (use stream_llqsv to consume longer lists
    block by block).
    """
    if case not in CASES:
        raise ValueError(f"case must be one of {CASES}")
    if T < 0:
        raise ValueError("T must be nonnegative")
    _check_budget(n, T)
    tables = np.empty((T, 1 << n), dtype=np.int8)
    s = np.empty(T, dtype=np.int64)
    done = 0
    for block, idx in stream_llqsv(n, T, case, rng):
        tables[done:done + len(idx)] = block
        s[done:done + len(idx)] = idx
        done += len(idx)
    return LongList(tables, s, case)


def stream_llqsv(n: int, T: int, case: str, rng: np.random.Generator):
    """Yield the list as blocks (tables, s) of up to _BATCH rows each."""
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
        yield tables, s
        done += b


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
        rows = np.stack([oracle.read_f(i) for i in range(T)])
        s = np.array([oracle.read_s(i) for i in range(T)], dtype=np.int64)
        W = scaled_at(rows, s)
        size = rows.shape[1]
        # sum_i fhat_i(s_i)^2 = sum_i W_i^2 / N^2, an exact integer sum
        total = float(np.dot(W, W)) / (size * size)
        return total > self.scale * T / size


def _record_head(n: int) -> np.ndarray:
    """The 8 bytes that open every LLQ1 record: BFN1 magic and n as u32 LE."""
    return np.frombuffer(BFN1_MAGIC + struct.pack("<I", n), dtype=np.uint8)


def to_llq1(llist: LongList) -> bytes:
    """Serialize: 'LLQ1', n u32 LE, T u32 LE, then per entry the function's
    BFN1 payload followed by s as u32 LE.  The case label is deliberately
    not stored."""
    T = len(llist)
    if T == 0:
        return LLQ1_MAGIC + struct.pack("<II", 0, 0)
    n = llist.n
    nbytes = ((1 << n) + 7) // 8
    body = np.empty((T, 12 + nbytes), dtype=np.uint8)
    body[:, :8] = _record_head(n)
    body[:, 8:8 + nbytes] = np.packbits(llist.tables < 0, axis=1,
                                        bitorder="little")
    body[:, 8 + nbytes:] = llist.s.astype("<u4").view(np.uint8).reshape(T, 4)
    return LLQ1_MAGIC + struct.pack("<II", n, T) + body.tobytes()


def from_llq1(data: bytes, case_label: str = "unknown") -> LongList:
    """Parse the LLQ1 wire format; the label must be supplied out of band.

    Only the canonical encoding is accepted: n = 0 exactly when T = 0,
    the length is exactly what the header implies, and every record has
    the header's BFN1 magic and n, zero padding bits when N < 8, and an
    index s below N.  A list past the dense budget raises BudgetExceeded.
    """
    if len(data) < 12 or data[:4] != LLQ1_MAGIC:
        raise ValueError("bad magic: not an LLQ1 payload")
    n, T = struct.unpack("<II", data[4:12])
    if (n == 0) != (T == 0) or n > MAX_N:
        raise ValueError(f"bad LLQ1 header: n = {n}, T = {T}")
    size = 1 << n
    nbytes = (size + 7) // 8
    rec = 12 + nbytes
    if len(data) != 12 + T * rec:
        raise ValueError("LLQ1 length does not match its header")
    _check_budget(n, T)
    body = np.frombuffer(data, dtype=np.uint8, offset=12).reshape(T, rec)
    packed = body[:, 8:8 + nbytes]
    s = body[:, 8 + nbytes:].copy().view("<u4")[:, 0]
    bad = np.any(body[:, :8] != _record_head(n), axis=1) | (s >= size)
    if size < 8:
        bad |= packed[:, 0] >> size != 0
    if bad.any():
        pos = 12 + int(np.argmax(bad)) * rec
        raise ValueError(f"LLQ1 record at byte {pos} does not fit n = {n}")
    bits = np.unpackbits(packed, axis=1, count=size, bitorder="little")
    return LongList(1 - 2 * bits.view(np.int8), s, case_label)

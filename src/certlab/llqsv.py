"""Long-list instance generator and LLQ1 serialization.

A long-list instance is T pairs (f_i, s_i): every f_i is a fresh uniform
function, and s_i is either a uniform index (the null case) or an exact
Fourier sample from fhat_i^2 (the signal case).  Either way the marginal
of each s_i alone is uniform, so telling the cases apart requires relating
s_i to f_i.  Neither the list nor its LLQ1 encoding carries the case.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .boolfn import BFN1_MAGIC, MAX_N, random_functions_batch
from .devices import DeviceModel
from .rng import blocks

CASES = ("uniform", "fourier")
LLQ1_MAGIC = b"LLQ1"
_BATCH = 2048
DENSE_LIST_LIMIT = 1 << 28  # largest T * N (sign entries) held in memory


class BudgetExceeded(ValueError):
    """Raised when a dense list is beyond the in-memory budget."""


def _check_budget(n: int, T: int) -> None:
    if T * (1 << n) > DENSE_LIST_LIMIT:
        raise BudgetExceeded(f"T * N = {T} * 2^{n} sign entries exceeds the "
                             f"dense budget 2^{DENSE_LIST_LIMIT.bit_length() - 1}")


@dataclass(frozen=True, eq=False)
class LongList:
    """T pairs (f_i, s_i) as two read-only arrays.

    Row i of `tables` ((T, N) int8, entries +-1) is the sign table of f_i,
    and s[i] ((T,) int64, 0 <= s < N) is its sample index; both are kept
    as read-only views of the arrays passed in.  The list does not carry
    its case.
    """

    tables: np.ndarray
    s: np.ndarray

    def __post_init__(self):
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


def llqsv_instance(
    n: int, T: int, case: str, rng: np.random.Generator
) -> LongList:
    """Generate a long-list instance of the requested case.

    Rows are drawn in blocks of _BATCH: each block's sign tables from
    random_functions_batch, then its answers from the honest device
    ("fourier") or the uniform one ("uniform"), via `answer_tables`.
    Dense only: T * N beyond the in-memory budget raises BudgetExceeded
    before anything is allocated.
    """
    if case not in CASES:
        raise ValueError(f"case must be one of {CASES}")
    if T < 0:
        raise ValueError("T must be nonnegative")
    _check_budget(n, T)
    device = DeviceModel("honest" if case == "fourier" else "uniform")
    tables = np.empty((T, 1 << n), dtype=np.int8)
    s = np.empty(T, dtype=np.int64)
    for start, b in blocks(T, _BATCH):
        rows = tables[start:start + b]
        rows[...] = random_functions_batch(n, b, rng)
        s[start:start + b] = device.answer_tables(rows, rng)[0]
    return LongList(tables, s)


def _record_head(n: int) -> np.ndarray:
    """The 8 bytes that open every LLQ1 record: BFN1 magic and n as u32 LE."""
    return np.frombuffer(BFN1_MAGIC + struct.pack("<I", n), dtype=np.uint8)


def to_llq1(llist: LongList) -> bytes:
    """Serialize: 'LLQ1', n u32 LE, T u32 LE, then per entry the function's
    BFN1 payload followed by s as u32 LE.  The case is deliberately not
    stored."""
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


def from_llq1(data: bytes) -> LongList:
    """Parse the LLQ1 wire format.

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
    return LongList(1 - 2 * bits.view(np.int8), s)

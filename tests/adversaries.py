"""Distinguishers of long lists and the harness that scores their advantage,
shared by the long-list tests and the acceptance gate.

A distinguisher sees a list only through a ListOracle, which counts its
reads and never reveals the case; `advantage` scores
|Pr[accept | fourier] - Pr[accept | uniform]| over fresh instances.
"""

from dataclasses import dataclass

import numpy as np

from certlab.boolfn import scaled_at
from certlab.llqsv import CASES, LongList, llqsv_instance
from certlab.stats import wilson_halfwidth


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


def constant_accept(oracle) -> bool:
    """Accepts everything; advantage exactly 0."""
    return True


def s_only_parity(oracle) -> bool:
    """Reads only the s side; can have no advantage (uniform marginal)."""
    total = 0
    for i in range(len(oracle)):
        total ^= oracle.read_s(i)
    return bin(total).count("1") % 2 == 0

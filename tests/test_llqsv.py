"""Long-list instances, serialization, and distinguishers.

The n=2 fourth-moment value 0.625 is recomputed here by exhaustive
enumeration over all 16 sign tables — that enumeration is the oracle the
Fourier-case sample statistic is compared against.  Per-entry
statistics and the LLQ1 layout are checked against references that
rebuild one BooleanFunction per entry (`entries`, `llq1_reference`).
"""

import itertools
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certlab import llqsv
from certlab.boolfn import BooleanFunction, coefficient_at, fourth_moment, to_bfn1, wht
from certlab.llqsv import (
    CASES,
    LLQ1_MAGIC,
    BudgetExceeded,
    ListOracle,
    LongList,
    ScoreSumDistinguisher,
    advantage,
    from_llq1,
    llqsv_instance,
    stream_llqsv,
    to_llq1,
)
from certlab.rng import make_rng
from adversaries import constant_accept, s_only_parity


def entries(inst) -> list:
    """The list as (BooleanFunction, int) pairs, one object per entry."""
    return [(BooleanFunction(inst.n, row), int(s))
            for row, s in zip(inst.tables, inst.s)]


def llq1_reference(inst) -> bytes:
    """Per-entry LLQ1 writer: header, then to_bfn1(f_i) and u32 s_i."""
    T = len(inst)
    out = [LLQ1_MAGIC, struct.pack("<II", inst.n if T else 0, T)]
    for f, s in entries(inst):
        out += [to_bfn1(f), struct.pack("<I", s)]
    return b"".join(out)


def same_entries(a, b) -> bool:
    return (len(a) == len(b) and np.array_equal(a.s, b.s)
            and (len(a) == 0 or np.array_equal(a.tables, b.tables)))


def exhaustive_fourth_moment_n2() -> float:
    """Mean of sum_z fhat(z)^4 over all 16 two-bit sign tables."""
    total = 0.0
    for signs in itertools.product([1, -1], repeat=4):
        f = BooleanFunction(2, np.array(signs, dtype=np.int8))
        total += fourth_moment(wht(f))
    return total / 16


def test_exhaustive_fourth_moment_oracle():
    # (3N - 2) / N^2 at N = 4
    assert exhaustive_fourth_moment_n2() == pytest.approx(0.625, abs=1e-12)


# ---------------------------------------------------------------- instances

def test_cases_are_fixed():
    assert CASES == ("uniform", "fourier")


def test_instance_shapes_and_stream_agreement():
    inst = llqsv_instance(4, 64, "fourier", make_rng(80, 0))
    assert len(inst) == 64 and inst.n == 4
    assert inst.tables.shape == (64, 16) and inst.tables.dtype == np.int8
    assert inst.s.shape == (64,) and inst.s.dtype == np.int64
    assert inst.case_label == "fourier"
    assert not inst.tables.flags.writeable and not inst.s.flags.writeable
    # blocks of 2048 rows, concatenated by llqsv_instance
    inst = llqsv_instance(3, 4097, "fourier", make_rng(80, 0))
    blocks = list(stream_llqsv(3, 4097, "fourier", make_rng(80, 0)))
    assert [len(s) for _, s in blocks] == [2048, 2048, 1]
    assert np.array_equal(np.concatenate([t for t, _ in blocks]), inst.tables)
    assert np.array_equal(np.concatenate([s for _, s in blocks]), inst.s)


@pytest.mark.parametrize("tables, s", [
    (np.ones((2, 6), np.int8), np.zeros(2)),          # N not a power of two
    (np.ones((2, 8), np.int8), np.zeros(3)),          # T mismatch
    (np.zeros((2, 8), np.int8), np.zeros(2)),         # 0 is not a sign
    (np.full((2, 8), 3), np.zeros(2)),                # nor is 3
    (np.ones((2, 8), np.int8), np.array([0, 8])),     # s = N
    (np.ones((2, 8), np.int8), np.array([-1, 0])),    # s < 0
    (np.ones((2, 8), np.int8), np.array([0.0, 1.0])),  # s not integer
])
def test_long_list_validates_arrays(tables, s):
    with pytest.raises(ValueError):
        LongList(tables, s, "unknown")


def test_fourier_case_mean_tracks_fourth_moment():
    inst = llqsv_instance(2, 5000, "fourier", make_rng(80, 1))
    stat = float(np.mean([coefficient_at(f, s) ** 2 for f, s in entries(inst)]))
    assert stat == pytest.approx(exhaustive_fourth_moment_n2(), abs=0.02)


def test_uniform_case_mean_is_one_over_n():
    inst = llqsv_instance(4, 5000, "uniform", make_rng(80, 2))
    stat = float(np.mean([coefficient_at(f, s) ** 2 for f, s in entries(inst)]))
    assert stat == pytest.approx(1 / 16, abs=0.01)


def test_samples_stay_in_range():
    inst = llqsv_instance(5, 200, "fourier", make_rng(80, 3))
    assert np.all((0 <= inst.s) & (inst.s < 32))


def test_long_list_budget_cap(monkeypatch):
    # T * N = 17 * 2^24 > 2^28: refused before the 285 MB tables exist
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            llqsv_instance(24, 17, "uniform", make_rng(80, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the budget counts sign entries T * N, inclusive
    monkeypatch.setattr(llqsv, "DENSE_LIST_LIMIT", 1 << 10)
    assert len(llqsv_instance(4, 64, "uniform", make_rng(80, 5))) == 64
    with pytest.raises(BudgetExceeded):
        llqsv_instance(4, 65, "uniform", make_rng(80, 5))
    with pytest.raises(BudgetExceeded):
        from_llq1(to_llq1(llqsv_instance(5, 33, "uniform", make_rng(80, 6))))


# ---------------------------------------------------------------- oracle access

def test_list_oracle_counts_reads():
    inst = llqsv_instance(3, 10, "uniform", make_rng(81, 0))
    orc = ListOracle(inst)
    assert orc.reads == 0
    f = orc.read_f(2)
    s = orc.read_s(2)
    orc.read_f(5)
    assert orc.reads == 3
    assert np.array_equal(f, inst.tables[2]) and not f.flags.writeable
    assert s == inst.s[2] and type(s) is int


# ---------------------------------------------------------------- serialization

@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=30))
@settings(max_examples=25, deadline=None)
def test_llq1_roundtrip(n, t):
    inst = llqsv_instance(n, t, "fourier", make_rng(82, n * 31 + t))
    blob = to_llq1(inst)
    back = from_llq1(blob, case_label="fourier")
    assert len(back) == t
    assert same_entries(back, inst)


@pytest.mark.parametrize("n", range(1, 9))
def test_llq1_matches_per_entry_writer(n):
    # T around the 2048-row generation block and twice it
    for T in (0, 1, 2047, 2048, 2049, 4097):
        inst = llqsv_instance(n, T, CASES[n % 2], make_rng(82, n, T))
        blob = to_llq1(inst)
        assert blob == llq1_reference(inst)
        back = from_llq1(blob)
        assert same_entries(back, inst) and back.case_label == "unknown"


@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=4),
       st.sampled_from(CASES), st.data())
@settings(max_examples=300, deadline=None)
def test_llq1_accepts_only_canonical_bytes(n, t, case, data):
    # a parse either fails with ValueError or re-encodes to the same bytes
    blob = to_llq1(llqsv_instance(n, t, case, make_rng(83, n * 31 + t)))
    assert to_llq1(from_llq1(blob)) == blob
    pos = data.draw(st.integers(0, len(blob) - 1))
    kind = data.draw(st.sampled_from(["replace", "insert", "delete"]))
    if kind == "delete":
        bad = blob[:pos] + blob[pos + 1:]
    else:
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]))
        bad = blob[:pos] + bytes([byte]) + blob[pos + (kind == "replace"):]
    try:
        back = from_llq1(bad)
    except ValueError:
        return
    assert to_llq1(back) == bad


def test_llq1_rejects_noncanonical_headers_and_records():
    blob = to_llq1(llqsv_instance(2, 1, "uniform", make_rng(83, 0)))
    n_is_1 = blob[:4] + bytes([1]) + blob[5:]           # record still says n=2
    big_s = blob[:-4] + (4).to_bytes(4, "little")        # s = N
    empty_with_n = LLQ1_MAGIC + bytes([2, 0, 0, 0, 0, 0, 0, 0])
    huge_t = blob[:8] + (1 << 31).to_bytes(4, "little") + blob[12:]
    padding = blob[:20] + bytes([blob[20] | 0x80]) + blob[21:]  # N = 4 < 8
    for bad in (n_is_1, big_s, empty_with_n, huge_t, padding):
        with pytest.raises(ValueError):
            from_llq1(bad)


def test_llq1_header_layout():
    inst = llqsv_instance(3, 2, "uniform", make_rng(82, 0))
    blob = to_llq1(inst)
    assert blob[:4] == LLQ1_MAGIC
    import struct

    n, t = struct.unpack("<II", blob[4:12])
    assert (n, t) == (3, 2)


def test_llq1_rejects_trailing_garbage():
    inst = llqsv_instance(3, 2, "uniform", make_rng(82, 1))
    with pytest.raises(ValueError):
        from_llq1(to_llq1(inst) + b"\x00")
    with pytest.raises(ValueError):
        from_llq1(b"XXXX" + to_llq1(inst)[4:])


# ---------------------------------------------------------------- distinguishers

@pytest.mark.parametrize("seed", range(4))
def test_score_sum_distinguisher_matches_per_entry_oracle(seed):
    for case in CASES:
        inst = llqsv_instance(6, 1000, case, make_rng(84, 5, seed))
        total = 0.0
        for f, s in entries(inst):
            total += coefficient_at(f, s) ** 2
        # the last scale puts the bar on the oracle's total itself
        for scale in (1.0, 2.0, 3.0, total * 64 / 1000):
            orc = ListOracle(inst)
            assert ScoreSumDistinguisher(scale)(orc) == (total > scale * 1000 / 64)
            assert orc.reads == 2000


def test_score_sum_distinguisher_separates_cases():
    res = advantage(ScoreSumDistinguisher(), 6, 1000, 10, make_rng(84, 1))
    assert res.advantage >= 0.9
    assert res.accept_fourier > res.accept_uniform


def test_constant_distinguisher_has_no_advantage():
    res = advantage(constant_accept, 4, 100, 8, make_rng(84, 2))
    assert res.advantage == 0.0


def test_s_only_distinguisher_is_blind():
    # the s marginal is exactly uniform in both cases, so any s-only rule
    # has zero advantage in law
    res = advantage(s_only_parity, 6, 500, 20, make_rng(84, 3))
    assert abs(res.advantage) <= res.ci99 + 0.05


def test_advantage_reports_both_acceptance_rates():
    res = advantage(constant_accept, 4, 50, 4, make_rng(84, 4))
    assert res.accept_fourier == 1.0
    assert res.accept_uniform == 1.0
    assert res.trials == 4

